//! The legacy block-device interface (Figure 1.a / 1.b of the paper).
//!
//! A [`BlockDevice`] exposes only `READ(logical block)` / `WRITE(logical
//! block)` — exactly the interface that hides the native behaviour of Flash.
//! [`FtlBlockDevice`] puts any [`Ftl`] behind that interface; this is the
//! "conventional Flash SSD" the paper compares NoFTL against.

use nand_flash::{FlashResult, NativeFlashInterface, OpCompletion};
use sim_utils::time::SimInstant;

use crate::traits::Ftl;

/// A device addressed by logical block (= page-sized sector) numbers.
pub trait BlockDevice {
    /// Size of one logical block in bytes.
    fn block_size(&self) -> usize;

    /// Number of logical blocks exported.
    fn num_blocks(&self) -> u64;

    /// Read logical block `lba` into `buf`.
    fn read_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion>;

    /// Write logical block `lba` from `data`.
    fn write_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion>;

    /// Discard logical block `lba` (TRIM); optional, default no-op.
    fn trim_block(&mut self, _now: SimInstant, _lba: u64) -> FlashResult<()> {
        Ok(())
    }
}

/// A block device backed by an FTL over NAND Flash — i.e. a conventional SSD.
pub struct FtlBlockDevice<F: Ftl> {
    ftl: F,
}

impl<F: Ftl> FtlBlockDevice<F> {
    /// Wrap an FTL behind the legacy block interface.
    pub fn new(ftl: F) -> Self {
        Self { ftl }
    }

    /// Borrow the wrapped FTL (for statistics inspection).
    pub fn ftl(&self) -> &F {
        &self.ftl
    }
}

impl<F: Ftl> BlockDevice for FtlBlockDevice<F> {
    fn block_size(&self) -> usize {
        self.ftl.device().geometry().page_size as usize
    }

    fn num_blocks(&self) -> u64 {
        self.ftl.logical_pages()
    }

    fn read_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        self.ftl.read(now, lba, buf)
    }

    fn write_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.ftl.write(now, lba, data)
    }

    fn trim_block(&mut self, now: SimInstant, lba: u64) -> FlashResult<()> {
        self.ftl.trim(now, lba)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_ftl::PageFtl;
    use nand_flash::FlashGeometry;

    #[test]
    fn ftl_block_device_delegates() {
        let ftl = PageFtl::with_geometry(FlashGeometry::small());
        let mut dev = FtlBlockDevice::new(ftl);
        assert_eq!(dev.block_size(), 4096);
        assert!(dev.num_blocks() > 0);
        let data = vec![0x11u8; 4096];
        dev.write_block(0, 5, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        dev.read_block(0, 5, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(dev.ftl().ftl_stats().host_writes, 1);
        dev.trim_block(0, 5).unwrap();
        assert!(dev.read_block(0, 5, &mut buf).is_err());
    }

    #[test]
    fn block_device_is_object_safe() {
        let ftl = PageFtl::with_geometry(FlashGeometry::tiny());
        let mut boxed: Box<dyn BlockDevice> = Box::new(FtlBlockDevice::new(ftl));
        let data = vec![1u8; boxed.block_size()];
        boxed.write_block(0, 0, &data).unwrap();
        let mut buf = vec![0u8; boxed.block_size()];
        boxed.read_block(0, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}
