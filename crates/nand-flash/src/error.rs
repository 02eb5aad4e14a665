//! Error type of the native Flash interface.

use crate::addr::{BlockAddr, DieAddr, Ppa};

/// Result alias used throughout the Flash layers.
pub type FlashResult<T> = Result<T, FlashError>;

/// Errors surfaced by the NAND device model.
///
/// Most of these correspond to *protocol violations* a real NAND chip would
/// either reject or silently corrupt data on — the simulator turns them into
/// hard errors so FTL/NoFTL bugs are caught immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Address lies outside the device geometry.
    InvalidAddress {
        /// Human-readable description of the offending address.
        what: String,
    },
    /// Attempt to program a page that has already been programmed since the
    /// last erase of its block.
    ProgramOnDirtyPage(Ppa),
    /// Attempt to program pages of a block out of order (NAND requires
    /// sequential page programming within an erase block).
    NonSequentialProgram {
        /// The page that was attempted.
        attempted: Ppa,
        /// The next page index the block expects.
        expected_page: u32,
    },
    /// Attempt to read a page that has never been programmed (or was erased).
    ReadOfUnwrittenPage(Ppa),
    /// Operation addressed to a factory or grown bad block.
    BadBlock(BlockAddr),
    /// The block exceeded its program/erase endurance and failed.
    WornOut(BlockAddr),
    /// Copyback source and destination must be on the same plane.
    CopybackPlaneMismatch {
        /// Source physical page.
        src: Ppa,
        /// Destination physical page.
        dst: Ppa,
    },
    /// Data buffer length does not match the page size.
    BufferSizeMismatch {
        /// Expected number of bytes (the page size).
        expected: usize,
        /// Buffer length that was supplied.
        actual: usize,
    },
    /// An uncorrectable bit error was injected on read (ECC failure).
    UncorrectableEcc(Ppa),
    /// A PAGE PROGRAM reported failure (injected by the fault plan).  The
    /// attempted page is consumed; the block should be retired after its
    /// still-valid pages are relocated.
    ProgramFailed(Ppa),
    /// A BLOCK ERASE reported failure (injected by the fault plan); the
    /// block is marked grown-bad.
    EraseFailed(BlockAddr),
    /// The die failed permanently — injected by a
    /// deterministic [`crate::fault::KillSpec`].  Every subsequent command
    /// addressed to the die is rejected with this error; queued commands
    /// still in flight on it are lost (counted in
    /// [`crate::FlashStats::inflight_die_failures`]).
    /// Data on the die is unrecoverable from the device itself; only
    /// host-side redundancy (mirroring, parity stripes) can reconstruct it.
    DieFailed(DieAddr),
    /// The device ran out of spare blocks to remap grown bad blocks.
    OutOfSpareBlocks,
    /// The stack reported transient overload (a BUSY status): the request was
    /// deliberately shed by admission control rather than queued without
    /// bound.  Retrying later — after in-flight work drains — is expected to
    /// succeed; no data was lost or corrupted.
    Busy,
}

/// `Ok` when a data buffer of `len` bytes is exactly one page of `page_size`
/// bytes — the precondition of every page-granularity read and write, at
/// every layer (device, FTLs, NoFTL).
pub fn check_buf(len: usize, page_size: usize) -> FlashResult<()> {
    if len == page_size {
        Ok(())
    } else {
        Err(FlashError::BufferSizeMismatch {
            expected: page_size,
            actual: len,
        })
    }
}

/// `Ok` when `lpn` addresses one of the `logical_pages` logical pages a
/// Flash-management layer (an FTL or NoFTL) exports.
pub fn check_lpn(lpn: u64, logical_pages: u64) -> FlashResult<()> {
    if lpn < logical_pages {
        Ok(())
    } else {
        Err(FlashError::InvalidAddress {
            what: format!("logical page {lpn} out of range (capacity {logical_pages})"),
        })
    }
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::InvalidAddress { what } => write!(f, "invalid flash address: {what}"),
            FlashError::ProgramOnDirtyPage(ppa) => {
                write!(f, "program on already-programmed page {ppa:?}")
            }
            FlashError::NonSequentialProgram {
                attempted,
                expected_page,
            } => write!(
                f,
                "non-sequential program: attempted {attempted:?}, block expects page {expected_page}"
            ),
            FlashError::ReadOfUnwrittenPage(ppa) => {
                write!(f, "read of unwritten page {ppa:?}")
            }
            FlashError::BadBlock(b) => write!(f, "operation on bad block {b:?}"),
            FlashError::WornOut(b) => write!(f, "block {b:?} exceeded its P/E endurance"),
            FlashError::CopybackPlaneMismatch { src, dst } => {
                write!(f, "copyback plane mismatch: {src:?} -> {dst:?}")
            }
            FlashError::BufferSizeMismatch { expected, actual } => {
                write!(f, "buffer size mismatch: expected {expected}, got {actual}")
            }
            FlashError::UncorrectableEcc(ppa) => {
                write!(f, "uncorrectable ECC error reading {ppa:?}")
            }
            FlashError::ProgramFailed(ppa) => {
                write!(f, "program failure on page {ppa:?} (page consumed, retire the block)")
            }
            FlashError::EraseFailed(b) => {
                write!(f, "erase failure on block {b:?} (block marked grown-bad)")
            }
            FlashError::DieFailed(d) => {
                write!(f, "die {d:?} failed permanently (commands rejected)")
            }
            FlashError::OutOfSpareBlocks => write!(f, "device out of spare blocks"),
            FlashError::Busy => write!(f, "stack overloaded (request shed; retry later)"),
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ppa;

    #[test]
    fn errors_format_usefully() {
        let e = FlashError::ProgramOnDirtyPage(Ppa::new(0, 1, 0, 2, 3));
        let s = e.to_string();
        assert!(s.contains("already-programmed"));

        let e = FlashError::BufferSizeMismatch {
            expected: 4096,
            actual: 512,
        };
        assert!(e.to_string().contains("4096"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&FlashError::OutOfSpareBlocks);
    }
}
