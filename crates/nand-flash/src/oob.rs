//! Out-of-band (spare area) page metadata.
//!
//! The native Flash interface lets the host "handle page metadata" (paper,
//! Figure 2): each programmed page carries a small record in the spare area
//! that the Flash-management layer (FTL or NoFTL) uses to rebuild its mapping
//! after a restart and to decide which pages are live during GC.

/// What kind of content a physical page holds — the host-defined tag stored
/// in the spare area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[derive(Default)]
pub enum PageKind {
    /// Regular user data page (a database page).
    #[default]
    Data,
    /// FTL translation page (used by DFTL's cached mapping scheme).
    Translation,
    /// Log/journal page (used by log-block FTLs and the WAL).
    Log,
    /// Device or FTL metadata (checkpoints of mapping tables, superblocks).
    Meta,
}


/// Out-of-band metadata record programmed together with a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oob {
    /// Logical page number this physical page stores (u64::MAX = none).
    pub lpn: u64,
    /// Monotonic write sequence number, used to find the newest version of a
    /// logical page during recovery scans.
    pub sequence: u64,
    /// Content tag.
    pub kind: PageKind,
}

impl Oob {
    /// Sentinel LPN meaning "no logical page" (e.g. padding pages).
    pub const NO_LPN: u64 = u64::MAX;

    /// Metadata for a data page holding logical page `lpn`, written as the
    /// `sequence`-th page overall.
    pub fn data(lpn: u64, sequence: u64) -> Self {
        Self {
            lpn,
            sequence,
            kind: PageKind::Data,
        }
    }

    /// Metadata for a translation page (DFTL).
    pub fn translation(virtual_translation_page: u64, sequence: u64) -> Self {
        Self {
            lpn: virtual_translation_page,
            sequence,
            kind: PageKind::Translation,
        }
    }

    /// Metadata for a log page.
    pub fn log(lpn: u64, sequence: u64) -> Self {
        Self {
            lpn,
            sequence,
            kind: PageKind::Log,
        }
    }

    /// Metadata for an FTL/device metadata page.
    pub fn meta(sequence: u64) -> Self {
        Self {
            lpn: Self::NO_LPN,
            sequence,
            kind: PageKind::Meta,
        }
    }

    /// Whether this OOB record refers to a real logical page.
    pub fn has_lpn(&self) -> bool {
        self.lpn != Self::NO_LPN
    }
}

impl Default for Oob {
    fn default() -> Self {
        Self {
            lpn: Self::NO_LPN,
            sequence: 0,
            kind: PageKind::Data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(Oob::data(1, 2).kind, PageKind::Data);
        assert_eq!(Oob::translation(1, 2).kind, PageKind::Translation);
        assert_eq!(Oob::log(1, 2).kind, PageKind::Log);
        assert_eq!(Oob::meta(2).kind, PageKind::Meta);
    }

    #[test]
    fn meta_has_no_lpn() {
        assert!(!Oob::meta(0).has_lpn());
        assert!(Oob::data(5, 0).has_lpn());
    }

    #[test]
    fn default_is_empty() {
        let oob = Oob::default();
        assert!(!oob.has_lpn());
        assert_eq!(oob.sequence, 0);
    }
}
