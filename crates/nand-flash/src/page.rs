//! Physical page state.

use crate::oob::Oob;

/// Lifecycle state of a physical page, as seen by Flash-management layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Erased and never programmed since the last block erase.
    Free,
    /// Programmed and holding the current version of some logical content.
    Valid,
    /// Programmed but superseded (its logical page was rewritten elsewhere)
    /// or explicitly invalidated by the host; reclaimable by GC.
    Invalid,
}

/// A physical page: state, the slot holding its user data, and OOB metadata.
///
/// The bytes live in the device's page store: PAGE PROGRAM copies the lines
/// that differ from the page's fill byte into a slot of their own, and
/// COPYBACK and `NandDevice::copy_page` give their destination the source's
/// slot, so pages that share a slot hold the same bytes (a programmed page never changes before its
/// block is erased).  Data storage is optional
/// (`DeviceConfig::store_data`): trace-driven GC experiments only need
/// command accounting, and skipping the page copies keeps multi-gigabyte
/// simulated devices cheap.  A page (and so a block or a die) is not
/// `Clone`: a copy would hold a slot without counting it.
#[derive(Debug)]
pub struct Page {
    /// Current lifecycle state.
    pub state: PageState,
    /// The page-store slot holding the contents, present only when the
    /// device stores data.
    pub(crate) data: Option<u32>,
    /// OOB metadata written together with the page.
    pub oob: Oob,
}

impl Page {
    /// A freshly erased page.
    pub fn erased() -> Self {
        Self {
            state: PageState::Free,
            data: None,
            oob: Oob::default(),
        }
    }

    /// Reset to the erased state, handing back the page-store slot (if any)
    /// for the device to release.
    pub(crate) fn erase(&mut self) -> Option<u32> {
        self.state = PageState::Free;
        self.oob = Oob::default();
        self.data.take()
    }

    /// Whether the page may be programmed.
    pub fn is_free(&self) -> bool {
        self.state == PageState::Free
    }

    /// Whether the page holds live content.
    pub fn is_valid(&self) -> bool {
        self.state == PageState::Valid
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::erased()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erased_page_is_free() {
        let p = Page::erased();
        assert!(p.is_free());
        assert!(!p.is_valid());
        assert!(p.data.is_none());
    }

    #[test]
    fn erase_clears_everything() {
        let mut p = Page::erased();
        p.state = PageState::Valid;
        p.data = Some(3);
        p.oob = Oob::data(7, 9);
        assert_eq!(p.erase(), Some(3));
        assert!(p.is_free());
        assert!(p.data.is_none());
        assert!(!p.oob.has_lpn());
    }
}
