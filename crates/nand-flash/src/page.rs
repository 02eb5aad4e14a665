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

/// A physical page: state, optional user data and OOB metadata.
///
/// Data storage is optional (`DeviceConfig::store_data`): trace-driven GC
/// experiments only need command accounting, and skipping the 4 KiB copies
/// keeps multi-gigabyte simulated devices cheap.
#[derive(Debug, Clone)]
pub struct Page {
    /// Current lifecycle state.
    pub state: PageState,
    /// Page contents, present only when the device stores data.
    pub data: Option<Box<[u8]>>,
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

    /// Reset to the erased state, handing back the data buffer (if any) so
    /// the device can reuse it for a later program.
    pub fn erase(&mut self) -> Option<Box<[u8]>> {
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
        p.data = Some(vec![1, 2, 3].into_boxed_slice());
        p.oob = Oob::data(7, 9);
        p.erase();
        assert!(p.is_free());
        assert!(p.data.is_none());
        assert!(!p.oob.has_lpn());
    }
}
