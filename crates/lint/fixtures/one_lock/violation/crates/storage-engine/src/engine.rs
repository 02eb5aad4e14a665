//! Seeded-violation fixture: the engine reaching back up to the handle that
//! locks it.  Naming [`ConcurrentEngine`] in a doc comment is fine.

pub struct Engine {
    parent: Option<std::sync::Weak<crate::concurrent::ConcurrentEngine>>,
}
