//! Violation fixture central knob module: registers two knobs; the fixture
//! CI names NOFTL_TRACE but never sets it, the fixture ROADMAP misses
//! NOFTL_BATCH; `trace_from_env` is a second env-reading function.

pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> (bool, bool) {
    let on = |name: &str| lookup(name).as_deref() == Some("on");
    (on("NOFTL_BATCH"), on("NOFTL_TRACE"))
}

pub fn from_env() -> (bool, bool) {
    parse(|name| std::env::var(name).ok())
}

pub fn trace_from_env() -> bool {
    // Rule 1 violation: a second function of the central module reads env.
    matches!(std::env::var("NOFTL_TRACE").as_deref(), Ok("on"))
}
