//! Clean fixture central knob module: both knobs parsed here, the
//! environment read in `from_env` alone, and both knobs set by the
//! fixture CI steps and listed in its ROADMAP table.

pub struct StackConfig {
    pub batch: bool,
    pub trace: bool,
}

impl StackConfig {
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let on = |name: &str| lookup(name).as_deref() == Some("on");
        Self {
            batch: on("NOFTL_BATCH"),
            trace: on("NOFTL_TRACE"),
        }
    }

    pub fn from_env() -> Self {
        Self::parse(|name| std::env::var(name).ok())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_set_knobs_and_read_them_through_from_env() {
        std::env::set_var("NOFTL_BATCH", "on");
        assert!(super::StackConfig::from_env().batch);
    }
}
