//! Clean fixture: device-facing code with no panic paths — errors are
//! typed, justified allows carry reasons, and test code may panic freely.

fn read(page: u64) -> Result<Vec<u8>, FlashError> {
    let data = fetch(page)?;
    Ok(data)
}

fn checked(config: &Config) -> Result<Device, FlashError> {
    config
        .geometry
        .validate()
        // lint:allow(panic-path): construction-time configuration check —
        // no device I/O has happened yet.
        .expect("invalid geometry");
    Device::build(config)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v = super::read(0).unwrap();
        assert!(!v.is_empty());
        let first = super::fetch(1).expect("fixture page");
        assert_eq!(first.len(), v.len());
    }
}
