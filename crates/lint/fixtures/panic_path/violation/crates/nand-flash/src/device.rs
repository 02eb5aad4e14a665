//! Seeded-violation fixture: one of each banned panic construct in
//! non-test device code, plus a reasonless allow that must not suppress.

fn read(page: u64) -> Vec<u8> {
    fetch(page).unwrap()
}

fn geometry(config: &Config) -> Geometry {
    config.geometry.validate().expect("invalid geometry")
}

fn dispatch(kind: OpKind) -> u32 {
    match kind {
        OpKind::Read => 1,
        OpKind::Program => 2,
        _ => unreachable!(),
    }
}

fn abort_on_fault() {
    panic!("device fault");
}

fn reasonless(dev: &mut Device) -> Completion {
    // lint:allow(panic-path)
    dev.next_completion().unwrap()
}
