//! Violation fixture smoke test: reads a knob raw, bypassing the parser.

#[test]
fn smoke_reads_the_environment_itself() {
    // Rule 1 violation: test code is not exempt.
    let faults = std::env::var("NOFTL_BATCH").is_ok_and(|v| v != "0");
    assert!(faults || !faults);
}
