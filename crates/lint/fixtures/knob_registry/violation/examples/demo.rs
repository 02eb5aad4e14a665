//! Violation fixture example: reads a knob raw instead of `from_env()`.

fn main() {
    // Rule 1 violation: examples are not exempt.
    let on = std::env::var_os("NOFTL_BATCH").is_some();
    println!("batching {on}");
}
