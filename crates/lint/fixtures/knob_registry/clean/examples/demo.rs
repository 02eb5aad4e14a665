//! Clean fixture example: `from_env()` is called in `main`.

fn main() {
    let knobs = storage_engine::backend::StackConfig::from_env();
    println!("batching {}", knobs.batch);
}
