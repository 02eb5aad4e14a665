//! Ablation studies of the design choices that ROADMAP item 5's attribution
//! ladders split into rungs: dead-page hints, GC victim-selection policy,
//! over-provisioning and FASTer's second chance.
//!
//! Usage: `cargo run --release -p noftl-bench --bin ablation`

use noftl_bench::ablation::{
    ablate_dead_page_hints, ablate_faster_second_chance, ablate_gc_policy,
    ablate_over_provisioning, render_rows,
};

fn main() {
    let (pages, overwrites) = (5_500, 9_000);
    eprintln!("running ablations over a {pages}-page database with {overwrites} skewed overwrites...");
    print!(
        "{}",
        render_rows(
            "Ablation 1: DBMS dead-page hints (the information an FTL never sees)",
            &ablate_dead_page_hints(pages, overwrites)
        )
    );
    print!(
        "{}",
        render_rows(
            "Ablation 2: GC victim selection policy",
            &ablate_gc_policy(pages, overwrites)
        )
    );
    print!(
        "{}",
        render_rows(
            "Ablation 3: over-provisioning ratio",
            &ablate_over_provisioning(pages, overwrites)
        )
    );
    print!(
        "{}",
        render_rows(
            "Ablation 4: FASTer second chance (vs plain FAST)",
            &ablate_faster_second_chance(pages, overwrites)
        )
    );
}
