//! Figure 4 reproduction: transactional throughput of TPC-C / TPC-B with
//! die-wise striping and either *global* or *die-wise* association of
//! db-writers, as the number of NAND dies (= number of db-writers) grows.
//!
//! The companion queue-depth sweep ([`run_depth_link_sweep`]) reproduces the
//! §3.2 NCQ-vs-native host-link argument as a figure table: the same
//! flush-wave-plus-point-reads burst, swept over `NOFTL_ASYNC`-style per-die
//! queue depths behind a SATA2-NCQ link (32 outstanding commands, 20 µs
//! protocol overhead) and a native link (1024 outstanding, 2 µs).

use flash_emulator::{EmulatedNativeFlash, HostLink};
use nand_flash::{BlockAddr, DeviceConfig, FlashGeometry, NandDevice, Oob, Ppa};
use noftl_core::FlusherAssignment;
use storage_engine::backend::StackConfig;

use crate::setup::{run_live, Benchmark, Stack};

/// One measured point of Figure 4.
#[derive(Debug, Clone)]
pub struct DbWriterPoint {
    /// Number of NAND dies = number of db-writers.
    pub dies: u32,
    /// Writer-to-region assignment.
    pub assignment: FlusherAssignment,
    /// Measured throughput (transactions per virtual second).
    pub tps: f64,
    /// Mean transaction response time (ms).
    pub response_ms: f64,
}

/// Result of the experiment for one benchmark.
#[derive(Debug, Clone)]
pub struct DbWriterScaling {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured points (both assignments, every die count).
    pub points: Vec<DbWriterPoint>,
}

impl DbWriterScaling {
    /// TPS for a specific configuration.
    pub fn tps(&self, dies: u32, assignment: FlusherAssignment) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.dies == dies && p.assignment == assignment)
            .map(|p| p.tps)
    }

    /// Speedup of die-wise over global association at a given die count.
    pub fn speedup(&self, dies: u32) -> Option<f64> {
        let global = self.tps(dies, FlusherAssignment::Global)?;
        let die_wise = self.tps(dies, FlusherAssignment::DieWise)?;
        (global > 0.0).then(|| die_wise / global)
    }
}

/// Run one point under `knobs`: `dies` dies, `dies` db-writers, the given
/// assignment.  The drive's total capacity is fixed and split over the dies,
/// as in the paper's fixed 10 GB drive.
pub fn run_point(
    knobs: &StackConfig,
    benchmark: Benchmark,
    dies: u32,
    assignment: FlusherAssignment,
    clients: usize,
) -> DbWriterPoint {
    let report = run_live(knobs, benchmark, Stack::NoFtl, dies, assignment, clients);
    DbWriterPoint {
        dies,
        assignment,
        tps: report.tps,
        response_ms: report.mean_response_ms(),
    }
}

/// Run the full Figure 4 sweep for one benchmark under `knobs`.
pub fn run_dbwriter_scaling(
    knobs: &StackConfig,
    benchmark: Benchmark,
    die_counts: &[u32],
) -> DbWriterScaling {
    // The paper uses 16 read processes.
    let clients = 16;
    let mut points = Vec::new();
    for &dies in die_counts {
        for assignment in [FlusherAssignment::Global, FlusherAssignment::DieWise] {
            points.push(run_point(knobs, benchmark, dies, assignment, clients));
        }
    }
    DbWriterScaling {
        benchmark: benchmark.name().to_string(),
        points,
    }
}

/// Render the sweep in the layout of Figure 4.
pub fn render_table(result: &DbWriterScaling) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 4: {} throughput, die-wise striping, global vs die-wise db-writer association\n",
        result.benchmark
    ));
    out.push_str(&format!(
        "{:>6} {:>16} {:>16} {:>10}\n",
        "dies", "global TPS", "die-wise TPS", "speedup"
    ));
    let mut die_counts: Vec<u32> = result.points.iter().map(|p| p.dies).collect();
    die_counts.sort_unstable();
    die_counts.dedup();
    for dies in die_counts {
        let global = result.tps(dies, FlusherAssignment::Global).unwrap_or(0.0);
        let die_wise = result.tps(dies, FlusherAssignment::DieWise).unwrap_or(0.0);
        let speedup = result.speedup(dies).unwrap_or(0.0);
        out.push_str(&format!(
            "{:>6} {:>16.1} {:>16.1} {:>9.2}x\n",
            dies, global, die_wise, speedup
        ));
    }
    out.push_str("\n(paper: die-wise association up to 1.5x for TPC-C, 1.43x for TPC-B; gap grows with die count)\n");
    out
}

/// One measured point of the queue-depth × host-link sweep.
#[derive(Debug, Clone)]
pub struct DepthLinkPoint {
    /// Per-die queue depth (the `NOFTL_ASYNC` axis).
    pub depth: usize,
    /// Host-link name ("sata2-ncq" or "native").
    pub link: &'static str,
    /// Virtual duration of the measured burst (ns).
    pub virtual_ns: u64,
    /// Time commands spent waiting for a host queue slot (ns) — the NCQ
    /// bottleneck itself, isolated.
    pub link_queue_wait_ns: u64,
}

/// Result of the queue-depth × host-link sweep.
#[derive(Debug, Clone)]
pub struct DepthLinkSweep {
    /// Number of NAND dies.
    pub dies: u32,
    /// Pages per die in each wave of the burst.
    pub pages_per_die: u32,
    /// Measured points (every depth, both links).
    pub points: Vec<DepthLinkPoint>,
}

impl DepthLinkSweep {
    /// Virtual time for a specific configuration.
    pub fn virtual_ns(&self, depth: usize, link: &str) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.depth == depth && p.link == link)
            .map(|p| p.virtual_ns)
    }

    /// Speedup of the native link over SATA2-NCQ at a given depth.
    pub fn link_speedup(&self, depth: usize) -> Option<f64> {
        let sata = self.virtual_ns(depth, "sata2-ncq")?;
        let native = self.virtual_ns(depth, "native")?;
        (native > 0).then(|| sata as f64 / native as f64)
    }
}

/// Run one point of the sweep through an [`EmulatedNativeFlash`] front-end.
///
/// Setup (unmeasured): a db-writer flush wave — one multi-page program run
/// per die — fills block 0.  Measured window: `2 × pages_per_die`
/// independent single-page reads per die against the flushed working set,
/// all submitted at one instant (the paper's "16 read processes" pressing
/// on the device at once).  Every submission passes the host link's
/// admission control — with `2 × dies × pages_per_die` short commands
/// outstanding, SATA2's 32 NCQ slots and 20 µs per-command overhead are the
/// bottleneck the native link removes, while the per-die queue depth
/// decides how much of the device's parallelism the admitted commands can
/// use: the link gap *grows* with depth, which is exactly the §3.2
/// argument.
pub fn run_depth_link_point(
    dies: u32,
    pages_per_die: u32,
    depth: usize,
    link: HostLink,
    link_name: &'static str,
) -> DepthLinkPoint {
    let geometry = FlashGeometry::with_dies(dies, dies * 8, pages_per_die.max(4), 4096);
    let device = NandDevice::new(DeviceConfig::new(geometry));
    let mut native = EmulatedNativeFlash::new(device, link);
    native.set_queue_depth(depth.max(1));
    let data = vec![0x5Au8; 4096];

    // Setup: the flush wave fills block 0 on every die (not measured).
    let mut t = 0u64;
    for die in 0..dies {
        let block = BlockAddr::new(die % geometry.channels, die / geometry.channels, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = (0..pages_per_die)
            .map(|p| {
                (
                    block.page(p),
                    data.as_slice(),
                    Oob::data((die * pages_per_die + p) as u64, 0),
                )
            })
            .collect();
        let q = native.submit_program_pages(t, &ops).unwrap();
        t = t.max(q.completion.completed_at);
    }
    let t0 = native.drain(t);
    let wait_before = native.host().total_queue_wait();

    // Measured window: two read waves over the flushed pages, every command
    // submitted at t0.
    let mut end = t0;
    let mut buf = vec![0u8; 4096];
    for _wave in 0..2 {
        for die in 0..dies {
            let block = BlockAddr::new(die % geometry.channels, die / geometry.channels, 0, 0);
            for p in 0..pages_per_die {
                let q = native
                    .submit_read_pages(t0, &mut [(block.page(p), buf.as_mut_slice())])
                    .unwrap();
                end = end.max(q.completion.completed_at);
            }
        }
    }
    let end = native.drain(end);
    DepthLinkPoint {
        depth,
        link: link_name,
        virtual_ns: end - t0,
        link_queue_wait_ns: native.host().total_queue_wait() - wait_before,
    }
}

/// Run the full queue-depth × host-link sweep at `dies` dies.
pub fn run_depth_link_sweep(dies: u32, depths: &[usize]) -> DepthLinkSweep {
    let pages_per_die = 8;
    let mut points = Vec::new();
    for &depth in depths {
        for (link, name) in [
            (HostLink::sata2(), "sata2-ncq"),
            (HostLink::native(), "native"),
        ] {
            points.push(run_depth_link_point(dies, pages_per_die, depth, link, name));
        }
    }
    DepthLinkSweep {
        dies,
        pages_per_die,
        points,
    }
}

/// Render the queue-depth × host-link sweep as a figure table.
pub fn render_depth_link_table(sweep: &DepthLinkSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 4 companion: queue depth x host link, {} dies, 2x{} point reads/die of a flushed wave\n",
        sweep.dies, sweep.pages_per_die
    ));
    out.push_str(&format!(
        "{:>6} {:>16} {:>16} {:>10} {:>18}\n",
        "depth", "sata2-ncq ns", "native ns", "speedup", "sata2 queue-wait"
    ));
    let mut depths: Vec<usize> = sweep.points.iter().map(|p| p.depth).collect();
    depths.sort_unstable();
    depths.dedup();
    for depth in depths {
        let sata = sweep.virtual_ns(depth, "sata2-ncq").unwrap_or(0);
        let native = sweep.virtual_ns(depth, "native").unwrap_or(0);
        let wait = sweep
            .points
            .iter()
            .find(|p| p.depth == depth && p.link == "sata2-ncq")
            .map(|p| p.link_queue_wait_ns)
            .unwrap_or(0);
        let speedup = sweep.link_speedup(depth).unwrap_or(0.0);
        out.push_str(&format!(
            "{:>6} {:>16} {:>16} {:>9.2}x {:>18}\n",
            depth, sata, native, speedup, wait
        ));
    }
    out.push_str(
        "\n(paper §3.2: SATA2 allows at most 32 concurrent I/O commands; a commodity SSD \
         with 8-10 chips executes up to 160 — the native link keeps every die busy)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_runs_and_reports_tps() {
        let knobs = StackConfig::default();
        let p = run_point(&knobs, Benchmark::TpcB, 2, FlusherAssignment::DieWise, 4);
        assert!(p.tps > 0.0);
        assert!(p.response_ms > 0.0);
    }

    #[test]
    fn depth_link_sweep_shows_the_ncq_gap() {
        let sweep = run_depth_link_sweep(8, &[1, 8]);
        // The native link must beat SATA2-NCQ where the command count
        // exceeds the 32 NCQ slots.
        let speedup = sweep.link_speedup(8).expect("both links measured");
        assert!(
            speedup > 1.2,
            "native link should clearly beat SATA2 at depth 8 (got {speedup:.2}x)"
        );
        // Deeper per-die queues must never be slower on the same link.
        for link in ["sata2-ncq", "native"] {
            let d1 = sweep.virtual_ns(1, link).unwrap();
            let d8 = sweep.virtual_ns(8, link).unwrap();
            assert!(
                d8 <= d1,
                "depth 8 must not be slower than depth 1 on {link}: {d8} vs {d1}"
            );
        }
        // SATA2 must have genuinely queued commands at the link.
        let wait = sweep
            .points
            .iter()
            .find(|p| p.depth == 8 && p.link == "sata2-ncq")
            .unwrap()
            .link_queue_wait_ns;
        assert!(wait > 0, "128 outstanding commands must overflow 32 NCQ slots");
        let table = render_depth_link_table(&sweep);
        assert!(table.contains("sata2-ncq ns"));
        assert!(table.contains("native ns"));
    }

    #[test]
    fn die_wise_not_slower_than_global_at_scale() {
        let result = run_dbwriter_scaling(&StackConfig::default(), Benchmark::TpcB, &[4]);
        let speedup = result.speedup(4).expect("both assignments measured");
        assert!(
            speedup > 0.9,
            "die-wise should not be materially slower than global (speedup {speedup:.2})"
        );
        let table = render_table(&result);
        assert!(table.contains("TPC-B"));
    }
}
