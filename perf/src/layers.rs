//! Per-layer metrics of a `--trace` run: span aggregates, the stack's own
//! counters, and the bare-device replay that isolates `nand-flash`.

use std::collections::BTreeMap;
use std::time::Instant;

use nand_flash::{DeviceConfig, NandDevice, NativeFlashInterface, Oob, OpKind, Ppa, TraceEntry};
use sim_utils::histogram::Histogram;

use crate::scenario::Phase;
use crate::spans::{Layer, Name, Recorder};
use crate::suite::PER_LAYER;

/// Result of re-issuing a device command stream on a bare `NandDevice`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NandReplay {
    /// Commands re-issued inside the measured part.
    pub cmds: u64,
    /// Host time they took (ns).
    pub host_ns: u64,
    /// Commands the bare device refused (it lacks state only the full stack
    /// keeps, e.g. a copyback whose source page carried no LPN).
    pub skipped: u64,
}

impl NandReplay {
    /// Host ns per device command.
    pub fn ns_per_cmd(&self) -> f64 {
        if self.cmds == 0 {
            0.0
        } else {
            self.host_ns as f64 / self.cmds as f64
        }
    }
}

/// Re-issue `entries` (a device's command stream since its creation) through
/// [`NativeFlashInterface`] on a fresh device built from `config`, and time
/// the commands from index `measure_from` on.  Earlier commands are replayed
/// untimed: they put the device in the state the measured ones expect.  When
/// the stream was cut before `measure_from`, all of it is timed.
///
/// Multi-page dispatches are recorded as one entry per page and are
/// re-issued page by page, so the figure is host time per *page command*.
pub fn replay_device(
    config: &DeviceConfig,
    entries: &[TraceEntry],
    measure_from: usize,
) -> NandReplay {
    let mut device = NandDevice::new(config.clone());
    let page_size = config.geometry.page_size as usize;
    let data = vec![0x5Au8; page_size];
    let mut buf = vec![0u8; page_size];
    // Where each logical page was last programmed: a copyback entry records
    // its destination only.
    let mut location: Vec<Option<Ppa>> = Vec::new();
    let measure_from = if measure_from + 1000 < entries.len() {
        measure_from
    } else {
        0
    };
    let mut out = NandReplay::default();
    let mut sequence = 0u64;
    let mut started = Instant::now();
    for (i, e) in entries.iter().enumerate() {
        if i == measure_from {
            out = NandReplay::default();
            started = Instant::now();
        }
        sequence += 1;
        let note = |location: &mut Vec<Option<Ppa>>, lpn: Option<u64>, ppa: Ppa| {
            if let Some(lpn) = lpn {
                let lpn = lpn as usize;
                if lpn >= location.len() {
                    location.resize(lpn + 1, None);
                }
                location[lpn] = Some(ppa);
            }
        };
        let ok = match (e.kind, e.ppa, e.block) {
            (OpKind::Read, Some(ppa), _) => device.read_page(e.issued_at, ppa, &mut buf).is_ok(),
            (OpKind::ReadOob, Some(ppa), _) => device.read_oob(e.issued_at, ppa).is_ok(),
            (OpKind::Program, Some(ppa), _) => {
                let oob = match e.lpn {
                    Some(lpn) => Oob::data(lpn, sequence),
                    None => Oob::meta(sequence),
                };
                note(&mut location, e.lpn, ppa);
                device.program_page(e.issued_at, ppa, &data, oob).is_ok()
            }
            (OpKind::Copyback, Some(dst), _) => {
                let src = e
                    .lpn
                    .and_then(|lpn| location.get(lpn as usize).copied().flatten());
                note(&mut location, e.lpn, dst);
                src.is_some_and(|src| device.copyback(e.issued_at, src, dst, None).is_ok())
            }
            (OpKind::Erase, _, Some(block)) => device.erase_block(e.issued_at, block).is_ok(),
            _ => false,
        };
        if ok {
            out.cmds += 1;
        } else {
            out.skipped += 1;
        }
    }
    out.host_ns = started.elapsed().as_nanos() as u64;
    std::hint::black_box(&buf);
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us(hist: &Histogram, q: f64) -> f64 {
    hist.percentile(q) as f64 / 1e3
}

/// What [`per_layer`] needs beside the traced phase itself.
pub struct TraceContext<'a> {
    /// The span recorder of the timed phase.
    pub recorder: &'a Recorder,
    /// Σ op host time (ns) of an untraced run over the first quarter of the
    /// ops.
    pub untraced_first_quarter_ns: u64,
    /// The bare-device replay, for stacks that record a command stream.
    pub nand: Option<NandReplay>,
    /// Whether the stack below the backend trait is NoFTL (else FASTer).
    pub noftl: bool,
}

/// Every per-layer metric, by name.
pub fn per_layer(phase: &Phase, ctx: &TraceContext<'_>) -> BTreeMap<String, f64> {
    let rec = ctx.recorder;
    let c = &phase.counters;
    let ops = phase.ops as f64;
    let kops = ops / 1000.0;
    let root_ns = rec.agg(Name::Op).host_ns as f64;
    let layer_ns = |l: Layer| rec.layer_self_ns[l as usize] as f64;
    let backend_ns = layer_ns(Layer::Backend);
    let nand_ns_per_cmd = ctx.nand.map_or(0.0, |n| n.ns_per_cmd());
    let nand_ns = (nand_ns_per_cmd * c.flash_cmds() as f64).min(backend_ns);

    let mut reads = rec.agg(Name::ReadPage).v_hist.clone();
    reads.merge(&rec.agg(Name::ReadPages).v_hist);
    let mut writes = rec.agg(Name::WritePage).v_hist.clone();
    writes.merge(&rec.agg(Name::WritePages).v_hist);

    let dies = c.die_busy_ns.iter().filter(|&&b| b > 0).count().max(1);
    let busy_total: u64 = c.die_busy_ns.iter().sum();
    let busy_max = *c.die_busy_ns.iter().max().expect("MAX_DIES > 0");

    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    put(
        "workloads.self_host_us_per_op",
        layer_ns(Layer::Workloads) / ops / 1e3,
    );
    put(
        "workloads.op.host_us_p50",
        us(&rec.agg(Name::Op).host_hist, 0.50),
    );
    put(
        "workloads.op.host_us_p99",
        us(&rec.agg(Name::Op).host_hist, 0.99),
    );
    put(
        "workloads.engine_calls_per_op",
        rec.calls_into(Layer::Engine) as f64 / ops,
    );

    put(
        "storage-engine.self_host_us_per_op",
        layer_ns(Layer::Engine) / ops / 1e3,
    );
    put(
        "storage-engine.host_share",
        ratio(layer_ns(Layer::Engine), root_ns),
    );
    for (name, key) in [
        (Name::Read, "read"),
        (Name::Update, "update"),
        (Name::Scan, "scan"),
        (Name::Commit, "commit"),
    ] {
        put(
            &format!("storage-engine.{key}.host_us_p50"),
            us(&rec.agg(name).host_hist, 0.50),
        );
    }
    put(
        "storage-engine.commit.v_us_p50",
        us(&rec.agg(Name::Commit).v_hist, 0.50),
    );
    put(
        "storage-engine.wal_forces_per_op",
        c.wal_forces as f64 / ops,
    );
    put(
        "storage-engine.wal_pages_per_force",
        ratio(c.wal_pages as f64, c.wal_forces as f64),
    );
    put(
        "storage-engine.buffer_hit_ratio",
        ratio(c.buf_hits as f64, (c.buf_hits + c.buf_misses) as f64),
    );
    put(
        "storage-engine.buffer_evictions_per_op",
        c.buf_evictions as f64 / ops,
    );
    put(
        "storage-engine.pages_read_per_op",
        c.host_page_reads as f64 / ops,
    );
    put(
        "storage-engine.pages_written_per_op",
        c.host_page_writes as f64 / ops,
    );
    put(
        "storage-engine.backend_calls_per_op",
        rec.calls_into(Layer::Backend) as f64 / ops,
    );
    put(
        "storage-engine.pages_read_vs_min",
        ratio(c.scan_page_reads as f64, c.scan_min_pages as f64),
    );
    put(
        "storage-engine.maybe_flush.host_us_p99",
        us(&rec.agg(Name::MaybeFlush).host_hist, 0.99),
    );
    put(
        "storage-engine.maybe_flush.v_us_p99",
        us(&rec.agg(Name::MaybeFlush).v_hist, 0.99),
    );
    put("storage-engine.flush_cycles", c.flush_cycles as f64);
    put(
        "storage-engine.flush_pages_per_cycle",
        ratio(c.flush_pages as f64, c.flush_cycles as f64),
    );
    put(
        "storage-engine.flush_stall_v_us_per_op",
        phase.flush_stall_v_ns as f64 / ops / 1e3,
    );
    put(
        "storage-engine.readahead_useful_ratio",
        ratio(c.ra_useful as f64, c.ra_issued as f64),
    );
    put(
        "storage-engine.readahead_wasted_per_op",
        c.ra_wasted as f64 / ops,
    );
    put(
        "storage-engine.poll_calls_per_op",
        rec.agg(Name::Poll).count as f64 / ops,
    );

    // Below the backend trait the spans cannot tell the Flash-management
    // layer from the device model; the replay can, for NoFTL.
    let (noftl, ftl) = if ctx.noftl { (1.0, 0.0) } else { (0.0, 1.0) };
    put("noftl-core.host_us_per_op", noftl * backend_ns / ops / 1e3);
    put(
        "noftl-core.self_host_ns_per_cmd",
        noftl * ratio(backend_ns - nand_ns, c.flash_cmds() as f64),
    );
    put(
        "noftl-core.host_share",
        noftl * ratio(backend_ns - nand_ns, root_ns),
    );
    put("noftl-core.read.v_us_p50", noftl * us(&reads, 0.50));
    put("noftl-core.read.v_us_p99", noftl * us(&reads, 0.99));
    put("noftl-core.write.v_us_p99", noftl * us(&writes, 0.99));
    put(
        "noftl-core.write_batch.pages_per_call",
        noftl
            * ratio(
                rec.backend.batch_pages as f64,
                rec.agg(Name::WritePages).count as f64,
            ),
    );
    put("noftl-core.gc_runs", noftl * c.gc_erases as f64);
    put(
        "noftl-core.gc_pages_moved_per_kop",
        noftl * c.gc_page_copies as f64 / kops,
    );
    put("noftl-core.gc_stalls", noftl * c.gc_stalls as f64);
    put(
        "noftl-core.gc_stall_v_ms",
        noftl * rec.backend.gc_stall_v_ns as f64 / 1e6,
    );
    put(
        "noftl-core.wear_spread",
        noftl * ratio(c.max_erase as f64, c.mean_erase),
    );

    put("ftl.host_us_per_op", ftl * backend_ns / ops / 1e3);
    put("ftl.merges_per_kop", ftl * c.ftl_merges as f64 / kops);
    put(
        "ftl.gc_page_copies_per_kop",
        ftl * c.gc_page_copies as f64 / kops,
    );
    put(
        "flash-emulator.link_wait_v_us_per_op",
        c.link_wait_ns as f64 / ops / 1e3,
    );
    put("flash-emulator.cmds_per_op", c.link_cmds as f64 / ops);

    put("nand-flash.host_ns_per_cmd", nand_ns_per_cmd);
    put("nand-flash.cmds_per_op", c.flash_cmds() as f64 / ops);
    put("nand-flash.reads_per_kop", c.flash_reads as f64 / kops);
    put(
        "nand-flash.programs_per_kop",
        c.flash_programs as f64 / kops,
    );
    put("nand-flash.erases_per_kop", c.flash_erases as f64 / kops);
    put(
        "nand-flash.copybacks_per_kop",
        c.flash_copybacks as f64 / kops,
    );
    put(
        "nand-flash.queue_wait_v_us_per_cmd",
        ratio(
            rec.backend.queue_wait_v_ns as f64,
            rec.backend.polled as f64,
        ) / 1e3,
    );
    put(
        "nand-flash.queue_gated_ratio",
        ratio(c.queue_gated as f64, c.queued as f64),
    );
    put(
        "nand-flash.die_busy_ratio",
        ratio(busy_total as f64, dies as f64 * phase.v_span_ns as f64),
    );
    put(
        "nand-flash.die_busy_max_over_mean",
        ratio(busy_max as f64 * dies as f64, busy_total as f64),
    );

    put(
        "trace.overhead_ratio",
        ratio(
            phase.host_lat_ns[..phase.host_lat_ns.len() / 4]
                .iter()
                .map(|&v| v as f64)
                .sum(),
            ctx.untraced_first_quarter_ns as f64,
        ),
    );
    put("trace.self_sum_error", rec.max_sum_error);

    debug_assert_eq!(m.len(), PER_LAYER.len());
    m
}
