//! In-memory span recorder for the `--trace` run.
//!
//! The shims in [`crate::shims`] open a span around every call that crosses
//! a layer boundary; the run loop opens the root span of each op.  Spans
//! nest strictly (one load-generating thread, synchronous calls), so a stack
//! is enough to find each span's parent, and
//!
//! > self time = duration − Σ duration of direct children
//!
//! makes the self times of all spans of an op sum to the op's host time
//! exactly.  [`Recorder::max_sum_error`] keeps the worst relative deviation
//! seen, so a shim that ever opened a span outside its parent would show.
//!
//! Per-name and per-layer aggregates are folded in as each span closes; the
//! first [`RETAINED_SPANS`] raw spans of the timed phase are kept for
//! `--spans-out`.  The recorder is thread-local: the suite has exactly one
//! load-generating thread, and tests running in parallel each get their own.

use std::cell::RefCell;
use std::time::Instant;

use sim_utils::histogram::Histogram;
use sim_utils::time::SimInstant;

/// Raw spans kept for `--spans-out` (the aggregates cover every span).
pub const RETAINED_SPANS: usize = 200_000;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The workload generator (crate `workloads` plus the bench loop).
    Workloads = 0,
    /// Crate `storage-engine`.
    Engine = 1,
    /// Everything below the `StorageBackend` trait: `noftl-core` +
    /// `nand-flash`, or `ftl` + `flash-emulator` + `nand-flash`.
    Backend = 2,
}

/// Span names: one per traced call kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Name {
    Op,
    Begin,
    Commit,
    Ddl,
    Insert,
    Read,
    Update,
    Delete,
    Scan,
    IndexInsert,
    IndexGet,
    IndexRange,
    MaybeFlush,
    Checkpoint,
    EngineOther,
    ReadPage,
    ReadPages,
    WritePage,
    WritePages,
    FreeHint,
    Poll,
    BackendOther,
}

/// Every [`Name`], in discriminant order.
pub const NAMES: [Name; 22] = [
    Name::Op,
    Name::Begin,
    Name::Commit,
    Name::Ddl,
    Name::Insert,
    Name::Read,
    Name::Update,
    Name::Delete,
    Name::Scan,
    Name::IndexInsert,
    Name::IndexGet,
    Name::IndexRange,
    Name::MaybeFlush,
    Name::Checkpoint,
    Name::EngineOther,
    Name::ReadPage,
    Name::ReadPages,
    Name::WritePage,
    Name::WritePages,
    Name::FreeHint,
    Name::Poll,
    Name::BackendOther,
];

impl Name {
    /// Layer whose boundary this call crosses.
    pub fn layer(self) -> Layer {
        match self {
            Name::Op => Layer::Workloads,
            Name::ReadPage
            | Name::ReadPages
            | Name::WritePage
            | Name::WritePages
            | Name::FreeHint
            | Name::Poll
            | Name::BackendOther => Layer::Backend,
            _ => Layer::Engine,
        }
    }

    /// Name as printed in `--spans-out`.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Begin => "begin",
            Name::Commit => "commit",
            Name::Ddl => "ddl",
            Name::Insert => "insert",
            Name::Read => "read",
            Name::Update => "update",
            Name::Delete => "delete",
            Name::Scan => "scan",
            Name::IndexInsert => "index_insert",
            Name::IndexGet => "index_get",
            Name::IndexRange => "index_range",
            Name::MaybeFlush => "maybe_flush",
            Name::Checkpoint => "checkpoint",
            Name::EngineOther => "engine_other",
            Name::ReadPage => "read_page",
            Name::ReadPages => "read_pages",
            Name::WritePage => "write_page",
            Name::WritePages => "write_pages",
            Name::FreeHint => "free_page_hint",
            Name::Poll => "poll_completions",
            Name::BackendOther => "backend_other",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call kind.
    pub name: Name,
    /// Id of the op (root span) this span belongs to.
    pub op: u32,
    /// This span's id (unique within the run).
    pub id: u32,
    /// Id of the enclosing span (`u32::MAX` for a root).
    pub parent: u32,
    /// Host start, ns since the recorder was enabled.
    pub host_start_ns: u64,
    /// Host end, ns since the recorder was enabled.
    pub host_end_ns: u64,
    /// Virtual clock at call.
    pub v_start: SimInstant,
    /// Virtual clock at return.
    pub v_end: SimInstant,
}

/// Aggregate over all spans of one [`Name`].
#[derive(Debug, Clone, Default)]
pub struct NameAgg {
    /// Spans closed.
    pub count: u64,
    /// Total host duration (ns).
    pub host_ns: u64,
    /// Total virtual duration (ns).
    pub v_ns: u64,
    /// Host durations (ns).
    pub host_hist: Histogram,
    /// Virtual durations (ns).
    pub v_hist: Histogram,
}

/// Counts the backend shim folds in beside its spans.
#[derive(Debug, Clone, Default)]
pub struct BackendAgg {
    /// Pages submitted through `write_pages`.
    pub batch_pages: u64,
    /// Write calls during which the backend erased at least one block.
    pub gc_stall_calls: u64,
    /// Virtual duration of those calls (ns).
    pub gc_stall_v_ns: u64,
    /// Queued completions seen through `poll_completions`.
    pub polled: u64,
    /// Σ (device start − host submit) over polled completions (virtual ns).
    pub queue_wait_v_ns: u64,
}

struct Open {
    name: Name,
    id: u32,
    host_start_ns: u64,
    v_start: SimInstant,
    child_ns: u64,
}

/// The span recorder (see the module docs).
pub struct Recorder {
    epoch: Instant,
    op: u32,
    next_id: u32,
    stack: Vec<Open>,
    op_self_ns: u64,
    /// Self host time per [`Layer`] (ns).
    pub layer_self_ns: [u64; 3],
    /// Aggregates per [`Name`], indexed by discriminant.
    pub names: Vec<NameAgg>,
    /// Backend-shim counts.
    pub backend: BackendAgg,
    /// Worst `|Σ self − op duration| / op duration` over all ops.
    pub max_sum_error: f64,
    /// The first [`RETAINED_SPANS`] spans since the last reset.
    pub retained: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            next_id: 0,
            stack: Vec::with_capacity(8),
            op_self_ns: 0,
            layer_self_ns: [0; 3],
            names: vec![NameAgg::default(); NAMES.len()],
            backend: BackendAgg::default(),
            max_sum_error: 0.0,
            retained: Vec::new(),
        }
    }

    fn begin(&mut self, name: Name, v_start: SimInstant) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        if name == Name::Op {
            self.op = id;
            self.op_self_ns = 0;
        }
        self.stack.push(Open {
            name,
            id,
            host_start_ns: self.epoch.elapsed().as_nanos() as u64,
            v_start,
            child_ns: 0,
        });
    }

    fn end(&mut self, v_end: SimInstant) {
        let host_end_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.stack.pop().expect("span end without begin");
        let dur = host_end_ns - open.host_start_ns;
        let self_ns = dur.saturating_sub(open.child_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => u32::MAX,
        };
        self.layer_self_ns[open.name.layer() as usize] += self_ns;
        self.op_self_ns += self_ns;
        let v_dur = v_end.saturating_sub(open.v_start);
        let agg = &mut self.names[open.name as usize];
        agg.count += 1;
        agg.host_ns += dur;
        agg.v_ns += v_dur;
        agg.host_hist.record(dur);
        agg.v_hist.record(v_dur);
        if open.name == Name::Op && dur > 0 {
            let err = (self.op_self_ns as f64 - dur as f64).abs() / dur as f64;
            self.max_sum_error = self.max_sum_error.max(err);
        }
        if self.retained.len() < RETAINED_SPANS {
            self.retained.push(Span {
                name: open.name,
                op: self.op,
                id: open.id,
                parent,
                host_start_ns: open.host_start_ns,
                host_end_ns,
                v_start: open.v_start,
                v_end,
            });
        }
    }

    /// Aggregate of one span name.
    pub fn agg(&self, name: Name) -> &NameAgg {
        &self.names[name as usize]
    }

    /// Spans closed in `layer` (calls that crossed into it).
    pub fn calls_into(&self, layer: Layer) -> u64 {
        NAMES
            .iter()
            .filter(|n| n.layer() == layer)
            .map(|n| self.agg(*n).count)
            .sum()
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread with empty aggregates.  Called once when
/// the shims are installed and again at the start of the timed phase, so
/// set-up and warm-up spans are not counted.
pub fn reset() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Stop recording on this thread and hand back what was recorded.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Run `f` on the recorder, if one is active.
pub fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Run `call` inside a span named `name`.  `v_end` extracts the virtual
/// completion instant from the call's result.
pub fn timed<T>(
    name: Name,
    v_start: SimInstant,
    call: impl FnOnce() -> T,
    v_end: impl FnOnce(&T) -> SimInstant,
) -> T {
    with(|r| r.begin(name, v_start));
    let out = call();
    let v = v_end(&out);
    with(|r| r.end(v));
    out
}

/// Run `call` inside a root span.  A root's virtual start is only known
/// once the op has picked its client, so `v` supplies both ends afterwards.
pub fn root<T>(
    name: Name,
    call: impl FnOnce() -> T,
    v: impl FnOnce(&T) -> (SimInstant, SimInstant),
) -> T {
    with(|r| r.begin(name, 0));
    let out = call();
    let (v_start, v_end) = v(&out);
    with(|r| {
        if let Some(top) = r.stack.last_mut() {
            top.v_start = v_start;
        }
        r.end(v_end)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        reset();
        for _ in 0..50 {
            timed(
                Name::Op,
                0,
                || {
                    spin(2_000);
                    timed(
                        Name::Update,
                        10,
                        || {
                            spin(2_000);
                            timed(Name::WritePage, 20, || spin(2_000), |_| 50);
                        },
                        |_| 60,
                    );
                    timed(Name::Commit, 60, || spin(1_000), |_| 90);
                },
                |_| 100,
            );
        }
        let rec = take().expect("recorder active");
        assert!(rec.max_sum_error < 1e-9, "error {}", rec.max_sum_error);
        assert_eq!(rec.agg(Name::Op).count, 50);
        assert_eq!(rec.agg(Name::Update).v_ns, 50 * 50);
        assert_eq!(rec.calls_into(Layer::Backend), 50);
        let total: u64 = rec.layer_self_ns.iter().sum();
        assert_eq!(total, rec.agg(Name::Op).host_ns);
        // Every layer did ~2 µs (engine ~3 µs) of its own work per op.
        for (layer, floor) in [(0, 2_000), (1, 3_000), (2, 2_000)] {
            assert!(rec.layer_self_ns[layer] >= 50 * floor);
        }
        let s = rec
            .retained
            .iter()
            .find(|s| s.name == Name::WritePage)
            .unwrap();
        let parent = rec.retained.iter().find(|p| p.id == s.parent).unwrap();
        assert_eq!(parent.name, Name::Update);
        assert_eq!(s.op, parent.parent);
    }

    #[test]
    fn nothing_is_recorded_when_inactive() {
        assert!(take().is_none());
        assert_eq!(timed(Name::Read, 0, || 7, |_| 0), 7);
        assert!(take().is_none());
    }
}
