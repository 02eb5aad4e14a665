//! The NAND device model: implements the native Flash interface over an
//! in-memory array of dies, blocks and pages, with per-die/per-channel
//! occupancy-based timing, wear tracking and bad-block growth.

use serde::{Deserialize, Serialize};
use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;

use crate::addr::{BlockAddr, DieAddr, Ppa};
use crate::bad_block::BadBlockPolicy;
use crate::block::{Block, BlockHealth};
use crate::die::Die;
use crate::error::{check_buf, FlashError, FlashResult};
use crate::fault::{FaultPlan, ReadFaultOutcome};
use crate::geometry::FlashGeometry;
use crate::interface::{DeviceIdentification, NativeFlashInterface, OpCompletion, OpKind};
use crate::nand_type::TimingProfile;
use crate::oob::Oob;
use crate::page::PageState;
use crate::queue::CommandQueues;
use crate::stats::FlashStats;
use crate::timing::Channel;
use crate::trace::{TraceEntry, Tracer};

mod faults;
mod submit;

/// Construction-time configuration of a [`NandDevice`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Physical organisation of the device.
    pub geometry: FlashGeometry,
    /// Whether page contents are stored (`true`) or only metadata is tracked
    /// (`false`, cheaper — used by trace-driven experiments).
    pub store_data: bool,
    /// Bad-block injection policy.
    pub bad_blocks: BadBlockPolicy,
    /// Override of the NAND timing profile (defaults to the geometry's NAND
    /// type profile).
    pub timing_override: Option<TimingProfile>,
    /// Capacity of the command tracer; `0` disables tracing.
    pub trace_capacity: usize,
    /// Enforce the sequential page-programming rule within a block.  SLC NAND
    /// historically permits random page order inside an erased block, which
    /// block-mapped FTLs (FAST/FASTer data blocks) rely on; MLC/TLC require
    /// strictly sequential programming.
    pub strict_sequential_program: bool,
    /// Override of the per-block P/E endurance (defaults to the NAND type's
    /// endurance).  Wear tests use tiny values so wear-out is reachable
    /// without hundreds of thousands of erases.
    pub endurance_override: Option<u64>,
    /// Deterministic fault-injection plan (program/erase/read failures).
    /// `None` — the default — makes the device bit- and cycle-identical to a
    /// build without fault injection.  A stack sets it from the `faults`
    /// field of `storage_engine::backend::StackConfig`; a device
    /// never consults the environment, so its behaviour is a pure function
    /// of this configuration.
    pub faults: Option<FaultPlan>,
}

impl DeviceConfig {
    /// Default configuration for a given geometry: data stored, no factory
    /// bad blocks, tracing disabled.
    pub fn new(geometry: FlashGeometry) -> Self {
        Self {
            geometry,
            store_data: true,
            bad_blocks: BadBlockPolicy::none(),
            timing_override: None,
            trace_capacity: 0,
            strict_sequential_program: true,
            endurance_override: None,
            faults: None,
        }
    }

    /// Metadata-only configuration (no page contents stored).
    pub fn metadata_only(geometry: FlashGeometry) -> Self {
        Self {
            store_data: false,
            ..Self::new(geometry)
        }
    }
}

/// Summary of an erase block's bookkeeping state, exposed to Flash-management
/// layers (FTLs and NoFTL) for GC victim selection and wear leveling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Number of erase cycles endured.
    pub erase_count: u64,
    /// Number of valid pages.
    pub valid_pages: u32,
    /// Number of invalid pages.
    pub invalid_pages: u32,
    /// Number of still-free pages.
    pub free_pages: u32,
    /// Next page index the sequential-programming rule expects.
    pub next_program_page: u32,
    /// Whether the block is usable (not factory/grown bad).
    pub usable: bool,
}

/// In-memory NAND Flash device.
pub struct NandDevice {
    geometry: FlashGeometry,
    timing: TimingProfile,
    endurance: u64,
    store_data: bool,
    strict_sequential: bool,
    bad_policy: BadBlockPolicy,
    dies: Vec<Die>,
    channels: Vec<Channel>,
    stats: FlashStats,
    tracer: Tracer,
    rng: SimRng,
    sequence: u64,
    queues: CommandQueues,
    /// Fault-injection plan; `None` disables injection entirely (no RNG
    /// draws, no counter updates — the equivalence baseline).
    faults: Option<FaultPlan>,
    /// Completion stamps of the most recent *failed* command (set only at
    /// fault-injection sites, where timing is still charged).  The queued
    /// submission spine consumes it so the failed command holds its
    /// die-queue slot for the time it occupied the die.
    fault_completion: Option<OpCompletion>,
    /// Dies that have failed permanently (flat die index).  All-false unless
    /// a [`KillSpec`](crate::fault::KillSpec) fired.
    dead_dies: Vec<bool>,
    /// Array commands executed so far — advanced only while the plan carries
    /// kill specs, so the kill-free paths pay nothing for it.
    kill_commands: u64,
    /// Which of the plan's kill specs have already fired (parallel to
    /// `faults.kills`).
    kills_applied: Vec<bool>,
    /// Cached `!faults.kills.is_empty()`: gates the per-command kill check.
    has_kills: bool,
    /// Page buffers handed back by BLOCK ERASE, reused by the next PAGE
    /// PROGRAM / COPYBACK instead of a fresh allocation per page.  Holds at
    /// most one erase block's worth per die ([`NandDevice::spare_page_cap`]
    /// — each die's GC erases a block and then refills one): an unbounded
    /// list would keep every erased-and-not-yet-reprogrammed page of the
    /// drive alive.  Always empty when the device stores no data.
    spare_pages: Vec<Box<[u8]>>,
    /// Working lists of [`NandDevice::validate_program_run`], kept for their
    /// capacity between multi-page runs.
    run_scratch: (Vec<(BlockAddr, u32)>, Vec<Ppa>),
}

/// An owned copy of `src`, in `spare`'s allocation when there is one of the
/// right length.  The buffer is overwritten in full: none of its previous
/// contents survive.
fn copy_into(spare: Option<Box<[u8]>>, src: &[u8]) -> Box<[u8]> {
    match spare {
        Some(mut buf) if buf.len() == src.len() => {
            buf.copy_from_slice(src);
            buf
        }
        _ => src.into(),
    }
}

impl NandDevice {
    /// Build a device from a configuration.
    pub fn new(config: DeviceConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time configuration check: no device I/O has happened yet, \
                      and an invalid geometry is a programmer error a fallible constructor \
                      would only defer"
        )]
        config.geometry.validate().expect("invalid flash geometry");
        let g = config.geometry;
        let timing = config
            .timing_override
            .unwrap_or_else(|| g.nand_type.timing());
        let dies = (0..g.total_dies())
            .map(|_| Die::new(g.blocks_per_die(), g.pages_per_block))
            .collect::<Vec<_>>();
        let channels = (0..g.channels).map(|_| Channel::new()).collect();
        let tracer = if config.trace_capacity > 0 {
            Tracer::with_capacity(config.trace_capacity)
        } else {
            Tracer::disabled()
        };
        let mut dev = Self {
            geometry: g,
            timing,
            endurance: config
                .endurance_override
                .unwrap_or_else(|| g.nand_type.endurance()),
            store_data: config.store_data,
            strict_sequential: config.strict_sequential_program,
            bad_policy: config.bad_blocks,
            dies,
            channels,
            stats: FlashStats::new(g.total_dies() as usize),
            tracer,
            rng: SimRng::new(config.bad_blocks.seed ^ 0x5EED),
            sequence: 0,
            queues: CommandQueues::new(g.total_dies() as usize, 1),
            dead_dies: vec![false; g.total_dies() as usize],
            kill_commands: 0,
            kills_applied: vec![
                false;
                config.faults.as_ref().map_or(0, |p| p.kills.len())
            ],
            has_kills: config.faults.as_ref().is_some_and(|p| !p.kills.is_empty()),
            faults: config.faults,
            fault_completion: None,
            spare_pages: Vec::new(),
            run_scratch: Default::default(),
        };
        for flat in config.bad_blocks.factory_bad_blocks(&g) {
            let addr = BlockAddr::from_flat(&g, flat);
            dev.block_mut(addr).mark_bad(BlockHealth::FactoryBad);
        }
        dev
    }

    /// Convenience constructor with default config for `geometry`.
    pub fn with_geometry(geometry: FlashGeometry) -> Self {
        Self::new(DeviceConfig::new(geometry))
    }

    /// The timing profile in effect.
    pub fn timing(&self) -> &TimingProfile {
        &self.timing
    }

    /// The P/E endurance per block.
    pub fn endurance(&self) -> u64 {
        self.endurance
    }

    /// The fault-injection plan in effect, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Whether fault injection is active.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Install or remove the fault-injection plan at runtime (tests and the
    /// chaos harness; `None` restores the fault-free equivalence baseline).
    /// Resets the kill bookkeeping for the new plan; dies that already failed
    /// stay dead (a die failure is permanent).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
        let kills = self.faults.as_ref().map_or(0, |p| p.kills.len());
        self.has_kills = kills > 0;
        self.kills_applied = vec![false; kills];
        self.kill_commands = 0;
    }

    /// Whether `die` has failed permanently.
    pub fn is_die_dead(&self, die: DieAddr) -> bool {
        self.dead_dies
            .get(die.flat(&self.geometry) as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Whether any die has failed (cheap: one boolean scan, no state change
    /// — safe to consult on hot scheduling paths).
    pub fn any_die_dead(&self) -> bool {
        self.dead_dies.iter().any(|&d| d)
    }

    /// Per-die failure flags (flat die index).
    pub fn dead_dies(&self) -> &[bool] {
        &self.dead_dies
    }

    /// Enable or disable gap-backfilling die/channel occupancy.  Off (the
    /// default) is the pinned `busy_until` ratchet; the multi-client engine
    /// turns it on so commands arriving out of timestamp order from
    /// drifting client clocks are not charged queue-wait on provably-idle
    /// resources (see [`crate::timeline`]).
    pub fn set_backfill_occupancy(&mut self, on: bool) {
        for die in &mut self.dies {
            die.set_backfill_occupancy(on);
        }
        for ch in &mut self.channels {
            ch.set_backfill_occupancy(on);
        }
    }

    /// Reads a block has served since its last erase (the read-disturb
    /// stress the scrubber watches; only maintained while a fault plan is
    /// active).
    pub fn read_disturb(&self, block: BlockAddr) -> FlashResult<u64> {
        self.check_block_addr(block)?;
        Ok(self.block_ref(block).read_disturb())
    }

    /// Access the command trace.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn die_index(&self, die: DieAddr) -> usize {
        die.flat(&self.geometry) as usize
    }

    fn block_local_index(&self, b: &BlockAddr) -> u32 {
        b.plane * self.geometry.blocks_per_plane + b.block
    }

    /// Bound of the spare page-buffer list: one erase block per die.
    fn spare_page_cap(&self) -> usize {
        (self.geometry.total_dies() * self.geometry.pages_per_block) as usize
    }

    fn block_ref(&self, addr: BlockAddr) -> &Block {
        let die = &self.dies[self.die_index(addr.die_addr())];
        die.block(self.block_local_index(&addr))
    }

    fn block_mut(&mut self, addr: BlockAddr) -> &mut Block {
        let die_idx = self.die_index(addr.die_addr());
        let local = self.block_local_index(&addr);
        self.dies[die_idx].block_mut(local)
    }

    /// Bookkeeping summary of a block.
    pub fn block_info(&self, addr: BlockAddr) -> FlashResult<BlockInfo> {
        self.check_block_addr(addr)?;
        let b = self.block_ref(addr);
        Ok(BlockInfo {
            erase_count: b.erase_count(),
            valid_pages: b.valid_pages(),
            invalid_pages: b.invalid_pages(),
            free_pages: b.free_pages(),
            next_program_page: b.next_program_page(),
            usable: b.is_usable(),
        })
    }

    /// Host-directed bad-block mark.  Under NoFTL the DBMS owns bad-block
    /// management: after relocating the surviving pages of a block whose
    /// PAGE PROGRAM failed, it writes the bad-block marker so the device
    /// rejects any further use of the block.  Pure state change — no timing
    /// and no trace entry, like the factory marks applied at construction.
    pub fn mark_block_bad(&mut self, addr: BlockAddr) -> FlashResult<()> {
        self.check_block_addr(addr)?;
        self.block_mut(addr).mark_bad(BlockHealth::GrownBad);
        Ok(())
    }

    /// State of an individual page.
    pub fn page_state(&self, ppa: Ppa) -> FlashResult<PageState> {
        self.check_ppa(ppa)?;
        Ok(self.block_ref(ppa.block_addr()).page(ppa.page).state)
    }

    /// OOB metadata of a page without timing effects (model inspection only;
    /// use [`NativeFlashInterface::read_oob`] inside simulations).
    pub fn peek_oob(&self, ppa: Ppa) -> FlashResult<Oob> {
        self.check_ppa(ppa)?;
        Ok(self.block_ref(ppa.block_addr()).page(ppa.page).oob)
    }

    /// The instant until which a die is busy (used by schedulers/emulator).
    pub fn die_busy_until(&self, die: DieAddr) -> SimInstant {
        self.dies[self.die_index(die)].busy_until()
    }

    /// Accumulated busy time of a die.
    pub fn die_busy_time(&self, die: DieAddr) -> u64 {
        self.dies[self.die_index(die)].busy_time()
    }

    /// Maximum erase count over all blocks (wear headline number).
    pub fn max_erase_count(&self) -> u64 {
        self.iter_blocks().map(|(_, b)| b.erase_count()).max().unwrap_or(0)
    }

    /// Mean erase count over all blocks.
    pub fn mean_erase_count(&self) -> f64 {
        let total_blocks = self.geometry.total_blocks();
        if total_blocks == 0 {
            return 0.0;
        }
        let sum: u64 = self.iter_blocks().map(|(_, b)| b.erase_count()).sum();
        sum as f64 / total_blocks as f64
    }

    fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, &Block)> + '_ {
        let g = self.geometry;
        (0..g.total_blocks()).map(move |flat| {
            let addr = BlockAddr::from_flat(&g, flat);
            (addr, self.block_ref(addr))
        })
    }

    fn check_ppa(&self, ppa: Ppa) -> FlashResult<()> {
        if ppa.is_valid(&self.geometry) {
            Ok(())
        } else {
            Err(FlashError::InvalidAddress {
                what: format!("{ppa:?}"),
            })
        }
    }

    fn check_block_addr(&self, b: BlockAddr) -> FlashResult<()> {
        if b.is_valid(&self.geometry) {
            Ok(())
        } else {
            Err(FlashError::InvalidAddress {
                what: format!("{b:?}"),
            })
        }
    }

    fn check_usable(&self, b: BlockAddr) -> FlashResult<()> {
        if self.block_ref(b).is_usable() {
            Ok(())
        } else {
            Err(FlashError::BadBlock(b))
        }
    }

    fn next_sequence(&mut self) -> u64 {
        self.sequence += 1;
        self.sequence
    }

    /// Epilogue of every page-granularity command: the die's command count
    /// and the trace entry (BLOCK ERASE, the one block-granularity command,
    /// writes its own).
    fn account_page_cmd(
        &mut self,
        kind: OpKind,
        now: SimInstant,
        done: SimInstant,
        ppa: Ppa,
        oob: Oob,
    ) {
        let die_idx = self.die_index(ppa.die_addr());
        self.stats.per_die_ops[die_idx] += 1;
        self.tracer.record(TraceEntry {
            kind,
            issued_at: now,
            completed_at: done,
            ppa: Some(ppa),
            block: None,
            lpn: oob.has_lpn().then_some(oob.lpn),
        });
    }

    /// A page may be programmed only while free and — under the sequential
    /// programming rule — only as its block's next page, `next`.
    fn check_programmable(&self, ppa: Ppa, next: u32) -> FlashResult<()> {
        if self.block_ref(ppa.block_addr()).page(ppa.page).state != PageState::Free {
            return Err(FlashError::ProgramOnDirtyPage(ppa));
        }
        if self.strict_sequential && ppa.page != next {
            return Err(FlashError::NonSequentialProgram {
                attempted: ppa,
                expected_page: next,
            });
        }
        Ok(())
    }

    // -- command bodies ------------------------------------------------------
    //
    // PAGE READ and PAGE PROGRAM each have exactly one body: validation, fault
    // draw, page store, `Timeline` occupancy, `FlashStats` and `TraceEntry`
    // live here and nowhere else.  A single-page command is a run of one; the
    // `NativeFlashInterface` methods and the `submit_*` wrappers only adapt
    // their arguments.

    /// The instant-completion of an empty run: no command issues.
    fn empty_run(now: SimInstant) -> OpCompletion {
        OpCompletion {
            started_at: now,
            completed_at: now,
        }
    }

    /// PAGE READ: one dispatched command sequence reading `ops` (all on one
    /// die) in order.  Returns the OOB of the last page read — *the* page's
    /// OOB for a single-page command — and the run's completion.
    ///
    /// The whole run pays a single command overhead; array senses serialise
    /// on the die while data transfers serialise on the channel, so the sense
    /// of page *j+1* overlaps the transfer of page *j* (the ONFI cache-read
    /// pipeline).  A run of `k` pages issued to an idle die costs
    /// `cmd + tR + max(k·transfer, (k-1)·tR + transfer)` — `cmd + tR +
    /// transfer` for the single page — instead of the `k·(cmd + tR +
    /// transfer)` a sequential per-page issuer pays.
    ///
    /// The run is validated in full before any buffer is touched: a bad entry
    /// (invalid address, wrong die, unwritten page, buffer size mismatch)
    /// fails the whole command without filling anything.  The batch counters
    /// (`multi_page_read_dispatches`, `batched_read_pages`) move only for
    /// runs longer than one page.
    ///
    /// Inlined into its two adapters so PAGE READ gets a copy specialised
    /// for a run of one: without it a single-page read costs ~20 % more host
    /// time than the dedicated body it replaced (measured; PAGE PROGRAM shows
    /// no such difference, so `program_run` is left to the compiler).
    #[inline(always)]
    fn read_run(
        &mut self,
        now: SimInstant,
        ops: &mut [(Ppa, &mut [u8])],
    ) -> FlashResult<(Oob, OpCompletion)> {
        let Some(first) = ops.first().map(|(ppa, _)| *ppa) else {
            return Ok((Oob::default(), Self::empty_run(now)));
        };

        // -- validate the whole run up front (no partial fills) -------------
        self.tick_kills(now);
        self.check_ppa(first)?;
        let die = first.die_addr();
        self.check_die_alive(die)?;
        for (ppa, buf) in ops.iter() {
            self.check_ppa(*ppa)?;
            if ppa.die_addr() != die {
                return Err(FlashError::InvalidAddress {
                    what: format!("multi-page read spans dies: {die:?} vs {:?}", ppa.die_addr()),
                });
            }
            let block_addr = ppa.block_addr();
            self.check_usable(block_addr)?;
            check_buf(buf.len(), self.geometry.page_size as usize)?;
            if self.block_ref(block_addr).page(ppa.page).state == PageState::Free {
                return Err(FlashError::ReadOfUnwrittenPage(*ppa));
            }
        }

        // -- fill + timing: array read on the die, then transfer over the
        // channel, one command transfer for the whole run ------------------
        let die_idx = self.die_index(die);
        let channel = first.channel as usize;
        let issue = now + self.timing.command_overhead;
        let xfer = self
            .timing
            .transfer((self.geometry.page_size + self.geometry.oob_size) as u64);
        let mut oob = Oob::default();
        let mut started_at = None;
        let mut completed_at = issue;
        for (ppa, buf) in ops.iter_mut() {
            let page = self.block_ref(ppa.block_addr()).page(ppa.page);
            match &page.data {
                Some(data) => buf.copy_from_slice(data),
                None => buf.fill(0),
            }
            oob = page.oob;
            let read_fault = self.draw_read_fault(now, ppa.block_addr());

            let (array_start, array_end) = self.dies[die_idx].occupy(issue, self.timing.read_page);
            let (_, done) = self.channels[channel].occupy(array_end, xfer);
            started_at.get_or_insert(array_start);
            completed_at = completed_at.max(done);

            self.stats.reads += 1;
            self.stats.bytes_read += self.geometry.page_size as u64;
            self.stats.read_latency.record(done.saturating_sub(now));
            self.stats.per_die_reads[die_idx] += 1;
            self.account_page_cmd(OpKind::Read, now, done, *ppa, oob);
            match read_fault {
                ReadFaultOutcome::Clean => {}
                ReadFaultOutcome::Corrected => self.stats.corrected_reads += 1,
                ReadFaultOutcome::Uncorrectable => {
                    // The run aborts at the failing page: senses up to and
                    // including it were charged, later pages were neither
                    // sensed nor charged.  The issuer falls back to per-page
                    // reads (each with its own retry draw).
                    self.stats.uncorrectable_reads += 1;
                    self.fault_completion = Some(OpCompletion {
                        started_at: started_at.unwrap_or(issue),
                        completed_at,
                    });
                    return Err(FlashError::UncorrectableEcc(*ppa));
                }
            }
        }
        if ops.len() > 1 {
            self.stats.multi_page_read_dispatches += 1;
            self.stats.batched_read_pages += ops.len() as u64;
        }
        Ok((
            oob,
            OpCompletion {
                started_at: started_at.unwrap_or(issue),
                completed_at,
            },
        ))
    }

    /// Validate a whole program run up front (no partial batches).  The two
    /// working lists of `scratch` (empty on entry) are: the per-block next
    /// page of blocks this run already programs into, and the pages already
    /// claimed by this run (duplicate detection on permissive,
    /// non-strict-sequential devices).
    fn validate_program_run(
        &mut self,
        now: SimInstant,
        ops: &[(Ppa, &[u8], Oob)],
        (expected, seen): &mut (Vec<(BlockAddr, u32)>, Vec<Ppa>),
    ) -> FlashResult<()> {
        let Some(&(first, _, _)) = ops.first() else {
            return Ok(());
        };
        let batched = ops.len() > 1;
        self.tick_kills(now);
        self.check_ppa(first)?;
        let die = first.die_addr();
        self.check_die_alive(die)?;
        for (ppa, data, _) in ops {
            self.check_ppa(*ppa)?;
            if ppa.die_addr() != die {
                return Err(FlashError::InvalidAddress {
                    what: format!("multi-page program spans dies: {die:?} vs {:?}", ppa.die_addr()),
                });
            }
            let block_addr = ppa.block_addr();
            self.check_usable(block_addr)?;
            check_buf(data.len(), self.geometry.page_size as usize)?;
            if batched {
                if seen.contains(ppa) {
                    return Err(FlashError::ProgramOnDirtyPage(*ppa));
                }
                seen.push(*ppa);
            }
            let slot = expected.iter().position(|(b, _)| *b == block_addr);
            let next = match slot {
                Some(i) => expected[i].1,
                None => self.block_ref(block_addr).next_program_page(),
            };
            self.check_programmable(*ppa, next)?;
            match slot {
                Some(i) => expected[i].1 = ppa.page + 1,
                None if batched && self.strict_sequential => {
                    expected.push((block_addr, ppa.page + 1))
                }
                None => {}
            }
        }
        Ok(())
    }

    /// PAGE PROGRAM: one dispatched command sequence programming `ops` (all
    /// on one die) in order.
    ///
    /// The whole run pays a single command overhead; data transfers serialise
    /// on the die's channel while cell programs serialise on the die, so the
    /// transfer of page *j+1* overlaps with the program of page *j* (the ONFI
    /// cache-program pipeline).  A run of `k` pages issued to an idle die
    /// therefore costs `cmd + max(k·transfer, transfer + k·tPROG)` — `cmd +
    /// transfer + tPROG` for the single page — instead of the `k·(cmd +
    /// transfer + tPROG)` a sequential per-page issuer pays, and runs
    /// dispatched to *different* dies at the same instant overlap almost
    /// completely — the per-die queue model of the ROADMAP.
    ///
    /// The run is validated in full before any page is committed: a bad entry
    /// (invalid address, wrong die, dirty page, sequential-rule violation)
    /// fails the whole command without programming anything.  The batch
    /// counters (`multi_page_dispatches`, `batched_pages`) move only for runs
    /// longer than one page, and a run of one never touches the validator's
    /// scratch vectors.
    fn program_run(
        &mut self,
        now: SimInstant,
        ops: &[(Ppa, &[u8], Oob)],
    ) -> FlashResult<OpCompletion> {
        let Some(&(first, _, _)) = ops.first() else {
            return Ok(Self::empty_run(now));
        };
        let batched = ops.len() > 1;
        let mut scratch = std::mem::take(&mut self.run_scratch);
        let valid = self.validate_program_run(now, ops, &mut scratch);
        scratch.0.clear();
        scratch.1.clear();
        self.run_scratch = scratch;
        valid?;
        let die = first.die_addr();

        // -- commit + timing: transfer over the channel, then array program
        // on the die, one command transfer for the whole run ---------------
        let die_idx = self.die_index(die);
        let channel = first.channel as usize;
        let issue = now + self.timing.command_overhead;
        let xfer = self
            .timing
            .transfer((self.geometry.page_size + self.geometry.oob_size) as u64);
        let mut started_at = None;
        let mut completed_at = issue;
        let mut programmed = 0;
        let mut failed = None;
        for (ppa, data, oob) in ops {
            let fails = self.draw_program_fault(ppa.block_addr());
            let stored = self
                .store_data
                .then(|| copy_into(self.spare_pages.pop(), data));
            let mut oob = *oob;
            if oob.sequence == 0 {
                oob.sequence = self.next_sequence();
            }
            self.block_mut(ppa.block_addr()).record_program(ppa.page, stored, oob);
            self.note_programmed(now, ppa.block_addr());

            let (xfer_start, xfer_end) = self.channels[channel].occupy(issue, xfer);
            let (_, done) = self.dies[die_idx].occupy(xfer_end, self.timing.program_page);
            started_at.get_or_insert(xfer_start);
            completed_at = completed_at.max(done);

            programmed += 1;
            self.stats.programs += 1;
            self.stats.bytes_written += self.geometry.page_size as u64;
            self.stats.program_latency.record(done.saturating_sub(now));
            self.account_page_cmd(OpKind::Program, now, done, *ppa, oob);
            if fails {
                // The page is consumed (NAND cannot retry a page without an
                // erase) and no longer holds valid data; the full program
                // timing was charged before the chip reported failure.
                // Pages before this one committed and stay committed (the
                // failing [`Ppa`] in the error tells the issuer where the
                // run split); later pages were never transferred.
                self.block_mut(ppa.block_addr()).invalidate_page(ppa.page);
                self.stats.program_failures += 1;
                failed = Some(*ppa);
                break;
            }
        }
        if batched {
            self.stats.multi_page_dispatches += 1;
            self.stats.batched_pages += programmed;
        }
        let completion = OpCompletion {
            started_at: started_at.unwrap_or(issue),
            completed_at,
        };
        match failed {
            Some(ppa) => {
                self.fault_completion = Some(completion);
                Err(FlashError::ProgramFailed(ppa))
            }
            None => Ok(completion),
        }
    }
}

impl NativeFlashInterface for NandDevice {
    fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    fn identify(&self) -> DeviceIdentification {
        DeviceIdentification {
            model: format!(
                "noftl-sim {} {}ch x {}die",
                self.geometry.nand_type.name(),
                self.geometry.channels,
                self.geometry.dies_per_channel
            ),
            geometry: self.geometry,
            endurance: self.endurance,
            max_queue_per_die: 16,
            supports_copyback: true,
            supports_multiplane: self.geometry.planes_per_die > 1,
        }
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, OpCompletion)> {
        self.read_run(now, &mut [(ppa, buf)])
    }

    fn read_pages(
        &mut self,
        now: SimInstant,
        ops: &mut [(Ppa, &mut [u8])],
    ) -> FlashResult<OpCompletion> {
        self.read_run(now, ops).map(|(_, c)| c)
    }

    fn read_oob(&mut self, now: SimInstant, ppa: Ppa) -> FlashResult<(Oob, OpCompletion)> {
        self.tick_kills(now);
        self.check_ppa(ppa)?;
        self.check_die_alive(ppa.die_addr())?;
        let block_addr = ppa.block_addr();
        self.check_usable(block_addr)?;
        let page = self.block_ref(block_addr).page(ppa.page);
        if page.state == PageState::Free {
            return Err(FlashError::ReadOfUnwrittenPage(ppa));
        }
        let oob = page.oob;

        let die_idx = self.die_index(ppa.die_addr());
        let issue = now + self.timing.command_overhead;
        let (start, array_end) = self.dies[die_idx].occupy(issue, self.timing.read_page);
        let xfer = self.timing.transfer(self.geometry.oob_size as u64);
        let (_, done) = self.channels[ppa.channel as usize].occupy(array_end, xfer);
        let completion = OpCompletion {
            started_at: start,
            completed_at: done,
        };

        self.stats.reads += 1;
        self.stats.read_latency.record(completion.latency_from(now));
        self.stats.per_die_reads[die_idx] += 1;
        self.account_page_cmd(OpKind::ReadOob, now, done, ppa, oob);
        Ok((oob, completion))
    }

    fn program_page(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        data: &[u8],
        oob: Oob,
    ) -> FlashResult<OpCompletion> {
        self.program_run(now, &[(ppa, data, oob)])
    }

    fn program_pages(
        &mut self,
        now: SimInstant,
        ops: &[(Ppa, &[u8], Oob)],
    ) -> FlashResult<OpCompletion> {
        self.program_run(now, ops)
    }

    fn erase_block(&mut self, now: SimInstant, block: BlockAddr) -> FlashResult<OpCompletion> {
        self.tick_kills(now);
        self.check_block_addr(block)?;
        self.check_die_alive(block.die_addr())?;
        self.check_usable(block)?;

        // Wear: erasing past the endurance limit may kill the block.  The
        // fault plan's soft-knee erase failure is drawn only when the hard
        // wear-out model did not already fire (its own RNG; no draw when the
        // plan is off).
        let erase_count = self.block_ref(block).erase_count();
        let wears_out = self
            .bad_policy
            .wears_out(&mut self.rng, erase_count + 1, self.endurance);
        let erase_fails = !wears_out && self.draw_erase_fault(erase_count + 1);

        let mut spare = std::mem::take(&mut self.spare_pages);
        let spare_cap = self.spare_page_cap();
        self.block_mut(block).erase(&mut spare, spare_cap);
        self.spare_pages = spare;
        if wears_out || erase_fails {
            self.block_mut(block).mark_bad(BlockHealth::GrownBad);
        }

        let die_idx = self.die_index(block.die_addr());
        let issue = now + self.timing.command_overhead;
        let (start, done) = self.dies[die_idx].occupy(issue, self.timing.erase_block);
        let completion = OpCompletion {
            started_at: start,
            completed_at: done,
        };

        self.stats.erases += 1;
        self.stats.erase_latency.record(completion.latency_from(now));
        self.stats.per_die_ops[die_idx] += 1;
        self.tracer.record(TraceEntry {
            kind: OpKind::Erase,
            issued_at: now,
            completed_at: done,
            ppa: None,
            block: Some(block),
            lpn: None,
        });

        if wears_out {
            return Err(FlashError::WornOut(block));
        }
        if erase_fails {
            self.stats.erase_failures += 1;
            self.fault_completion = Some(completion);
            return Err(FlashError::EraseFailed(block));
        }
        Ok(completion)
    }

    fn copyback(
        &mut self,
        now: SimInstant,
        src: Ppa,
        dst: Ppa,
        new_oob: Option<Oob>,
    ) -> FlashResult<OpCompletion> {
        self.tick_kills(now);
        self.check_ppa(src)?;
        self.check_ppa(dst)?;
        self.check_die_alive(src.die_addr())?;
        self.check_usable(src.block_addr())?;
        self.check_usable(dst.block_addr())?;
        // ONFI copyback keeps the data inside the plane's page register.
        if src.channel != dst.channel || src.die != dst.die || src.plane != dst.plane {
            return Err(FlashError::CopybackPlaneMismatch { src, dst });
        }
        if self.block_ref(src.block_addr()).page(src.page).state == PageState::Free {
            return Err(FlashError::ReadOfUnwrittenPage(src));
        }
        self.check_programmable(dst, self.block_ref(dst.block_addr()).next_program_page())?;
        let spare = self.spare_pages.pop();
        let page = self.block_ref(src.block_addr()).page(src.page);
        let (data, src_oob) = match &page.data {
            Some(bytes) => (Some(copy_into(spare, bytes)), page.oob),
            None => (None, page.oob),
        };
        let fails = self.draw_program_fault(dst.block_addr());
        let mut oob = new_oob.unwrap_or(src_oob);
        if oob.sequence == 0 {
            oob.sequence = self.next_sequence();
        }
        self.block_mut(dst.block_addr())
            .record_program(dst.page, data, oob);
        self.note_programmed(now, dst.block_addr());

        // Timing: array read + array program on the die, no channel transfer.
        let die_idx = self.die_index(src.die_addr());
        let issue = now + self.timing.command_overhead;
        let (start, done) = self.dies[die_idx]
            .occupy(issue, self.timing.read_page + self.timing.program_page);
        let completion = OpCompletion {
            started_at: start,
            completed_at: done,
        };

        self.stats.copybacks += 1;
        self.stats
            .copyback_latency
            .record(completion.latency_from(now));
        self.account_page_cmd(OpKind::Copyback, now, done, dst, oob);
        if fails {
            // The program half of the copyback failed: the destination page
            // is consumed, the source page is untouched and still valid.
            self.block_mut(dst.block_addr()).invalidate_page(dst.page);
            self.stats.program_failures += 1;
            self.fault_completion = Some(completion);
            return Err(FlashError::ProgramFailed(dst));
        }
        Ok(completion)
    }

    fn invalidate_page(&mut self, ppa: Ppa) -> FlashResult<()> {
        self.check_ppa(ppa)?;
        self.block_mut(ppa.block_addr()).invalidate_page(ppa.page);
        Ok(())
    }

    fn stats(&self) -> &FlashStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;

    pub(super) fn tiny_device() -> NandDevice {
        NandDevice::with_geometry(FlashGeometry::tiny())
    }

    pub(super) fn page_of(dev: &NandDevice, byte: u8) -> Vec<u8> {
        vec![byte; dev.geometry().page_size as usize]
    }

    #[test]
    fn program_then_read_roundtrips_data_and_oob() {
        let mut dev = tiny_device();
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        let data = page_of(&dev, 0xAB);
        dev.program_page(0, ppa, &data, Oob::data(42, 0)).unwrap();
        let mut buf = page_of(&dev, 0);
        let (oob, _) = dev.read_page(1000, ppa, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(oob.lpn, 42);
        assert!(oob.sequence > 0, "device assigns sequence numbers");
    }

    #[test]
    fn read_of_unwritten_page_is_an_error() {
        let mut dev = tiny_device();
        let mut buf = page_of(&dev, 0);
        let err = dev.read_page(0, Ppa::new(0, 0, 0, 0, 0), &mut buf).unwrap_err();
        assert!(matches!(err, FlashError::ReadOfUnwrittenPage(_)));
    }

    #[test]
    fn program_requires_sequential_pages() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 1);
        let err = dev
            .program_page(0, Ppa::new(0, 0, 0, 0, 3), &data, Oob::data(1, 0))
            .unwrap_err();
        assert!(matches!(err, FlashError::NonSequentialProgram { .. }));
        // Programming page 0 then page 1 works.
        dev.program_page(0, Ppa::new(0, 0, 0, 0, 0), &data, Oob::data(1, 0))
            .unwrap();
        dev.program_page(0, Ppa::new(0, 0, 0, 0, 1), &data, Oob::data(2, 0))
            .unwrap();
    }

    #[test]
    fn reprogram_without_erase_is_an_error() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 1);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        dev.program_page(0, ppa, &data, Oob::data(1, 0)).unwrap();
        let err = dev.program_page(0, ppa, &data, Oob::data(1, 0)).unwrap_err();
        assert!(matches!(
            err,
            FlashError::ProgramOnDirtyPage(_) | FlashError::NonSequentialProgram { .. }
        ));
    }

    #[test]
    fn erase_resets_block_and_allows_reprogram() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 7);
        let block = BlockAddr::new(0, 0, 0, 0);
        for p in 0..dev.geometry().pages_per_block {
            dev.program_page(0, block.page(p), &data, Oob::data(p as u64, 0))
                .unwrap();
        }
        assert!(dev.block_info(block).unwrap().free_pages == 0);
        dev.erase_block(0, block).unwrap();
        let info = dev.block_info(block).unwrap();
        assert_eq!(info.free_pages, dev.geometry().pages_per_block);
        assert_eq!(info.erase_count, 1);
        dev.program_page(0, block.page(0), &data, Oob::data(0, 0))
            .unwrap();
    }

    #[test]
    fn buffer_size_is_checked() {
        let mut dev = tiny_device();
        let err = dev
            .program_page(0, Ppa::new(0, 0, 0, 0, 0), &[0u8; 10], Oob::default())
            .unwrap_err();
        assert!(matches!(err, FlashError::BufferSizeMismatch { .. }));
        // Write a page properly, then read with a wrong-size buffer.
        let data = page_of(&dev, 2);
        dev.program_page(0, Ppa::new(0, 0, 0, 0, 0), &data, Oob::data(0, 0))
            .unwrap();
        let mut small = [0u8; 10];
        let err = dev.read_page(0, Ppa::new(0, 0, 0, 0, 0), &mut small).unwrap_err();
        assert!(matches!(err, FlashError::BufferSizeMismatch { .. }));
    }

    #[test]
    fn invalid_addresses_are_rejected() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 0);
        assert!(matches!(
            dev.program_page(0, Ppa::new(5, 0, 0, 0, 0), &data, Oob::default()),
            Err(FlashError::InvalidAddress { .. })
        ));
        assert!(matches!(
            dev.erase_block(0, BlockAddr::new(0, 0, 0, 99)),
            Err(FlashError::InvalidAddress { .. })
        ));
    }

    #[test]
    fn byte_counters_track_channel_transfers() {
        let mut dev = tiny_device();
        let page = dev.geometry().page_size as u64;
        let data = page_of(&dev, 0x3C);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        dev.program_page(0, ppa, &data, Oob::data(1, 0)).unwrap();
        assert_eq!(dev.stats().bytes_written, page);
        assert_eq!(dev.stats().bytes_read, 0);
        let mut buf = page_of(&dev, 0);
        dev.read_page(0, ppa, &mut buf).unwrap();
        dev.read_page(0, ppa, &mut buf).unwrap();
        assert_eq!(dev.stats().bytes_read, 2 * page);
        assert_eq!(dev.stats().bytes_written, page);
    }

    #[test]
    fn copyback_copies_within_plane_without_channel_transfer() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 0x5A);
        let src = Ppa::new(0, 0, 0, 0, 0);
        let dst = Ppa::new(0, 0, 0, 1, 0);
        dev.program_page(0, src, &data, Oob::data(9, 0)).unwrap();
        let before_bytes = dev.stats().bytes_written;
        dev.copyback(0, src, dst, None).unwrap();
        assert_eq!(dev.stats().copybacks, 1);
        // Copyback moves no user data over the channel.
        assert_eq!(dev.stats().bytes_written, before_bytes);
        let mut buf = page_of(&dev, 0);
        let (oob, _) = dev.read_page(0, dst, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(oob.lpn, 9);
    }

    /// Program every page of `block` with a pattern derived from `seed`.
    fn fill_block(dev: &mut NandDevice, block: BlockAddr, seed: u8) {
        for p in 0..dev.geometry().pages_per_block {
            let data = page_of(dev, seed.wrapping_add(p as u8));
            dev.program_page(0, block.page(p), &data, Oob::data(p as u64, 0))
                .unwrap();
        }
    }

    #[test]
    fn recycled_page_buffers_never_leak_old_bytes() {
        let mut dev = tiny_device();
        let (a, b) = (BlockAddr::new(0, 0, 0, 0), BlockAddr::new(0, 0, 0, 1));
        fill_block(&mut dev, a, 0x10);
        dev.erase_block(0, a).unwrap();
        assert_eq!(dev.spare_pages.len(), dev.geometry().pages_per_block as usize);
        // PROGRAM into a recycled buffer: the read returns exactly the new
        // page, nothing of the erased one.
        let mut fresh = page_of(&dev, 0);
        for (i, byte) in fresh.iter_mut().enumerate() {
            *byte = (i % 251) as u8;
        }
        dev.program_page(0, a.page(0), &fresh, Oob::data(1, 0)).unwrap();
        let mut buf = page_of(&dev, 0xFF);
        dev.read_page(0, a.page(0), &mut buf).unwrap();
        assert_eq!(buf, fresh);
        // COPYBACK after the neighbour block was erased: the destination
        // holds the source's bytes, not the spare buffer's previous ones.
        fill_block(&mut dev, b, 0x80);
        dev.erase_block(0, b).unwrap();
        let dst = b.page(0);
        dev.copyback(0, a.page(0), dst, None).unwrap();
        dev.read_page(0, dst, &mut buf).unwrap();
        assert_eq!(buf, fresh);
    }

    #[test]
    fn spare_page_list_is_bounded_by_geometry() {
        let mut dev = tiny_device();
        let bound = dev.spare_page_cap();
        assert_eq!(bound, dev.geometry().pages_per_block as usize, "one die: one block's worth");
        for cycle in 0..10u8 {
            // Fill and erase more blocks than the list may hold, then
            // refill some of them from it.
            for b in 0..6 {
                fill_block(&mut dev, BlockAddr::new(0, 0, 0, b), cycle);
            }
            for b in 0..6 {
                dev.erase_block(0, BlockAddr::new(0, 0, 0, b)).unwrap();
                assert!(dev.spare_pages.len() <= bound);
            }
            assert_eq!(dev.spare_pages.len(), bound);
            fill_block(&mut dev, BlockAddr::new(0, 0, 0, 7), cycle);
            dev.erase_block(0, BlockAddr::new(0, 0, 0, 7)).unwrap();
            assert_eq!(dev.spare_pages.len(), bound);
        }
    }

    #[test]
    fn device_without_data_storage_keeps_no_buffers() {
        let mut dev = NandDevice::new(DeviceConfig {
            store_data: false,
            ..DeviceConfig::new(FlashGeometry::tiny())
        });
        let (a, b) = (BlockAddr::new(0, 0, 0, 0), BlockAddr::new(0, 0, 0, 1));
        fill_block(&mut dev, a, 1);
        dev.copyback(0, a.page(0), b.page(0), None).unwrap();
        assert!(dev.block_ref(a).page(0).data.is_none());
        assert!(dev.block_ref(b).page(0).data.is_none());
        dev.erase_block(0, a).unwrap();
        dev.erase_block(0, b).unwrap();
        assert!(dev.spare_pages.is_empty());
        let mut buf = page_of(&dev, 0xFF);
        fill_block(&mut dev, a, 2);
        dev.read_page(0, a.page(0), &mut buf).unwrap();
        assert_eq!(buf, page_of(&dev, 0), "an unstored page reads as zeroes");
    }

    #[test]
    fn copyback_rejects_cross_die() {
        let g = FlashGeometry::small();
        let mut dev = NandDevice::with_geometry(g);
        let data = vec![1u8; g.page_size as usize];
        let src = Ppa::new(0, 0, 0, 0, 0);
        let dst = Ppa::new(1, 0, 0, 0, 0);
        dev.program_page(0, src, &data, Oob::data(1, 0)).unwrap();
        let err = dev.copyback(0, src, dst, None).unwrap_err();
        assert!(matches!(err, FlashError::CopybackPlaneMismatch { .. }));
    }

    #[test]
    fn invalidate_page_updates_block_info() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 3);
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        dev.program_page(0, ppa, &data, Oob::data(1, 0)).unwrap();
        dev.invalidate_page(ppa).unwrap();
        let info = dev.block_info(ppa.block_addr()).unwrap();
        assert_eq!(info.valid_pages, 0);
        assert_eq!(info.invalid_pages, 1);
    }

    #[test]
    fn stats_count_commands() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 1);
        let b0 = BlockAddr::new(0, 0, 0, 0);
        dev.program_page(0, b0.page(0), &data, Oob::data(1, 0)).unwrap();
        dev.program_page(0, b0.page(1), &data, Oob::data(2, 0)).unwrap();
        let mut buf = page_of(&dev, 0);
        dev.read_page(0, b0.page(0), &mut buf).unwrap();
        dev.copyback(0, b0.page(0), BlockAddr::new(0, 0, 0, 1).page(0), None)
            .unwrap();
        dev.erase_block(0, b0).unwrap();
        let s = dev.stats();
        assert_eq!(s.programs, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.copybacks, 1);
        assert_eq!(s.erases, 1);
        assert_eq!(s.total_ops(), 5);
    }

    #[test]
    fn parallel_dies_overlap_but_same_die_serialises() {
        let g = FlashGeometry::small();
        let mut dev = NandDevice::with_geometry(g);
        let data = vec![1u8; g.page_size as usize];
        // Two programs to different dies issued at t=0: array phases overlap.
        let a = dev
            .program_page(0, Ppa::new(0, 0, 0, 0, 0), &data, Oob::data(1, 0))
            .unwrap();
        let b = dev
            .program_page(0, Ppa::new(1, 0, 0, 0, 0), &data, Oob::data(2, 0))
            .unwrap();
        // Two programs to the same die serialise on the die.
        let c = dev
            .program_page(0, Ppa::new(0, 1, 0, 0, 0), &data, Oob::data(3, 0))
            .unwrap();
        let d = dev
            .program_page(0, Ppa::new(0, 1, 0, 0, 1), &data, Oob::data(4, 0))
            .unwrap();
        // Different channels: b should not be delayed by a.
        assert!(b.completed_at <= a.completed_at + dev.timing().program_page);
        // Same die: d cannot finish before c.
        assert!(d.completed_at > c.completed_at);
        // Same-die latency difference should be at least one program time.
        assert!(d.completed_at - c.completed_at >= dev.timing().program_page);
    }

    #[test]
    fn wear_out_grows_bad_block() {
        let g = FlashGeometry::tiny();
        let mut cfg = DeviceConfig::new(g);
        cfg.bad_blocks = BadBlockPolicy {
            factory_bad_fraction: 0.0,
            wear_out_failure_prob: 1.0,
            seed: 1,
        };
        let mut dev = NandDevice::new(cfg);
        // Shrink endurance artificially by erasing past the SLC limit would
        // take 100k iterations; instead check the policy path via the device's
        // own endurance field by erasing a block repeatedly up to just past a
        // tiny synthetic endurance.
        dev.endurance = 3;
        let b = BlockAddr::new(0, 0, 0, 0);
        for _ in 0..3 {
            dev.erase_block(0, b).unwrap();
        }
        let err = dev.erase_block(0, b).unwrap_err();
        assert!(matches!(err, FlashError::WornOut(_)));
        assert!(!dev.block_info(b).unwrap().usable);
        // Subsequent operations on the dead block are rejected.
        assert!(matches!(
            dev.erase_block(0, b),
            Err(FlashError::BadBlock(_))
        ));
    }

    #[test]
    fn factory_bad_blocks_are_unusable() {
        let g = FlashGeometry::small();
        let mut cfg = DeviceConfig::new(g);
        cfg.bad_blocks = BadBlockPolicy {
            factory_bad_fraction: 0.05,
            wear_out_failure_prob: 0.0,
            seed: 99,
        };
        let dev = NandDevice::new(cfg);
        let bad_count = (0..g.total_blocks())
            .filter(|&f| !dev.block_info(BlockAddr::from_flat(&g, f)).unwrap().usable)
            .count();
        assert!(bad_count > 0, "expected some factory bad blocks");
    }

    #[test]
    fn metadata_only_mode_skips_data_storage() {
        let g = FlashGeometry::tiny();
        let mut dev = NandDevice::new(DeviceConfig::metadata_only(g));
        let data = vec![0xEE; g.page_size as usize];
        let ppa = Ppa::new(0, 0, 0, 0, 0);
        dev.program_page(0, ppa, &data, Oob::data(5, 0)).unwrap();
        let mut buf = vec![0xFF; g.page_size as usize];
        let (oob, _) = dev.read_page(0, ppa, &mut buf).unwrap();
        assert_eq!(oob.lpn, 5);
        // Data is not retained in metadata-only mode; buffer is zero-filled.
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn tracer_records_when_enabled() {
        let g = FlashGeometry::tiny();
        let mut cfg = DeviceConfig::new(g);
        cfg.trace_capacity = 16;
        let mut dev = NandDevice::new(cfg);
        let data = vec![1u8; g.page_size as usize];
        dev.program_page(0, Ppa::new(0, 0, 0, 0, 0), &data, Oob::data(1, 0))
            .unwrap();
        dev.erase_block(0, BlockAddr::new(0, 0, 0, 1)).unwrap();
        assert_eq!(dev.tracer().entries().len(), 2);
        assert_eq!(dev.tracer().entries()[0].kind, OpKind::Program);
        assert_eq!(dev.tracer().entries()[1].kind, OpKind::Erase);
    }

    #[test]
    fn identify_reports_architecture() {
        let dev = NandDevice::with_geometry(FlashGeometry::openssd_like());
        let id = dev.identify();
        assert_eq!(id.geometry.total_dies(), 8);
        assert!(id.supports_copyback);
        assert!(id.endurance > 0);
        assert!(id.model.contains("SLC"));
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut dev = tiny_device();
        let data = page_of(&dev, 1);
        dev.program_page(0, Ppa::new(0, 0, 0, 0, 0), &data, Oob::data(1, 0))
            .unwrap();
        assert_eq!(dev.stats().programs, 1);
        dev.reset_stats();
        assert_eq!(dev.stats().programs, 0);
        assert_eq!(dev.stats().total_ops(), 0);
    }

    #[test]
    fn multi_page_program_roundtrips_and_counts() {
        let mut dev = tiny_device();
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| page_of(&dev, i)).collect();
        let b0 = BlockAddr::new(0, 0, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = (0..4)
            .map(|i| (b0.page(i), data[i as usize].as_slice(), Oob::data(i as u64, 0)))
            .collect();
        let c = dev.program_pages(0, &ops).unwrap();
        assert!(c.completed_at > c.started_at);
        assert_eq!(dev.stats().programs, 4);
        assert_eq!(dev.stats().multi_page_dispatches, 1);
        assert_eq!(dev.stats().batched_pages, 4);
        for i in 0..4u32 {
            let mut buf = page_of(&dev, 0);
            let (oob, _) = dev.read_page(c.completed_at, b0.page(i), &mut buf).unwrap();
            assert_eq!(buf, data[i as usize]);
            assert_eq!(oob.lpn, i as u64);
        }
    }

    #[test]
    fn multi_page_program_beats_sequential_issue() {
        // The batched dispatch pays one command overhead and pipelines
        // transfers with cell programs; the sequential issuer waits for each
        // page to complete before issuing the next.
        let run = |batched: bool| -> u64 {
            let mut dev = tiny_device();
            let data = page_of(&dev, 1);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            let ops: Vec<(Ppa, &[u8], Oob)> = (0..8)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            if batched {
                dev.program_pages(0, &ops).unwrap().completed_at
            } else {
                let mut t = 0;
                for (ppa, d, oob) in &ops {
                    t = dev.program_page(t, *ppa, d, *oob).unwrap().completed_at;
                }
                t
            }
        };
        let sequential = run(false);
        let batched = run(true);
        assert!(
            batched < sequential,
            "batched run ({batched}) must beat sequential issue ({sequential})"
        );
    }

    #[test]
    fn multi_page_program_spans_blocks_on_one_die() {
        let mut dev = tiny_device(); // 8 pages per block
        let data = page_of(&dev, 7);
        let b0 = BlockAddr::new(0, 0, 0, 0);
        let b1 = BlockAddr::new(0, 0, 0, 1);
        let mut ops: Vec<(Ppa, &[u8], Oob)> = (0..8)
            .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
            .collect();
        ops.push((b1.page(0), data.as_slice(), Oob::data(8, 0)));
        ops.push((b1.page(1), data.as_slice(), Oob::data(9, 0)));
        dev.program_pages(0, &ops).unwrap();
        assert_eq!(dev.block_info(b0).unwrap().free_pages, 0);
        assert_eq!(dev.block_info(b1).unwrap().next_program_page, 2);
    }

    #[test]
    fn multi_page_program_validates_before_mutating() {
        let g = FlashGeometry::small();
        let mut dev = NandDevice::with_geometry(g);
        let data = vec![1u8; g.page_size as usize];
        // Cross-die run is rejected as a whole: nothing is programmed.
        let ops = [
            (Ppa::new(0, 0, 0, 0, 0), data.as_slice(), Oob::data(1, 0)),
            (Ppa::new(1, 0, 0, 0, 0), data.as_slice(), Oob::data(2, 0)),
        ];
        assert!(matches!(
            dev.program_pages(0, &ops),
            Err(FlashError::InvalidAddress { .. })
        ));
        assert_eq!(dev.stats().programs, 0);
        assert_eq!(
            dev.page_state(Ppa::new(0, 0, 0, 0, 0)).unwrap(),
            PageState::Free,
            "failed batch must not leave partially programmed pages"
        );
        // Non-sequential run inside one block is also rejected atomically.
        let ops = [
            (Ppa::new(0, 0, 0, 0, 0), data.as_slice(), Oob::data(1, 0)),
            (Ppa::new(0, 0, 0, 0, 2), data.as_slice(), Oob::data(2, 0)),
        ];
        assert!(matches!(
            dev.program_pages(0, &ops),
            Err(FlashError::NonSequentialProgram { .. })
        ));
        assert_eq!(dev.stats().programs, 0);
        // Duplicate page inside a run can never program twice.
        let ops = [
            (Ppa::new(0, 0, 0, 0, 0), data.as_slice(), Oob::data(1, 0)),
            (Ppa::new(0, 0, 0, 0, 0), data.as_slice(), Oob::data(2, 0)),
        ];
        assert!(dev.program_pages(0, &ops).is_err());
        assert_eq!(dev.stats().programs, 0);
    }

    #[test]
    fn runs_of_one_two_and_five_pages_cost_their_closed_forms() {
        // One body serves every run length, so one assertion pins the single
        // command and the batch: on an idle die a k-page run costs what the
        // `program_run` / `read_run` docs state, and the single-page trait
        // methods are runs of one.
        for k in [1u32, 2, 5] {
            let mut dev = tiny_device();
            let t = *dev.timing();
            let g = *dev.geometry();
            let xfer = t.transfer((g.page_size + g.oob_size) as u64);
            let (cmd, t_r, t_prog) = (t.command_overhead, t.read_page, t.program_page);
            let k64 = k as u64;
            let batch_counts = if k > 1 { (1, k64) } else { (0, 0) };
            let data = page_of(&dev, 3);
            let b0 = BlockAddr::new(0, 0, 0, 0);

            let ops: Vec<(Ppa, &[u8], Oob)> = (0..k)
                .map(|i| (b0.page(i), data.as_slice(), Oob::data(i as u64, 0)))
                .collect();
            let pc = dev.program_pages(100, &ops).unwrap();
            assert_eq!(
                pc.completed_at - 100,
                cmd + (k64 * xfer).max(xfer + k64 * t_prog),
                "program run of {k}"
            );
            let s = dev.stats();
            assert_eq!((s.multi_page_dispatches, s.batched_pages), batch_counts);
            assert_eq!(s.programs, k64);

            let t0 = 10_000_000; // die and channel long idle
            let mut bufs: Vec<Vec<u8>> = (0..k).map(|_| page_of(&dev, 0)).collect();
            let mut rops: Vec<(Ppa, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (b0.page(i as u32), b.as_mut_slice()))
                .collect();
            let rc = dev.read_pages(t0, &mut rops).unwrap();
            assert_eq!(
                rc.completed_at - t0,
                cmd + t_r + (k64 * xfer).max((k64 - 1) * t_r + xfer),
                "read run of {k}"
            );
            let s = dev.stats();
            assert_eq!((s.multi_page_read_dispatches, s.batched_read_pages), batch_counts);
            assert_eq!(s.reads, k64);
            assert!(bufs.iter().all(|b| b == &data));

            if k == 1 {
                let mut single = tiny_device();
                let p = single.program_page(100, b0.page(0), &data, Oob::data(0, 0));
                assert_eq!(p.unwrap(), pc, "PAGE PROGRAM is a run of one");
                let mut buf = page_of(&single, 0);
                let (oob, r) = single.read_page(t0, b0.page(0), &mut buf).unwrap();
                assert_eq!((oob.lpn, r, &buf), (0, rc, &data), "PAGE READ is a run of one");
            }
        }
        // An empty run issues nothing and completes on the spot.
        let mut dev = tiny_device();
        assert_eq!(dev.program_pages(500, &[]).unwrap().completed_at, 500);
        assert_eq!(dev.read_pages(500, &mut []).unwrap().completed_at, 500);
        assert_eq!(dev.stats().total_ops(), 0);
    }

    #[test]
    fn multi_page_read_roundtrips_and_counts() {
        let mut dev = tiny_device();
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| page_of(&dev, i)).collect();
        let b0 = BlockAddr::new(0, 0, 0, 0);
        for i in 0..4u32 {
            dev.program_page(0, b0.page(i), &data[i as usize], Oob::data(i as u64, 0))
                .unwrap();
        }
        let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| page_of(&dev, 0)).collect();
        let mut ops: Vec<(Ppa, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (b0.page(i as u32), b.as_mut_slice()))
            .collect();
        let c = dev.read_pages(1_000_000, &mut ops).unwrap();
        assert!(c.completed_at > c.started_at);
        assert_eq!(dev.stats().reads, 4);
        assert_eq!(dev.stats().multi_page_read_dispatches, 1);
        assert_eq!(dev.stats().batched_read_pages, 4);
        assert_eq!(dev.stats().per_die_reads[0], 4);
        for (i, buf) in bufs.iter().enumerate() {
            assert_eq!(buf, &data[i]);
        }
    }

    #[test]
    fn multi_page_read_beats_sequential_issue() {
        // The batched dispatch pays one command overhead and pipelines array
        // senses with channel transfers; the sequential issuer waits for each
        // page to complete before issuing the next.
        let run = |batched: bool| -> u64 {
            let mut dev = tiny_device();
            let data = page_of(&dev, 1);
            let b0 = BlockAddr::new(0, 0, 0, 0);
            for i in 0..8u32 {
                dev.program_page(0, b0.page(i), &data, Oob::data(i as u64, 0))
                    .unwrap();
            }
            let t0 = dev.die_busy_until(DieAddr::new(0, 0));
            if batched {
                let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| page_of(&dev, 0)).collect();
                let mut ops: Vec<(Ppa, &mut [u8])> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, b)| (b0.page(i as u32), b.as_mut_slice()))
                    .collect();
                dev.read_pages(t0, &mut ops).unwrap().completed_at - t0
            } else {
                let mut t = t0;
                let mut buf = page_of(&dev, 0);
                for i in 0..8u32 {
                    t = dev.read_page(t, b0.page(i), &mut buf).unwrap().1.completed_at;
                }
                t - t0
            }
        };
        let sequential = run(false);
        let batched = run(true);
        assert!(
            batched < sequential,
            "batched read run ({batched}) must beat sequential issue ({sequential})"
        );
    }

    #[test]
    fn multi_page_read_validates_before_filling() {
        let g = FlashGeometry::small();
        let mut dev = NandDevice::with_geometry(g);
        let data = vec![1u8; g.page_size as usize];
        dev.program_page(0, Ppa::new(0, 0, 0, 0, 0), &data, Oob::data(1, 0))
            .unwrap();
        dev.program_page(0, Ppa::new(1, 0, 0, 0, 0), &data, Oob::data(2, 0))
            .unwrap();
        dev.reset_stats();
        // Cross-die run is rejected as a whole: no buffer is touched.
        let mut b0 = vec![0xEE; g.page_size as usize];
        let mut b1 = vec![0xEE; g.page_size as usize];
        let mut ops = [
            (Ppa::new(0, 0, 0, 0, 0), b0.as_mut_slice()),
            (Ppa::new(1, 0, 0, 0, 0), b1.as_mut_slice()),
        ];
        assert!(matches!(
            dev.read_pages(0, &mut ops),
            Err(FlashError::InvalidAddress { .. })
        ));
        assert_eq!(dev.stats().reads, 0);
        assert!(b0.iter().all(|&x| x == 0xEE), "failed batch must not fill buffers");
        // A run touching an unwritten page fails atomically too.
        let mut ops = [
            (Ppa::new(0, 0, 0, 0, 0), b0.as_mut_slice()),
            (Ppa::new(0, 0, 0, 1, 0), b1.as_mut_slice()),
        ];
        assert!(matches!(
            dev.read_pages(0, &mut ops),
            Err(FlashError::ReadOfUnwrittenPage(_))
        ));
        assert_eq!(dev.stats().reads, 0);
        assert!(b0.iter().all(|&x| x == 0xEE));
    }

    #[test]
    fn endurance_override_shrinks_endurance() {
        let g = FlashGeometry::tiny();
        let mut cfg = DeviceConfig::new(g);
        cfg.endurance_override = Some(2);
        cfg.bad_blocks = BadBlockPolicy {
            factory_bad_fraction: 0.0,
            wear_out_failure_prob: 1.0,
            seed: 1,
        };
        let mut dev = NandDevice::new(cfg);
        assert_eq!(dev.endurance(), 2);
        let b = BlockAddr::new(0, 0, 0, 0);
        dev.erase_block(0, b).unwrap();
        dev.erase_block(0, b).unwrap();
        assert!(matches!(
            dev.erase_block(0, b),
            Err(FlashError::WornOut(_))
        ));
    }

    #[test]
    fn wear_accounting_helpers() {
        let mut dev = tiny_device();
        let b0 = BlockAddr::new(0, 0, 0, 0);
        let b1 = BlockAddr::new(0, 0, 0, 1);
        dev.erase_block(0, b0).unwrap();
        dev.erase_block(0, b0).unwrap();
        dev.erase_block(0, b1).unwrap();
        assert_eq!(dev.max_erase_count(), 2);
        let mean = dev.mean_erase_count();
        assert!(mean > 0.0 && mean < 1.0);
    }
}
