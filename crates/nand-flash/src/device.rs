//! The NAND device model: implements the native Flash interface over an
//! in-memory array of dies, blocks and pages, with per-die/per-channel
//! occupancy-based timing, wear tracking and bad-block growth.

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
use crate::store::PageStore;
use crate::timing::Channel;
use crate::trace::{TraceEntry, Tracer};

mod faults;
mod submit;

/// Construction-time configuration of a [`NandDevice`].
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Physical organisation of the device.
    pub geometry: FlashGeometry,
    /// Whether page contents are stored (`true`) or only metadata is tracked
    /// (`false`, cheaper — used by trace-driven experiments).  Stored
    /// contents live in the device's page store: one reference-counted slot
    /// per PAGE PROGRAM of host bytes, holding the page's lines that differ
    /// from its fill byte, shared by every COPYBACK and
    /// [`NandDevice::copy_page`] of that page and released by BLOCK ERASE,
    /// in heap chunks of 16 slots taken as the store first needs them.
    /// With `false` the store keeps no slot and every read returns zeroes.
    pub store_data: bool,
    /// Bad-block injection policy.
    pub bad_blocks: BadBlockPolicy,
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
    /// The bytes of every programmed page (see [`crate::store`]).  Always
    /// empty when the device stores no data.
    store: PageStore,
    /// Working lists of [`NandDevice::validate_program_run`], kept for their
    /// capacity between multi-page runs.
    run_scratch: (Vec<(BlockAddr, u32)>, Vec<Ppa>),
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
        let timing = g.nand_type.timing();
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
            store: PageStore::new(g.page_size as usize),
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
    // `NativeFlashInterface` methods, the `submit_*` wrappers and `copy_page`
    // only adapt their arguments.  Each body is generic over where a page's
    // bytes come from or go (`ReadInto`, `ProgramFrom`): a host buffer, or
    // the store itself for `copy_page`.

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
    fn read_run<B: ReadInto>(
        &mut self,
        now: SimInstant,
        ops: &mut [(Ppa, B)],
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
            buf.check(self.geometry.page_size as usize)?;
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
            buf.receive(&self.store, page.data);
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
    fn validate_program_run<D: ProgramFrom>(
        &mut self,
        now: SimInstant,
        ops: &[(Ppa, D, Oob)],
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
            data.check(self.geometry.page_size as usize)?;
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
    fn program_run<D: ProgramFrom>(
        &mut self,
        now: SimInstant,
        ops: &[(Ppa, D, Oob)],
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
            let stored = data.hold(&mut self.store, self.store_data);
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

    /// Move a page inside the device: a PAGE READ of `src`, then a PAGE
    /// PROGRAM of the same bytes to `dst` with `new_oob` (the source's OOB
    /// when `None`), both issued at `now`.  Validation, fault draws, timing,
    /// [`FlashStats`], trace entries and errors are those of
    /// [`read_page`](NativeFlashInterface::read_page) followed by
    /// [`program_page`](NativeFlashInterface::program_page): a read that
    /// fails returns its error before the program issues.  Only the storage
    /// differs: the bytes stay in the device, and `dst` shares the source's
    /// page-store slot instead of taking a copy (exact, because neither page
    /// can change before its block is erased).  Returns the program's
    /// completion.
    pub fn copy_page(
        &mut self,
        now: SimInstant,
        src: Ppa,
        dst: Ppa,
        new_oob: Option<Oob>,
    ) -> FlashResult<OpCompletion> {
        let (src_oob, _) = self.read_run(now, &mut [(src, InStore)])?;
        let slot = self.block_ref(src.block_addr()).page(src.page).data;
        self.program_run(now, &[(dst, Shared(slot), new_oob.unwrap_or(src_oob))])
    }
}

/// Where a PAGE READ puts each page's bytes: a host buffer, or nowhere
/// ([`InStore`]).  `read_run` is generic over it, so each caller compiles to
/// its own copy of the one body.
trait ReadInto {
    /// Check the destination against the page size (a page that stays in
    /// the store needs no check).
    fn check(&self, _page_size: usize) -> FlashResult<()> {
        Ok(())
    }
    /// Take the bytes of a page whose data is `slot` (`None`: not stored).
    fn receive(&mut self, store: &PageStore, slot: Option<u32>);
}

impl ReadInto for &mut [u8] {
    fn check(&self, page_size: usize) -> FlashResult<()> {
        check_buf(self.len(), page_size)
    }

    fn receive(&mut self, store: &PageStore, slot: Option<u32>) {
        match slot {
            Some(slot) => store.read(slot, self),
            None => self.fill(0),
        }
    }
}

/// The read half of [`NandDevice::copy_page`]: the bytes stay in the store.
struct InStore;

impl ReadInto for InStore {
    fn receive(&mut self, _: &PageStore, _: Option<u32>) {}
}

/// What a PAGE PROGRAM stores: host bytes, or a page already in the store
/// ([`Shared`]).  `program_run` is generic over it, like `read_run`.
trait ProgramFrom {
    /// Check the source against the page size (a page already in the store
    /// needs no check).
    fn check(&self, _page_size: usize) -> FlashResult<()> {
        Ok(())
    }
    /// The slot the programmed page holds, if the device stores data.
    fn hold(&self, store: &mut PageStore, store_data: bool) -> Option<u32>;
}

impl ProgramFrom for &[u8] {
    fn check(&self, page_size: usize) -> FlashResult<()> {
        check_buf(self.len(), page_size)
    }

    fn hold(&self, store: &mut PageStore, store_data: bool) -> Option<u32> {
        store_data.then(|| store.put(self))
    }
}

/// The program half of [`NandDevice::copy_page`]: the source page's slot
/// (`None` when the device stores no data), held once more.
struct Shared(Option<u32>);

impl ProgramFrom for Shared {
    fn hold(&self, store: &mut PageStore, _: bool) -> Option<u32> {
        self.0.map(|slot| store.share(slot))
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

        let die_idx = self.die_index(block.die_addr());
        let local = self.block_local_index(&block);
        let erased = self.dies[die_idx].block_mut(local);
        erased.erase(&mut self.store);
        if wears_out || erase_fails {
            erased.mark_bad(BlockHealth::GrownBad);
        }

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
        // The destination shares the source's slot, as in `copy_page`:
        // neither page can change before its block is erased.
        let page = self.block_ref(src.block_addr()).page(src.page);
        let (slot, src_oob) = (page.data, page.oob);
        let data = slot.map(|slot| self.store.share(slot));
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
    use crate::store;
    use sim_utils::SimRng;

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

    /// Every slot of the page store is held by exactly as many pages as its
    /// count says, and the free list is exactly the slots held by none.
    pub(super) fn assert_store_consistent(dev: &NandDevice) {
        let mut holders = vec![0u32; dev.store.refs().len()];
        for (_, block) in dev.iter_blocks() {
            for p in 0..block.pages_per_block() {
                if let Some(slot) = block.page(p).data {
                    holders[slot as usize] += 1;
                }
            }
        }
        assert_eq!(
            holders,
            dev.store.refs(),
            "a slot's count is the pages holding it"
        );
        let held = holders.iter().filter(|&&n| n > 0).count();
        assert_eq!(dev.store.live(), held, "a slot no page holds is free");
    }

    #[test]
    fn recycled_page_buffers_never_leak_old_bytes() {
        let mut dev = tiny_device();
        let (a, b) = (BlockAddr::new(0, 0, 0, 0), BlockAddr::new(0, 0, 0, 1));
        fill_block(&mut dev, a, 0x10);
        dev.erase_block(0, a).unwrap();
        assert_eq!(dev.store.live(), 0, "the erase freed every slot");
        // PROGRAM into a recycled slot: the read returns exactly the new
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
        // holds the source's bytes, not the freed slots' previous ones.
        fill_block(&mut dev, b, 0x80);
        dev.erase_block(0, b).unwrap();
        let dst = b.page(0);
        dev.copyback(0, a.page(0), dst, None).unwrap();
        dev.read_page(0, dst, &mut buf).unwrap();
        assert_eq!(buf, fresh);
        assert_store_consistent(&dev);
    }

    #[test]
    fn copyback_destination_reads_its_bytes_after_the_source_block_is_erased() {
        let mut dev = tiny_device();
        let (a, b) = (BlockAddr::new(0, 0, 0, 0), BlockAddr::new(0, 0, 0, 1));
        fill_block(&mut dev, a, 0x20);
        for p in 0..2 {
            dev.copyback(0, a.page(p), b.page(p), None).unwrap();
        }
        assert_eq!(
            dev.store.live(),
            dev.geometry().pages_per_block as usize,
            "copies share"
        );
        dev.erase_block(0, a).unwrap();
        assert_eq!(dev.store.live(), 2, "the erase kept the two shared slots");
        // Reprogramming the erased block takes other slots.
        fill_block(&mut dev, a, 0x90);
        let mut buf = page_of(&dev, 0);
        for p in 0..2 {
            dev.read_page(0, b.page(p), &mut buf).unwrap();
            assert_eq!(buf, page_of(&dev, 0x20 + p as u8));
        }
        assert_store_consistent(&dev);
    }

    #[test]
    fn fill_erase_cycles_leak_no_slot() {
        let mut dev = tiny_device();
        let ppb = dev.geometry().pages_per_block;
        let mut high_water = 0;
        for cycle in 0..10u8 {
            // Fill blocks 0-3, copy part of each into block 4 or 5, and
            // erase all but the last copies: the pattern of a die's GC.
            for b in 0..4 {
                fill_block(&mut dev, BlockAddr::new(0, 0, 0, b), cycle.wrapping_mul(7));
            }
            let dst = BlockAddr::new(0, 0, 0, 4 + u32::from(cycle % 2));
            for p in 0..ppb {
                let src = BlockAddr::new(0, 0, 0, p % 4).page(p);
                dev.copyback(0, src, dst.page(p), None).unwrap();
            }
            high_water = high_water.max(dev.store.refs().len());
            if cycle > 0 {
                let older = BlockAddr::new(0, 0, 0, 5 - u32::from(cycle % 2));
                dev.erase_block(0, older).unwrap();
            }
            for b in 0..4 {
                dev.erase_block(0, BlockAddr::new(0, 0, 0, b)).unwrap();
                assert_store_consistent(&dev);
            }
            assert_eq!(
                dev.store.live(),
                ppb as usize,
                "only the last copies hold slots"
            );
        }
        assert_store_consistent(&dev);
        // At most 5 blocks' worth is held at once (4 filled, the older
        // copies), rounded up to whole chunks of 16.
        assert!(
            high_water <= 6 * ppb as usize,
            "{high_water} slots for at most 5 full blocks"
        );
    }

    #[test]
    fn seeded_program_copyback_erase_cycles_read_the_last_bytes_written() {
        for (seed, page_size) in [(0, 512), (1, 4096), (2, 4096)] {
            let mut rng = SimRng::new(seed);
            let g = FlashGeometry {
                page_size,
                ..FlashGeometry::tiny()
            };
            let mut dev = NandDevice::with_geometry(g);
            let (blocks, ppb) = (g.blocks_per_plane, g.pages_per_block as usize);
            // The bytes last written to each page of each block, in
            // program order.
            let mut written: Vec<Vec<Vec<u8>>> = vec![Vec::new(); blocks as usize];
            let mut buf = vec![0; page_size as usize];
            for _ in 0..2_000 {
                let b = rng.range(0, u64::from(blocks)) as u32;
                let (at, dst) = (BlockAddr::new(0, 0, 0, b), written[b as usize].len());
                match rng.range(0, 8) {
                    0..=3 if dst < ppb => {
                        let page = store::tests::shaped_page(&mut rng, page_size as usize);
                        dev.program_page(0, at.page(dst as u32), &page, Oob::data(0, 0))
                            .unwrap();
                        written[b as usize].push(page);
                    }
                    4 | 5 if dst < ppb => {
                        let s = rng.range(0, u64::from(blocks)) as usize;
                        if s != b as usize && !written[s].is_empty() {
                            let p = rng.range_usize(0, written[s].len());
                            let src = BlockAddr::new(0, 0, 0, s as u32).page(p as u32);
                            dev.copyback(0, src, at.page(dst as u32), None).unwrap();
                            let page = written[s][p].clone();
                            written[b as usize].push(page);
                        }
                    }
                    6 => {
                        dev.erase_block(0, at).unwrap();
                        written[b as usize].clear();
                    }
                    _ => {}
                }
                let b = rng.range(0, u64::from(blocks)) as usize;
                if !written[b].is_empty() {
                    let p = rng.range_usize(0, written[b].len());
                    let ppa = BlockAddr::new(0, 0, 0, b as u32).page(p as u32);
                    dev.read_page(0, ppa, &mut buf).unwrap();
                    assert_eq!(buf, written[b][p], "seed {seed}: {ppa:?}");
                }
            }
            for (b, pages) in written.iter().enumerate() {
                for (p, page) in pages.iter().enumerate() {
                    let ppa = BlockAddr::new(0, 0, 0, b as u32).page(p as u32);
                    dev.read_page(0, ppa, &mut buf).unwrap();
                    assert_eq!(&buf, page, "seed {seed}: {ppa:?}");
                }
            }
            assert_store_consistent(&dev);
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
        let mut buf = page_of(&dev, 0xFF);
        fill_block(&mut dev, a, 2);
        dev.read_page(0, a.page(0), &mut buf).unwrap();
        assert_eq!(buf, page_of(&dev, 0), "an unstored page reads as zeroes");
        assert!(dev.store.refs().is_empty(), "the store never took a slot");
    }

    /// Two dies of two planes, so a copy can stay on its plane, change
    /// plane or change die.
    fn two_plane_geometry(page_size: u32) -> FlashGeometry {
        FlashGeometry {
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 4,
            page_size,
            ..FlashGeometry::tiny()
        }
    }

    #[test]
    fn copy_page_shares_its_source_slot_until_both_blocks_are_erased() {
        let mut dev = NandDevice::with_geometry(two_plane_geometry(4096));
        let (a, b) = (BlockAddr::new(0, 0, 0, 0), BlockAddr::new(0, 0, 1, 0));
        let page = store::tests::shaped_page(&mut SimRng::new(3), 4096);
        dev.program_page(0, a.page(0), &page, Oob::data(7, 0)).unwrap();
        dev.copy_page(0, a.page(0), b.page(0), None).unwrap();
        let slot = dev.block_ref(a).page(0).data.unwrap();
        assert_eq!(dev.block_ref(b).page(0).data, Some(slot), "dst shares src's slot");
        assert_eq!((dev.store.live(), dev.store.refs()[slot as usize]), (1, 2));
        dev.erase_block(0, a).unwrap();
        assert_eq!(dev.store.live(), 1, "the copy still holds the slot");
        let mut buf = page_of(&dev, 0);
        let (oob, _) = dev.read_page(0, b.page(0), &mut buf).unwrap();
        assert_eq!((buf, oob.lpn), (page, 7));
        dev.erase_block(0, b).unwrap();
        assert_eq!(dev.store.live(), 0, "erasing both blocks freed the slot");
        assert_store_consistent(&dev);
    }

    /// `copy_page` on one device and `read_page` + `program_page` on its
    /// twin, driven by the same seeded mix of PROGRAM, COPYBACK, copy and
    /// ERASE under the same fault plan (ECC and program failures, erase
    /// failures and wear-out, one die kill): every step returns the same
    /// stamps or the same error, the page it wrote reads back the same, and
    /// the stats, trace and every page agree at the end.
    #[test]
    fn copy_page_is_a_read_then_a_program() {
        let cases = [(0, 512, true, true), (1, 4096, true, false), (2, 4096, false, true)];
        for (seed, page_size, store_data, strict) in cases {
            let g = two_plane_geometry(page_size);
            let mut plan = FaultPlan::seeded(seed).with_die_kill(1_200, 1);
            plan.program_fail_base = 0.03;
            plan.read_error_base = 0.1;
            plan.uncorrectable_fraction = 0.3;
            plan.erase_fail_prob = 0.3;
            let twin = || {
                NandDevice::new(DeviceConfig {
                    store_data,
                    trace_capacity: 8_192,
                    strict_sequential_program: strict,
                    endurance_override: Some(16),
                    faults: Some(plan.clone()),
                    ..DeviceConfig::new(g)
                })
            };
            let (mut a, mut b) = (twin(), twin());
            let mut rng = SimRng::new(seed);
            let mut buf = vec![0; page_size as usize];
            let block = |rng: &mut SimRng| BlockAddr::from_flat(&g, rng.range(0, g.total_blocks()));
            // A page of a random block: mostly a written one (or, for a
            // destination, the next free one), now and then any page.
            let page = |rng: &mut SimRng, dev: &NandDevice, written: bool| {
                let at = block(rng);
                let next = dev.block_ref(at).next_program_page();
                let p = match rng.range(0, 10) {
                    0 => rng.range(0, u64::from(g.pages_per_block)) as u32,
                    _ if written => rng.range(0, u64::from(next.max(1))) as u32,
                    _ => next.min(g.pages_per_block - 1),
                };
                at.page(p)
            };
            let mut other = buf.clone();
            for step in 0..1_500u64 {
                let now = step * 50_000;
                // Each step returns both results and the page it wrote.
                let (ra, rb, wrote) = match rng.range(0, 20) {
                    0..=6 => {
                        let dst = page(&mut rng, &a, false);
                        let data = store::tests::shaped_page(&mut rng, page_size as usize);
                        let oob = Oob::data(step, 0);
                        let rb = b.program_page(now, dst, &data, oob);
                        (a.program_page(now, dst, &data, oob), rb, Some(dst))
                    }
                    7..=9 => {
                        let (src, dst) = (page(&mut rng, &a, true), page(&mut rng, &a, false));
                        let rb = b.copyback(now, src, dst, None);
                        (a.copyback(now, src, dst, None), rb, Some(dst))
                    }
                    10..=16 => {
                        let (src, dst) = (page(&mut rng, &a, true), page(&mut rng, &a, false));
                        let new_oob = rng.bool_with_prob(0.5).then(|| Oob::data(step, 0));
                        let rb = match b.read_page(now, src, &mut buf) {
                            Ok((oob, _)) => b.program_page(now, dst, &buf, new_oob.unwrap_or(oob)),
                            Err(e) => Err(e),
                        };
                        (a.copy_page(now, src, dst, new_oob), rb, Some(dst))
                    }
                    _ => {
                        let at = block(&mut rng);
                        (a.erase_block(now, at), b.erase_block(now, at), None)
                    }
                };
                assert_eq!(ra, rb, "seed {seed} step {step}");
                // Read back what the step wrote: same result, same bytes.
                if let (Ok(_), Some(ppa)) = (ra, wrote) {
                    buf.fill(0xEE);
                    other.fill(0xEE);
                    let ra = a.read_page(now, ppa, &mut buf);
                    assert_eq!(ra, b.read_page(now, ppa, &mut other), "seed {seed} step {step}");
                    assert_eq!(buf, other, "seed {seed} step {step}: {ppa:?}");
                }
            }
            assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()), "seed {seed}");
            assert_eq!(a.tracer().entries(), b.tracer().entries(), "seed {seed}");
            assert_eq!(a.tracer().dropped(), 0, "seed {seed}: the trace kept every command");
            let s = a.stats();
            for (what, n) in [
                ("uncorrectable read", s.uncorrectable_reads),
                ("program failure", s.program_failures),
                ("copyback", s.copybacks),
                ("erase failure", s.erase_failures),
            ] {
                assert!(n > 0, "seed {seed}: no {what}");
            }
            assert!(a.any_die_dead(), "seed {seed}: the kill fired");
            // Read every page back without faults: same result, same bytes.
            a.set_fault_plan(None);
            b.set_fault_plan(None);
            for flat in 0..g.total_pages() {
                let ppa = Ppa::from_flat(&g, flat);
                assert_eq!(a.page_state(ppa), b.page_state(ppa), "seed {seed}: {ppa:?}");
                assert_eq!(a.peek_oob(ppa), b.peek_oob(ppa), "seed {seed}: {ppa:?}");
                buf.fill(0xEE);
                other.fill(0xEE);
                let (ra, rb) = (a.read_page(0, ppa, &mut buf), b.read_page(0, ppa, &mut other));
                assert_eq!(ra, rb, "seed {seed}: {ppa:?}");
                assert_eq!(buf, other, "seed {seed}: {ppa:?}");
            }
            assert_store_consistent(&a);
            assert_store_consistent(&b);
        }
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
