//! ARIES-style write-ahead logging with group commit.
//!
//! Shore-MT uses ARIES; this reproduction implements the redo path that
//! matters for the storage experiments: every page update is logged before
//! the page is written, commits force the log, and recovery replays the log
//! onto the data pages.  The log lives in a dedicated, sequentially written
//! page range of the same backend ("log segment"); truncating it frees pages
//! back to the backend via dead-page hints — one more example of the DBMS
//! knowledge NoFTL can exploit.
//!
//! **Group commit.** The log buffer accumulates records across transactions
//! and a force writes the whole multi-page tail as *one* batched
//! [`StorageBackend::write_pages`] submission: consecutive log pages stripe
//! die-wise (page ids are sequential, and the NoFTL backend places
//! `lpn mod regions`), so a k-page force fans out over k dies in parallel
//! instead of paying k sequential page writes.  Commit-time forcing can
//! additionally be deferred ([`WalManager::set_group_commit`]) so several
//! committing transactions share one force; durability advances only on the
//! real force, and a crash before the group fills simply loses the
//! not-yet-forced commits — which is exactly what recovery replays.
//!
//! **Log page format.** Every log page is self-describing:
//! `magic (u16) | payload_len (u16) | page_seq (u32)` followed by
//! `payload_len` bytes of the record stream.  Records may straddle pages
//! within one force; the header's payload length is what lets
//! [`WalManager::recover_records`] rebuild the exact durable record stream
//! from the backend alone after a crash, skipping end-of-force padding
//! unambiguously.  `page_seq` is the monotone log-page counter, so a stale
//! page from an earlier lap of the (wrapped) segment terminates the scan.

use bytes::{Buf, BufMut};
use nand_flash::FlashResult;
use sim_utils::time::SimInstant;

use crate::backend::{InflightWindow, StorageBackend, DEFAULT_BATCH_PAGES};
use crate::page::PageId;
use crate::transaction::TxnId;

/// Bytes of the self-describing per-page header.
const LOG_PAGE_HEADER: usize = 8;

/// Magic tag marking a valid log page ("WL").
const LOG_PAGE_MAGIC: u16 = 0x574C;

/// Flag bit in the header's payload-length field marking a log page whose
/// payload starts on a record boundary (the first page of a force).  Page
/// payloads never come close to 32 KiB, so the bit is free — and it is what
/// lets [`WalManager::recover_records_from`] resynchronise the record decoder
/// after skipping an unreadable (e.g. retired) log page instead of treating
/// the hole as the end of the log.
const LOG_PAGE_ALIGNED: u16 = 0x8000;

/// Log sequence number (byte offset in the logical log).
pub type Lsn = u64;

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A transaction started.
    Begin {
        /// Transaction id.
        txn: TxnId,
    },
    /// A page-level redo update: `bytes` were written at `offset` in the
    /// record identified by (`page`, `slot`).
    Update {
        /// Transaction id.
        txn: TxnId,
        /// Page the update applies to.
        page: PageId,
        /// Slot within the page.
        slot: u16,
        /// New record image.
        bytes: Vec<u8>,
    },
    /// Transaction committed.
    Commit {
        /// Transaction id.
        txn: TxnId,
    },
    /// Transaction aborted.
    Abort {
        /// Transaction id.
        txn: TxnId,
    },
    /// Checkpoint marker (all earlier updates are on stable storage).
    Checkpoint,
}

impl LogRecord {
    fn kind_tag(&self) -> u8 {
        match self {
            LogRecord::Begin { .. } => 1,
            LogRecord::Update { .. } => 2,
            LogRecord::Commit { .. } => 3,
            LogRecord::Abort { .. } => 4,
            LogRecord::Checkpoint => 5,
        }
    }

    /// Serialize to a length-prefixed byte record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the length-prefixed byte record to `out` — the log buffer
    /// itself, so a record is encoded where it will live — and return the
    /// number of bytes appended.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        // The length prefix is patched in once the body is written.
        out.put_u32_le(0);
        out.put_u8(self.kind_tag());
        match self {
            LogRecord::Begin { txn } | LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                out.put_u64_le(*txn);
            }
            LogRecord::Update {
                txn,
                page,
                slot,
                bytes,
            } => {
                out.put_u64_le(*txn);
                out.put_u64_le(*page);
                out.put_u16_le(*slot);
                out.put_u32_le(bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            LogRecord::Checkpoint => {}
        }
        let body_len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
        out.len() - start
    }

    /// Decode one record from the front of `data`; returns the record and the
    /// number of bytes consumed, or `None` for a truncated/empty record.
    pub fn decode(data: &[u8]) -> Option<(LogRecord, usize)> {
        if data.len() < 4 {
            return None;
        }
        let mut cursor = data;
        let len = cursor.get_u32_le() as usize;
        if len == 0 || cursor.len() < len {
            return None;
        }
        let mut body = &cursor[..len];
        let tag = body.get_u8();
        let record = match tag {
            1 => LogRecord::Begin {
                txn: body.get_u64_le(),
            },
            2 => {
                let txn = body.get_u64_le();
                let page = body.get_u64_le();
                let slot = body.get_u16_le();
                let blen = body.get_u32_le() as usize;
                LogRecord::Update {
                    txn,
                    page,
                    slot,
                    bytes: body[..blen].to_vec(),
                }
            }
            3 => LogRecord::Commit {
                txn: body.get_u64_le(),
            },
            4 => LogRecord::Abort {
                txn: body.get_u64_le(),
            },
            5 => LogRecord::Checkpoint,
            _ => return None,
        };
        Some((record, 4 + len))
    }
}

/// The log manager: an append-only buffer flushed to a dedicated page range.
pub struct WalManager {
    /// First page id of the log segment.
    log_start: PageId,
    /// Number of pages in the log segment.
    log_pages: u64,
    page_size: usize,
    /// In-memory tail of the log not yet flushed.
    buffer: Vec<u8>,
    /// Next LSN to assign (logical byte offset).
    next_lsn: Lsn,
    /// LSN up to which the log is durable.
    flushed_lsn: Lsn,
    /// Next log page (within the segment) to write.
    next_log_page: u64,
    /// Number of log page writes (sequential Flash writes).
    log_writes: u64,
    /// Number of forced flushes (commits).
    forces: u64,
    /// Max pages per batched log write; 0 = legacy one-page-at-a-time forces.
    batch_pages: usize,
    /// Log-write submissions kept in flight before gating on the oldest
    /// completion (1 = synchronous chaining, identical to the pre-async code).
    async_depth: usize,
    /// In-flight log-write submissions (bounded by `async_depth`; persists
    /// across forces so consecutive group commits overlap on the device
    /// queues).
    inflight: InflightWindow,
    /// Commits per force under group commit (1 = force on every commit).
    group_commit: usize,
    /// Commits appended since the last force.
    pending_commits: u64,
    /// Start-of-log pointer: the sequence number of the oldest log page
    /// recovery must scan from.  Advanced by [`WalManager::note_checkpoint`]
    /// (a checkpoint makes everything earlier redundant); what a real system
    /// would persist in its checkpoint record.  When the log laps a stale
    /// pointer, [`WalManager::flush`] advances it to the oldest fully-live
    /// force start — only force starts are guaranteed record-aligned.
    recovery_start_seq: u64,
    /// LSN at the last checkpoint mark (start of the recoverable stream).
    checkpoint_lsn: Lsn,
    /// Start (sequence, LSN) of recent forces still within one segment lap:
    /// the record-aligned points the start-of-log pointer may advance to when
    /// a wrap overruns it.  Bounded by the number of forces per lap.
    force_starts: std::collections::VecDeque<(u64, Lsn)>,
    /// Complete, decoded copy of everything appended (recovery source).
    records: Vec<(Lsn, LogRecord)>,
    /// The framed log pages of the submission in progress, back to back —
    /// at most one batch's worth, kept for its capacity between forces.
    frame_bytes: Vec<u8>,
}

impl WalManager {
    /// Create a WAL over the page range `[log_start, log_start + log_pages)`:
    /// synchronous, batching [`DEFAULT_BATCH_PAGES`] pages per submission
    /// (the engine sets both from its flusher configuration).
    pub fn new(log_start: PageId, log_pages: u64, page_size: usize) -> Self {
        assert!(log_pages >= 2, "log segment too small");
        assert!(
            page_size > LOG_PAGE_HEADER,
            "page size must exceed the log page header"
        );
        assert!(
            page_size - LOG_PAGE_HEADER < LOG_PAGE_ALIGNED as usize,
            "log page payload length must fit the header's u16 length field"
        );
        Self {
            log_start,
            log_pages,
            page_size,
            buffer: Vec::new(),
            next_lsn: 0,
            flushed_lsn: 0,
            next_log_page: 0,
            log_writes: 0,
            forces: 0,
            batch_pages: DEFAULT_BATCH_PAGES,
            async_depth: 1,
            inflight: InflightWindow::new(),
            group_commit: 1,
            pending_commits: 0,
            recovery_start_seq: 0,
            checkpoint_lsn: 0,
            force_starts: std::collections::VecDeque::new(),
            records: Vec::new(),
            frame_bytes: Vec::new(),
        }
    }

    /// Checkpoint the start-of-log pointer: everything flushed so far is
    /// covered by the checkpoint (data pages durable), so recovery may start
    /// its scan at the *next* log page instead of page-sequence 0 — which is
    /// what lets [`WalManager::recover_records_from`] handle a wrapped
    /// segment.  Returns the new start sequence (the value a real system
    /// would persist in its checkpoint record).  Call after a flush; any
    /// still-buffered tail stays recoverable (it lands at or after the
    /// returned sequence).
    pub fn note_checkpoint(&mut self) -> u64 {
        self.recovery_start_seq = self.next_log_page;
        // The buffer holds exactly [flushed_lsn, next_lsn): the first record
        // that can land at the new start sequence begins at flushed_lsn.
        self.checkpoint_lsn = self.flushed_lsn;
        // Force starts behind the pointer can never be recovery targets.
        self.force_starts
            .retain(|&(seq, _)| seq >= self.recovery_start_seq);
        self.recovery_start_seq
    }

    /// The checkpointed start-of-log pointer (page sequence recovery scans
    /// from).
    pub fn recovery_start_seq(&self) -> u64 {
        self.recovery_start_seq
    }

    /// LSN of the first record recovery can see (records before the last
    /// checkpoint mark may have been overwritten by a log wrap).
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.checkpoint_lsn
    }

    /// Set the maximum pages per batched log write (0 disables batching).
    pub fn set_batch_pages(&mut self, batch_pages: usize) {
        self.batch_pages = batch_pages;
    }

    /// Set the number of log-write submissions kept in flight (clamped to at
    /// least 1; 1 restores the synchronous chaining).
    pub fn set_async_depth(&mut self, depth: usize) {
        self.async_depth = depth.max(1);
    }

    /// Log-write submissions currently in flight.
    pub fn inflight_writes(&self) -> usize {
        self.inflight.len()
    }

    /// Log-write submissions genuinely in flight *as of* `now` (completion
    /// still in the future).  Unlike [`WalManager::inflight_writes`] this
    /// does not count entries whose completion has passed but which the
    /// depth gate has not yet popped — the honest pressure signal the
    /// commit-admission window reads.
    pub fn inflight_groups_at(&self, now: SimInstant) -> usize {
        self.inflight.inflight_at(now)
    }

    /// The instant by which every in-flight log write has completed (at
    /// least `now`), without draining the window — what an admission wait
    /// targets while the WAL keeps pipelining.
    pub fn inflight_horizon(&self, now: SimInstant) -> SimInstant {
        self.inflight.horizon(now)
    }

    /// Barrier: the instant by which every in-flight log write has completed
    /// (at least `now`).  Clears the window.  Under the synchronous model
    /// (depth 1) every write was already waited for, so the barrier is `now`.
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        let end = self.inflight.drain(now);
        if self.async_depth > 1 {
            end
        } else {
            now
        }
    }

    /// Set the group-commit factor: a commit-time force is deferred until
    /// `commits` transactions are pending (1 restores force-per-commit).
    pub fn set_group_commit(&mut self, commits: usize) {
        self.group_commit = commits.max(1);
    }

    /// Commits appended since the last force (pending group).
    pub fn pending_commits(&self) -> u64 {
        self.pending_commits
    }

    /// Append a record; returns its LSN. The record is durable only after a
    /// flush/force.
    pub fn append(&mut self, record: LogRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += record.encode_into(&mut self.buffer) as u64;
        self.records.push((lsn, record));
        lsn
    }

    /// LSN that would be assigned to the next record.
    pub fn current_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// LSN up to which the log is known durable.
    pub fn flushed_lsn(&self) -> Lsn {
        self.flushed_lsn
    }

    /// Number of log page writes performed.
    pub fn log_writes(&self) -> u64 {
        self.log_writes
    }

    /// Number of forced (commit-time) flushes.
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// Force the log at commit time, honouring group commit: the commit
    /// record is already appended; when fewer than the configured number of
    /// commits are pending the force is deferred, so several transactions
    /// share one batched log write.  Durability (and therefore
    /// [`WalManager::flushed_lsn`]) only advances on the real force.
    pub fn commit_force(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        self.pending_commits += 1;
        if self.pending_commits >= self.group_commit as u64 {
            self.flush(backend, now)
        } else {
            Ok(now)
        }
    }

    /// Flush the buffered log tail to the log segment as batched, die-wise
    /// placed log-page writes (or one page at a time when batching is off).
    /// Returns the virtual time after the writes complete — the durability
    /// instant of this force.
    ///
    /// Under the asynchronous model (`set_async_depth` > 1) the force's
    /// submissions are gated only by the in-flight window instead of chaining
    /// on each other's completions, so a multi-group force — and consecutive
    /// group commits — pipeline on the device's per-die queues.  Depth 1
    /// reproduces the synchronous chaining exactly.
    pub fn flush(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        if self.buffer.is_empty() {
            return Ok(now);
        }
        if self.async_depth <= 1 {
            // Synchronous semantics: no carry-over between forces.
            self.inflight.clear();
        }
        self.forces += 1;
        self.pending_commits = 0;
        let payload_cap = self.page_size - LOG_PAGE_HEADER;
        let pages = self.buffer.len().div_ceil(payload_cap) as u64;
        // Keep the start-of-log pointer live across wraps.  This force's
        // pages overwrite every slot whose sequence lies more than one lap
        // behind its end; if that overruns the checkpointed pointer, advance
        // it to the oldest force start that is still fully live (force
        // starts are the only record-aligned scan points).  A force larger
        // than the segment destroys its own head: nothing record-aligned
        // survives, and the pointer moves past it.
        let force_start_seq = self.next_log_page;
        self.force_starts.push_back((force_start_seq, self.flushed_lsn));
        let end_seq = force_start_seq + pages;
        let oldest_live = end_seq.saturating_sub(self.log_pages);
        while self
            .force_starts
            .front()
            .is_some_and(|&(seq, _)| seq < oldest_live)
        {
            self.force_starts.pop_front();
        }
        if self.recovery_start_seq < oldest_live {
            match self.force_starts.front() {
                Some(&(seq, lsn)) => {
                    self.recovery_start_seq = seq;
                    self.checkpoint_lsn = lsn;
                }
                None => {
                    self.recovery_start_seq = end_seq;
                    self.checkpoint_lsn = self.next_lsn;
                }
            }
        }
        let mut frames = std::mem::take(&mut self.frame_bytes);
        let written = self.write_tail(backend, now, &mut frames);
        self.frame_bytes = frames;
        let t = written?;
        self.next_log_page += pages;
        self.log_writes += pages;
        self.buffer.clear();
        self.flushed_lsn = self.next_lsn;
        // Log durability is prefix-ordered: this force's records are only
        // recoverable once every earlier in-flight log write has landed too
        // (recovery's monotone page_seq scan stops at the first hole).  The
        // reported durability instant therefore covers the whole window —
        // without draining it, so later forces keep pipelining.
        Ok(self.inflight.horizon(t))
    }

    /// Frame the buffered tail into self-describing log pages and write
    /// them, one submission's worth at a time through `frames`.  Returns
    /// when the last write completes.
    fn write_tail(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        frames: &mut Vec<u8>,
    ) -> FlashResult<SimInstant> {
        let payload_cap = self.page_size - LOG_PAGE_HEADER;
        // Batching off: one page per submission.  Otherwise cap groups at the
        // segment length so a page id can never repeat within one submission;
        // pages within a group are placed die-wise and overlap, groups are
        // gated by the in-flight window (depth 1: each group chains on the
        // previous one's completion).
        let group_cap = self.batch_pages.min(self.log_pages as usize).max(1);
        let (log_start, log_pages) = (self.log_start, self.log_pages);
        let page_id = |seq: u64| log_start + seq % log_pages;
        let force_start_seq = self.next_log_page;
        let mut seq = force_start_seq;
        let mut t = now;
        for group in self.buffer.chunks(group_cap * payload_cap) {
            let first_seq = seq;
            frames.clear();
            frames.resize(group.len().div_ceil(payload_cap) * self.page_size, 0);
            for (page, chunk) in frames
                .chunks_exact_mut(self.page_size)
                .zip(group.chunks(payload_cap))
            {
                // The buffer holds whole records, so the force's first page
                // is record-aligned — flag it as a recovery
                // resynchronisation point.
                let aligned = if seq == force_start_seq { LOG_PAGE_ALIGNED } else { 0 };
                let len_field = chunk.len() as u16 | aligned;
                page[0..2].copy_from_slice(&LOG_PAGE_MAGIC.to_le_bytes());
                page[2..4].copy_from_slice(&len_field.to_le_bytes());
                page[4..8].copy_from_slice(&(seq as u32).to_le_bytes());
                page[LOG_PAGE_HEADER..LOG_PAGE_HEADER + chunk.len()].copy_from_slice(chunk);
                seq += 1;
            }
            let submit_at = self.inflight.gate(self.async_depth, now);
            // A lap over an old log page: the backend gets a dead-page hint
            // before the rewrite (log truncation knowledge).
            for lap in (first_seq..seq).filter(|&s| s >= log_pages) {
                backend.free_page_hint(submit_at, page_id(lap))?;
            }
            let end = if self.batch_pages == 0 {
                backend
                    .write_page(submit_at, page_id(first_seq), frames)?
                    .completed_at
            } else if seq == first_seq + 1 {
                // The usual force is one log page: no list to build.
                backend.write_pages(submit_at, &[(page_id(first_seq), frames)])?
            } else {
                let batch: Vec<(PageId, &[u8])> = (first_seq..seq)
                    .map(page_id)
                    .zip(frames.chunks(self.page_size))
                    .collect();
                backend.write_pages(submit_at, &batch)?
            };
            self.inflight.push(end);
            t = t.max(end);
        }
        Ok(t)
    }

    /// Rebuild the durable record stream from the backend alone — what crash
    /// recovery sees for a log that never wrapped (start-of-log pointer 0).
    /// See [`WalManager::recover_records_from`] for the wrapped-segment form.
    pub fn recover_records(
        backend: &mut dyn StorageBackend,
        log_start: PageId,
        log_pages: u64,
        page_size: usize,
        now: SimInstant,
    ) -> Vec<(Lsn, LogRecord)> {
        Self::recover_records_from(backend, log_start, log_pages, page_size, 0, now)
    }

    /// Rebuild the durable record stream from the backend alone, starting at
    /// the checkpointed start-of-log pointer `start_seq` (see
    /// [`WalManager::note_checkpoint`]) — what crash recovery sees.
    ///
    /// Scans up to one full lap of the segment in *sequence* order
    /// (`start_seq, start_seq + 1, …`, each mapped to its slot
    /// `log_start + seq % log_pages`), accepts pages whose header carries the
    /// right magic and the expected monotone sequence number, concatenates
    /// their payloads (skipping end-of-force padding via the per-page payload
    /// length) and decodes records until the stream ends.  A slot still
    /// holding a page from an earlier lap has a stale sequence number and
    /// terminates the scan — which is exactly what makes the scan correct on
    /// a wrapped segment: the start pointer says where the oldest live page
    /// is, and staleness marks the durable frontier.
    ///
    /// Returned LSNs are relative to the scan start (recovery has no older
    /// context by construction — everything before the checkpoint is gone);
    /// records after a skipped hole keep ascending LSNs, with the lost bytes
    /// collapsed.
    ///
    /// **Unreadable log pages.** A read error (for example an uncorrectable
    /// ECC result from a log page whose block was later retired) does *not*
    /// end the scan: the hole's bytes are gone, so the current record run is
    /// closed, the scan continues, and decoding resynchronises at the next
    /// page flagged record-aligned (the first page of a force — see
    /// [`LOG_PAGE_ALIGNED`]).  Only a stale or never-written page — wrong
    /// magic or out-of-sequence header — marks the durable frontier and
    /// terminates the scan.
    pub fn recover_records_from(
        backend: &mut dyn StorageBackend,
        log_start: PageId,
        log_pages: u64,
        page_size: usize,
        start_seq: u64,
        now: SimInstant,
    ) -> Vec<(Lsn, LogRecord)> {
        let payload_cap = page_size - LOG_PAGE_HEADER;
        // Contiguous, record-aligned byte runs; a hole (or the mid-record
        // pages following one) separates runs.  The scan start is always
        // record-aligned: it is page-sequence 0 or a checkpointed force
        // start.
        let mut runs: Vec<Vec<u8>> = Vec::new();
        let mut current: Option<Vec<u8>> = Some(Vec::new());
        let mut buf = vec![0u8; page_size];
        for seq in start_seq..start_seq + log_pages {
            let slot = log_start + (seq % log_pages);
            if backend.read_page(now, slot, &mut buf).is_err() {
                // Unreadable log page: its records are lost, but committed
                // records on later pages are not — close the run and keep
                // scanning rather than declaring end-of-log.
                if let Some(run) = current.take() {
                    if !run.is_empty() {
                        runs.push(run);
                    }
                }
                continue;
            }
            let magic = u16::from_le_bytes([buf[0], buf[1]]);
            let len_field = u16::from_le_bytes([buf[2], buf[3]]);
            let aligned = len_field & LOG_PAGE_ALIGNED != 0;
            let len = (len_field & !LOG_PAGE_ALIGNED) as usize;
            let page_seq = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
            if magic != LOG_PAGE_MAGIC || page_seq != seq as u32 || len == 0 || len > payload_cap
            {
                break;
            }
            match current.as_mut() {
                Some(run) => run.extend_from_slice(&buf[LOG_PAGE_HEADER..LOG_PAGE_HEADER + len]),
                // Resynchronising after a hole: pages continuing a record
                // whose head fell into the hole cannot be decoded and are
                // dropped; the next force start opens a fresh run.
                None if aligned => {
                    let mut run = Vec::new();
                    run.extend_from_slice(&buf[LOG_PAGE_HEADER..LOG_PAGE_HEADER + len]);
                    current = Some(run);
                }
                None => {}
            }
        }
        if let Some(run) = current.take() {
            if !run.is_empty() {
                runs.push(run);
            }
        }
        let mut records = Vec::new();
        let mut lsn: Lsn = 0;
        for run in &runs {
            let mut cursor = &run[..];
            while let Some((record, used)) = LogRecord::decode(cursor) {
                records.push((lsn, record));
                lsn += used as u64;
                cursor = &cursor[used..];
            }
        }
        records
    }

    /// All records appended so far (durable or not), with their LSNs.
    /// Recovery replays the durable prefix.
    pub fn records(&self) -> &[(Lsn, LogRecord)] {
        &self.records
    }

    /// Records with LSN strictly below the durable horizon — what recovery
    /// would see after a crash.
    pub fn durable_records(&self) -> impl Iterator<Item = &(Lsn, LogRecord)> + '_ {
        self.records.iter().filter(move |(lsn, _)| *lsn < self.flushed_lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn encode_decode_roundtrip() {
        let records = vec![
            LogRecord::Begin { txn: 7 },
            LogRecord::Update {
                txn: 7,
                page: 12,
                slot: 3,
                bytes: b"payload".to_vec(),
            },
            LogRecord::Commit { txn: 7 },
            LogRecord::Abort { txn: 8 },
            LogRecord::Checkpoint,
        ];
        // Every variant, encoded into one shared buffer behind a prefix (the
        // log buffer is never empty mid-transaction) and appended to a log.
        let mut shared = b"earlier records".to_vec();
        let mut wal = WalManager::new(32, 16, 4096);
        for r in records {
            let enc = r.encode();
            let (dec, used) = LogRecord::decode(&enc).unwrap();
            assert_eq!(dec, r);
            assert_eq!(used, enc.len());
            let at = shared.len();
            assert_eq!(r.encode_into(&mut shared), enc.len());
            assert_eq!(shared[at..], enc[..], "encode_into appends exactly encode()'s bytes");
            assert_eq!(LogRecord::decode(&shared[at..]), Some((r.clone(), enc.len())));
            let lsn = wal.append(r);
            assert_eq!(wal.current_lsn(), lsn + enc.len() as u64);
        }
        assert!(shared.starts_with(b"earlier records"), "the prefix is left alone");
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let enc = LogRecord::Commit { txn: 1 }.encode();
        assert!(LogRecord::decode(&enc[..2]).is_none());
        assert!(LogRecord::decode(&[]).is_none());
        assert!(LogRecord::decode(&[0, 0, 0, 0]).is_none());
    }

    #[test]
    fn lsns_are_monotone_and_flush_advances_horizon() {
        let mut backend = MemBackend::new(4096, 64);
        let mut wal = WalManager::new(32, 16, 4096);
        let l1 = wal.append(LogRecord::Begin { txn: 1 });
        let l2 = wal.append(LogRecord::Commit { txn: 1 });
        assert!(l2 > l1);
        assert_eq!(wal.flushed_lsn(), 0);
        wal.flush(&mut backend, 0).unwrap();
        assert_eq!(wal.flushed_lsn(), wal.current_lsn());
        assert!(wal.log_writes() >= 1);
        assert_eq!(backend.counters().host_writes, wal.log_writes());
    }

    #[test]
    fn durable_records_exclude_unflushed_tail() {
        let mut backend = MemBackend::new(4096, 64);
        let mut wal = WalManager::new(32, 16, 4096);
        wal.append(LogRecord::Begin { txn: 1 });
        wal.flush(&mut backend, 0).unwrap();
        wal.append(LogRecord::Commit { txn: 1 });
        let durable: Vec<_> = wal.durable_records().collect();
        assert_eq!(durable.len(), 1);
        assert!(matches!(durable[0].1, LogRecord::Begin { .. }));
    }

    #[test]
    fn log_wraps_and_hints_dead_pages() {
        let mut backend = MemBackend::new(512, 64);
        // A 2-page log segment forces wrap-around quickly.
        let mut wal = WalManager::new(8, 2, 512);
        for i in 0..10u64 {
            wal.append(LogRecord::Update {
                txn: i,
                page: i,
                slot: 0,
                bytes: vec![0u8; 200],
            });
            wal.flush(&mut backend, 0).unwrap();
        }
        assert!(wal.log_writes() >= 10);
        // Wrapped writes only ever touch the two log pages.
        assert!(backend.counters().host_writes >= 10);
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let mut backend = MemBackend::new(4096, 16);
        let mut wal = WalManager::new(0, 4, 4096);
        let t = wal.flush(&mut backend, 123).unwrap();
        assert_eq!(t, 123);
        assert_eq!(wal.forces(), 0);
    }

    #[test]
    #[should_panic(expected = "u16")]
    fn page_size_overflowing_the_header_length_field_is_rejected() {
        // 128 KiB pages would wrap the header's u16 payload length and
        // corrupt recovery; the constructor must refuse them.
        let _ = WalManager::new(0, 4, 128 * 1024);
    }

    #[test]
    fn recovery_from_backend_matches_durable_records() {
        let mut backend = MemBackend::new(512, 256);
        let mut wal = WalManager::new(32, 64, 512);
        wal.set_batch_pages(8);
        // Three forces, each with records spanning page boundaries, plus an
        // unforced tail that must NOT be recovered.
        for round in 0..3u64 {
            for i in 0..4u64 {
                wal.append(LogRecord::Update {
                    txn: round,
                    page: i,
                    slot: i as u16,
                    bytes: vec![round as u8; 200],
                });
            }
            wal.append(LogRecord::Commit { txn: round });
            wal.flush(&mut backend, 0).unwrap();
        }
        wal.append(LogRecord::Begin { txn: 99 });
        let recovered = WalManager::recover_records(&mut backend, 32, 64, 512, 0);
        let durable: Vec<_> = wal.durable_records().cloned().collect();
        assert_eq!(recovered.len(), 15, "3 rounds x 5 records, tail excluded");
        assert_eq!(recovered, durable, "backend scan must agree with the durable view");
    }

    #[test]
    fn group_commit_defers_forces_across_transactions() {
        let mut backend = MemBackend::new(4096, 256);
        let mut wal = WalManager::new(128, 64, 4096);
        wal.set_group_commit(3);
        for txn in 1..=2u64 {
            wal.append(LogRecord::Begin { txn });
            wal.append(LogRecord::Commit { txn });
            wal.commit_force(&mut backend, 0).unwrap();
            assert_eq!(wal.flushed_lsn(), 0, "commit {txn} must be deferred");
        }
        assert_eq!(wal.pending_commits(), 2);
        assert_eq!(wal.forces(), 0);
        // The third commit fills the group: one force covers all three.
        wal.append(LogRecord::Begin { txn: 3 });
        wal.append(LogRecord::Commit { txn: 3 });
        wal.commit_force(&mut backend, 0).unwrap();
        assert_eq!(wal.forces(), 1);
        assert_eq!(wal.flushed_lsn(), wal.current_lsn());
        assert_eq!(wal.pending_commits(), 0);
        let recovered = WalManager::recover_records(&mut backend, 128, 64, 4096, 0);
        assert_eq!(recovered.len(), 6, "all three transactions in one force");
    }

    #[test]
    fn batched_force_writes_all_pages_in_chunks() {
        // A tail of many pages with a tiny 2-page segment: groups are capped
        // at the segment length so no page id repeats within one submission.
        let mut backend = MemBackend::new(512, 64);
        let mut wal = WalManager::new(8, 2, 512);
        wal.set_batch_pages(64);
        for i in 0..5u64 {
            wal.append(LogRecord::Update {
                txn: i,
                page: i,
                slot: 0,
                bytes: vec![1u8; 400],
            });
        }
        wal.flush(&mut backend, 0).unwrap();
        assert_eq!(wal.log_writes(), 5, "5 pages despite the 2-page segment");
        assert_eq!(backend.counters().host_writes, 5);
    }

    #[test]
    fn batch_off_and_batch_one_produce_identical_log_pages() {
        let write = |batch: usize| -> (Vec<Vec<u8>>, u64) {
            let mut backend = MemBackend::new(512, 64);
            let mut wal = WalManager::new(8, 16, 512);
            wal.set_batch_pages(batch);
            for i in 0..6u64 {
                wal.append(LogRecord::Update {
                    txn: i,
                    page: i,
                    slot: 0,
                    bytes: vec![i as u8; 300],
                });
            }
            let t = wal.flush(&mut backend, 0).unwrap();
            let mut pages = Vec::new();
            let mut buf = vec![0u8; 512];
            for p in 8..24u64 {
                backend.read_page(0, p, &mut buf).unwrap();
                pages.push(buf.clone());
            }
            (pages, t)
        };
        let (off, t_off) = write(0);
        let (one, t_one) = write(1);
        assert_eq!(off, one, "batch size 1 must write bit-identical log pages");
        assert_eq!(t_off, t_one);
    }

    #[test]
    fn async_force_pipelines_log_groups_across_dies() {
        // A 32-page tail written in 2-page groups over an 8-die NoFTL
        // backend: consecutive groups land on different dies (sequential page
        // ids stripe die-wise), so the asynchronous window overlaps them
        // while the synchronous force chains every group on the previous
        // group's completion.
        use crate::backend::NoFtlBackend;
        use noftl_core::{NoFtl, NoFtlConfig};

        let run = |depth: usize| -> (SimInstant, Vec<(Lsn, LogRecord)>) {
            let geometry = nand_flash::FlashGeometry::with_dies(8, 1024, 32, 4096);
            let noftl = NoFtl::new(NoFtlConfig::new(geometry));
            let mut backend = NoFtlBackend::new(noftl);
            backend.set_async_depth(depth);
            let mut wal = WalManager::new(0, 64, 4096);
            wal.set_batch_pages(2);
            wal.set_async_depth(depth);
            for txn in 0..32u64 {
                wal.append(LogRecord::Update {
                    txn,
                    page: txn,
                    slot: 0,
                    bytes: vec![txn as u8; 4000],
                });
            }
            let done = wal.flush(&mut backend, 0).unwrap();
            let done = wal.drain(done).max(backend.drain(done));
            let recovered =
                WalManager::recover_records(&mut backend, 0, 64, 4096, done);
            (done, recovered)
        };
        let (sync, records_sync) = run(1);
        let (asynchronous, records_async) = run(8);
        assert_eq!(records_sync.len(), 32);
        assert_eq!(
            records_sync, records_async,
            "async submission must not change the durable log"
        );
        assert!(
            sync as f64 / asynchronous as f64 >= 1.5,
            "die-striped log groups must pipeline under async: sync={sync} async={asynchronous}"
        );
    }

    #[test]
    fn async_flush_durability_covers_earlier_inflight_forces() {
        // Regression (code review): with the window persisting across forces,
        // a later force whose own pages land early must not report a
        // durability instant that precedes an *earlier* force's still-in-
        // flight page — recovery's monotone page_seq scan would stop at the
        // hole and lose the "durable" records.
        use crate::backend::NoFtlBackend;
        use noftl_core::{NoFtl, NoFtlConfig};

        let geometry = nand_flash::FlashGeometry::with_dies(2, 256, 32, 4096);
        let noftl = NoFtl::new(NoFtlConfig::new(geometry));
        let mut backend = NoFtlBackend::new(noftl);
        backend.set_async_depth(4);
        let mut wal = WalManager::new(0, 32, 4096);
        wal.set_batch_pages(0); // one submission per log page
        wal.set_async_depth(4);
        // Force A spans 3 pages: die 0 gets pages 0 and 2 (two chained
        // programs), die 1 gets page 1.
        for txn in 0..3u64 {
            wal.append(LogRecord::Update {
                txn,
                page: txn,
                slot: 0,
                bytes: vec![txn as u8; 4000],
            });
        }
        let t_a = wal.flush(&mut backend, 0).unwrap();
        // Force B is one page on die 1, which is idle well before die 0's
        // second program finishes.
        wal.append(LogRecord::Commit { txn: 99 });
        let t_b = wal.flush(&mut backend, 0).unwrap();
        assert!(
            t_b >= t_a,
            "force B's durability ({t_b}) must cover force A's in-flight tail ({t_a})"
        );
        // The window is still pipelining (not drained by the horizon).
        assert!(wal.inflight_writes() > 0);
    }

    #[test]
    fn async_depth_one_force_matches_legacy_chaining() {
        let mut backend = MemBackend::new(512, 256);
        let mut wal = WalManager::new(32, 64, 512);
        wal.set_batch_pages(4);
        wal.set_async_depth(1);
        for i in 0..10u64 {
            wal.append(LogRecord::Update {
                txn: i,
                page: i,
                slot: 0,
                bytes: vec![i as u8; 300],
            });
        }
        let t = wal.flush(&mut backend, 500).unwrap();
        assert_eq!(t, 500, "mem backend is zero-latency");
        assert_eq!(wal.drain(t), t, "depth 1 has nothing in flight to wait for");
    }

    #[test]
    fn wrapped_segment_recovers_from_checkpoint_pointer() {
        let mut backend = MemBackend::new(512, 64);
        // A 4-page segment wraps after four single-page forces.
        let mut wal = WalManager::new(8, 4, 512);
        let update = |i: u64| LogRecord::Update {
            txn: i,
            page: i,
            slot: 0,
            bytes: vec![i as u8; 300], // one log page per force
        };
        for i in 0..6u64 {
            wal.append(update(i));
            wal.flush(&mut backend, 0).unwrap();
        }
        let start = wal.note_checkpoint();
        assert_eq!(start, 6, "six pages written before the checkpoint");
        for i in 6..9u64 {
            wal.append(update(i));
            wal.flush(&mut backend, 0).unwrap();
        }
        // The un-pointered scan (seq 0 at slot 0) finds only stale pages: the
        // segment wrapped, so slot 0 now holds a later lap's sequence.
        let flat = WalManager::recover_records(&mut backend, 8, 4, 512, 0);
        assert!(flat.is_empty(), "a wrapped log is invisible without the pointer");
        // The checkpointed pointer recovers exactly the post-checkpoint
        // records — across the wrap (seqs 6, 7 at slots 2, 3; seq 8 at 0).
        let recovered =
            WalManager::recover_records_from(&mut backend, 8, 4, 512, start, 0);
        let expected: Vec<LogRecord> = wal
            .records()
            .iter()
            .filter(|(lsn, _)| *lsn >= wal.checkpoint_lsn())
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(expected.len(), 3);
        assert_eq!(
            recovered.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            expected,
            "recovery must replay the wrapped post-checkpoint stream"
        );
    }

    #[test]
    fn lapping_the_checkpoint_pointer_advances_it_to_a_live_force_start() {
        // Regression (code review): wrapping more than one full segment past
        // the last checkpoint used to leave the pointer aimed at an
        // overwritten slot, so recovery silently returned an empty stream
        // even though newer durable records were physically present.  The
        // pointer now rides forward to the oldest fully-live force start.
        let mut backend = MemBackend::new(512, 64);
        let mut wal = WalManager::new(8, 4, 512);
        let update = |i: u64| LogRecord::Update {
            txn: i,
            page: i,
            slot: 0,
            bytes: vec![i as u8; 300], // one log page per force
        };
        for i in 0..6u64 {
            wal.append(update(i));
            wal.flush(&mut backend, 0).unwrap();
        }
        assert_eq!(wal.note_checkpoint(), 6);
        // Five more single-page forces: seqs 6..11, overrunning the pointer
        // (the 4-slot segment only keeps seqs 7..11 live).
        for i in 6..11u64 {
            wal.append(update(i));
            wal.flush(&mut backend, 0).unwrap();
        }
        assert_eq!(
            wal.recovery_start_seq(),
            7,
            "the pointer must ride forward to the oldest fully-live force"
        );
        let recovered = WalManager::recover_records_from(
            &mut backend,
            8,
            4,
            512,
            wal.recovery_start_seq(),
            0,
        );
        let expected: Vec<LogRecord> = (7..11).map(update).collect();
        assert_eq!(
            recovered.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            expected,
            "recovery must replay every still-live durable force"
        );
        // The in-memory durable view agrees with the pointer.
        let durable: Vec<&LogRecord> = wal
            .records()
            .iter()
            .filter(|(lsn, _)| *lsn >= wal.checkpoint_lsn())
            .map(|(_, r)| r)
            .collect();
        assert_eq!(durable.len(), 4);
    }

    /// MemBackend wrapper whose `read_page` fails for chosen page ids —
    /// MemBackend itself never errors, and simulating a retired log block
    /// needs exactly one unreadable page in the middle of the segment.
    struct FailingBackend {
        inner: MemBackend,
        bad_pages: std::collections::HashSet<PageId>,
    }

    impl FailingBackend {
        fn new(inner: MemBackend) -> Self {
            Self {
                inner,
                bad_pages: std::collections::HashSet::new(),
            }
        }
    }

    impl StorageBackend for FailingBackend {
        fn name(&self) -> String {
            "failing-mem".into()
        }

        fn page_size(&self) -> usize {
            self.inner.page_size()
        }

        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }

        fn read_page(
            &mut self,
            now: SimInstant,
            page_id: u64,
            buf: &mut [u8],
        ) -> FlashResult<nand_flash::OpCompletion> {
            if self.bad_pages.contains(&page_id) {
                return Err(nand_flash::FlashError::UncorrectableEcc(
                    nand_flash::BlockAddr::new(0, 0, 0, 0).page(0),
                ));
            }
            self.inner.read_page(now, page_id, buf)
        }

        fn write_page(
            &mut self,
            now: SimInstant,
            page_id: u64,
            data: &[u8],
        ) -> FlashResult<nand_flash::OpCompletion> {
            self.inner.write_page(now, page_id, data)
        }

        fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()> {
            self.inner.free_page_hint(now, page_id)
        }

        fn counters(&self) -> crate::backend::BackendCounters {
            self.inner.counters()
        }

        fn reset_counters(&mut self) {
            self.inner.reset_counters()
        }
    }

    #[test]
    fn unreadable_log_page_does_not_truncate_recovery() {
        // Three single-page forces; the middle one's log page becomes
        // unreadable (its block was retired).  Recovery must skip the hole
        // and still replay the third transaction — the old scan treated any
        // read error as end-of-log and silently dropped everything after it.
        let mut backend = FailingBackend::new(MemBackend::new(512, 64));
        let mut wal = WalManager::new(0, 64, 512);
        for txn in 1..=3u64 {
            wal.append(LogRecord::Begin { txn });
            wal.append(LogRecord::Update {
                txn,
                page: 40 + txn,
                slot: 0,
                bytes: vec![txn as u8; 32],
            });
            wal.append(LogRecord::Commit { txn });
            wal.flush(&mut backend, 0).unwrap();
        }
        assert_eq!(wal.log_writes(), 3, "one log page per force");
        backend.bad_pages.insert(1);
        let recovered = WalManager::recover_records(&mut backend, 0, 64, 512, 0);
        let txns: Vec<u64> = recovered
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(txns, vec![1, 3], "txn 2 sat on the hole; 1 and 3 survive");
        assert_eq!(recovered.len(), 6, "three records per surviving txn");
        let lsns: Vec<Lsn> = recovered.iter().map(|(lsn, _)| *lsn).collect();
        let mut sorted = lsns.clone();
        sorted.sort_unstable();
        assert_eq!(lsns, sorted, "LSNs stay monotone across the hole");
    }

    #[test]
    fn hole_mid_force_resyncs_at_the_next_force_start() {
        // One force spanning three log pages (a single large record), then a
        // small second force.  Losing the big force's middle page tears the
        // record across the hole; recovery must drop the torn force but
        // resynchronise at the next record-aligned page and replay the
        // second force.
        let mut backend = FailingBackend::new(MemBackend::new(512, 64));
        let mut wal = WalManager::new(0, 64, 512);
        wal.append(LogRecord::Update {
            txn: 1,
            page: 50,
            slot: 0,
            bytes: vec![0xAB; 1200],
        });
        wal.flush(&mut backend, 0).unwrap();
        assert_eq!(wal.log_writes(), 3, "the big record spans three pages");
        wal.append(LogRecord::Begin { txn: 2 });
        wal.append(LogRecord::Commit { txn: 2 });
        wal.flush(&mut backend, 0).unwrap();
        backend.bad_pages.insert(1);
        let recovered = WalManager::recover_records(&mut backend, 0, 64, 512, 0);
        let expected = vec![
            LogRecord::Begin { txn: 2 },
            LogRecord::Commit { txn: 2 },
        ];
        assert_eq!(
            recovered.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            expected,
            "torn force dropped, later force recovered"
        );
    }

    fn record_strategy() -> impl Strategy<Value = LogRecord> {
        prop_oneof![
            2 => (1..40u64).prop_map(|txn| LogRecord::Begin { txn }),
            4 => (1..40u64, 0..2000u64, 0..16u16, prop::collection::vec(any::<u8>(), 0..48))
                .prop_map(|(txn, page, slot, bytes)| LogRecord::Update { txn, page, slot, bytes }),
            2 => (1..40u64).prop_map(|txn| LogRecord::Commit { txn }),
            1 => (1..40u64).prop_map(|txn| LogRecord::Abort { txn }),
            1 => (0..1u64).prop_map(|_| LogRecord::Checkpoint),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Kill the WAL at *every* record boundary: for each cut point the
        /// records before the cut are forced, the rest sit in the volatile
        /// buffer when the crash hits.  Recovery — rebuilt from the backend
        /// alone — must replay exactly the durable prefix: every forced
        /// record, nothing after the cut, in order.
        #[test]
        fn crash_at_every_record_boundary_replays_exact_prefix(
            records in prop::collection::vec(record_strategy(), 1..20),
            batch in 0usize..6,
        ) {
            for cut in 0..=records.len() {
                let mut backend = MemBackend::new(256, 1024);
                let mut wal = WalManager::new(64, 256, 256);
                wal.set_batch_pages(batch);
                for r in &records[..cut] {
                    wal.append(r.clone());
                }
                wal.flush(&mut backend, 0).unwrap();
                for r in &records[cut..] {
                    wal.append(r.clone());
                }
                // Crash: only the backend survives.
                let recovered = WalManager::recover_records(&mut backend, 64, 256, 256, 0);
                prop_assert_eq!(recovered.len(), cut, "batch={} cut={}", batch, cut);
                for (i, (_, rec)) in recovered.iter().enumerate() {
                    prop_assert_eq!(rec, &records[i]);
                }
                // The in-memory durable view agrees with the backend view.
                let durable: Vec<&LogRecord> = wal.durable_records().map(|(_, r)| r).collect();
                prop_assert_eq!(durable.len(), cut);
            }
        }

        /// Wrap the log across a tiny segment and kill at *every* record
        /// boundary: recovery from the checkpointed start-of-log pointer must
        /// replay exactly the records forced since the last checkpoint —
        /// every one of them, nothing older (overwritten laps), nothing from
        /// the unflushed tail — in order, across the wrap point.
        #[test]
        fn wrapped_log_crash_replays_exactly_the_post_checkpoint_records(
            records in prop::collection::vec(record_strategy(), 4..24),
        ) {
            const SEG: u64 = 6;
            for cut in 0..=records.len() {
                let mut backend = MemBackend::new(256, 1024);
                let mut wal = WalManager::new(64, SEG, 256);
                wal.set_batch_pages(2);
                let mut last_cp = 0usize;
                for (i, r) in records[..cut].iter().enumerate() {
                    wal.append(r.clone());
                    wal.flush(&mut backend, 0).unwrap();
                    // Checkpoint every 4 forces: the pointer always advances
                    // before a full lap could overwrite the live head.
                    if (i + 1) % 4 == 0 {
                        wal.note_checkpoint();
                        last_cp = i + 1;
                    }
                }
                for r in &records[cut..] {
                    wal.append(r.clone()); // unflushed tail dies in the crash
                }
                let recovered = WalManager::recover_records_from(
                    &mut backend, 64, SEG, 256, wal.recovery_start_seq(), 0);
                prop_assert_eq!(
                    recovered.len(),
                    cut - last_cp,
                    "cut={} last_cp={}", cut, last_cp
                );
                for (j, (_, rec)) in recovered.iter().enumerate() {
                    prop_assert_eq!(rec, &records[last_cp + j]);
                }
            }
        }

        /// Group commit mid-batch crash: commits whose group never filled are
        /// not durable; recovery sees exactly the forced groups.
        #[test]
        fn group_commit_crash_loses_only_pending_group(
            txns in 2..12u64,
            group in 2..5usize,
        ) {
            let mut backend = MemBackend::new(512, 1024);
            let mut wal = WalManager::new(64, 256, 512);
            wal.set_group_commit(group);
            let mut durable_expected = 0u64;
            let mut appended = 0u64;
            for txn in 1..=txns {
                wal.append(LogRecord::Begin { txn });
                wal.append(LogRecord::Commit { txn });
                appended += 2;
                wal.commit_force(&mut backend, 0).unwrap();
                if wal.pending_commits() == 0 {
                    durable_expected = appended;
                }
            }
            // Crash now, mid-group.
            let recovered = WalManager::recover_records(&mut backend, 64, 256, 512, 0);
            prop_assert_eq!(recovered.len() as u64, durable_expected);
            prop_assert!(wal.pending_commits() < group as u64);
        }
    }
}
