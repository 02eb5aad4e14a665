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
//! **One copy of the log.** A record is encoded once, when it is appended,
//! into the manager's [`LogStream`]; that stream is at once the log buffer
//! (its unflushed tail is what a force frames into pages), the history page
//! rescue replays, and the form recovery rebuilds from the medium.  Decoding
//! hands out [`LogRecord`] views into it, so no record is kept twice.
//!
//! **Group commit.** The stream's tail accumulates records across
//! transactions and a force writes it as *one* batched
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
//! [`WalManager::recover_records_from`] rebuild the exact durable record stream
//! from the backend alone after a crash, skipping end-of-force padding
//! unambiguously.  `page_seq` is the monotone log-page counter, so a stale
//! page from an earlier lap of the (wrapped) segment terminates the scan.

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

/// Bytes of a record's length prefix.
const LEN_PREFIX: usize = 4;

/// Capacity of one [`LogStream`] segment.  Large enough that a TPC-C
/// transaction's records cost a few thousandths of an allocation, small
/// enough that the unfilled tail of the newest segment is noise next to
/// the log it holds.
const SEGMENT_BYTES: usize = 1 << 20;

/// Longest log-page group a force lists on the stack; a longer group (a
/// large tail under a large batch size) builds its list on the heap.
const STACK_GROUP_PAGES: usize = 8;

/// Log sequence number (byte offset in the logical log).
pub type Lsn = u64;

/// One log record.  An update borrows its record image: the log keeps a
/// record only as its encoding in a [`LogStream`], and a decoded record is
/// a view into those bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord<'a> {
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
        bytes: &'a [u8],
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

impl LogRecord<'_> {
    fn kind_tag(&self) -> u8 {
        match self {
            LogRecord::Begin { .. } => 1,
            LogRecord::Update { .. } => 2,
            LogRecord::Commit { .. } => 3,
            LogRecord::Abort { .. } => 4,
            LogRecord::Checkpoint => 5,
        }
    }

    /// Size of the length-prefixed encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        let fields = match self {
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => 8,
            LogRecord::Update { bytes, .. } => 8 + 8 + 2 + 4 + bytes.len(),
            LogRecord::Checkpoint => 0,
        };
        LEN_PREFIX + 1 + fields
    }

    /// Serialize to a length-prefixed byte record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Append the length-prefixed byte record to `out` and return the number
    /// of bytes appended.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let len = self.encoded_len();
        out.extend_from_slice(&((len - LEN_PREFIX) as u32).to_le_bytes());
        out.push(self.kind_tag());
        match self {
            LogRecord::Begin { txn } | LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Update {
                txn,
                page,
                slot,
                bytes,
            } => {
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            LogRecord::Checkpoint => {}
        }
        len
    }
}

impl<'a> LogRecord<'a> {
    /// Decode one record from the front of `data`; returns the record and the
    /// number of bytes consumed, or `None` for a truncated, empty or
    /// malformed record (a length prefix that does not cover exactly the
    /// fields its kind declares, or an unknown kind).  Never panics, whatever
    /// the input: recovery decodes whatever the medium returns.
    pub fn decode(data: &'a [u8]) -> Option<(LogRecord<'a>, usize)> {
        let (len, rest) = data.split_first_chunk::<LEN_PREFIX>()?;
        let len = u32::from_le_bytes(*len) as usize;
        let (&tag, mut body) = rest.get(..len)?.split_first()?;
        let record = match tag {
            1 => LogRecord::Begin {
                txn: u64::from_le_bytes(take(&mut body)?),
            },
            2 => {
                let txn = u64::from_le_bytes(take(&mut body)?);
                let page = u64::from_le_bytes(take(&mut body)?);
                let slot = u16::from_le_bytes(take(&mut body)?);
                let blen = u32::from_le_bytes(take(&mut body)?) as usize;
                LogRecord::Update {
                    txn,
                    page,
                    slot,
                    bytes: body.get(..blen)?,
                }
            }
            3 => LogRecord::Commit {
                txn: u64::from_le_bytes(take(&mut body)?),
            },
            4 => LogRecord::Abort {
                txn: u64::from_le_bytes(take(&mut body)?),
            },
            5 => LogRecord::Checkpoint,
            _ => return None,
        };
        let used = LEN_PREFIX + len;
        (record.encoded_len() == used).then_some((record, used))
    }
}

/// Split `N` bytes off the front of `cursor`.
fn take<const N: usize>(cursor: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = cursor.split_first_chunk::<N>()?;
    *cursor = tail;
    Some(*head)
}

/// An append-only stream of encoded log records — the one form in which the
/// log keeps what it was given.  The WAL's history is one (its unflushed
/// tail is the stretch a force frames into log pages), and so is what
/// recovery rebuilds from the medium.  A record's LSN is its byte offset in
/// the stream.
///
/// The bytes live in 1 MiB segments, each allocated once at full capacity
/// and holding whole records, so appending never moves earlier bytes and a
/// decoded record is a slice of the segment it sits in.
#[derive(Clone, Default)]
pub struct LogStream {
    /// `(LSN of the first record, encoded records)` per segment.
    segments: Vec<(Lsn, Vec<u8>)>,
    /// Bytes in the stream: the LSN the next record gets.
    end: Lsn,
    /// Records in the stream.
    len: usize,
}

impl LogStream {
    /// Append `record`; returns its LSN.
    pub(crate) fn push(&mut self, record: &LogRecord<'_>) -> Lsn {
        let lsn = self.end;
        let need = record.encoded_len();
        let fits = self
            .segments
            .last()
            .is_some_and(|(_, seg)| seg.capacity() - seg.len() >= need);
        if !fits {
            self.segments
                .push((lsn, Vec::with_capacity(need.max(SEGMENT_BYTES))));
        }
        if let Some((_, seg)) = self.segments.last_mut() {
            self.end += record.encode_into(seg) as u64;
            self.len += 1;
        }
        lsn
    }

    /// Bytes in the stream, which is the LSN the next record gets.
    pub fn end_lsn(&self) -> Lsn {
        self.end
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records with their LSNs, in order.
    pub fn iter(&self) -> Records<'_> {
        Records {
            segments: self.segments.iter(),
            lsn: 0,
            rest: &[],
        }
    }

    /// Copy the encoded bytes `[lsn, lsn + dst.len())` into `dst`, across
    /// segment boundaries.  The range must lie within the stream.
    fn copy_out(&self, mut lsn: Lsn, dst: &mut [u8]) {
        let mut segment = self.segments.partition_point(|&(base, _)| base <= lsn) - 1;
        let mut filled = 0;
        while filled < dst.len() {
            let (base, bytes) = &self.segments[segment];
            let src = &bytes[(lsn - base) as usize..];
            let n = src.len().min(dst.len() - filled);
            dst[filled..filled + n].copy_from_slice(&src[..n]);
            filled += n;
            lsn += n as u64;
            segment += 1;
        }
    }
}

/// Two streams are equal when they hold the same records at the same LSNs,
/// however their bytes are segmented.
impl PartialEq for LogStream {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for LogStream {}

impl std::fmt::Debug for LogStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`LogStream`]'s records, decoding in place.
pub struct Records<'a> {
    segments: std::slice::Iter<'a, (Lsn, Vec<u8>)>,
    /// LSN of the front of `rest`.
    lsn: Lsn,
    /// Undecoded part of the current segment.
    rest: &'a [u8],
}

impl<'a> Iterator for Records<'a> {
    type Item = (Lsn, LogRecord<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        while self.rest.is_empty() {
            let (base, bytes) = self.segments.next()?;
            self.lsn = *base;
            self.rest = bytes;
        }
        let (record, used) = LogRecord::decode(self.rest)?;
        let lsn = self.lsn;
        self.lsn += used as u64;
        self.rest = &self.rest[used..];
        Some((lsn, record))
    }
}

/// The log manager: an append-only record stream whose tail is flushed to a
/// dedicated page range.
pub struct WalManager {
    /// First page id of the log segment.
    log_start: PageId,
    /// Number of pages in the log segment.
    log_pages: u64,
    page_size: usize,
    /// Everything appended, encoded once: `[flushed_lsn, end)` is the tail
    /// the next force writes, the whole stream is what page rescue replays.
    log: LogStream,
    /// LSN up to which the log is durable.
    flushed_lsn: Lsn,
    /// Next log page (within the segment) to write.
    next_log_page: u64,
    /// Number of log page writes (sequential Flash writes).
    log_writes: u64,
    /// Number of forced flushes (commits).
    forces: u64,
    /// Max pages per batched log write (at least 1).
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
            log: LogStream::default(),
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
        // The unflushed tail is exactly [flushed_lsn, end): the first record
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

    /// Set the maximum pages per batched log write (clamped to at least 1;
    /// 1 writes one log page per submission).
    pub fn set_batch_pages(&mut self, batch_pages: usize) {
        self.batch_pages = batch_pages.max(1);
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
    pub fn append(&mut self, record: LogRecord<'_>) -> Lsn {
        self.log.push(&record)
    }

    /// LSN that would be assigned to the next record.
    pub fn current_lsn(&self) -> Lsn {
        self.log.end_lsn()
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
        let tail = (self.log.end_lsn() - self.flushed_lsn) as usize;
        if tail == 0 {
            return Ok(now);
        }
        if self.async_depth <= 1 {
            // Synchronous semantics: no carry-over between forces.
            self.inflight.clear();
        }
        self.forces += 1;
        self.pending_commits = 0;
        let payload_cap = self.page_size - LOG_PAGE_HEADER;
        let pages = tail.div_ceil(payload_cap) as u64;
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
                    self.checkpoint_lsn = self.log.end_lsn();
                }
            }
        }
        let mut frames = std::mem::take(&mut self.frame_bytes);
        let written = self.write_tail(backend, now, &mut frames);
        self.frame_bytes = frames;
        let t = written?;
        self.next_log_page += pages;
        self.log_writes += pages;
        self.flushed_lsn = self.log.end_lsn();
        // Log durability is prefix-ordered: this force's records are only
        // recoverable once every earlier in-flight log write has landed too
        // (recovery's monotone page_seq scan stops at the first hole).  The
        // reported durability instant therefore covers the whole window —
        // without draining it, so later forces keep pipelining.
        Ok(self.inflight.horizon(t))
    }

    /// Frame the unflushed tail into self-describing log pages and write
    /// them, one submission's worth at a time through `frames`.  Returns
    /// when the last write completes.
    fn write_tail(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        frames: &mut Vec<u8>,
    ) -> FlashResult<SimInstant> {
        let payload_cap = self.page_size - LOG_PAGE_HEADER;
        // Groups are capped at the segment length so a page id can never
        // repeat within one submission; pages within a group are placed
        // die-wise and overlap, groups are gated by the in-flight window
        // (depth 1: each group chains on the previous one's completion).
        let group_cap = self.batch_pages.min(self.log_pages as usize);
        let (log_start, log_pages) = (self.log_start, self.log_pages);
        let page_id = |seq: u64| log_start + seq % log_pages;
        let force_start_seq = self.next_log_page;
        let mut seq = force_start_seq;
        let mut lsn = self.flushed_lsn;
        let mut t = now;
        while lsn < self.log.end_lsn() {
            let first_seq = seq;
            let group_bytes = ((self.log.end_lsn() - lsn) as usize).min(group_cap * payload_cap);
            frames.clear();
            frames.resize(group_bytes.div_ceil(payload_cap) * self.page_size, 0);
            for page in frames.chunks_exact_mut(self.page_size) {
                let len = ((self.log.end_lsn() - lsn) as usize).min(payload_cap);
                // The tail starts on a record boundary, so the force's first
                // page is record-aligned — flag it as a recovery
                // resynchronisation point.
                let aligned = if seq == force_start_seq { LOG_PAGE_ALIGNED } else { 0 };
                let len_field = len as u16 | aligned;
                page[0..2].copy_from_slice(&LOG_PAGE_MAGIC.to_le_bytes());
                page[2..4].copy_from_slice(&len_field.to_le_bytes());
                page[4..8].copy_from_slice(&(seq as u32).to_le_bytes());
                self.log
                    .copy_out(lsn, &mut page[LOG_PAGE_HEADER..LOG_PAGE_HEADER + len]);
                lsn += len as u64;
                seq += 1;
            }
            let submit_at = self.inflight.gate(self.async_depth, now);
            // A lap over an old log page: the backend gets a dead-page hint
            // before the rewrite (log truncation knowledge).
            for lap in (first_seq..seq).filter(|&s| s >= log_pages) {
                backend.free_page_hint(submit_at, page_id(lap))?;
            }
            let n = (seq - first_seq) as usize;
            let group = (first_seq..seq)
                .map(page_id)
                .zip(frames.chunks(self.page_size));
            let end = if n <= STACK_GROUP_PAGES {
                // The usual force is a page or two: list it on the stack.
                let mut batch = [(0, &[][..]); STACK_GROUP_PAGES];
                for (slot, page) in batch.iter_mut().zip(group) {
                    *slot = page;
                }
                backend.write_pages(submit_at, &batch[..n])?
            } else {
                backend.write_pages(submit_at, &group.collect::<Vec<_>>())?
            };
            self.inflight.push(end);
            t = t.max(end);
        }
        Ok(t)
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
    /// end the scan: the hole's bytes are gone, so the record torn by it is
    /// dropped, the scan continues, and decoding resynchronises at the next
    /// page flagged record-aligned (the first page of a force — see
    /// `LOG_PAGE_ALIGNED`).  Only a stale or never-written page — wrong
    /// magic or out-of-sequence header — marks the durable frontier and
    /// terminates the scan.
    pub fn recover_records_from(
        backend: &mut dyn StorageBackend,
        log_start: PageId,
        log_pages: u64,
        page_size: usize,
        start_seq: u64,
        now: SimInstant,
    ) -> LogStream {
        let payload_cap = page_size - LOG_PAGE_HEADER;
        let mut records = LogStream::default();
        // Payload bytes read but not yet decoded: the head of a record that
        // continues on the next page.  `None` while resynchronising after a
        // hole.  The scan start is always record-aligned: it is
        // page-sequence 0 or a checkpointed force start.
        let mut pending: Option<Vec<u8>> = Some(Vec::new());
        let mut buf = vec![0u8; page_size];
        for seq in start_seq..start_seq + log_pages {
            let slot = log_start + (seq % log_pages);
            if backend.read_page(now, slot, &mut buf).is_err() {
                // Unreadable log page: its records are lost, but committed
                // records on later pages are not — drop the torn record and
                // keep scanning rather than declaring end-of-log.
                pending = None;
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
            let run = match pending.as_mut() {
                Some(run) => run,
                // The next force start opens a fresh run.
                None if aligned => pending.insert(Vec::new()),
                // Resynchronising after a hole: pages continuing a record
                // whose head fell into the hole cannot be decoded.
                None => continue,
            };
            run.extend_from_slice(&buf[LOG_PAGE_HEADER..LOG_PAGE_HEADER + len]);
            let mut decoded = 0;
            while let Some((record, used)) = LogRecord::decode(&run[decoded..]) {
                records.push(&record);
                decoded += used;
            }
            run.drain(..decoded);
        }
        records
    }

    /// All records appended so far (durable or not), with their LSNs.
    /// Recovery replays the durable prefix.
    pub fn records(&self) -> &LogStream {
        &self.log
    }

    /// Records with LSN strictly below the durable horizon — what recovery
    /// would see after a crash.
    pub fn durable_records(&self) -> impl Iterator<Item = (Lsn, LogRecord<'_>)> + '_ {
        self.log
            .iter()
            .take_while(move |(lsn, _)| *lsn < self.flushed_lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use sim_utils::rng::SimRng;

    #[test]
    fn encode_decode_roundtrip() {
        let records = vec![
            LogRecord::Begin { txn: 7 },
            LogRecord::Update {
                txn: 7,
                page: 12,
                slot: 3,
                bytes: b"payload",
            },
            LogRecord::Commit { txn: 7 },
            LogRecord::Abort { txn: 8 },
            LogRecord::Checkpoint,
        ];
        // Every variant, encoded into one shared buffer behind a prefix (a
        // log segment is never empty mid-transaction) and appended to a log.
        let mut shared = b"earlier records".to_vec();
        let mut wal = WalManager::new(32, 16, 4096);
        for &r in &records {
            let enc = r.encode();
            assert_eq!(enc.len(), r.encoded_len());
            let (dec, used) = LogRecord::decode(&enc).unwrap();
            assert_eq!(dec, r);
            assert_eq!(used, enc.len());
            let at = shared.len();
            assert_eq!(r.encode_into(&mut shared), enc.len());
            assert_eq!(shared[at..], enc[..], "encode_into appends exactly encode()'s bytes");
            assert_eq!(LogRecord::decode(&shared[at..]), Some((r, enc.len())));
            let lsn = wal.append(r);
            assert_eq!(wal.current_lsn(), lsn + enc.len() as u64);
        }
        assert!(shared.starts_with(b"earlier records"), "the prefix is left alone");
        // The WAL keeps the records only as that encoding, and hands back
        // exactly what it was given.
        let kept: Vec<LogRecord<'_>> = wal.records().iter().map(|(_, r)| r).collect();
        assert_eq!(kept, records);
        assert_eq!(wal.records().len(), records.len());
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let enc = LogRecord::Commit { txn: 1 }.encode();
        assert!(LogRecord::decode(&enc[..2]).is_none());
        assert!(LogRecord::decode(&[]).is_none());
        assert!(LogRecord::decode(&[0, 0, 0, 0]).is_none());
    }

    #[test]
    fn decode_rejects_malformed_records_without_panicking() {
        // Regression: a length prefix shorter than the fields its kind
        // declares made the field reads panic, and an update whose image
        // length ran past its body panicked on the slice.  Recovery decodes
        // whatever the medium returns, so malformed input is `None`.
        let update = LogRecord::Update {
            txn: 1,
            page: 2,
            slot: 3,
            bytes: b"abc",
        }
        .encode();
        let with_len = |bytes: &[u8], len: u32| {
            let mut v = bytes.to_vec();
            v[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
            v
        };
        // An update cut to its kind tag and half its txn id, prefix agreeing.
        assert_eq!(LogRecord::decode(&with_len(&update[..9], 5)), None);
        // An image length beyond the body.
        let mut long_image = update.clone();
        long_image[LEN_PREFIX + 1 + 18..][..4].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(LogRecord::decode(&long_image), None);
        // A prefix covering bytes the kind does not declare.
        let mut padded = LogRecord::Commit { txn: 1 }.encode();
        padded.extend_from_slice(&[0; 3]);
        assert_eq!(LogRecord::decode(&with_len(&padded, 9 + 3)), None);
        // A prefix longer than the input, and an unknown kind.
        assert_eq!(LogRecord::decode(&with_len(&update, u32::MAX)), None);
        assert_eq!(LogRecord::decode(&[1, 0, 0, 0, 9]), None);
        // Well-formed input still decodes.
        assert_eq!(
            LogRecord::decode(&update).map(|(_, used)| used),
            Some(update.len())
        );
    }

    #[test]
    fn a_force_spanning_two_stream_segments_writes_the_exact_stream() {
        // Fill the first segment until a 3 000-byte update no longer fits
        // behind one more `Begin`, force, then append that `Begin` (it closes
        // the first segment) and the update (it opens the second): the next
        // force frames a tail that straddles the segment boundary.
        let mut backend = MemBackend::new(4096, 1024);
        let mut wal = WalManager::new(0, 1024, 4096);
        let image = [0x5A; 3000];
        let update = |txn| LogRecord::Update {
            txn,
            page: txn,
            slot: 0,
            bytes: &image,
        };
        let begin_len = LogRecord::Begin { txn: 0 }.encoded_len() as u64;
        let mut txn = 0;
        let room_to_leave = update(0).encoded_len() as u64 + begin_len;
        while SEGMENT_BYTES as u64 - wal.current_lsn() >= room_to_leave {
            wal.append(update(txn));
            txn += 1;
        }
        wal.flush(&mut backend, 0).unwrap();
        let tail_start = wal.flushed_lsn();
        wal.append(LogRecord::Begin { txn });
        wal.append(update(txn));
        assert_eq!(wal.log.segments.len(), 2);
        let boundary = wal.log.segments[1].0;
        assert!(
            tail_start < boundary && boundary < wal.current_lsn(),
            "the tail straddles"
        );
        wal.flush(&mut backend, 0).unwrap();
        let recovered = WalManager::recover_records_from(&mut backend, 0, 1024, 4096, 0, 0);
        assert_eq!(recovered.len(), txn as usize + 2);
        assert_eq!(
            recovered,
            *wal.records(),
            "the medium holds the stream byte for byte"
        );
    }

    #[test]
    fn a_record_larger_than_a_segment_gets_a_segment_of_its_own() {
        let mut log = LogStream::default();
        let huge = vec![7u8; SEGMENT_BYTES + 1];
        let records = [
            LogRecord::Begin { txn: 1 },
            LogRecord::Update {
                txn: 1,
                page: 9,
                slot: 0,
                bytes: &huge,
            },
            LogRecord::Commit { txn: 1 },
        ];
        let lsns: Vec<Lsn> = records.iter().map(|r| log.push(r)).collect();
        assert_eq!(
            log.segments.len(),
            3,
            "the huge record fits neither neighbour's segment"
        );
        assert_eq!(
            log.iter().collect::<Vec<_>>(),
            lsns.into_iter().zip(records).collect::<Vec<_>>()
        );
        assert_eq!(
            log.end_lsn(),
            records.iter().map(|r| r.encoded_len() as u64).sum::<u64>()
        );
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
                bytes: &[0u8; 200],
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
                    bytes: &[round as u8; 200],
                });
            }
            wal.append(LogRecord::Commit { txn: round });
            wal.flush(&mut backend, 0).unwrap();
        }
        wal.append(LogRecord::Begin { txn: 99 });
        let recovered = WalManager::recover_records_from(&mut backend, 32, 64, 512, 0, 0);
        let durable: Vec<_> = wal.durable_records().collect();
        assert_eq!(recovered.len(), 15, "3 rounds x 5 records, tail excluded");
        assert_eq!(
            recovered.iter().collect::<Vec<_>>(),
            durable,
            "backend scan must agree with the durable view"
        );
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
        let recovered = WalManager::recover_records_from(&mut backend, 128, 64, 4096, 0, 0);
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
                bytes: &[1u8; 400],
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
                    bytes: &[i as u8; 300],
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

        let run = |depth: usize| -> (SimInstant, LogStream) {
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
                    bytes: &[txn as u8; 4000],
                });
            }
            let done = wal.flush(&mut backend, 0).unwrap();
            let done = wal.drain(done).max(backend.drain(done));
            let recovered =
                WalManager::recover_records_from(&mut backend, 0, 64, 4096, 0, done);
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
        wal.set_batch_pages(1); // one submission per log page
        wal.set_async_depth(4);
        // Force A spans 3 pages: die 0 gets pages 0 and 2 (two chained
        // programs), die 1 gets page 1.
        for txn in 0..3u64 {
            wal.append(LogRecord::Update {
                txn,
                page: txn,
                slot: 0,
                bytes: &[txn as u8; 4000],
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
                bytes: &[i as u8; 300],
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
        let payloads: Vec<[u8; 300]> = (0..11).map(|i| [i as u8; 300]).collect();
        let update = |i: u64| LogRecord::Update {
            txn: i,
            page: i,
            slot: 0,
            bytes: &payloads[i as usize], // one log page per force
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
        let flat = WalManager::recover_records_from(&mut backend, 8, 4, 512, 0, 0);
        assert!(flat.is_empty(), "a wrapped log is invisible without the pointer");
        // The checkpointed pointer recovers exactly the post-checkpoint
        // records — across the wrap (seqs 6, 7 at slots 2, 3; seq 8 at 0).
        let recovered =
            WalManager::recover_records_from(&mut backend, 8, 4, 512, start, 0);
        let expected: Vec<LogRecord<'_>> = wal
            .records()
            .iter()
            .filter(|(lsn, _)| *lsn >= wal.checkpoint_lsn())
            .map(|(_, r)| r)
            .collect();
        assert_eq!(expected.len(), 3);
        assert_eq!(
            recovered.iter().map(|(_, r)| r).collect::<Vec<_>>(),
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
        let payloads: Vec<[u8; 300]> = (0..11).map(|i| [i as u8; 300]).collect();
        let update = |i: u64| LogRecord::Update {
            txn: i,
            page: i,
            slot: 0,
            bytes: &payloads[i as usize], // one log page per force
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
        let expected: Vec<LogRecord<'_>> = (7..11).map(update).collect();
        assert_eq!(
            recovered.iter().map(|(_, r)| r).collect::<Vec<_>>(),
            expected,
            "recovery must replay every still-live durable force"
        );
        // The in-memory durable view agrees with the pointer.
        let durable: Vec<LogRecord<'_>> = wal
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
                bytes: &[txn as u8; 32],
            });
            wal.append(LogRecord::Commit { txn });
            wal.flush(&mut backend, 0).unwrap();
        }
        assert_eq!(wal.log_writes(), 3, "one log page per force");
        backend.bad_pages.insert(1);
        let recovered = WalManager::recover_records_from(&mut backend, 0, 64, 512, 0, 0);
        let txns: Vec<u64> = recovered
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { txn } => Some(txn),
                _ => None,
            })
            .collect();
        assert_eq!(txns, vec![1, 3], "txn 2 sat on the hole; 1 and 3 survive");
        assert_eq!(recovered.len(), 6, "three records per surviving txn");
        let lsns: Vec<Lsn> = recovered.iter().map(|(lsn, _)| lsn).collect();
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
            bytes: &[0xAB; 1200],
        });
        wal.flush(&mut backend, 0).unwrap();
        assert_eq!(wal.log_writes(), 3, "the big record spans three pages");
        wal.append(LogRecord::Begin { txn: 2 });
        wal.append(LogRecord::Commit { txn: 2 });
        wal.flush(&mut backend, 0).unwrap();
        backend.bad_pages.insert(1);
        let recovered = WalManager::recover_records_from(&mut backend, 0, 64, 512, 0, 0);
        let expected = vec![
            LogRecord::Begin { txn: 2 },
            LogRecord::Commit { txn: 2 },
        ];
        assert_eq!(
            recovered.iter().map(|(_, r)| r).collect::<Vec<_>>(),
            expected,
            "torn force dropped, later force recovered"
        );
    }

    /// A record, as its encoding: a record borrows its image, so the
    /// generated value owns the bytes and [`rec`] views them.  Begin,
    /// Update, Commit, Abort and Checkpoint are drawn 2 : 4 : 2 : 1 : 1.
    fn record(rng: &mut SimRng) -> Vec<u8> {
        let txn = rng.range(1, 40);
        match rng.range(0, 10) {
            0 | 1 => LogRecord::Begin { txn }.encode(),
            2..=5 => {
                let (page, slot) = (rng.range(0, 2000), rng.range(0, 16) as u16);
                let bytes = bytes(rng, 48);
                LogRecord::Update { txn, page, slot, bytes: &bytes }.encode()
            }
            6 | 7 => LogRecord::Commit { txn }.encode(),
            8 => LogRecord::Abort { txn }.encode(),
            _ => LogRecord::Checkpoint.encode(),
        }
    }

    /// `lo..hi` records.
    fn records(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<Vec<u8>> {
        let n = rng.range(lo, hi);
        (0..n).map(|_| record(rng)).collect()
    }

    /// 0..`max` random bytes.
    fn bytes(rng: &mut SimRng, max: u64) -> Vec<u8> {
        let n = rng.range(0, max);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    fn rec(encoded: &[u8]) -> LogRecord<'_> {
        LogRecord::decode(encoded)
            .expect("generated records decode")
            .0
    }

    /// Kill the WAL at *every* record boundary: for each cut point the
    /// records before the cut are forced, the rest sit in the volatile
    /// buffer when the crash hits.  Recovery — rebuilt from the backend
    /// alone — must replay exactly the durable prefix: every forced
    /// record, nothing after the cut, in order.
    #[test]
    fn crash_at_every_record_boundary_replays_exact_prefix() {
        for case in 0..12 {
            let mut rng = SimRng::new(case);
            let records = records(&mut rng, 1, 20);
            let batch = rng.range_usize(0, 6);
            for cut in 0..=records.len() {
                let mut backend = MemBackend::new(256, 1024);
                let mut wal = WalManager::new(64, 256, 256);
                wal.set_batch_pages(batch);
                for r in &records[..cut] {
                    wal.append(rec(r));
                }
                wal.flush(&mut backend, 0).unwrap();
                for r in &records[cut..] {
                    wal.append(rec(r));
                }
                // Crash: only the backend survives.
                let recovered = WalManager::recover_records_from(&mut backend, 64, 256, 256, 0, 0);
                assert_eq!(recovered.len(), cut, "batch={} cut={}", batch, cut);
                for (i, (_, r)) in recovered.iter().enumerate() {
                    assert_eq!(r, rec(&records[i]));
                }
                // The in-memory durable view agrees with the backend view.
                let durable: Vec<_> = wal.durable_records().collect();
                assert_eq!(durable, recovered.iter().collect::<Vec<_>>());
            }
        }
    }

    /// Wrap the log across a tiny segment and kill at *every* record
    /// boundary: recovery from the checkpointed start-of-log pointer must
    /// replay exactly the records forced since the last checkpoint —
    /// every one of them, nothing older (overwritten laps), nothing from
    /// the unflushed tail — in order, across the wrap point.
    #[test]
    fn wrapped_log_crash_replays_exactly_the_post_checkpoint_records() {
        const SEG: u64 = 6;
        for case in 0..12 {
            let mut rng = SimRng::new(case);
            let records = records(&mut rng, 4, 24);
            for cut in 0..=records.len() {
                let mut backend = MemBackend::new(256, 1024);
                let mut wal = WalManager::new(64, SEG, 256);
                wal.set_batch_pages(2);
                let mut last_cp = 0usize;
                for (i, r) in records[..cut].iter().enumerate() {
                    wal.append(rec(r));
                    wal.flush(&mut backend, 0).unwrap();
                    // Checkpoint every 4 forces: the pointer always advances
                    // before a full lap could overwrite the live head.
                    if (i + 1) % 4 == 0 {
                        wal.note_checkpoint();
                        last_cp = i + 1;
                    }
                }
                for r in &records[cut..] {
                    wal.append(rec(r)); // unflushed tail dies in the crash
                }
                let recovered = WalManager::recover_records_from(
                    &mut backend, 64, SEG, 256, wal.recovery_start_seq(), 0);
                assert_eq!(
                    recovered.len(),
                    cut - last_cp,
                    "cut={} last_cp={}", cut, last_cp
                );
                for (j, (_, r)) in recovered.iter().enumerate() {
                    assert_eq!(r, rec(&records[last_cp + j]));
                }
            }
        }
    }

    /// Whatever the bytes, decoding returns `None` or a record whose
    /// encoding is exactly the bytes it consumed — never a panic.
    #[test]
    fn decode_never_panics_and_consumes_exactly_an_encoding() {
        for case in 0..12 {
            let mut rng = SimRng::new(case);
            let mut data = bytes(&mut rng, 64);
            let (len, kind) = (rng.range(0, 64) as u32, rng.range(0, 7) as u8);
            // Steer the length prefix and the tag byte into range, so every
            // kind meets bodies too short, exact and too long for it.
            if data.len() > LEN_PREFIX {
                data[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
                data[LEN_PREFIX] = kind;
            }
            if let Some((record, used)) = LogRecord::decode(&data) {
                assert_eq!(record.encode(), data[..used].to_vec());
            }
        }
    }

    /// Group commit mid-batch crash: commits whose group never filled are
    /// not durable; recovery sees exactly the forced groups.
    #[test]
    fn group_commit_crash_loses_only_pending_group() {
        for case in 0..12 {
            let mut rng = SimRng::new(case);
            let txns = rng.range(2, 12);
            let group = rng.range_usize(2, 5);
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
            let recovered = WalManager::recover_records_from(&mut backend, 64, 256, 512, 0, 0);
            assert_eq!(recovered.len() as u64, durable_expected);
            assert!(wal.pending_commits() < group as u64);
        }
    }
}
