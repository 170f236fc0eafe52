//! Streaming wire ingest: sharded decoders → SPSC rings → one consumer
//! writing fleet sample rows.
//!
//! # Topology
//!
//! With `D` decoder shards on a [`WorkerPool`], `D + 1` tasks run under
//! one `par_map`: shard `k` walks the *whole* stream with a
//! [`FrameCursor`] but fully decodes only frames whose
//! `machine_id % D == k` (header-skipping the rest is a length add, so
//! the redundant scans cost little), batching decoded rows into chunks
//! it pushes onto its own bounded [`ring`]; the single consumer task
//! drains all `D` rings round-robin and writes each row at its
//! machine's fixed index with [`SampleBatch::set_row`]. The consumer
//! task is listed first and `D ≤ workers − 1`, so the pool always has a
//! participant for it — a blocking producer can never wait on a
//! consumer that nobody will run. (Corollary: do not call
//! [`stream_window`] from inside a `par_map` closure, where the pool
//! degrades to a serial loop.)
//!
//! # Backpressure
//!
//! Rings are bounded. A producer that finds its ring full observes the
//! occupancy and, by default, yields until the consumer catches up —
//! lossless and deterministic. With
//! [`drop_when_full`](StreamConfig::drop_when_full) it sheds the chunk
//! instead, bounding decoder latency at the price of dropped rows;
//! both pressure events are counted in the [`StreamReport`].
//!
//! # Determinism
//!
//! In lossless mode the streamed result is **bit-identical** for any
//! decoder count, including the serial fused path: a machine's row is
//! produced by [`FrameDecoder`]'s arithmetic (itself bit-identical to
//! in-memory ingestion) from the last frame for that machine in stream
//! order, every machine is owned by exactly one shard, and rows land at
//! fixed indices — so neither sharding nor ring interleaving can
//! reorder any machine's writes.

use crate::decode::{CursorItem, DecodeError, Decoded, FrameCursor, FrameDecoder};
use crate::frame::FrameType;
use crate::health::{DegradePolicy, HealthLedger, HealthState, Hold, SeqNote};
use crate::ring::{ring, Consumer, Producer};
use tdp_fleet::{FleetEstimator, SampleBatch, COLUMNS};
use tdp_parallel::WorkerPool;
use tdp_simd::Dispatch;

/// Tuning for [`stream_window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Decoder shards; `0` means auto (`workers − 1`). Clamped to
    /// `workers − 1` so the consumer always has a participant; on a
    /// single-worker pool the serial fused path runs instead.
    pub decoders: usize,
    /// Chunks each ring holds before its producer feels backpressure.
    pub ring_capacity: usize,
    /// Rows per chunk (amortises ring traffic).
    pub chunk_rows: usize,
    /// `false` (default): block (yield) on a full ring — lossless,
    /// deterministic. `true`: drop the chunk — bounded latency, lossy,
    /// and dependent on scheduling timing.
    pub drop_when_full: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            decoders: 0,
            ring_capacity: 8,
            chunk_rows: 32,
            drop_when_full: false,
        }
    }
}

/// What happened during one streamed window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Decoder shards actually used — the real decode parallelism in
    /// both modes. The serial fused path reports `1`: one decoder ran,
    /// fused with the consumer.
    pub decoders: usize,
    /// Sample frames whose decode was attempted (owned frames only).
    pub sample_frames: u64,
    /// Layout frames accepted.
    pub layout_frames: u64,
    /// Rows written into the batch.
    pub rows_written: u64,
    /// Frames rejected: checksum mismatch or malformed structure.
    pub corrupt_frames: u64,
    /// Framing failures (bad magic/version/type or overrunning length)
    /// that forced a scan for the next frame boundary.
    pub resyncs: u64,
    /// Bytes discarded while resynchronising.
    pub resync_bytes: u64,
    /// Sample frames naming a layout never declared on the stream.
    pub unknown_layout_frames: u64,
    /// Decoded rows for machines beyond the window's machine count.
    pub out_of_range_frames: u64,
    /// Window-sequence regressions: a machine's frame carried a lower
    /// sequence than its last accepted one (reboot / counter reset).
    /// The row is accepted and the machine re-baselined as
    /// [`HealthState::Suspect`].
    pub resets_detected: u64,
    /// Frames re-delivering a machine's already-accepted window
    /// sequence; the redundant row is skipped.
    pub duplicate_windows: u64,
    /// Decoded rows withheld because they failed the
    /// [`DegradePolicy`] sanity bounds.
    pub rows_quarantined: u64,
    /// Rows emitted from a machine's last good window because this
    /// window brought no acceptable fresh row.
    pub rows_held: u64,
    /// Rows reconstructed for machines silent *by protocol* — within
    /// their negotiated sampling decimation (see
    /// [`WireEncoder::set_decimation`](crate::WireEncoder::set_decimation)).
    /// Expected in the steady state of a decimated stream, so not part
    /// of [`PipelineHealth`](crate::PipelineHealth).
    pub rows_reconstructed: u64,
    /// Machines declared [`HealthState::Stale`] this window after
    /// exceeding [`DegradePolicy::max_stale_windows`] (counted once
    /// per outage, not once per silent window).
    pub machines_stale: u64,
    /// Rows shed under backpressure (only with
    /// [`StreamConfig::drop_when_full`]).
    pub dropped_rows: u64,
    /// Full-ring events a producer waited (or dropped) on.
    pub backpressure_events: u64,
}

impl StreamReport {
    /// Adds `o`'s event counters into `self` (all fields except
    /// [`decoders`](Self::decoders), which describes a topology, not a
    /// count) — for aggregating per-shard or per-window reports.
    pub fn absorb(&mut self, o: &StreamReport) {
        self.sample_frames += o.sample_frames;
        self.layout_frames += o.layout_frames;
        self.rows_written += o.rows_written;
        self.corrupt_frames += o.corrupt_frames;
        self.resyncs += o.resyncs;
        self.resync_bytes += o.resync_bytes;
        self.unknown_layout_frames += o.unknown_layout_frames;
        self.out_of_range_frames += o.out_of_range_frames;
        self.resets_detected += o.resets_detected;
        self.duplicate_windows += o.duplicate_windows;
        self.rows_quarantined += o.rows_quarantined;
        self.rows_held += o.rows_held;
        self.rows_reconstructed += o.rows_reconstructed;
        self.machines_stale += o.machines_stale;
        self.dropped_rows += o.dropped_rows;
        self.backpressure_events += o.backpressure_events;
    }

    /// The window's [`PipelineHealth`](crate::PipelineHealth) block —
    /// shorthand for [`PipelineHealth::from_report`](crate::PipelineHealth::from_report).
    pub fn health(&self) -> crate::PipelineHealth {
        crate::PipelineHealth::from_report(self)
    }
}

/// One decoded machine row in flight from a decoder shard to the
/// consumer.
#[derive(Debug, Clone, Copy)]
struct WireRow {
    machine: u64,
    row: [f64; COLUMNS],
}

/// One decoder shard's cross-window state: its [`FrameDecoder`]
/// (layout memo) plus the health ledger for every machine it owns.
///
/// The [`HealthLedger`] is dense, indexed by machine id — ids are
/// `< machines` by the time the degradation ladder runs, so the
/// hot-path lookup is one bounds-checked index instead of a tree walk.
/// A machine the shard has never decoded is exactly one whose ledger
/// `seen` flag is unset (every write path notes the sequence first).
///
/// The remaining vectors are the serial fused path's per-window
/// scratch, retained across windows so the steady state allocates
/// nothing: which machines staged a fresh row into the batch columns
/// this epoch, each staged row's reset flag, and the batched sanity
/// mask. The sharded path leaves them empty.
#[derive(Debug, Default)]
struct ShardState {
    dec: FrameDecoder,
    ledger: HealthLedger,
    pending: Vec<u32>,
    staged_epoch: Vec<u64>,
    staged_reset: Vec<bool>,
    sane_mask: Vec<u8>,
}

/// Ingest state that survives across windows: one [`FrameDecoder`] per
/// shard — so a steady-state stream (layouts announced once, then
/// sample frames only — see [`WireEncoder`](crate::WireEncoder)) pays
/// for layout registration exactly once — plus per-machine health
/// ([`HealthState`]) driving the graceful-degradation ladder: duplicate
/// and reset detection on window sequences, quarantine of rows that
/// fail the [`DegradePolicy`] sanity bounds, bounded last-good-row
/// holds for silent machines, and staleness cut-off.
///
/// Every shard walks the whole stream and registers every layout
/// frame, so shards that existed when a layout was announced all know
/// it. Keep the decoder count stable across a stream: a shard added
/// later (a grown pool) starts with an empty layout table and health
/// ledger, so it reports
/// [`unknown_layout_frames`](StreamReport::unknown_layout_frames) for
/// its machines until layouts are re-announced, and re-learns their
/// health from scratch.
#[derive(Debug, Default)]
pub struct IngestState {
    shards: Vec<ShardState>,
    policy: DegradePolicy,
    epoch: u64,
}

impl IngestState {
    /// State with no layouts registered and the default
    /// [`DegradePolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// State enforcing a caller-chosen [`DegradePolicy`].
    pub fn with_policy(policy: DegradePolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The degradation policy this state enforces.
    pub fn policy(&self) -> &DegradePolicy {
        &self.policy
    }

    /// How many windows this state has ingested.
    pub fn windows_ingested(&self) -> u64 {
        self.epoch
    }

    /// The last known [`HealthState`] of `machine`, or `None` if no
    /// shard has ever decoded a row for it.
    pub fn machine_health(&self, machine: u64) -> Option<HealthState> {
        let idx = machine as usize;
        self.shards
            .iter()
            .find(|s| s.ledger.seen(idx))
            .map(|s| s.ledger.state(idx))
    }

    /// Drops every shard decoder's identity-directory memo for
    /// `machine` — the eviction hook for a machine leaving the fleet.
    /// Purely an optimisation-state reset: the machine's next planar
    /// frame takes the full validation path once and re-memoises, with
    /// byte-identical decode results either way.
    pub fn evict_machine_dir(&mut self, machine: u64) {
        for s in &mut self.shards {
            s.dec.evict_dir_memo(machine);
        }
    }

    /// Opens the next ingest window: bumps the epoch and makes sure
    /// `d` shards exist. Returns the new epoch.
    fn begin(&mut self, d: usize) -> u64 {
        self.epoch += 1;
        if self.shards.len() < d {
            self.shards.resize_with(d, ShardState::default);
        }
        self.epoch
    }
}

/// Everything a shard needs to know about the window it is decoding
/// (`Copy`, so each parallel task takes its own).
#[derive(Clone, Copy)]
struct ShardCtx {
    policy: DegradePolicy,
    epoch: u64,
    shard: u64,
    nshards: u64,
    machines: usize,
}

/// Walks the whole stream as shard `ctx.shard` of `ctx.nshards`,
/// decoding owned frames and emitting accepted rows, then runs the
/// hold/staleness pass over owned machines that produced nothing this
/// window. Every shard runs this same function over the same buffer, so
/// all shards agree on framing and ownership; counters for
/// unattributable events (resyncs) are taken by shard 0 alone so
/// fleet-wide sums are exact.
fn run_shard(
    state: &mut ShardState,
    ctx: ShardCtx,
    buf: &[u8],
    mut emit: impl FnMut(WireRow),
) -> StreamReport {
    let mut stats = StreamReport::default();
    let mut cursor = FrameCursor::new(buf);
    while let Some(item) = cursor.next() {
        let (start, header) = match item {
            CursorItem::Resync { skipped } => {
                if ctx.shard == 0 {
                    stats.resyncs += 1;
                    stats.resync_bytes += skipped as u64;
                }
                continue;
            }
            CursorItem::Frame { start, header } => (start, header),
        };
        let mine = header.machine_id % ctx.nshards == ctx.shard;
        match header.frame_type {
            FrameType::Layout => {
                // Every shard registers every layout (any shard may own
                // samples encoded against it); only the owner counts —
                // and only the owner's ledger learns the machine's
                // negotiated decimation, since only it runs the hold
                // pass for that machine.
                match state
                    .dec
                    .decode_frame(&header, cursor.payload(start, &header))
                {
                    Ok(d) => {
                        if mine {
                            stats.layout_frames += 1;
                            let idx = header.machine_id as usize;
                            if let Decoded::Layout { decimation } = d {
                                if idx < ctx.machines {
                                    state.ledger.ensure(idx + 1);
                                    state.ledger.set_decimation(idx, decimation);
                                }
                            }
                        }
                    }
                    Err(_) => {
                        if mine {
                            stats.corrupt_frames += 1;
                        }
                    }
                }
            }
            FrameType::PlanarSample => {
                if !mine {
                    continue;
                }
                stats.sample_frames += 1;
                match state
                    .dec
                    .decode_frame(&header, cursor.payload(start, &header))
                {
                    Ok(Decoded::Row {
                        machine_id,
                        window_seq,
                        row,
                    }) => {
                        if (machine_id as usize) < ctx.machines {
                            state.accept_row(
                                machine_id, &ctx, window_seq, &row, &mut stats, &mut emit,
                            );
                        } else {
                            stats.out_of_range_frames += 1;
                        }
                    }
                    Ok(Decoded::Layout { .. }) => {}
                    Err(DecodeError::UnknownLayout) => stats.unknown_layout_frames += 1,
                    Err(_) => stats.corrupt_frames += 1,
                }
            }
        }
    }
    hold_pass(state, &ctx, &mut stats, &mut emit);
    stats
}

impl ShardState {
    /// Screens one decoded in-range row through the degradation
    /// ladder: duplicate skip, reset re-baseline, sanity quarantine,
    /// then emission with the machine's ledger updated.
    fn accept_row(
        &mut self,
        machine: u64,
        ctx: &ShardCtx,
        window_seq: u64,
        row: &[f64; COLUMNS],
        stats: &mut StreamReport,
        emit: &mut impl FnMut(WireRow),
    ) {
        let idx = machine as usize;
        self.ledger.ensure(idx + 1);
        let reset = match self.ledger.note_seq(idx, window_seq) {
            SeqNote::Duplicate => {
                // Same window delivered again (duplicated frame or
                // replayed chunk): the first delivery already decided
                // this window.
                stats.duplicate_windows += 1;
                return;
            }
            SeqNote::Reset => {
                // The producer's sequence went backwards: reboot or
                // counter reset. Counters are read-and-clear, so the
                // row is still a valid per-window delta — accept it,
                // re-baseline the sequence, and flag the machine.
                stats.resets_detected += 1;
                true
            }
            SeqNote::Fresh => false,
        };
        if !ctx.policy.row_is_sane(row) {
            // The bytes arrived as sent (checksummed) but describe an
            // impossible machine: never let it touch the estimator.
            stats.rows_quarantined += 1;
            self.ledger.quarantine(idx);
            return;
        }
        emit(WireRow { machine, row: *row });
        self.ledger.commit_row(idx, ctx.epoch, row, reset);
    }
}

/// After the cursor walk: every owned machine that contributed nothing
/// this window is either carried at its last good row (bounded by
/// [`DegradePolicy::max_stale_windows`]) or declared stale.
fn hold_pass(
    state: &mut ShardState,
    ctx: &ShardCtx,
    stats: &mut StreamReport,
    emit: &mut impl FnMut(WireRow),
) {
    for idx in 0..state.ledger.len() {
        let machine = idx as u64;
        if !state.ledger.seen(idx) // dense ledger slot never decoded into
            || machine % ctx.nshards != ctx.shard
            || idx >= ctx.machines
            || state.ledger.emitted_this(idx, ctx.epoch)
        {
            continue;
        }
        match state
            .ledger
            .hold(idx, ctx.epoch, ctx.policy.max_stale_windows)
        {
            Hold::Reconstructed(row) => {
                emit(WireRow { machine, row });
                stats.rows_reconstructed += 1;
            }
            Hold::Held(row) => {
                emit(WireRow { machine, row });
                stats.rows_held += 1;
            }
            Hold::NewlyStale => stats.machines_stale += 1,
            Hold::AlreadyStale => {}
        }
    }
}

/// Ships `chunk` to the consumer, observing ring occupancy for
/// backpressure. Returns `(dropped_rows, pressure_events)`.
fn ship(
    producer: &mut Producer<Vec<WireRow>>,
    chunk: Vec<WireRow>,
    drop_when_full: bool,
) -> (u64, u64) {
    let rows = chunk.len() as u64;
    match producer.push(chunk) {
        Ok(()) => (0, 0),
        Err(back) if drop_when_full => {
            drop(back);
            (rows, 1)
        }
        Err(back) => {
            let mut c = back;
            loop {
                std::thread::yield_now();
                match producer.push(c) {
                    Ok(()) => return (0, 1),
                    Err(b) => c = b,
                }
            }
        }
    }
}

/// Serial fused ingest: decode frames and write rows straight into the
/// estimator's batch — no threads, no rings, no allocation in the
/// steady state. This is the single-worker fallback of
/// [`stream_window`] and the best-latency path when the stream is
/// already in memory. Uses a fresh decoder, so `buf` must be
/// self-describing; use [`ingest_serial_with`] to carry layouts across
/// windows.
pub fn ingest_serial(buf: &[u8], machines: usize, est: &mut FleetEstimator) -> StreamReport {
    ingest_serial_with(&mut IngestState::new(), buf, machines, est)
}

/// [`ingest_serial`] with persistent decoder state: layouts registered
/// by earlier windows (or earlier in this one) stay known, so
/// steady-state windows can carry sample frames only.
///
/// This is the fused hot path, and it is *batched*: the cursor walk
/// delta-unfolds each accepted frame straight into the batch columns
/// (no intermediate row copy — checksum verification already rides
/// the planar walk inside the decoder), sequence bookkeeping runs per
/// frame, and the sanity screen runs once at the end as thirteen
/// AND-accumulating column passes — [`DegradePolicy`]'s batched mask,
/// bit-identical to the per-row ladder that the sharded path still
/// runs as the semantic reference. A perfectly clean window — every
/// machine exactly one fresh sane row, no resets — commits the whole
/// health ledger with column memcpys; any degradation falls back to
/// per-machine resolution with identical transitions and counters
/// (pinned serial-vs-sharded by the chaos property suite).
pub fn ingest_serial_with(
    state: &mut IngestState,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    let epoch = state.begin(1);
    let policy = state.policy;
    let ShardState {
        dec,
        ledger,
        pending,
        staged_epoch,
        staged_reset,
        sane_mask,
    } = &mut state.shards[0];
    ledger.ensure(machines);
    if staged_epoch.len() < machines {
        // Stale epochs from earlier (possibly smaller) windows are
        // harmless: the epoch strictly increases, so they never match.
        staged_epoch.resize(machines, 0);
        staged_reset.resize(machines, false);
    }
    pending.clear();

    est.begin_window();
    let batch = est.batch_mut();
    batch.resize_rows(machines);
    let mut cols = batch.columns_mut();

    let mut stats = StreamReport {
        decoders: 1,
        ..StreamReport::default()
    };
    let mut resolved_early = false;
    let mut any_reset = false;

    // Phase 1: one pass over the frames, unfolding accepted samples
    // straight into the batch columns and deferring their sanity
    // verdicts to the batched screen below.
    let mut cursor = FrameCursor::new(buf);
    while let Some(item) = cursor.next() {
        let (start, header) = match item {
            CursorItem::Resync { skipped } => {
                stats.resyncs += 1;
                stats.resync_bytes += skipped as u64;
                continue;
            }
            CursorItem::Frame { start, header } => (start, header),
        };
        match header.frame_type {
            FrameType::Layout => match dec.decode_frame(&header, cursor.payload(start, &header)) {
                Ok(d) => {
                    stats.layout_frames += 1;
                    if let Decoded::Layout { decimation } = d {
                        let idx = header.machine_id as usize;
                        if idx < machines {
                            ledger.set_decimation(idx, decimation);
                        }
                    }
                }
                Err(_) => stats.corrupt_frames += 1,
            },
            FrameType::PlanarSample => {
                stats.sample_frames += 1;
                let pend = match dec.decode_sample_pending(&header, cursor.payload(start, &header))
                {
                    Ok(p) => p,
                    Err(DecodeError::UnknownLayout) => {
                        stats.unknown_layout_frames += 1;
                        continue;
                    }
                    Err(_) => {
                        stats.corrupt_frames += 1;
                        continue;
                    }
                };
                let idx = pend.machine_id as usize;
                if idx >= machines {
                    stats.out_of_range_frames += 1;
                    continue;
                }
                let reset = match ledger.note_seq(idx, pend.window_seq) {
                    SeqNote::Duplicate => {
                        stats.duplicate_windows += 1;
                        continue;
                    }
                    SeqNote::Reset => {
                        stats.resets_detected += 1;
                        any_reset = true;
                        true
                    }
                    SeqNote::Fresh => false,
                };
                if staged_epoch[idx] == epoch {
                    // A second fresh frame for an already-staged
                    // machine: resolve the staged row now, per row —
                    // exactly what the unbatched ladder did on its
                    // delivery — before the new frame overwrites its
                    // column slot.
                    resolved_early = true;
                    let mut row = [0.0; COLUMNS];
                    for (v, c) in row.iter_mut().zip(cols.iter()) {
                        *v = c[idx];
                    }
                    if policy.row_is_sane(&row) {
                        ledger.commit_row(idx, epoch, &row, staged_reset[idx]);
                        stats.rows_written += 1;
                    } else {
                        stats.rows_quarantined += 1;
                        ledger.quarantine(idx);
                    }
                } else {
                    staged_epoch[idx] = epoch;
                    pending.push(idx as u32);
                }
                staged_reset[idx] = reset;
                dec.fold_into(&pend, &mut cols, idx);
            }
        }
    }

    // Phase 2: the batched sanity screen over the full columns.
    policy.sane_mask(Dispatch::active(), &cols, sane_mask);

    // Phase 3: resolve the staged rows. A clean window commits the
    // whole ledger in bulk; anything else resolves machine by machine.
    let clean = !resolved_early
        && !any_reset
        && pending.len() == machines
        && sane_mask.iter().all(|&m| m != 0);
    if clean {
        ledger.commit_all(epoch, &cols, machines);
        stats.rows_written += machines as u64;
    } else {
        for &idx in pending.iter() {
            let idx = idx as usize;
            if sane_mask[idx] != 0 {
                ledger.commit_from_cols(idx, epoch, &cols, staged_reset[idx]);
                stats.rows_written += 1;
            } else {
                stats.rows_quarantined += 1;
                ledger.quarantine(idx);
                if ledger.emitted_this(idx, epoch) {
                    // The quarantined frame overwrote a row this window
                    // already emitted (a resolve-early above) — put the
                    // last good row back.
                    ledger.restore_into(idx, &mut cols);
                } else {
                    // Never emitted this window: the slot must read as
                    // the zeros `resize_rows` left (the unbatched path
                    // never wrote it), pending a possible hold below.
                    for c in cols.iter_mut() {
                        c[idx] = 0.0;
                    }
                }
            }
        }
        // Phase 4: hold / staleness for machines that contributed
        // nothing this window (a clean window has none).
        for idx in 0..machines {
            if !ledger.seen(idx) || ledger.emitted_this(idx, epoch) {
                continue;
            }
            match ledger.hold(idx, epoch, policy.max_stale_windows) {
                Hold::Reconstructed(row) => {
                    for (c, v) in cols.iter_mut().zip(row) {
                        c[idx] = v;
                    }
                    stats.rows_reconstructed += 1;
                    stats.rows_written += 1;
                }
                Hold::Held(row) => {
                    for (c, v) in cols.iter_mut().zip(row) {
                        c[idx] = v;
                    }
                    stats.rows_held += 1;
                    stats.rows_written += 1;
                }
                Hold::NewlyStale => stats.machines_stale += 1,
                Hold::AlreadyStale => {}
            }
        }
    }
    stats
}

/// Streams one window of wire bytes into `est`'s batch across the
/// pool: `D` decoder shards feeding one consumer through bounded SPSC
/// rings (see the [module docs](self) for topology, backpressure and
/// determinism). Call [`FleetEstimator::estimate`] afterwards. Uses
/// fresh decoders, so `buf` must be self-describing; use
/// [`stream_window_with`] to carry layouts across windows.
pub fn stream_window(
    pool: &WorkerPool,
    cfg: &StreamConfig,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    stream_window_with(&mut IngestState::new(), pool, cfg, buf, machines, est)
}

/// [`stream_window`] with persistent per-shard decoder state (see
/// [`IngestState`] for the layout-visibility contract when the shard
/// count changes between windows).
pub fn stream_window_with(
    state: &mut IngestState,
    pool: &WorkerPool,
    cfg: &StreamConfig,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    let requested = if cfg.decoders == 0 {
        usize::MAX
    } else {
        cfg.decoders
    };
    let d = requested.min(pool.workers().saturating_sub(1));
    if d == 0 {
        return ingest_serial_with(state, buf, machines, est);
    }

    let epoch = state.begin(d);
    let policy = state.policy;
    est.begin_window();
    let batch = est.batch_mut();
    batch.resize_rows(machines);

    enum Task<'a> {
        Consume {
            consumers: Vec<Consumer<Vec<WireRow>>>,
            batch: &'a mut SampleBatch,
        },
        Decode {
            ctx: ShardCtx,
            producer: Producer<Vec<WireRow>>,
            shard_state: &'a mut ShardState,
        },
    }

    enum TaskOut {
        Rows(u64),
        Stats(StreamReport),
    }

    let mut consumers = Vec::with_capacity(d);
    let mut tasks: Vec<Task> = Vec::with_capacity(d + 1);
    let mut producers = Vec::with_capacity(d);
    for _ in 0..d {
        let (tx, rx) = ring(cfg.ring_capacity);
        producers.push(tx);
        consumers.push(rx);
    }
    // Consumer first: the submitting thread claims tasks in order, so
    // the drain side is running before any producer can fill a ring.
    tasks.push(Task::Consume { consumers, batch });
    for ((shard, producer), shard_state) in producers
        .into_iter()
        .enumerate()
        .zip(state.shards[..d].iter_mut())
    {
        tasks.push(Task::Decode {
            ctx: ShardCtx {
                policy,
                epoch,
                shard: shard as u64,
                nshards: d as u64,
                machines,
            },
            producer,
            shard_state,
        });
    }

    let chunk_rows = cfg.chunk_rows.max(1);
    let drop_when_full = cfg.drop_when_full;
    let outs = pool.par_map(tasks, |task| match task {
        Task::Consume {
            mut consumers,
            batch,
        } => {
            let mut rows = 0u64;
            while !consumers.is_empty() {
                let mut progressed = false;
                consumers.retain_mut(|c| {
                    while let Some(chunk) = c.pop() {
                        progressed = true;
                        for r in chunk {
                            batch.set_row(r.machine as usize, r.row);
                            rows += 1;
                        }
                    }
                    !c.is_drained()
                });
                if !progressed && !consumers.is_empty() {
                    std::thread::yield_now();
                }
            }
            TaskOut::Rows(rows)
        }
        Task::Decode {
            ctx,
            mut producer,
            shard_state,
        } => {
            let mut chunk: Vec<WireRow> = Vec::with_capacity(chunk_rows);
            let mut dropped = 0u64;
            let mut pressure = 0u64;
            let mut stats = run_shard(shard_state, ctx, buf, |r| {
                chunk.push(r);
                if chunk.len() == chunk_rows {
                    let full = std::mem::replace(&mut chunk, Vec::with_capacity(chunk_rows));
                    let (dr, pr) = ship(&mut producer, full, drop_when_full);
                    dropped += dr;
                    pressure += pr;
                }
            });
            if !chunk.is_empty() {
                let (dr, pr) = ship(&mut producer, chunk, drop_when_full);
                dropped += dr;
                pressure += pr;
            }
            producer.close();
            stats.dropped_rows = dropped;
            stats.backpressure_events = pressure;
            TaskOut::Stats(stats)
        }
    });

    let mut report = StreamReport {
        decoders: d,
        ..StreamReport::default()
    };
    for out in &outs {
        match out {
            TaskOut::Rows(r) => report.rows_written += r,
            TaskOut::Stats(s) => report.absorb(s),
        }
    }
    report
}
