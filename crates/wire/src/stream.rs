//! Wire ingest: one serial fused pass from frame bytes to fleet sample
//! rows, plus the unbatched per-row reference it is tested against.
//!
//! [`ingest_serial_with`] is the production path: one [`FrameCursor`]
//! walk that decodes each sample frame straight into the estimator's
//! batch columns, screens sanity in column batches and commits the
//! health ledger in bulk when the window is clean.
//! [`ingest_reference_with`] walks the same window one row at a time
//! through the degradation ladder; it exists so the batched path has a
//! plain semantic reference to be property-tested against.
//!
//! # Determinism
//!
//! A machine's row is produced by [`FrameDecoder`]'s arithmetic
//! (itself bit-identical to in-memory ingestion) from the last
//! acceptable frame for that machine in stream order, and rows land at
//! fixed indices keyed by machine id — so both paths write the same
//! bits, counters and ladder states for any stream.

use crate::decode::{CursorItem, DecodeError, Decoded, FrameCursor, FrameDecoder};
use crate::frame::FrameType;
use crate::health::{DegradePolicy, HealthLedger, HealthState, Hold, SeqNote};
use tdp_fleet::{FleetEstimator, COLUMNS};
use tdp_parallel::WorkerPool;
use tdp_simd::Dispatch;

/// The settings argument of [`stream_window_with`]; it has none. Kept
/// only so existing callers compile, and retired together with that
/// function in the next benchmark change (ROADMAP item 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamConfig {}

/// What happened during one ingested window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Always `1`: one decoder ran, fused with the row writer. Retired
    /// in the next benchmark change (ROADMAP item 2).
    pub decoders: usize,
    /// Sample frames whose decode was attempted.
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
    /// Always `0`: ingest never sheds rows. Retired in the next
    /// benchmark change (ROADMAP item 2).
    pub dropped_rows: u64,
    /// Always `0`: ingest has no queue to back up. Retired in the next
    /// benchmark change (ROADMAP item 2).
    pub backpressure_events: u64,
}

impl StreamReport {
    /// Adds `o`'s event counters into `self` (all fields except
    /// [`decoders`](Self::decoders), which describes a topology, not a
    /// count) — for aggregating per-window reports.
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

/// Ingest state that survives across windows: one [`FrameDecoder`] —
/// so a steady-state stream (layouts announced once, then sample
/// frames only — see [`WireEncoder`](crate::WireEncoder)) pays for
/// layout registration exactly once — plus per-machine health
/// ([`HealthState`]) driving the graceful-degradation ladder: duplicate
/// and reset detection on window sequences, quarantine of rows that
/// fail the [`DegradePolicy`] sanity bounds, bounded last-good-row
/// holds for silent machines, and staleness cut-off.
///
/// The health ledger is dense, indexed by machine id — ids are
/// `< machines` by the time the degradation ladder runs, so the
/// hot-path lookup is one bounds-checked index instead of a tree walk.
/// A machine never decoded is exactly one whose ledger `seen` flag is
/// unset (every write path notes the sequence first).
///
/// The remaining vectors are the fused path's per-window scratch,
/// retained across windows so the steady state allocates nothing:
/// which machines staged a fresh row into the batch columns this
/// epoch, each staged row's reset flag, and the batched sanity mask.
#[derive(Debug, Default)]
pub struct IngestState {
    dec: FrameDecoder,
    ledger: HealthLedger,
    policy: DegradePolicy,
    epoch: u64,
    pending: Vec<u32>,
    staged_epoch: Vec<u64>,
    staged_reset: Vec<bool>,
    sane_mask: Vec<u8>,
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
    /// row has ever been decoded for it.
    pub fn machine_health(&self, machine: u64) -> Option<HealthState> {
        let idx = machine as usize;
        self.ledger.seen(idx).then(|| self.ledger.state(idx))
    }

    /// Drops the decoder's identity-directory memo for `machine` — the
    /// eviction hook for a machine leaving the fleet. Purely an
    /// optimisation-state reset: the machine's next planar frame takes
    /// the full validation path once and re-memoises, with
    /// byte-identical decode results either way.
    pub fn evict_machine_dir(&mut self, machine: u64) {
        self.dec.evict_dir_memo(machine);
    }
}

/// Serial fused ingest: decode frames and write rows straight into the
/// estimator's batch — no threads, no allocation in the steady state.
/// Uses a fresh decoder, so `buf` must be self-describing; use
/// [`ingest_serial_with`] to carry layouts across windows.
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
/// bit-identical to the per-row ladder of [`ingest_reference_with`].
/// A perfectly clean window — every machine exactly one fresh sane
/// row, no resets — commits the whole health ledger with column
/// memcpys; any degradation falls back to per-machine resolution with
/// identical transitions and counters (pinned against the reference by
/// the chaos property suite).
pub fn ingest_serial_with(
    state: &mut IngestState,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    state.epoch += 1;
    let IngestState {
        dec,
        ledger,
        policy,
        epoch,
        pending,
        staged_epoch,
        staged_reset,
        sane_mask,
    } = state;
    let (policy, epoch) = (*policy, *epoch);
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
                    // exactly what the unbatched ladder does on its
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

/// The unbatched semantic reference that [`ingest_serial_with`] is
/// property-tested against: the same window walked one frame at a
/// time, each decoded row screened through the degradation ladder —
/// duplicate skip, reset re-baseline, sanity quarantine, commit — and
/// written with [`SampleBatch::set_row`](tdp_fleet::SampleBatch::set_row),
/// then a hold/staleness pass over machines that contributed nothing.
/// Both paths must agree report for report, ladder state for ladder
/// state and bit for bit. Not a hot path: it copies every row.
pub fn ingest_reference_with(
    state: &mut IngestState,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    state.epoch += 1;
    let IngestState {
        dec,
        ledger,
        policy,
        epoch,
        ..
    } = state;
    let (policy, epoch) = (*policy, *epoch);
    ledger.ensure(machines);
    est.begin_window();
    let batch = est.batch_mut();
    batch.resize_rows(machines);

    let mut stats = StreamReport {
        decoders: 1,
        ..StreamReport::default()
    };
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
        let decoded = dec.decode_frame(&header, cursor.payload(start, &header));
        if header.frame_type == FrameType::Layout {
            match decoded {
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
            }
            continue;
        }
        stats.sample_frames += 1;
        let (idx, window_seq, row) = match decoded {
            Ok(Decoded::Row {
                machine_id,
                window_seq,
                row,
            }) => (machine_id as usize, window_seq, row),
            Ok(Decoded::Layout { .. }) => continue,
            Err(DecodeError::UnknownLayout) => {
                stats.unknown_layout_frames += 1;
                continue;
            }
            Err(_) => {
                stats.corrupt_frames += 1;
                continue;
            }
        };
        if idx >= machines {
            stats.out_of_range_frames += 1;
            continue;
        }
        let reset = match ledger.note_seq(idx, window_seq) {
            SeqNote::Duplicate => {
                // Same window delivered again (duplicated frame or
                // replayed chunk): the first delivery already decided
                // this window.
                stats.duplicate_windows += 1;
                continue;
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
        if !policy.row_is_sane(&row) {
            // The bytes arrived as sent (checksummed) but describe an
            // impossible machine: never let it touch the estimator.
            stats.rows_quarantined += 1;
            ledger.quarantine(idx);
            continue;
        }
        batch.set_row(idx, row);
        stats.rows_written += 1;
        ledger.commit_row(idx, epoch, &row, reset);
    }

    for idx in 0..machines {
        if !ledger.seen(idx) || ledger.emitted_this(idx, epoch) {
            continue;
        }
        match ledger.hold(idx, epoch, policy.max_stale_windows) {
            Hold::Reconstructed(row) => {
                batch.set_row(idx, row);
                stats.rows_reconstructed += 1;
                stats.rows_written += 1;
            }
            Hold::Held(row) => {
                batch.set_row(idx, row);
                stats.rows_held += 1;
                stats.rows_written += 1;
            }
            Hold::NewlyStale => stats.machines_stale += 1,
            Hold::AlreadyStale => {}
        }
    }
    stats
}

/// [`ingest_serial_with`] behind a signature that also takes a pool
/// and a [`StreamConfig`], both ignored. Kept only for existing
/// callers, and retired together with [`StreamConfig`] in the next
/// benchmark change (ROADMAP item 2).
pub fn stream_window_with(
    state: &mut IngestState,
    _pool: &WorkerPool,
    _cfg: &StreamConfig,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    ingest_serial_with(state, buf, machines, est)
}
