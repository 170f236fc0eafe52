//! The closed loop: generate → encode → ingest → estimate → anomaly
//! verdict → decimation grant, one window at a time from one thread.
//! Window `w + 1` is generated only after window `w`'s grants are out,
//! because the grants decide which machines send next.
//!
//! Every layer is timed from outside, around the call into its public
//! function. Correctness gates run between the timed regions.

use crate::inputs::{capture, Rng, SetupCost, Source, MACHINES};
use crate::spans::{Layer, Spans, ROOT};
use std::time::{Duration, Instant};
use tdp_counters::SampleSet;
use tdp_fleet::{AnomalyDetector, FleetEstimates, FleetEstimator, Verdict};
use tdp_modeling::metrics::average_error;
use tdp_parallel::WorkerPool;
use tdp_wire::{stream_window_with, IngestState, StreamConfig, StreamReport, WireEncoder};
use trickledown::SystemPowerModel;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetFull,
    FleetAdaptive,
    TraceReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetFull,
        Workload::FleetAdaptive,
        Workload::TraceReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetFull => "fleet_full",
            Workload::FleetAdaptive => "fleet_adaptive",
            Workload::TraceReplay => "trace_replay",
        }
    }
}

/// Every this many timed windows, the wire path's estimates are checked
/// bit for bit against in-memory references.
const VERIFY_EVERY: u64 = 16;

/// In a traced run, windows alternate between traced and untraced
/// blocks of this many, so the tracing overhead is measured under
/// matched noise.
const TRACE_BLOCK: usize = 32;

/// Upper bound on windows per run (the span buffer is sized from it):
/// one loop iteration at N = 1024 takes well over 200 µs.
const MAX_WINDOWS_PER_SECOND: f64 = 5000.0;

/// Violations kept verbatim; the rest are only counted.
const MAX_REPORTED: usize = 8;

/// One window's timings, kept for every timed window: compact, so the
/// harness's own memory barely grows with the window count.
pub struct Obs {
    pub w: u32,
    pub traced: bool,
    /// The harness generating the window's inputs: work outside the
    /// measured path, so it doubles as a probe of how fast the host runs.
    pub gen_ns: u32,
    /// The slower of this window's and the next window's generation: the
    /// host's speed on both sides of the window.
    pub probe_ns: u32,
    /// `stream_window_with` handed the bytes → `AnomalyDetector::update`
    /// returned.
    pub window_ns: u32,
    /// `should_send` + `push_sample_set` + `take_bytes`, plus the grant
    /// pass.
    pub producer_ns: u32,
    pub sample_frames: u32,
}

/// What one window did, checked and tallied before it is dropped.
struct Outcome {
    rep: StreamReport,
    bytes: u64,
    senders: u64,
    layouts_expected: u64,
}

/// Counts over the timed windows, all gathered outside the timed
/// regions.
#[derive(Default)]
pub struct Tally {
    pub rep: StreamReport,
    pub bytes: u64,
    pub frames_sent: u64,
    pub failed_mw: u64,
    pub clamped: u64,
    pub flagged_mw: u64,
    pub false_positive_mw: u64,
    pub decimated_grants: u64,
    pub detect_windows_max: u64,
    pub spikes_scored: u64,
    pub verified_windows: u64,
    /// Per subsystem (`Subsystem::ALL` order): summed Eq 6 terms of the
    /// fleet path, and the machine-windows they cover.
    err_sum: [f64; 5],
    err_mw: u64,
    /// Per replayed record: how often the fleet replayed it.
    record_hits: Vec<u64>,
    /// Per machine: `(onset window, decimation at onset)` of its open
    /// spike episode.
    open: Vec<Option<(u64, u16)>>,
}

/// A finished timed run.
pub struct Run {
    pub obs: Vec<Obs>,
    pub spans: Option<Spans>,
    pub tally: Tally,
    /// `trace_replay`: the fleet path's Eq 6 error per subsystem,
    /// `Subsystem::ALL` order.
    pub err_pct: Option<[f64; 5]>,
}

pub struct Bench {
    pub workload: Workload,
    pub n: usize,
    pub cost: SetupCost,
    source: Source,
    model: SystemPowerModel,
    pool: WorkerPool,
    stream: StreamConfig,
    enc: WireEncoder,
    ingest: IngestState,
    est: FleetEstimator,
    det: AnomalyDetector,
    sets: Vec<SampleSet>,
    grants: Vec<u16>,
    /// Decimation each machine last announced on the wire (0: never).
    announced: Vec<u16>,
    /// Window of each machine's last transmitted sample.
    last_sent: Vec<u64>,
    ref_est: FleetEstimator,
    ref_sets: Vec<SampleSet>,
    next: u64,
    pub warmup: u64,
    pub decoders: usize,
    pub violations: Vec<String>,
    pub violation_count: u64,
}

impl Bench {
    /// Builds the workload's inputs and pipeline from `seed`, then runs
    /// the warm-up windows (layout announcement, detector baseline,
    /// grant roll-out) — everything `setup_s` covers.
    pub fn setup(workload: Workload, seed: u64, workers: usize) -> Self {
        let n = MACHINES;
        let mut rng = Rng::new(seed);
        let det = AnomalyDetector::default();
        let cfg = *det.config();
        // Detector baseline, then two full decimation cycles so every
        // machine has announced its first grant before timing starts.
        let warmup = cfg.baseline_windows as u64 + 2 * cfg.healthy_decimation as u64;
        let (source, model, cost) = match workload {
            Workload::FleetFull | Workload::FleetAdaptive => {
                let t = Instant::now();
                let spikes_from = (workload == Workload::FleetAdaptive).then_some(warmup);
                let source = Source::synthetic(&mut rng, n, spikes_from);
                let inputs = t.elapsed();
                let t = Instant::now();
                let model = SystemPowerModel::paper();
                let cost = SetupCost {
                    inputs,
                    model: t.elapsed(),
                    ..SetupCost::default()
                };
                (source, model, cost)
            }
            Workload::TraceReplay => {
                let (replay, model, cost) = capture(&mut rng, n);
                (Source::Replay(replay), model, cost)
            }
        };
        let t = Instant::now();
        let mut bench = Self {
            workload,
            n,
            cost,
            source,
            pool: WorkerPool::new(workers),
            stream: StreamConfig::default(),
            enc: WireEncoder::new(),
            ingest: IngestState::new(),
            est: FleetEstimator::with_capacity(model.clone(), n),
            ref_est: FleetEstimator::with_capacity(model.clone(), n),
            model,
            det,
            sets: (0..n).map(|_| SampleSet::empty()).collect(),
            ref_sets: (0..n).map(|_| SampleSet::empty()).collect(),
            grants: vec![1; n],
            announced: vec![0; n],
            last_sent: vec![0; n],
            next: 0,
            warmup,
            decoders: 0,
            violations: Vec::new(),
            violation_count: 0,
        };
        let mut tally = Tally::default();
        for _ in 0..warmup {
            let (obs, outcome) = bench.window(None);
            bench.check(obs.w as u64, &outcome, &mut tally, false);
        }
        bench.cost.warmup = t.elapsed();
        bench
    }

    fn closes_loop(&self) -> bool {
        self.workload == Workload::FleetAdaptive
    }

    pub fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(msg);
        }
    }

    /// Runs one window through the loop. With `spans`, records one span
    /// per layer call.
    fn window(&mut self, spans: Option<&mut Spans>) -> (Obs, Outcome) {
        let w = self.next;
        self.next += 1;
        let (n, seq) = (self.n, w + 1);
        let traced = spans.is_some();
        let stamp = || traced.then(Instant::now);

        let gen0 = Instant::now();
        for (m, set) in self.sets.iter_mut().enumerate() {
            self.source.fill(set, m, w);
        }
        let enc0 = Instant::now();
        for (m, set) in self.sets.iter().enumerate() {
            if self.enc.should_send(m as u64, seq) {
                self.enc
                    .push_sample_set(m as u64, set)
                    .expect("generated sample sets encode");
            }
        }
        let buf = self.enc.take_bytes();
        let enc1 = Instant::now();
        let (senders, layouts_expected) = self.account_sends(w);

        let win0 = Instant::now();
        let ingest0 = stamp();
        let rep = stream_window_with(
            &mut self.ingest,
            &self.pool,
            &self.stream,
            &buf,
            n,
            &mut self.est,
        );
        let ingest1 = stamp();
        let est0 = stamp();
        let estimates = self.est.estimate();
        let est1 = stamp();
        let det0 = stamp();
        if self.pool.workers() > 1 {
            self.det.update_pooled(estimates, &self.pool);
        } else {
            self.det.update(estimates);
        }
        let det1 = stamp();
        let win1 = Instant::now();

        // Grants for the next window. Tightening applies at once (the
        // machine sends next window and announces it); relaxing waits
        // for the machine's phase under the new decimation, so the
        // announcing frame is also the first one the grant lets through
        // and ingest never mistakes a newly silent machine for a lost one.
        let relax_seq = seq + 1;
        for m in 0..n {
            let want = self.det.decimation(m);
            self.grants[m] = want;
            if self.closes_loop() {
                let have = self.enc.decimation(m as u64);
                let due = relax_seq % want as u64 == m as u64 % want as u64;
                if want < have || (want > have && due) {
                    self.enc.set_decimation(m as u64, want);
                }
            }
        }
        let grant1 = Instant::now();

        if let Some(sp) = spans {
            sp.record(Layer::Gen, w, ROOT, gen0, enc0);
            sp.record(Layer::Encode, w, ROOT, enc0, enc1);
            let parent = sp.record(Layer::Window, w, ROOT, win0, win1);
            let child = |t: Option<Instant>| t.expect("traced windows stamp every call");
            sp.record(Layer::Ingest, w, parent, child(ingest0), child(ingest1));
            sp.record(Layer::Estimate, w, parent, child(est0), child(est1));
            sp.record(Layer::Anomaly, w, parent, child(det0), child(det1));
            sp.record(Layer::Grant, w, ROOT, win1, grant1);
        }
        self.decoders = rep.decoders;
        let obs = Obs {
            w: w as u32,
            traced,
            gen_ns: ns(enc0 - gen0),
            probe_ns: 0,
            window_ns: ns(win1 - win0),
            producer_ns: ns(enc1 - enc0) + ns(grant1 - win1),
            sample_frames: rep.sample_frames as u32,
        };
        let outcome = Outcome {
            rep,
            bytes: buf.len() as u64,
            senders,
            layouts_expected,
        };
        (obs, outcome)
    }

    /// Which machines sent window `w`, and how many of those sends had
    /// to re-announce a layout (first frame, or a changed grant).
    fn account_sends(&mut self, w: u64) -> (u64, u64) {
        let (mut senders, mut layouts) = (0, 0);
        for m in 0..self.n {
            if self.enc.should_send(m as u64, w + 1) {
                senders += 1;
                self.last_sent[m] = w;
                let dec = self.enc.decimation(m as u64);
                if self.announced[m] != dec {
                    self.announced[m] = dec;
                    layouts += 1;
                }
            }
        }
        (senders, layouts)
    }

    /// The correctness gates for one window, plus the timed-window
    /// tallies.
    fn check(&mut self, w: u64, o: &Outcome, t: &mut Tally, timed: bool) {
        let (n, rep) = (self.n as u64, &o.rep);
        if rep.rows_written != n {
            self.violate(format!(
                "window {w}: {} rows written of {n}",
                rep.rows_written
            ));
        }
        let broken = rep.corrupt_frames
            + rep.resyncs
            + rep.unknown_layout_frames
            + rep.out_of_range_frames
            + rep.dropped_rows;
        if broken != 0 {
            self.violate(format!("window {w}: corrupt or dropped frames: {rep:?}"));
        }
        if rep.layout_frames != o.layouts_expected {
            self.violate(format!(
                "window {w}: {} layout frames, {} announcements expected",
                rep.layout_frames, o.layouts_expected
            ));
        }
        let degraded = rep.rows_quarantined
            + rep.rows_held
            + rep.machines_stale
            + rep.resets_detected
            + rep.duplicate_windows;
        if degraded != 0 {
            self.violate(format!("window {w}: degraded rows: {rep:?}"));
        }
        if self.closes_loop() {
            if rep.rows_reconstructed != n - o.senders {
                self.violate(format!(
                    "window {w}: {} reconstructions for {} silent machines",
                    rep.rows_reconstructed,
                    n - o.senders
                ));
            }
        } else if timed && (o.senders != n || o.layouts_expected != 0) {
            self.violate(format!(
                "window {w}: {} senders, {} layout frames after warm-up",
                o.senders, o.layouts_expected
            ));
        }
        if !timed {
            return;
        }

        t.rep.absorb(rep);
        t.bytes += o.bytes;
        t.frames_sent += o.senders + o.layouts_expected;
        t.failed_mw += n.saturating_sub(rep.rows_written - rep.rows_held);
        let est = self.est.estimates();
        t.clamped += est.clamped_predictions();
        t.decimated_grants += self.grants.iter().filter(|&&g| g > 1).count() as u64;
        let mut false_positives = 0;
        for m in 0..self.n {
            if self.det.verdict(m) != Verdict::Normal {
                t.flagged_mw += 1;
                if let Source::Synthetic { spikes, .. } = &self.source {
                    if !spikes.as_ref().is_some_and(|s| s.is_spiked(m)) {
                        false_positives += 1;
                    }
                }
            }
        }
        t.false_positive_mw += false_positives;
        if false_positives != 0 {
            self.violate(format!(
                "window {w}: {false_positives} clean machines flagged"
            ));
        }
        self.score_spikes(w, t);
        if let Some(r) = self.source.replay() {
            let cols = subsystem_cols(self.est.estimates());
            #[allow(clippy::needless_range_loop)] // five parallel columns, one index
            for m in 0..self.n {
                let rec = r.record(m, w);
                t.record_hits[rec] += 1;
                let measured = r.measured(rec);
                for s in 0..5 {
                    t.err_sum[s] += ((cols[s][m] - measured[s]) / measured[s]).abs() * 100.0;
                }
            }
            t.err_mw += n;
        }
        if w.is_multiple_of(VERIFY_EVERY) {
            t.verified_windows += 1;
            if let Err(msg) = self.verify(w) {
                self.violate(msg);
            }
        }
    }

    /// Opens an episode for every spike starting in the next window,
    /// remembering the decimation the machine sends under.
    fn open_spikes(&self, t: &mut Tally) {
        let Some(spikes) = self.source.spikes() else {
            return;
        };
        for m in spikes.machines() {
            if spikes.onset(m, self.next) {
                t.open[m] = Some((self.next, self.enc.decimation(m as u64)));
            }
        }
    }

    /// Closes every open episode the detector flagged in window `w`; an
    /// episode must be flagged within its decimation bound.
    fn score_spikes(&mut self, w: u64, t: &mut Tally) {
        let Some(spikes) = self.source.spikes() else {
            return;
        };
        let mut late = Vec::new();
        for m in spikes.machines() {
            let Some((onset, bound)) = t.open[m] else {
                continue;
            };
            let delay = w - onset + 1;
            if self.det.verdict(m) == Verdict::Anomalous {
                t.open[m] = None;
                t.spikes_scored += 1;
                t.detect_windows_max = t.detect_windows_max.max(delay);
                if delay > bound as u64 {
                    late.push(format!(
                        "machine {m}: spike at window {onset} flagged after {delay} windows (bound {bound})"
                    ));
                }
            } else if delay >= bound as u64 {
                t.open[m] = None;
                late.push(format!(
                    "machine {m}: spike at window {onset} not flagged within {bound} windows"
                ));
            }
        }
        for msg in late {
            self.violate(msg);
        }
    }

    /// The wire path's estimates for window `w` against
    /// `FleetEstimator::process_window` over the sets each machine's row
    /// should hold (its last transmitted window), and on trace replay
    /// against the scalar model `SystemPowerModel::predict_subsystem`.
    fn verify(&mut self, w: u64) -> Result<(), String> {
        let sets = if self.closes_loop() {
            for (m, set) in self.ref_sets.iter_mut().enumerate() {
                self.source.fill(set, m, self.last_sent[m]);
            }
            &self.ref_sets
        } else {
            &self.sets
        };
        self.ref_est.process_window(sets);
        let reference = subsystem_cols(self.ref_est.estimates());
        let wire = subsystem_cols(self.est.estimates());
        let total = (
            self.est.estimates().total(),
            self.ref_est.estimates().total(),
        );
        for m in 0..self.n {
            let same = (0..5).all(|s| wire[s][m].to_bits() == reference[s][m].to_bits())
                && total.0[m].to_bits() == total.1[m].to_bits();
            if !same {
                return Err(format!(
                    "window {w}: machine {m}: wire estimate differs from process_window"
                ));
            }
        }
        // The fleet derives rates from the raw counts and evaluates
        // Equation 1 over column sums; the scalar model works from the
        // record's pre-extracted rates, CPU by CPU. The two agree to
        // rounding, not bit for bit.
        if let Some(r) = self.source.replay() {
            #[allow(clippy::needless_range_loop)] // five parallel columns, one index
            for m in 0..self.n {
                let scalar = r.predicted(&self.model, r.record(m, w));
                if (0..5).any(|s| (wire[s][m] - scalar[s]).abs() > 1e-12 * scalar[s].abs()) {
                    let fleet: [f64; 5] = std::array::from_fn(|s| wire[s][m]);
                    return Err(format!(
                        "window {w}: machine {m}: fleet estimate {fleet:?} differs from predict_subsystem {scalar:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs timed windows for `seconds`. With `traced`, alternate blocks
    /// of windows record spans.
    pub fn run(&mut self, seconds: f64, traced: bool) -> Run {
        let cap = (seconds * MAX_WINDOWS_PER_SECOND) as usize + 64;
        let mut obs = Vec::with_capacity(cap);
        let mut spans = traced.then(|| Spans::with_capacity(cap * Layer::ALL.len()));
        let mut tally = Tally {
            record_hits: vec![0; self.source.replay().map_or(0, |r| r.len())],
            open: vec![None; self.n],
            ..Tally::default()
        };
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        while start.elapsed() < budget && obs.len() < cap {
            let block_traced = traced && (obs.len() / TRACE_BLOCK).is_multiple_of(2);
            self.open_spikes(&mut tally);
            let (o, outcome) = self.window(spans.as_mut().filter(|_| block_traced));
            self.check(o.w as u64, &outcome, &mut tally, true);
            obs.push(o);
        }
        for i in 0..obs.len() {
            let next = obs.get(i + 1).map_or(0, |o: &Obs| o.gen_ns);
            obs[i].probe_ns = obs[i].gen_ns.max(next);
        }
        // Eq 6 over every replayed machine-window, from the fleet path's
        // estimates and from the scalar model over the same records.
        let err_pct = self.source.replay().map(|r| {
            let mw = tally.err_mw as f64;
            let fleet: [f64; 5] = std::array::from_fn(|s| tally.err_sum[s] / mw);
            let mut scalar = [0.0; 5];
            for (rec, &hits) in tally.record_hits.iter().enumerate() {
                if hits > 0 {
                    let (model, measured) = (r.predicted(&self.model, rec), r.measured(rec));
                    for s in 0..5 {
                        scalar[s] += hits as f64 * average_error(&[model[s]], &[measured[s]]) / mw;
                    }
                }
            }
            (fleet, scalar)
        });
        if let Some((fleet, scalar)) = err_pct {
            for s in 0..5 {
                if (fleet[s] - scalar[s]).abs() > 1e-9 * scalar[s].abs().max(1.0) {
                    self.violate(format!(
                        "subsystem {s}: fleet-path error {} != scalar-model error {}",
                        fleet[s], scalar[s]
                    ));
                }
            }
        }
        Run {
            obs,
            spans,
            tally,
            err_pct: err_pct.map(|(fleet, _)| fleet),
        }
    }
}

/// Estimate columns in `Subsystem::ALL` order (CPU, chipset, memory,
/// I/O, disk).
fn subsystem_cols(e: &FleetEstimates) -> [&[f64]; 5] {
    [e.cpu(), e.chipset(), e.memory(), e.io(), e.disk()]
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}
