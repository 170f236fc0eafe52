//! Streaming anomaly detection over per-subsystem power estimates.
//!
//! The wire health ladder ([`tdp-wire`]'s quarantine/hold/stale
//! machinery) catches telemetry that is *malformed*; nothing there
//! catches a machine whose counters are perfectly well-formed but whose
//! **power trajectory** has left the fleet — a runaway workload, a
//! failing fan driving sustained turbo, a compromised host. This module
//! watches the estimator's own output, per subsystem, and flags
//! machines that diverge from their peers:
//!
//! * Each window, the detector takes the fleet's per-subsystem
//!   estimates (CPU, memory, disk, I/O — chipset is a constant and
//!   total is their sum) and computes a **cross-sectional robust
//!   center**: the fleet median per subsystem. Median instead of mean
//!   so a handful of already anomalous machines cannot drag the
//!   center toward themselves — and because the center is *this*
//!   window's, a fleet-wide load swing moves every machine and its
//!   center together and cancels, instead of flagging the whole fleet.
//! * The **scale** is MAD-derived (`1.4826·MAD`, floored at a small
//!   fraction of the median — an idle-uniform fleet has MAD ≈ 0 and
//!   the floor keeps z finite) and smoothed as the median over a
//!   fixed-capacity **window ring** of recent scales, so one window in
//!   which many machines misbehave at once cannot inflate the scale
//!   and hide them.
//! * Each machine's **z-score** is its worst subsystem divergence:
//!   `z = max_s |x_s − med_s| / denom_s`. `z ≥ threshold` ⇒
//!   [`Verdict::Anomalous`]; after recovery the machine is carried as
//!   [`Verdict::Suspect`] for a hysteresis hold before returning to
//!   [`Verdict::Normal`].
//!
//! # The adaptive-sampling loop
//!
//! Verdicts close the loop with the wire protocol:
//! [`AnomalyDetector::decimation`] answers, per machine, how often the
//! producer should transmit — `1` (every window) for anomalous,
//! suspect, or not-yet-warmed machines, the configured
//! [`healthy_decimation`](AnomalyConfig::healthy_decimation) for
//! machines the fleet agrees are boring. The controller forwards that
//! to [`WireEncoder::set_decimation`], the encoder announces it on the
//! machine's layout frame, and ingest reconstructs the skipped windows
//! by holding the last row — cutting steady-state wire + ingest cost
//! roughly `N×` while anomalous machines keep full resolution: trace
//! the problem, not the process.
//!
//! # Bit-identity contract
//!
//! The baseline refresh is serial in both entry points; the
//! per-machine judgement is a pure function of `(machine state,
//! baseline)`. [`AnomalyDetector::update_pooled`] shards only that
//! elementwise phase, so serial and pooled updates leave **bit-identical**
//! detector state for any worker count — pinned by
//! [`AnomalyDetector::digest`] in the chaos suite, the same contract
//! every other sharded stage of the pipeline honours.
//!
//! [`tdp-wire`]: ../tdp_wire/index.html
//! [`WireEncoder::set_decimation`]: ../tdp_wire/struct.WireEncoder.html#method.set_decimation

use crate::FleetEstimates;
use tdp_parallel::WorkerPool;

/// Subsystems the detector watches: CPU, memory, disk, I/O. Chipset is
/// a per-machine constant and total is the sum of the others — neither
/// can diverge on its own.
const SUBSYSTEMS: usize = 4;

/// Tuning for [`AnomalyDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Capacity of the scale window ring — how many windows of
    /// cross-sectional MAD scales the operative denominator is the
    /// median of. Also the warmup length: until this many windows have
    /// been seen, every machine is sampled at full rate and no verdict
    /// leaves [`Verdict::Normal`].
    pub baseline_windows: usize,
    /// Robust z-score at or above which a machine is
    /// [`Verdict::Anomalous`]. A clean homogeneous fleet sits well
    /// under 3; the default leaves a wide false-positive margin while
    /// still catching order-of-magnitude spikes instantly.
    pub threshold: f64,
    /// Windows a machine stays [`Verdict::Suspect`] (still sampled
    /// every window) after its z-score drops back below the threshold.
    pub hold_windows: u32,
    /// Sampling decimation granted to warmed-up [`Verdict::Normal`]
    /// machines: transmit one window in this many, reconstructed by
    /// hold on ingest.
    pub healthy_decimation: u16,
    /// Relative floor on the MAD-derived scale, as a fraction of the
    /// baseline median's magnitude — keeps z finite on an idle fleet
    /// whose MAD is exactly zero.
    pub rel_floor: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            baseline_windows: 8,
            threshold: 6.0,
            hold_windows: 3,
            healthy_decimation: 4,
            rel_floor: 0.01,
        }
    }
}

/// Where a machine stands with the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Tracking the fleet baseline; eligible for decimated sampling.
    #[default]
    Normal,
    /// Recently anomalous, inside the hysteresis hold — sampled every
    /// window, not (or no longer) over the threshold.
    Suspect,
    /// Diverging from fleet peers right now (`z ≥ threshold`).
    Anomalous,
}

/// One window's operative baseline: per-subsystem center (this
/// window's cross-sectional median) and scale (ring-smoothed MAD).
#[derive(Debug, Clone, Copy)]
struct Baseline {
    med: [f64; SUBSYSTEMS],
    denom: [f64; SUBSYSTEMS],
}

/// Fleet-wide verdict counts for one window (bench/report shape).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnomalySummary {
    /// Machines currently [`Verdict::Anomalous`].
    pub anomalous: u64,
    /// Machines in the [`Verdict::Suspect`] hysteresis hold.
    pub suspect: u64,
    /// Largest per-machine z-score this window.
    pub max_z: f64,
}

/// Streaming per-machine anomaly detector; see the [module docs](self).
///
/// State is structure-of-arrays: one dense vector per per-machine
/// field, indexed by machine id, exactly like the wire health ledger —
/// the pooled update shards contiguous index ranges of them.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    cfg: AnomalyConfig,
    /// Ring of per-window MAD-derived scales, subsystem-major
    /// (`ring_denom[s]` holds up to `baseline_windows` entries).
    ring_denom: [Vec<f64>; SUBSYSTEMS],
    /// Next ring slot to overwrite once the ring is full.
    ring_head: usize,
    /// Entries currently in the ring (`≤ baseline_windows`).
    ring_len: usize,
    /// Windows observed in total.
    windows: u64,
    /// Per machine: latest robust z-score.
    z: Vec<f64>,
    /// Per machine: current verdict.
    verdict: Vec<Verdict>,
    /// Per machine: remaining hysteresis windows.
    hold: Vec<u32>,
    /// Selection scratch for medians (values, then absolute
    /// deviations, then ring scales); [`median_in`] reorders it in place.
    scratch: Vec<f64>,
}

impl Default for AnomalyDetector {
    fn default() -> Self {
        Self::new(AnomalyConfig::default())
    }
}

/// Median of `vals` (0 when empty) in linear time, reordering `vals`
/// in place. Selection puts the upper middle value at `n / 2` with
/// every value before it no greater under `total_cmp`, so for even `n`
/// the lower middle is the `total_cmp` maximum of that left part.
/// `total_cmp` is a total order on bit patterns, so each order
/// statistic is one unique bit pattern and the result is bit-identical
/// to sorting and indexing. The one exception is a NaN made by the
/// even-`n` mean: Rust leaves the payload of an arithmetic NaN
/// unspecified, for sorting too. The estimator's clamped outputs never
/// produce NaNs.
fn median_in(vals: &mut [f64]) -> f64 {
    let n = vals.len();
    if n == 0 {
        return 0.0;
    }
    let (below, &mut upper, _) = vals.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        upper
    } else {
        let lower = below
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .expect("even n >= 2 leaves n / 2 values below the middle");
        0.5 * (lower + upper)
    }
}

/// The pure per-machine judgement: worst-subsystem z against the
/// baseline, then the verdict transition. Both update entry points call
/// exactly this, which is what makes them bit-identical.
#[inline]
fn judge(
    cfg: &AnomalyConfig,
    base: &Baseline,
    x: [f64; SUBSYSTEMS],
    prev_hold: u32,
    warmed: bool,
) -> (f64, Verdict, u32) {
    let mut z = 0.0f64;
    for ((&xs, &med), &denom) in x.iter().zip(&base.med).zip(&base.denom) {
        let d = (xs - med).abs() / denom;
        if d > z {
            z = d;
        }
    }
    if !warmed {
        return (z, Verdict::Normal, 0);
    }
    if z >= cfg.threshold {
        (z, Verdict::Anomalous, cfg.hold_windows)
    } else if prev_hold > 0 {
        (z, Verdict::Suspect, prev_hold - 1)
    } else {
        (z, Verdict::Normal, 0)
    }
}

impl AnomalyDetector {
    /// A detector with no windows observed.
    pub fn new(cfg: AnomalyConfig) -> Self {
        Self {
            cfg,
            ring_denom: Default::default(),
            ring_head: 0,
            ring_len: 0,
            windows: 0,
            z: Vec::new(),
            verdict: Vec::new(),
            hold: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The configuration this detector runs.
    pub fn config(&self) -> &AnomalyConfig {
        &self.cfg
    }

    /// Windows observed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Whether the baseline ring is full — verdicts and decimation
    /// grants are only issued from here on.
    pub fn warmed(&self) -> bool {
        self.ring_len >= self.cfg.baseline_windows.max(1)
    }

    /// Machine `m`'s current verdict ([`Verdict::Normal`] if never
    /// judged).
    pub fn verdict(&self, m: usize) -> Verdict {
        self.verdict.get(m).copied().unwrap_or_default()
    }

    /// Machine `m`'s latest robust z-score (0 if never judged).
    pub fn z(&self, m: usize) -> f64 {
        self.z.get(m).copied().unwrap_or(0.0)
    }

    /// The sampling decimation the control loop should grant machine
    /// `m`: full rate until the detector is warmed and for any machine
    /// not currently [`Verdict::Normal`], the configured healthy
    /// decimation otherwise.
    pub fn decimation(&self, m: usize) -> u16 {
        if self.warmed() && self.verdict(m) == Verdict::Normal {
            self.cfg.healthy_decimation.max(1)
        } else {
            1
        }
    }

    /// Fleet-wide verdict counts for the latest window.
    pub fn summary(&self) -> AnomalySummary {
        let mut s = AnomalySummary::default();
        for (&v, &z) in self.verdict.iter().zip(&self.z) {
            match v {
                Verdict::Anomalous => s.anomalous += 1,
                Verdict::Suspect => s.suspect += 1,
                Verdict::Normal => {}
            }
            if z > s.max_z {
                s.max_z = z;
            }
        }
        s
    }

    /// A mixing digest of the full detector state (window count, ring,
    /// every machine's z/verdict/hold) — two states are bit-identical
    /// iff their digests match, which is how the chaos suite pins the
    /// serial == pooled contract.
    pub fn digest(&self) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mix = |h: u64, w: u64| (h.rotate_left(25) ^ w).wrapping_mul(K);
        let mut h = mix(0x7464_705f_616e_6f6d, self.windows);
        h = mix(h, self.ring_len as u64);
        h = mix(h, self.ring_head as u64);
        for s in 0..SUBSYSTEMS {
            for &d in &self.ring_denom[s] {
                h = mix(h, d.to_bits());
            }
        }
        for ((&z, &v), &hold) in self.z.iter().zip(&self.verdict).zip(&self.hold) {
            h = mix(h, z.to_bits());
            h = mix(h, v as u64);
            h = mix(h, hold as u64);
        }
        h
    }

    /// Grows the per-machine state to `n` machines (never shrinks; new
    /// machines start Normal with no history).
    fn ensure(&mut self, n: usize) {
        if self.z.len() < n {
            self.z.resize(n, 0.0);
            self.verdict.resize(n, Verdict::Normal);
            self.hold.resize(n, 0);
        }
    }

    /// The serial phase both entry points share: this window's
    /// cross-sectional median per subsystem (the operative center —
    /// fleet-wide swings cancel against it) and MAD scale, the scale
    /// pushed into the ring, and the operative scale (ring median)
    /// read back out.
    fn refresh_baseline(&mut self, cols: &[&[f64]; SUBSYSTEMS]) -> Baseline {
        let cap = self.cfg.baseline_windows.max(1);
        let mut base = Baseline {
            med: [0.0; SUBSYSTEMS],
            denom: [0.0; SUBSYSTEMS],
        };
        for (s, col) in cols.iter().enumerate() {
            self.scratch.clear();
            self.scratch.extend_from_slice(col);
            let med = median_in(&mut self.scratch);
            for v in self.scratch.iter_mut() {
                *v = (*v - med).abs();
            }
            let mad = median_in(&mut self.scratch);
            let denom = (1.4826 * mad).max(self.cfg.rel_floor * med.abs() + 1e-12);
            if self.ring_denom[s].len() < cap {
                self.ring_denom[s].push(denom);
            } else {
                self.ring_denom[s][self.ring_head] = denom;
            }
            base.med[s] = med;
        }
        self.ring_len = self.ring_denom[0].len();
        self.ring_head = (self.ring_head + 1) % cap;
        self.windows += 1;
        for s in 0..SUBSYSTEMS {
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.ring_denom[s]);
            base.denom[s] = median_in(&mut self.scratch);
        }
        base
    }

    /// Observes one window of fleet estimates and re-judges every
    /// machine, serially. Allocation-free in the steady state.
    pub fn update(&mut self, est: &FleetEstimates) {
        let n = est.len();
        self.ensure(n);
        let cols = [est.cpu(), est.memory(), est.disk(), est.io()];
        let base = self.refresh_baseline(&cols);
        let warmed = self.warmed();
        #[allow(clippy::needless_range_loop)] // four parallel columns, one index
        for m in 0..n {
            let x = [cols[0][m], cols[1][m], cols[2][m], cols[3][m]];
            let (z, v, hold) = judge(&self.cfg, &base, x, self.hold[m], warmed);
            self.z[m] = z;
            self.verdict[m] = v;
            self.hold[m] = hold;
        }
    }

    /// [`update`](Self::update) with the per-machine judgement sharded
    /// across `pool`. The baseline refresh stays serial and the
    /// judgement is a pure per-machine function, so the resulting state
    /// is bit-identical to the serial update for any worker count.
    pub fn update_pooled(&mut self, est: &FleetEstimates, pool: &WorkerPool) {
        let n = est.len();
        self.ensure(n);
        let cols = [est.cpu(), est.memory(), est.disk(), est.io()];
        let base = self.refresh_baseline(&cols);
        let warmed = self.warmed();
        // Contiguous index ranges, judged in parallel from immutable
        // state, written back in order — elementwise, so sharding
        // cannot reorder or change any machine's arithmetic.
        const CHUNK: usize = 256;
        let cfg = self.cfg;
        let prev_hold = &self.hold;
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(CHUNK)
            .map(|s| (s, (s + CHUNK).min(n)))
            .collect();
        let judged: Vec<Vec<(f64, Verdict, u32)>> = pool.par_map(ranges, |(lo, hi)| {
            (lo..hi)
                .map(|m| {
                    let x = [cols[0][m], cols[1][m], cols[2][m], cols[3][m]];
                    judge(&cfg, &base, x, prev_hold[m], warmed)
                })
                .collect()
        });
        for (i, (z, v, hold)) in judged.into_iter().flatten().enumerate() {
            self.z[i] = z;
            self.verdict[i] = v;
            self.hold[i] = hold;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::FleetEstimator;
    use crate::SampleBatch;
    use trickledown::SystemPowerModel;

    /// A deterministic synthetic fleet row straight into the batch
    /// columns: uniform-ish sane rates with small per-machine jitter.
    fn fill_batch(batch: &mut SampleBatch, machines: usize, seed: u64, spike: Option<usize>) {
        use crate::col;
        batch.resize_rows(machines);
        let cols = batch.columns_mut();
        #[allow(clippy::needless_range_loop)] // `m` indexes many parallel columns at once
        for m in 0..machines {
            let mut r = (seed + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (m as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
            let mut next = || {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                (r >> 11) as f64 / (1u64 << 53) as f64
            };
            // Discard the first draws: nearby seeds need a few rounds
            // to decorrelate, and the jitter must genuinely differ per
            // machine for the MAD to be realistic.
            for _ in 0..3 {
                next();
            }
            let jitter = 0.9 + 0.2 * next();
            let spiked = spike == Some(m);
            cols[col::NUM_CPUS][m] = 4.0;
            cols[col::ACTIVE][m] = 2.0 * jitter;
            cols[col::UPC][m] = 4.0 * jitter;
            // A spiked machine runs its memory/disk/io rates far above
            // the fleet but still inside the sanity caps.
            let boost = if spiked { 30.0 } else { 1.0 };
            cols[col::L3][m] = 8.0 * jitter * boost;
            cols[col::L3_SQ][m] = 16.0 * jitter * boost * boost;
            cols[col::BUS][m] = 2.0e4 * jitter * boost;
            cols[col::BUS_SQ][m] = 1.0e8 * jitter * boost * boost;
            cols[col::DMA][m] = 0.05 * jitter * boost;
            cols[col::DMA_SQ][m] = 6.25e-4 * jitter * boost * boost;
            cols[col::DISK_INT][m] = 2.0e-8 * jitter * boost;
            cols[col::DISK_INT_SQ][m] = 4.0e-16 * jitter * boost * boost;
            cols[col::DEV_INT][m] = 3.0e-8 * jitter * boost;
            cols[col::DEV_INT_SQ][m] = 9.0e-16 * jitter * boost * boost;
        }
    }

    fn estimates_for(
        est: &mut FleetEstimator,
        machines: usize,
        seed: u64,
        spike: Option<usize>,
    ) -> FleetEstimates {
        est.begin_window();
        fill_batch(est.batch_mut(), machines, seed, spike);
        est.estimate().clone()
    }

    #[test]
    fn clean_fleet_stays_normal_and_earns_decimation() {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        for w in 0..12 {
            let e = estimates_for(&mut est, 32, w, None);
            det.update(&e);
        }
        assert!(det.warmed());
        let s = det.summary();
        assert_eq!((s.anomalous, s.suspect), (0, 0), "false positives");
        assert!(s.max_z < det.config().threshold, "z = {}", s.max_z);
        for m in 0..32 {
            assert_eq!(det.decimation(m), det.config().healthy_decimation);
        }
    }

    #[test]
    fn spiked_machine_is_flagged_immediately_and_recovers_through_hold() {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        for w in 0..8 {
            let e = estimates_for(&mut est, 32, w, None);
            det.update(&e);
        }
        assert!(det.warmed());
        // Spike machine 7: flagged in the same window, full-rate again.
        let e = estimates_for(&mut est, 32, 100, Some(7));
        det.update(&e);
        assert_eq!(det.verdict(7), Verdict::Anomalous);
        assert_eq!(det.decimation(7), 1);
        assert_eq!(det.summary().anomalous, 1, "only the spiked machine");
        // Recovery: suspect for hold_windows, then normal again.
        for w in 0..det.config().hold_windows {
            let e = estimates_for(&mut est, 32, 200 + w as u64, None);
            det.update(&e);
            assert_eq!(det.verdict(7), Verdict::Suspect, "hold window {w}");
            assert_eq!(det.decimation(7), 1);
        }
        let e = estimates_for(&mut est, 32, 300, None);
        det.update(&e);
        assert_eq!(det.verdict(7), Verdict::Normal);
        assert_eq!(det.decimation(7), det.config().healthy_decimation);
    }

    #[test]
    fn no_verdicts_or_decimation_before_warmup() {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        // Even a spike in window 0 stays Normal (no trustworthy
        // baseline yet) and everyone is sampled at full rate.
        let e = estimates_for(&mut est, 16, 1, Some(3));
        det.update(&e);
        assert!(!det.warmed());
        assert_eq!(det.verdict(3), Verdict::Normal);
        for m in 0..16 {
            assert_eq!(det.decimation(m), 1);
        }
    }

    #[test]
    fn pooled_update_is_bit_identical_to_serial() {
        let pool = tdp_parallel::WorkerPool::new(4);
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut serial = AnomalyDetector::default();
        let mut pooled = AnomalyDetector::default();
        for w in 0..14 {
            // A spike appears (and disappears) mid-run to exercise
            // every verdict transition under both drivers.
            let spike = (9..11).contains(&w).then_some(5);
            let e = estimates_for(&mut est, 700, w, spike);
            serial.update(&e);
            pooled.update_pooled(&e, &pool);
            assert_eq!(serial.digest(), pooled.digest(), "window {w}");
        }
        assert!(serial.summary().max_z > 0.0);
    }

    /// The detector digest after 14 serial windows in which machine 5
    /// spikes in windows 9 and 10 (the pooled-vs-serial scenario).
    fn spike_scenario_digest(machines: usize) -> u64 {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        for w in 0..14 {
            let spike = (9..11).contains(&w).then_some(5);
            let e = estimates_for(&mut est, machines, w, spike);
            det.update(&e);
        }
        assert_eq!(det.verdict(5), Verdict::Suspect, "spike seen, in hold");
        det.digest()
    }

    #[test]
    fn spike_scenario_digests_match_the_sort_based_baseline() {
        // Recorded with `median_by_sort` as the detector's median.
        // Serial and pooled updates share the baseline refresh, so only
        // fixed constants catch a median that drifts by one bit. 700
        // machines take the even-n mean of two middle values; 701 take
        // the single middle value.
        assert_eq!(spike_scenario_digest(700), 0xebae_c663_e3b6_ea10);
        assert_eq!(spike_scenario_digest(701), 0x17ac_3553_4649_90bc);
    }

    /// The sort-then-index median `median_in` must reproduce bit for bit.
    fn median_by_sort(vals: &[f64]) -> f64 {
        let mut v = vals.to_vec();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable_by(f64::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    /// Values that stress a `total_cmp` selection: both zeros, NaNs of
    /// both signs with different payloads, both infinities, subnormals
    /// and repeats. Drawing from so few values makes duplicates common.
    const AWKWARD: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_00ff),
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 4.0,
        f64::MAX,
        1.0e-300,
    ];

    /// An awkward value for draw `(i, bits)`: mostly the fixed pool,
    /// otherwise any bit pattern at all.
    fn awkward_value((i, bits): (usize, u64)) -> f64 {
        AWKWARD.get(i).copied().unwrap_or(f64::from_bits(bits))
    }

    fn assert_median_matches_sort(vals: &[f64]) -> Result<(), String> {
        let mut work = vals.to_vec();
        let got = median_in(&mut work);
        let want = median_by_sort(vals);
        // An even-n mean with a NaN middle value is a NaN whose payload
        // Rust leaves unspecified; only its NaN-ness can be required.
        let arithmetic_nan = vals.len().is_multiple_of(2) && want.is_nan();
        if got.to_bits() == want.to_bits() || (arithmetic_nan && got.is_nan()) {
            Ok(())
        } else {
            Err(format!(
                "n = {}: selection {got:?} ({:#018x}) != sort {want:?} ({:#018x})",
                vals.len(),
                got.to_bits(),
                want.to_bits()
            ))
        }
    }

    proptest::proptest! {
        #[test]
        fn median_in_matches_sort_reference_bit_for_bit(
            draws in proptest::collection::vec((0usize..20, proptest::any::<u64>()), 0..81),
        ) {
            let vals: Vec<f64> = draws.into_iter().map(awkward_value).collect();
            // Every prefix too, so each case covers odd and even lengths.
            for k in 0..=vals.len() {
                assert_median_matches_sort(&vals[..k])?;
            }
        }
    }

    #[test]
    fn median_in_matches_sort_reference_at_1024() {
        let mut rng = proptest::TestRng::seed(1024);
        let vals: Vec<f64> = (0..1024)
            .map(|_| awkward_value((rng.below(20) as usize, rng.next_u64())))
            .collect();
        assert_median_matches_sort(&vals).unwrap();
        // The same values with every NaN and infinity removed: the
        // finite inputs the detector actually sees.
        let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
        assert_median_matches_sort(&finite).unwrap();
    }
}
