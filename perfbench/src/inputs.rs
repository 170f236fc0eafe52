//! The generated inputs: what each simulated agent has measured when a
//! window closes. Everything here is derived from the run's `--seed`
//! (and, for trace replay, from a fixed capture of the simulated
//! server), so the same seed replays the same windows.

use std::time::{Duration, Instant};
use tdp_bench::fleet::synthetic_set_into;
use tdp_bench::{calibrate, capture_all, ExperimentConfig};
use tdp_counters::{PerfEvent, SampleSet, Subsystem};
use trickledown::{SystemPowerModel, TraceRecord};

/// Machines per window in every workload (the reference fleet size of
/// the earlier per-harness benchmarks).
pub const MACHINES: usize = 1024;

/// Spike recurrence on `fleet_adaptive`: a spiked machine runs hot for
/// `SPIKE_LEN` windows out of every `SPIKE_PERIOD`. The quiet gap is long
/// enough for the detector's hold to expire and the 1-in-4 grant to
/// return, so most onsets land on a decimated machine — the case whose
/// detection delay the decimation bound limits.
pub const SPIKE_PERIOD: u64 = 48;
/// Windows each spike episode lasts.
pub const SPIKE_LEN: u64 = 8;

/// splitmix64: the one seeded stream every input choice is drawn from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Recurring sane-but-extreme rate spikes on a seeded ~1 % of the fleet.
pub struct Spikes {
    /// Per machine, if it is spiked: where its episode starts within each
    /// [`SPIKE_PERIOD`].
    phase: Vec<Option<u64>>,
    /// First window spikes may occur in (the first timed window).
    start: u64,
}

impl Spikes {
    fn new(rng: &mut Rng, n: usize, start: u64) -> Self {
        let mut phase = vec![None; n];
        let mut placed = 0;
        while placed < (n / 100).max(1) {
            let m = rng.below(n as u64) as usize;
            if phase[m].is_none() {
                // Whole episodes only: an episode cut short by the period
                // boundary could end before a decimated machine sends.
                phase[m] = Some(rng.below(SPIKE_PERIOD - SPIKE_LEN + 1));
                placed += 1;
            }
        }
        Self { phase, start }
    }

    /// Whether machine `m` carries injected spikes at all.
    pub fn is_spiked(&self, m: usize) -> bool {
        self.phase[m].is_some()
    }

    /// Whether machine `m`'s window `w` carries a spike.
    pub fn active(&self, m: usize, w: u64) -> bool {
        match self.phase[m] {
            Some(p) if w >= self.start => {
                ((w - self.start) % SPIKE_PERIOD).wrapping_sub(p) < SPIKE_LEN
            }
            _ => false,
        }
    }

    /// Whether window `w` is the first of one of machine `m`'s episodes.
    pub fn onset(&self, m: usize, w: u64) -> bool {
        self.active(m, w) && (w == self.start || !self.active(m, w - 1))
    }

    /// The spiked machines.
    pub fn machines(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.phase.len()).filter(|&m| self.is_spiked(m))
    }
}

/// Turns one machine into a runaway: every CPU fully busy at five times
/// the synthetic fleet's highest uop, L3-miss, bus and DMA rates. That is
/// far outside the fleet, so the detector must flag it on the first
/// sample it sees, yet inside every sanity cap of the wire health layer
/// (UPC 10 of 16, 13 L3 misses of 50 per kilocycle, 0.17 DMA of 0.2 per
/// cycle), so the quarantine must not.
fn spike(set: &mut SampleSet) {
    let mut pairs = [(PerfEvent::Cycles, 0u64); PerfEvent::ALL.len()];
    for sample in &mut set.per_cpu {
        let k = sample.counts().len();
        pairs[..k].copy_from_slice(sample.counts());
        let cycles = sample.count(PerfEvent::Cycles).unwrap_or(0);
        for (e, c) in &mut pairs[..k] {
            *c = match e {
                PerfEvent::HaltedCycles => 0,
                PerfEvent::FetchedUops => 10 * cycles,
                PerfEvent::L3LoadMisses => 40_000_000,
                PerfEvent::BusTransactionsAll => 5_000_000,
                PerfEvent::DmaOtherBusTransactions => 500_000_000,
                _ => *c,
            };
        }
        let (cpu, seq) = (sample.cpu(), sample.seq());
        sample.refill(cpu, seq, pairs[..k].iter().copied());
    }
}

/// Copies `src` into `dst`, reusing `dst`'s sample storage.
fn copy_set(dst: &mut SampleSet, src: &SampleSet) {
    dst.time_ms = src.time_ms;
    dst.window_ms = src.window_ms;
    dst.interrupts.clone_from(&src.interrupts);
    dst.per_cpu.clone_from(&src.per_cpu);
}

/// Where set-up time goes, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Building the inputs: the trace capture on `trace_replay`, the
    /// generator's seeding on `fleet_*`.
    pub inputs: Duration,
    /// Obtaining the model: calibration on `trace_replay`, the paper's
    /// published coefficients on `fleet_*`.
    pub model: Duration,
    /// Building the pipeline and running the warm-up windows.
    pub warmup: Duration,
    /// Simulated machine ticks the capture ran (1000 per second).
    pub ticks: u64,
}

/// The paper's twelve workloads captured on the simulated server,
/// replayed by the fleet: machine `m` plays workload `m mod 12` from a
/// seeded per-machine record offset, one record per window.
pub struct Replay {
    /// Every captured record, workload after workload.
    records: Vec<TraceRecord>,
    /// Per workload: `(first record, record count)`.
    traces: Vec<(usize, usize)>,
    /// Per machine: its starting record offset within its workload.
    offsets: Vec<usize>,
}

impl Replay {
    /// Index of the record machine `m` replays in window `w`.
    pub fn record(&self, m: usize, w: u64) -> usize {
        let (first, len) = self.traces[m % self.traces.len()];
        first + (self.offsets[m] + (w % len as u64) as usize) % len
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Measured watts of record `r`, in [`Subsystem::ALL`] order.
    pub fn measured(&self, r: usize) -> [f64; 5] {
        let w = &self.records[r].measured.watts;
        std::array::from_fn(|i| w.get(Subsystem::ALL[i]))
    }

    /// The paper's scalar model on record `r`
    /// (`SystemPowerModel::predict_subsystem`), in [`Subsystem::ALL`]
    /// order: the reference the fleet path's estimates must equal.
    pub fn predicted(&self, model: &SystemPowerModel, r: usize) -> [f64; 5] {
        let input = &self.records[r].input;
        std::array::from_fn(|i| model.predict_subsystem(Subsystem::ALL[i], input))
    }
}

/// Captures the twelve workloads at `ExperimentConfig::quick()` and
/// calibrates the model with the paper's training recipe. The capture
/// seed is the configuration's fixed one (the seed the repository's
/// shape checks are calibrated on), so model error is comparable across
/// runs; `rng` only places each machine in its trace.
pub fn capture(rng: &mut Rng, n: usize) -> (Replay, SystemPowerModel, SetupCost) {
    let cfg = ExperimentConfig::quick();
    let ticks = tdp_workloads::Workload::ALL
        .iter()
        .map(|&w| cfg.seconds_for(&cfg.standard_set(w)) * 1000)
        .sum();
    let t = Instant::now();
    let traces = capture_all(&cfg);
    let capture = t.elapsed();
    let t = Instant::now();
    let model = calibrate(&cfg);
    let calibrate = t.elapsed();

    let mut records = Vec::new();
    let mut spans = Vec::new();
    for trace in traces {
        assert!(!trace.is_empty(), "{:?}: empty capture", trace.workload);
        spans.push((records.len(), trace.len()));
        records.extend(trace.records);
    }
    let offsets = (0..n)
        .map(|m| rng.below(spans[m % spans.len()].1 as u64) as usize)
        .collect();
    let replay = Replay {
        records,
        traces: spans,
        offsets,
    };
    let cost = SetupCost {
        inputs: capture,
        model: calibrate,
        ticks,
        ..SetupCost::default()
    };
    (replay, model, cost)
}

/// Where a workload's sample sets come from.
pub enum Source {
    /// `fleet::synthetic_set_into` identity-layout counters; `salt`
    /// shifts the generator's window stream by seed.
    Synthetic {
        salt: u64,
        spikes: Option<Spikes>,
    },
    Replay(Replay),
}

impl Source {
    pub fn synthetic(rng: &mut Rng, n: usize, spikes_from: Option<u64>) -> Self {
        let salt = rng.next_u64();
        let spikes = spikes_from.map(|start| Spikes::new(rng, n, start));
        Source::Synthetic { salt, spikes }
    }

    pub fn spikes(&self) -> Option<&Spikes> {
        match self {
            Source::Synthetic { spikes, .. } => spikes.as_ref(),
            Source::Replay(_) => None,
        }
    }

    pub fn replay(&self) -> Option<&Replay> {
        match self {
            Source::Replay(r) => Some(r),
            Source::Synthetic { .. } => None,
        }
    }

    /// Writes machine `m`'s sample set for window `w` into `set`. Wire
    /// sequence numbers are `w + 1`: monotone per machine, as the health
    /// layer requires.
    pub fn fill(&self, set: &mut SampleSet, m: usize, w: u64) {
        match self {
            Source::Synthetic { salt, spikes } => {
                synthetic_set_into(set, m, salt.wrapping_add(w));
                if spikes.as_ref().is_some_and(|s| s.active(m, w)) {
                    spike(set);
                }
            }
            Source::Replay(r) => copy_set(set, &r.records[r.record(m, w)].raw),
        }
        set.seq = w + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spikes_hit_one_percent_and_recur() {
        let s = Spikes::new(&mut Rng::new(7), MACHINES, 16);
        let spiked: Vec<usize> = s.machines().collect();
        assert_eq!(spiked.len(), MACHINES / 100);
        let m = spiked[0];
        assert!(!s.active(m, 15), "no spike before the timed windows");
        let onsets = (16..16 + 4 * SPIKE_PERIOD)
            .filter(|&w| s.onset(m, w))
            .count();
        assert!((4..=5).contains(&onsets), "{onsets} onsets");
        let hot = (16..16 + SPIKE_PERIOD).filter(|&w| s.active(m, w)).count();
        assert_eq!(hot as u64, SPIKE_LEN);
    }

    #[test]
    fn same_seed_same_synthetic_inputs() {
        let a = Source::synthetic(&mut Rng::new(3), 8, None);
        let b = Source::synthetic(&mut Rng::new(3), 8, None);
        let (mut x, mut y) = (SampleSet::empty(), SampleSet::empty());
        a.fill(&mut x, 5, 9);
        b.fill(&mut y, 5, 9);
        assert_eq!(x, y);
        assert_eq!(x.seq, 10);
    }
}
