//! Chaos test: a seeded [`FaultPlan`] batters a multi-window stream
//! while persistent ingest degrades gracefully — every injected fault
//! lands in a pipeline-health counter, machines untouched by recent
//! faults estimate **bit-identically** to a fault-free run, and the
//! whole scenario replays deterministically (batched fused ingest and
//! its per-row reference alike).
//! The anomaly detector judging the battered estimates stays
//! bit-identical between its serial and pooled updates.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::{AnomalyConfig, AnomalyDetector, FleetEstimator};
use tdp_parallel::WorkerPool;
use tdp_wire::{
    ingest_reference_with, ingest_serial, ingest_serial_with, FaultKind, FaultPlan, FaultedWindow,
    HealthState, IngestState, PipelineHealth, StreamReport, WireEncoder,
};
use trickledown::SystemPowerModel;

const MACHINES: usize = 24;
const WINDOWS: u64 = 8;
const SEED: u64 = 0x00c0_ffee;

const LAYOUT: [PerfEvent; 9] = [
    PerfEvent::Cycles,
    PerfEvent::HaltedCycles,
    PerfEvent::FetchedUops,
    PerfEvent::L3LoadMisses,
    PerfEvent::BusTransactionsAll,
    PerfEvent::DmaOtherBusTransactions,
    PerfEvent::InterruptsTotal,
    PerfEvent::TimerInterrupts,
    PerfEvent::DiskInterrupts,
];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A realistic 4-CPU machine-window with rates inside both the models'
/// operating range and the default `DegradePolicy` sanity bounds.
fn synthetic_set(machine: u64, seq: u64) -> SampleSet {
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        | 1;
    let per_cpu = (0..4)
        .map(|cpu| {
            let counts = LAYOUT
                .iter()
                .map(|&e| {
                    let r = xorshift(&mut rng);
                    let scale: u64 = match e {
                        PerfEvent::Cycles => 2_000_000_000,
                        PerfEvent::HaltedCycles => 900_000_000,
                        PerfEvent::FetchedUops => 2_500_000_000,
                        PerfEvent::L3LoadMisses => 4_000_000,
                        PerfEvent::BusTransactionsAll => 25_000_000,
                        PerfEvent::DmaOtherBusTransactions => 1_500_000,
                        PerfEvent::InterruptsTotal => 6_000,
                        PerfEvent::TimerInterrupts => 2_000,
                        PerfEvent::DiskInterrupts => 900,
                        _ => 10_000,
                    };
                    (e, scale / 2 + r % scale.max(1))
                })
                .collect();
            CounterSample::new(CpuId::new(cpu), seq, counts)
        })
        .collect();
    SampleSet {
        time_ms: (seq + 1) * 1000,
        window_ms: 1000,
        seq,
        per_cpu,
        interrupts: InterruptSnapshot::default(),
    }
}

/// Encodes one steady-state window (layout frames only on window 0,
/// courtesy of the persistent encoder).
fn encode_window(enc: &mut WireEncoder, seq: u64) -> Vec<u8> {
    for m in 0..MACHINES as u64 {
        enc.push_sample_set(m, &synthetic_set(m, seq)).unwrap();
    }
    enc.take_bytes()
}

/// Per-machine estimate bits for the window just evaluated.
fn estimate_bits(est: &mut FleetEstimator) -> Vec<[u64; 4]> {
    let e = est.estimate();
    (0..MACHINES)
        .map(|i| {
            [
                e.memory()[i].to_bits(),
                e.disk()[i].to_bits(),
                e.io()[i].to_bits(),
                e.total()[i].to_bits(),
            ]
        })
        .collect()
}

/// Counter floors implied by a window's injected faults: if any of
/// these fail, a fault degraded the pipeline without being accounted.
fn assert_faults_accounted(w: u64, f: &FaultedWindow, rep: &StreamReport) {
    assert!(
        rep.corrupt_frames >= f.count(FaultKind::BitFlip),
        "window {w}: {} bit flips but only {} corrupt frames",
        f.count(FaultKind::BitFlip),
        rep.corrupt_frames
    );
    let framing = f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail);
    assert!(
        rep.resyncs >= framing,
        "window {w}: {framing} framing faults but only {} resyncs",
        rep.resyncs
    );
    assert!(
        rep.rows_quarantined >= f.count(FaultKind::RateSpike),
        "window {w}: {} rate spikes but only {} quarantined",
        f.count(FaultKind::RateSpike),
        rep.rows_quarantined
    );
    // A rewound sequence is detected as a reset the first time; a
    // rewind landing on an already-rewound machine reads as a
    // duplicate, so the two counters jointly cover both fault kinds.
    let seq_faults = f.count(FaultKind::SeqReset) + f.count(FaultKind::DuplicateFrame);
    assert!(
        rep.resets_detected + rep.duplicate_windows >= seq_faults,
        "window {w}: {seq_faults} sequence faults but resets={} dups={}",
        rep.resets_detected,
        rep.duplicate_windows
    );
}

#[test]
fn faulted_stream_degrades_gracefully_and_clean_subset_is_bit_identical() {
    let plan = FaultPlan::new(SEED);
    let pool = WorkerPool::new(4);
    let policy_span = IngestState::new().policy().max_stale_windows;

    let mut clean_enc = WireEncoder::new();
    let mut fault_enc = WireEncoder::new();
    let mut clean_state = IngestState::new();
    let mut serial_state = IngestState::new();
    let mut reference_state = IngestState::new();
    let mut clean_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut serial_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut reference_est = FleetEstimator::new(SystemPowerModel::paper());
    // A baseline shorter than the run and a threshold inside this
    // fleet's spread, so the detector judges windows under fire and
    // hands out Anomalous and Suspect verdicts, not only Normal ones.
    let detector_cfg = AnomalyConfig {
        baseline_windows: 3,
        threshold: 1.0,
        ..AnomalyConfig::default()
    };
    assert!((detector_cfg.baseline_windows as u64) < WINDOWS);
    let mut serial_det = AnomalyDetector::new(detector_cfg);
    let mut pooled_det = AnomalyDetector::new(detector_cfg);
    let mut flagged = 0u64;

    // Machines hit by a fault within the staleness span may hold or
    // re-learn state; everything outside that trailing set must match
    // the fault-free run bit for bit.
    let mut recent_affected: Vec<BTreeSet<u64>> = Vec::new();
    let mut total_injected = 0u64;

    for w in 0..WINDOWS {
        let clean_buf = encode_window(&mut clean_enc, w);
        let fault_src = encode_window(&mut fault_enc, w);
        assert_eq!(clean_buf, fault_src, "encoders must agree on clean bytes");

        // Window 0 is delivered intact (it carries the layouts); every
        // later window is damaged by the plan.
        let (buf, injected) = if w == 0 {
            (fault_src, FaultedWindow::default())
        } else {
            let f = plan.apply(w, &fault_src);
            let bytes = f.bytes.clone();
            (bytes, f)
        };
        total_injected += injected.injected.len() as u64;
        recent_affected.push(injected.affected.clone());

        let clean_rep = ingest_serial_with(&mut clean_state, &clean_buf, MACHINES, &mut clean_est);
        assert!(
            clean_rep.health().is_clean(),
            "window {w}: fault-free stream reported degradation: {}",
            clean_rep.health()
        );
        let clean_bits = estimate_bits(&mut clean_est);

        let serial_rep = ingest_serial_with(&mut serial_state, &buf, MACHINES, &mut serial_est);
        let reference_rep =
            ingest_reference_with(&mut reference_state, &buf, MACHINES, &mut reference_est);

        assert_faults_accounted(w, &injected, &serial_rep);
        assert_eq!(
            PipelineHealth::from_report(&serial_rep),
            PipelineHealth::from_report(&reference_rep),
            "window {w}: fused and reference ingest must degrade identically"
        );
        assert_eq!(serial_rep.rows_written, reference_rep.rows_written);

        // Every machine is either contributing a row or known-stale —
        // nothing simply vanishes.
        let stale = (0..MACHINES as u64)
            .filter(|&m| serial_state.machine_health(m) == Some(HealthState::Stale))
            .count() as u64;
        assert_eq!(
            serial_rep.rows_written + stale,
            MACHINES as u64,
            "window {w}: rows + stale machines must cover the fleet"
        );

        // Clean-subset bit-identity, fused and reference: machines with
        // no fault in the last `max_stale_windows + 1` windows have
        // been fed exclusively intact fresh frames, so their estimates
        // carry no trace of the chaos elsewhere in the fleet.
        let span = (policy_span + 1) as usize;
        let dirty: BTreeSet<u64> = recent_affected
            .iter()
            .rev()
            .take(span)
            .flatten()
            .copied()
            .collect();
        assert!(
            dirty.len() < MACHINES / 2,
            "window {w}: fault plan dirtied {} of {MACHINES} machines — \
             too few clean machines for the identity check to mean much",
            dirty.len()
        );
        let serial_bits = estimate_bits(&mut serial_est);
        let reference_bits = estimate_bits(&mut reference_est);

        // Detector under fire: serial and pooled judgement of the
        // faulted estimates leave bit-identical state every window.
        serial_det.update(serial_est.estimates());
        pooled_det.update_pooled(serial_est.estimates(), &pool);
        assert_eq!(
            serial_det.digest(),
            pooled_det.digest(),
            "window {w}: serial and pooled detectors diverged on faulted estimates"
        );
        let verdicts = serial_det.summary();
        flagged += verdicts.anomalous + verdicts.suspect;

        for m in 0..MACHINES as u64 {
            if dirty.contains(&m) {
                continue;
            }
            assert_eq!(
                serial_bits[m as usize], clean_bits[m as usize],
                "window {w}: clean machine {m} diverged under serial faulted ingest"
            );
            assert_eq!(
                reference_bits[m as usize], clean_bits[m as usize],
                "window {w}: clean machine {m} diverged under reference faulted ingest"
            );
        }
    }
    assert!(
        total_injected >= WINDOWS - 1,
        "plan injected only {total_injected} faults over {WINDOWS} windows"
    );
    assert!(serial_det.warmed(), "the run must outlast detector warm-up");
    assert!(flagged > 0, "the detector never judged a machine abnormal");
}

proptest! {
    /// The serial fused path screens health in *batches* — an SoA
    /// [`HealthLedger`] plus one vectorised column sanity scan per
    /// window — while [`ingest_reference_with`] walks the per-row
    /// ladder, which is the semantic reference. Across arbitrary seeded
    /// fault plans the two must be indistinguishable: same
    /// health-counter block, same rows delivered, same per-machine
    /// ladder states, and bit-identical estimates, every window.
    #[test]
    fn batched_serial_health_matches_per_row_reference(seed in any::<u64>()) {
        let plan = FaultPlan::new(seed);
        let mut enc = WireEncoder::new();
        let mut serial_state = IngestState::new();
        let mut reference_state = IngestState::new();
        let mut serial_est = FleetEstimator::new(SystemPowerModel::paper());
        let mut reference_est = FleetEstimator::new(SystemPowerModel::paper());
        for w in 0..4u64 {
            let clean = encode_window(&mut enc, w);
            // Window 0 carries the layouts intact; every later window
            // is battered by the seed's plan before both paths see it.
            let buf = if w == 0 {
                clean
            } else {
                plan.apply(w, &clean).bytes
            };
            let serial_rep =
                ingest_serial_with(&mut serial_state, &buf, MACHINES, &mut serial_est);
            let reference_rep =
                ingest_reference_with(&mut reference_state, &buf, MACHINES, &mut reference_est);
            prop_assert_eq!(
                PipelineHealth::from_report(&serial_rep),
                PipelineHealth::from_report(&reference_rep),
                "seed {} window {}: health blocks diverged",
                seed,
                w
            );
            prop_assert_eq!(serial_rep, reference_rep, "seed {} window {}: reports diverged", seed, w);
            for m in 0..MACHINES as u64 {
                prop_assert_eq!(
                    serial_state.machine_health(m),
                    reference_state.machine_health(m),
                    "seed {} window {} machine {}: ladder states diverged",
                    seed,
                    w,
                    m
                );
            }
            prop_assert_eq!(
                estimate_bits(&mut serial_est),
                estimate_bits(&mut reference_est),
                "seed {} window {}: estimate bits diverged",
                seed,
                w
            );
        }
    }
}

#[test]
fn insane_second_frame_in_one_window_restores_the_first_good_row() {
    // Machine 0 sends two fresh frames in one window: a sane one, then
    // one claiming 1000 uops per cycle. The batched path resolves the
    // first row early, folds the second over its column slot, and must
    // put the first back once the batched screen quarantines the
    // second — the row the per-row reference leaves standing.
    let mut insane = synthetic_set(0, 1);
    insane.per_cpu = (0..4)
        .map(|cpu| {
            let counts = LAYOUT
                .iter()
                .map(|&e| match e {
                    PerfEvent::Cycles => (e, 2_000_000_000),
                    PerfEvent::FetchedUops => (e, 2_000_000_000_000),
                    _ => (e, 1_000),
                })
                .collect();
            CounterSample::new(CpuId::new(cpu), 1, counts)
        })
        .collect();
    let mut enc = WireEncoder::new();
    for m in 0..MACHINES as u64 {
        enc.push_sample_set(m, &synthetic_set(m, 0)).unwrap();
    }
    enc.push_sample_set(0, &insane).unwrap();
    let buf = enc.take_bytes();

    let mut fused_state = IngestState::new();
    let mut reference_state = IngestState::new();
    let mut fused_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut reference_est = FleetEstimator::new(SystemPowerModel::paper());
    let fused = ingest_serial_with(&mut fused_state, &buf, MACHINES, &mut fused_est);
    let reference = ingest_reference_with(&mut reference_state, &buf, MACHINES, &mut reference_est);
    assert_eq!(fused.rows_quarantined, 1, "{fused:?}");
    assert_eq!(fused, reference);
    assert_eq!(
        fused_state.machine_health(0),
        reference_state.machine_health(0)
    );
    assert_eq!(
        estimate_bits(&mut fused_est),
        estimate_bits(&mut reference_est)
    );

    let mut clean_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut clean = WireEncoder::new();
    let clean_buf = encode_window(&mut clean, 0);
    ingest_serial_with(
        &mut IngestState::new(),
        &clean_buf,
        MACHINES,
        &mut clean_est,
    );
    assert_eq!(
        estimate_bits(&mut fused_est),
        estimate_bits(&mut clean_est),
        "machine 0 must keep its window-0 row"
    );
}

#[test]
fn chaos_run_replays_bit_identically() {
    // The whole point of a *seeded* fault plan: two full runs of the
    // same scenario — same seed, same windows — produce the same
    // reports, the same health states, and the same estimate bits.
    let run = || {
        let plan = FaultPlan::new(SEED);
        let mut enc = WireEncoder::new();
        let mut state = IngestState::new();
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut reports = Vec::new();
        let mut bits = Vec::new();
        for w in 0..WINDOWS {
            let clean = encode_window(&mut enc, w);
            let buf = if w == 0 {
                clean
            } else {
                plan.apply(w, &clean).bytes
            };
            reports.push(ingest_serial_with(&mut state, &buf, MACHINES, &mut est));
            bits.push(estimate_bits(&mut est));
        }
        let health: Vec<Option<HealthState>> = (0..MACHINES as u64)
            .map(|m| state.machine_health(m))
            .collect();
        (reports, bits, health)
    };
    assert_eq!(run(), run());
}

#[test]
fn sane_but_out_of_calibration_rows_trip_the_prediction_clamp() {
    // The sneaky producer: a frame whose rates pass every DegradePolicy
    // plausibility bound (so it is *not* quarantined) but sit far past
    // the disk model's negative-curvature vertex (~4.8e-9 interrupts
    // per cycle), where the raw Equation-4 quadratic predicts large
    // negative watts. Row-level screening cannot catch this — the
    // model-level clamp must, pinning the prediction at the
    // non-negative floor and counting the intervention.
    let cycles: u64 = 2_000_000_000;
    let per_cpu = (0..4)
        .map(|cpu| {
            let counts = LAYOUT
                .iter()
                .map(|&e| {
                    let v = match e {
                        PerfEvent::Cycles => cycles,
                        PerfEvent::HaltedCycles => cycles / 2,
                        PerfEvent::FetchedUops => cycles,
                        PerfEvent::L3LoadMisses => 2_000_000,
                        PerfEvent::BusTransactionsAll => 20_000_000,
                        PerfEvent::DmaOtherBusTransactions => 1_000_000,
                        // ~1e-5 disk interrupts per cycle: 100× under
                        // the 1e-3 sanity cap, 2000× past the
                        // calibrated vertex.
                        PerfEvent::DiskInterrupts => cycles / 100_000,
                        PerfEvent::InterruptsTotal => cycles / 50_000,
                        PerfEvent::TimerInterrupts => 2_000,
                        _ => 0,
                    };
                    (e, v)
                })
                .collect();
            CounterSample::new(CpuId::new(cpu), 0, counts)
        })
        .collect();
    let sneaky = SampleSet {
        time_ms: 1000,
        window_ms: 1000,
        seq: 0,
        per_cpu,
        interrupts: InterruptSnapshot::default(),
    };
    let mut enc = WireEncoder::new();
    enc.push_sample_set(0, &sneaky).unwrap();
    let wire = enc.finish();

    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial(&wire, 1, &mut est);
    assert_eq!(rep.rows_written, 1, "the row must pass sanity screening");
    assert_eq!(rep.rows_quarantined, 0);

    let e = est.estimate();
    assert!(
        e.clamped_predictions() > 0,
        "out-of-calibration rates must trip the prediction clamp"
    );
    assert_eq!(
        e.disk()[0],
        0.0,
        "deep past the vertex the raw quadratic is negative; the clamp \
         floors it at zero watts"
    );
    assert!(e.total()[0] >= 0.0);
}
