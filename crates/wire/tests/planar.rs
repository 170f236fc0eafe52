//! Bit-identity guarantees of the column-planar sample frames: whatever
//! the layout, CPU count or value range, ingesting a planar stream
//! produces **bit-identical** fleet rows and estimates to in-memory
//! ingestion of the same windows (`SampleBatch::push_sample_set`) —
//! batched and per-row reference — and a battered planar stream degrades under
//! the clean-subset contract.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::FleetEstimator;
use tdp_wire::{
    ingest_reference_with, ingest_serial_with, DegradePolicy, FaultKind, FaultPlan, IngestState,
    WireEncoder,
};
use trickledown::SystemPowerModel;

/// Events a random layout draws from: every event the PMU model knows —
/// trickle-down inputs plus the deliberately-irrelevant alternates, so
/// layouts of any shape appear.
const EVENT_POOL: &[PerfEvent] = PerfEvent::ALL;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random layout: `n_events` distinct events from the pool, order
/// shuffled by `seed`.
fn random_layout(n_events: usize, seed: u64) -> Vec<PerfEvent> {
    let mut pool = EVENT_POOL.to_vec();
    let mut rng = seed | 1;
    for i in (1..pool.len()).rev() {
        pool.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
    }
    pool.truncate(n_events);
    pool
}

/// Builds one machine-window over `layout` with explicit per-CPU
/// counts: `counts[cpu][event]`.
fn set_from_counts(seq: u64, layout: &[PerfEvent], counts: &[Vec<u64>]) -> SampleSet {
    let per_cpu = counts
        .iter()
        .enumerate()
        .map(|(cpu, row)| {
            let pairs = layout.iter().copied().zip(row.iter().copied()).collect();
            CounterSample::new(CpuId::new(cpu as u8), seq, pairs)
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

/// Encodes `sets` as one window, machine id = index.
fn encode(sets: &[SampleSet]) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for (id, set) in sets.iter().enumerate() {
        enc.push_sample_set(id as u64, set).unwrap();
    }
    enc.finish()
}

fn batch_bits(est: &FleetEstimator) -> Vec<Vec<u64>> {
    est.batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn total_bits(est: &mut FleetEstimator) -> Vec<u64> {
    est.estimate().total().iter().map(|v| v.to_bits()).collect()
}

/// The in-memory oracle: `sets` pushed through
/// `SampleBatch::push_sample_set` in machine order, as
/// `(batch bits, estimate bits)`.
fn in_memory_bits(sets: &[SampleSet]) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    for set in sets {
        est.push_sample_set(set);
    }
    (batch_bits(&est), total_bits(&mut est))
}

/// Ingest state whose sanity policy accepts every decodable row: the
/// boundary-value windows below describe machines no policy would call
/// plausible, and this suite pins the decode arithmetic, not the
/// quarantine (the chaos suites own that).
fn accept_all() -> IngestState {
    IngestState::with_policy(DegradePolicy {
        max_upc: f64::INFINITY,
        max_l3_per_kilocycle: f64::INFINITY,
        max_bus_per_megacycle: f64::INFINITY,
        max_dma_per_cycle: f64::INFINITY,
        max_interrupts_per_cycle: f64::INFINITY,
        max_cpus: f64::INFINITY,
        ..DegradePolicy::default()
    })
}

/// Ingests `wire` serially and returns `(batch bits, estimate bits)`.
fn serial_bits(wire: &[u8], machines: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial_with(&mut accept_all(), wire, machines, &mut est);
    assert_eq!(rep.corrupt_frames + rep.resyncs, 0, "clean stream");
    assert_eq!(rep.rows_written, machines as u64, "every row fresh");
    assert_eq!(rep.rows_quarantined, 0, "policy accepts every row");
    (batch_bits(&est), total_bits(&mut est))
}

/// Ingests `wire` through the per-row reference and returns the bits.
fn reference_bits(wire: &[u8], machines: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_reference_with(&mut accept_all(), wire, machines, &mut est);
    assert_eq!(rep.corrupt_frames + rep.resyncs, 0, "clean stream");
    assert_eq!(rep.rows_written, machines as u64, "every row fresh");
    assert_eq!(rep.rows_quarantined, 0, "policy accepts every row");
    (batch_bits(&est), total_bits(&mut est))
}

/// Width-boundary constants every plane-width decision pivots on.
const BOUNDARIES: [u64; 17] = [
    0,
    (1 << 7) - 1,
    1 << 7,
    (1 << 8) - 1,
    1 << 8,
    (1 << 15) - 1,
    1 << 15,
    (1 << 16) - 1,
    1 << 16,
    (1 << 31) - 1,
    1 << 31,
    (1 << 32) - 1,
    1u64 << 32,
    // Sign-bit neighbourhood: consecutive counts drawn from here and
    // from the small classes produce CPU-over-CPU deltas at the
    // i64::MIN/i64::MAX zigzag extremes.
    (1u64 << 63) - 1,
    1u64 << 63,
    (1u64 << 63) + 1,
    u64::MAX,
];

/// A count that lands on every interesting plane-width boundary with
/// decent probability, alongside uniform draws from each width class.
fn boundary_value() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u64..21).prop_map(|(raw, pick)| match pick {
        p if (p as usize) < BOUNDARIES.len() => BOUNDARIES[p as usize],
        17 => raw & 0xff,
        18 => raw & 0xffff,
        19 => raw & 0xffff_ffff,
        _ => raw,
    })
}

const MAX_MACHINES: usize = 5;
const MAX_CPUS: usize = 12;
const MAX_EVENTS: usize = 18;

proptest! {
    /// Core property: for any layout shape, CPU count and value mix —
    /// including values straddling every plane-width boundary, which
    /// induce CPU-over-CPU deltas of every zigzag width — planar wire
    /// ingest, batched and per-row reference, lands on the fleet rows and
    /// estimates in-memory ingestion of the same windows produces, bit
    /// for bit. Frames run up to 12 CPUs × 18 events (198 delta lanes).
    #[test]
    fn planar_ingest_matches_in_memory_bit_identically(
        machines in 1usize..MAX_MACHINES + 1,
        cpus in 1usize..MAX_CPUS + 1,
        n_events in 1usize..MAX_EVENTS + 1,
        layout_seed in any::<u64>(),
        values in prop::collection::vec(boundary_value(), MAX_MACHINES * MAX_CPUS * MAX_EVENTS),
    ) {
        let layout = random_layout(n_events, layout_seed);
        let sets: Vec<SampleSet> = (0..machines)
            .map(|m| {
                let counts: Vec<Vec<u64>> = (0..cpus)
                    .map(|cpu| {
                        (0..n_events)
                            .map(|e| values[(m * MAX_CPUS + cpu) * MAX_EVENTS + e])
                            .collect()
                    })
                    .collect();
                set_from_counts(0, &layout, &counts)
            })
            .collect();

        let wire = encode(&sets);
        let want = in_memory_bits(&sets);
        prop_assert_eq!(
            serial_bits(&wire, machines),
            want.clone(),
            "serial planar ingest diverged from in-memory ingest"
        );
        prop_assert_eq!(
            reference_bits(&wire, machines),
            want,
            "reference planar ingest diverged from in-memory ingest"
        );
    }
}

#[test]
fn width_boundary_deltas_roundtrip_bit_identically() {
    // Hand-placed CPU-over-CPU deltas at every signed width boundary:
    // ±2^7, ±2^15, ±2^31 and their neighbours, the exact points where
    // the planar encoder steps its per-plane byte width. Chains start
    // high or at zero so both underflow wrapping and plain arithmetic
    // appear.
    let deltas: [i64; 21] = [
        0,
        1,
        -1,
        (1 << 7) - 1,
        -(1 << 7),
        1 << 7,
        -(1 << 7) - 1,
        (1 << 15) - 1,
        -(1 << 15),
        1 << 15,
        -(1 << 15) - 1,
        (1 << 31) - 1,
        -(1i64 << 31),
        1 << 31,
        -(1i64 << 31) - 1,
        (1i64 << 32) - 1,
        -(1i64 << 32),
        i64::MAX,
        // The zigzag extremes: i64::MIN encodes to u64::MAX, the one
        // delta a sign-magnitude width pick would underprice.
        i64::MIN,
        i64::MIN + 1,
        -i64::MAX,
    ];
    let bases: [u64; 7] = [
        0,
        (1 << 8) - 1,
        1 << 16,
        (1 << 32) - 1,
        1 << 40,
        u64::MAX,
        1 << 63,
    ];
    let cpus = 4usize;
    // 3 deltas per 4-CPU chain; 21 deltas need 7 events, matching the
    // base list so every base width appears too.
    let layout = random_layout(7, 7);
    let counts: Vec<Vec<u64>> = (0..cpus)
        .map(|cpu| {
            (0..layout.len())
                .map(|e| {
                    let mut v = bases[e];
                    for d in deltas.iter().skip(e * 3).take(cpu) {
                        v = v.wrapping_add(*d as u64);
                    }
                    v
                })
                .collect()
        })
        .collect();
    let sets = [set_from_counts(0, &layout, &counts)];

    let wire = encode(&sets);
    assert_eq!(
        serial_bits(&wire, 1),
        in_memory_bits(&sets),
        "boundary deltas must decode to the in-memory row"
    );
    assert_eq!(reference_bits(&wire, 1), in_memory_bits(&sets));
}

/// A realistic in-range machine-window (the chaos leg needs rows that
/// pass the sanity policy, so degradation comes only from the plan).
fn sane_set(machine: u64, seq: u64) -> SampleSet {
    let layout = [
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
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        | 1;
    let counts: Vec<Vec<u64>> = (0..4)
        .map(|_| {
            layout
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
                        _ => 900,
                    };
                    scale / 2 + r % scale.max(1)
                })
                .collect()
        })
        .collect();
    set_from_counts(seq, &layout, &counts)
}

#[test]
fn faulted_planar_stream_upholds_the_clean_subset_invariant() {
    // The chaos contract, explicitly over planar frames: bit flips are
    // caught by the checksum, framing damage resyncs, and machines
    // untouched by any fault within the staleness horizon estimate
    // bit-identically to a fault-free planar run.
    const MACHINES: usize = 16;
    const WINDOWS: u64 = 10;
    let plan = FaultPlan::new(0x00c0_ffee);

    let mut clean_enc = WireEncoder::new();
    let mut fault_enc = WireEncoder::new();
    let mut clean_state = IngestState::new();
    let mut fault_state = IngestState::new();
    let mut clean_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut fault_est = FleetEstimator::new(SystemPowerModel::paper());
    let horizon = clean_state.policy().max_stale_windows as usize + 1;
    let mut recent: Vec<BTreeSet<u64>> = Vec::new();
    let (mut flips_seen, mut framing_seen) = (0u64, 0u64);

    for w in 0..WINDOWS {
        let encode = |enc: &mut WireEncoder| {
            for m in 0..MACHINES as u64 {
                enc.push_sample_set(m, &sane_set(m, w)).unwrap();
            }
            enc.take_bytes()
        };
        let clean_buf = encode(&mut clean_enc);
        let fault_src = encode(&mut fault_enc);
        assert_eq!(clean_buf, fault_src, "planar encoding is deterministic");

        // Window 0 delivers the layouts intact; later windows burn.
        let faulted = (w > 0).then(|| plan.apply(w, &fault_src));
        let buf = faulted
            .as_ref()
            .map_or(fault_src.clone(), |f| f.bytes.clone());
        recent.push(
            faulted
                .as_ref()
                .map(|f| f.affected.clone())
                .unwrap_or_default(),
        );

        ingest_serial_with(&mut clean_state, &clean_buf, MACHINES, &mut clean_est);
        let rep = ingest_serial_with(&mut fault_state, &buf, MACHINES, &mut fault_est);
        if let Some(f) = &faulted {
            // Every destructive fault must land in its health counter.
            flips_seen += f.count(FaultKind::BitFlip);
            framing_seen += f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail);
            assert!(
                rep.corrupt_frames >= f.count(FaultKind::BitFlip),
                "window {w}: bit flips slipped past the planar checksum"
            );
            assert!(
                rep.resyncs >= f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail),
                "window {w}: framing damage did not resync"
            );
            assert!(
                rep.rows_quarantined >= f.count(FaultKind::RateSpike),
                "window {w}: spiked planar rows were not quarantined"
            );
            assert!(
                rep.resets_detected + rep.duplicate_windows
                    >= f.count(FaultKind::SeqReset) + f.count(FaultKind::DuplicateFrame),
                "window {w}: sequence faults went unaccounted"
            );
        }

        let clean_e = clean_est.estimate();
        let fault_e = fault_est.estimate();
        let dirty: BTreeSet<u64> = recent
            .iter()
            .rev()
            .take(horizon)
            .flatten()
            .copied()
            .collect();
        for m in 0..MACHINES {
            if dirty.contains(&(m as u64)) {
                continue;
            }
            assert_eq!(
                fault_e.total()[m].to_bits(),
                clean_e.total()[m].to_bits(),
                "window {w}: clean machine {m} diverged under planar chaos"
            );
        }
    }
    assert!(
        flips_seen + framing_seen > 0,
        "the plan must actually have exercised checksum and resync paths"
    );
}
