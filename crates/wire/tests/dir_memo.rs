//! Identity-directory memo contracts: the planar fast path (skipping
//! directory validation when a machine's frame shape repeats) must be
//! observationally invisible. A memoised decoder and one forced to
//! revalidate every frame must agree bit-for-bit over battered
//! streams, width changes, layout-epoch bumps and evictions — and the
//! fused planar ingest must stay bit-identical to in-memory estimation
//! of the windows each row should hold when adaptive decimation,
//! width-directory changes and a sequence reset all land in the same
//! stream.

use proptest::prelude::*;
use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::FleetEstimator;
use tdp_wire::{
    ingest_serial_with, CursorItem, Decoded, FaultPlan, FrameCursor, FrameDecoder, IngestState,
    WireEncoder,
};
use trickledown::SystemPowerModel;

/// The canonical nine-event identity layout (what real producers run).
const IDENTITY: [PerfEvent; 9] = [
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

/// A sane machine-window whose counter magnitudes are scaled by
/// `magnitude`: rates (count / cycles) stay in the sanity envelope
/// while the planar plane widths step through entirely different
/// width-directory bytes — a magnitude regime switch is exactly the
/// event that must strand a machine's identity-directory memo.
fn scaled_set(machine: u64, seq: u64, magnitude: u64) -> SampleSet {
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        .wrapping_add(magnitude.wrapping_mul(0x6a09_e667_f3bc_c909))
        | 1;
    let per_cpu = (0..4)
        .map(|cpu| {
            let pairs = IDENTITY
                .iter()
                .map(|&e| {
                    let r = xorshift(&mut rng);
                    let scale: u64 = match e {
                        PerfEvent::Cycles => 2_000_000,
                        PerfEvent::HaltedCycles => 900_000,
                        PerfEvent::FetchedUops => 2_500_000,
                        PerfEvent::L3LoadMisses => 4_000,
                        PerfEvent::BusTransactionsAll => 25_000,
                        PerfEvent::DmaOtherBusTransactions => 1_500,
                        PerfEvent::InterruptsTotal => 600,
                        PerfEvent::TimerInterrupts => 200,
                        _ => 90,
                    };
                    let scale = scale.saturating_mul(magnitude);
                    (e, scale / 2 + r % scale.max(1))
                })
                .collect();
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

fn batch_bits(est: &FleetEstimator) -> Vec<Vec<u64>> {
    est.batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Decodes every frame of `bytes` through both decoders — `memo`
/// keeps its identity-directory memo, `reference` is evicted before
/// every frame so it revalidates from scratch — and asserts the two
/// verdicts (rows, layouts, errors alike) are identical.
fn assert_decoders_agree(
    bytes: &[u8],
    memo: &mut FrameDecoder,
    reference: &mut FrameDecoder,
    context: &str,
) -> Result<(), String> {
    let mut cursor = FrameCursor::new(bytes);
    while let Some(item) = cursor.next() {
        if let CursorItem::Frame { start, header } = item {
            let payload = cursor.payload(start, &header);
            reference.evict_dir_memo(header.machine_id);
            let got = memo.decode_frame(&header, payload);
            let want = reference.decode_frame(&header, payload);
            prop_assert_eq!(
                &got,
                &want,
                "{}: memoised and revalidating decodes diverged (machine {}, seq {})",
                context,
                header.machine_id,
                header.window_seq
            );
            if let (Ok(Decoded::Row { row: a, .. }), Ok(Decoded::Row { row: b, .. })) =
                (&got, &want)
            {
                for (k, (x, y)) in a.iter().zip(b).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{}: column {} bits diverged",
                        context,
                        k
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    /// Over arbitrary seeded fault plans — windows that are clean,
    /// corrupt (bit flips), quarantine-bound (rate spikes) and mixed —
    /// the identity-directory fast path must produce exactly the
    /// verdict of full per-frame revalidation: same rows bit-for-bit,
    /// same errors, frame by frame.
    #[test]
    fn memoised_decode_matches_full_revalidation_over_faulted_streams(seed in any::<u64>()) {
        const MACHINES: u64 = 10;
        let plan = FaultPlan::new(seed);
        let mut enc = WireEncoder::new();
        let mut memo = FrameDecoder::new();
        let mut reference = FrameDecoder::new();
        for w in 0..4u64 {
            for m in 0..MACHINES {
                enc.push_sample_set(m, &scaled_set(m, w, 1_000)).unwrap();
            }
            let clean = enc.take_bytes();
            // Window 0 delivers the layouts intact; later windows burn.
            let bytes = if w == 0 { clean } else { plan.apply(w, &clean).bytes };
            assert_decoders_agree(
                &bytes,
                &mut memo,
                &mut reference,
                &format!("seed {seed} window {w}"),
            )?;
        }
    }

    /// The three memo-invalidation edges — a width-directory change
    /// (counter magnitude regime switch), a layout-epoch bump (any
    /// layout registration strands every memo), and explicit machine
    /// eviction — must each force clean revalidation: the memoised
    /// decoder keeps agreeing with the always-revalidating reference
    /// across every transition.
    #[test]
    fn width_changes_epoch_bumps_and_eviction_strand_the_memo_cleanly(
        seed in any::<u64>(),
        magnitudes in prop::collection::vec(0u32..6, 8),
        bump_at in 1u64..7,
        evict_at in 1u64..7,
    ) {
        const MACHINES: u64 = 6;
        let mut enc = WireEncoder::new();
        let mut memo = FrameDecoder::new();
        let mut reference = FrameDecoder::new();
        for (w, &mag) in magnitudes.iter().enumerate() {
            let w = w as u64;
            // Per-window magnitude regime: plane widths jump between
            // 1-, 2-, 4- and 8-byte classes window over window.
            let magnitude = 10u64.pow(mag);
            for m in 0..MACHINES {
                // One machine alternates regime out of phase, so some
                // frames hit the memo while neighbours miss.
                let mag = if m == 1 { 10u64.pow((5 - mag) % 6) } else { magnitude };
                enc.push_sample_set(m, &scaled_set(m.wrapping_add(seed), w, mag)).unwrap();
            }
            if w == bump_at {
                // A brand-new layout registration (an eight-event
                // truncation of the canonical one) bumps the layout
                // epoch and strands every machine's memo at once.
                let novel: Vec<PerfEvent> = IDENTITY[..8].to_vec();
                let mut set = scaled_set(99, w, 1);
                for cpu in &mut set.per_cpu {
                    let pairs = novel.iter().map(|&e| (e, 7u64)).collect();
                    *cpu = CounterSample::new(cpu.cpu(), w, pairs);
                }
                enc.push_sample_set(MACHINES + 1, &set).unwrap();
            }
            let bytes = enc.take_bytes();
            if w == evict_at {
                memo.evict_dir_memo(seed % MACHINES);
            }
            assert_decoders_agree(
                &bytes,
                &mut memo,
                &mut reference,
                &format!("seed {seed} window {w} mag {mag}"),
            )?;
        }
    }
}

/// The decimation × planar chaos regression: adaptive sampling
/// (phase-staggered skipped windows), a mid-run width-directory
/// change, and a window-sequence reset all interact with the
/// identity-directory fast path in one stream — and the fused planar
/// ingest must remain bit-identical to `FleetEstimator::process_window`
/// over the sets each row should hold (a machine's last transmitted
/// window, which decimated machines are reconstructed from), row for
/// row and window for window.
#[test]
fn decimated_planar_stream_with_width_change_and_seq_reset_matches_in_memory() {
    const MACHINES: usize = 8;
    const WINDOWS: u64 = 24;
    /// Window where machine 3's counter magnitudes jump three decades
    /// (every plane width changes; its memo must revalidate).
    const WIDTH_JUMP_AT: u64 = 10;
    /// Window where machine 5's producer reboots (window_seq restarts
    /// from 0 — the ledger re-baselines it as a reset).
    const RESET_AT: u64 = 15;

    let mut enc = WireEncoder::new();
    // Mixed negotiated decimations: every-window, every-2nd, every-4th.
    for m in 0..MACHINES as u64 {
        enc.set_decimation(m, [1u16, 1, 2, 2, 4, 4, 4, 1][m as usize]);
    }

    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut reference = FleetEstimator::new(SystemPowerModel::paper());
    // The set each machine's row should hold: its last transmission.
    let mut held: Vec<Option<SampleSet>> = vec![None; MACHINES];
    let (mut resets_seen, mut windows_checked) = (0u64, 0u64);

    for w in 0..WINDOWS {
        for m in 0..MACHINES as u64 {
            let seq = if m == 5 && w >= RESET_AT {
                w - RESET_AT
            } else {
                w
            };
            if !enc.should_send(m, seq) {
                continue;
            }
            let magnitude = if m == 3 && w >= WIDTH_JUMP_AT {
                1_000_000
            } else {
                1_000
            };
            let set = scaled_set(m, seq, magnitude);
            enc.push_sample_set(m, &set).unwrap();
            held[m as usize] = Some(set);
        }
        let rep = ingest_serial_with(&mut state, &enc.take_bytes(), MACHINES, &mut est);
        assert_eq!(rep.corrupt_frames + rep.rows_quarantined, 0, "window {w}");
        resets_seen += rep.resets_detected;

        // Until every machine's first decimation phase has come round,
        // some rows have nothing to hold yet.
        let Some(sets) = held.iter().cloned().collect::<Option<Vec<_>>>() else {
            continue;
        };
        assert_eq!(
            rep.rows_written, MACHINES as u64,
            "window {w}: every row written, fresh or reconstructed"
        );
        reference.process_window(&sets);
        assert_eq!(
            batch_bits(&est),
            batch_bits(&reference),
            "window {w}: planar batch diverged from the in-memory reference"
        );
        let bits = |e: &mut FleetEstimator| -> Vec<u64> {
            e.estimate().total().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&mut est),
            bits(&mut reference),
            "window {w}: estimates diverged from the in-memory reference"
        );
        windows_checked += 1;
    }
    // Machine 6 (decimation 4, phase 2) is the last to transmit
    // first: from window 2 on every row is held, so every later window
    // was compared.
    assert_eq!(windows_checked, WINDOWS - 2);
    // Machine 5's rebooted counter transmits again (decimation phase)
    // a window after RESET_AT; the regression is the reset going
    // unnoticed while its directory memo serves the fast path.
    assert!(resets_seen >= 1, "the seq reset was never detected");
}
