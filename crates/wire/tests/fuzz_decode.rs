//! Property/fuzz tests for the frame cursor and decoder: arbitrary
//! bytes never panic, the cursor's items exactly partition its input,
//! damaged streams ingest deterministically, and a resync always
//! recovers the next intact frame.

use proptest::prelude::*;
use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::FleetEstimator;
use tdp_wire::frame::{FrameHeader, HeaderError, HEADER_LEN};
use tdp_wire::{
    ingest_reference_with, ingest_serial, CursorItem, FrameCursor, IngestState, StreamReport,
    WireEncoder,
};
use trickledown::SystemPowerModel;

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

/// A plain plausible machine-window (fixed counts in each model's
/// operating range; these tests fuzz the byte stream, not the data).
fn plain_set(seq: u64) -> SampleSet {
    let per_cpu = (0..2)
        .map(|cpu| {
            let counts = LAYOUT
                .iter()
                .map(|&e| {
                    let v: u64 = match e {
                        PerfEvent::Cycles => 2_000_000_000,
                        PerfEvent::HaltedCycles => 800_000_000,
                        PerfEvent::FetchedUops => 2_400_000_000,
                        PerfEvent::L3LoadMisses => 3_000_000,
                        PerfEvent::BusTransactionsAll => 22_000_000,
                        PerfEvent::DmaOtherBusTransactions => 1_200_000,
                        PerfEvent::InterruptsTotal => 5_000,
                        PerfEvent::TimerInterrupts => 2_000,
                        PerfEvent::DiskInterrupts => 800,
                        _ => 0,
                    };
                    (e, v + cpu as u64)
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

fn valid_stream(machines: u64) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for m in 0..machines {
        enc.push_sample_set(m, &plain_set(1)).unwrap();
    }
    enc.finish()
}

/// Walks `buf` with a [`FrameCursor`], asserting the partition
/// invariant: frame extents and resync skips exactly tile the buffer,
/// in order, with no gaps and no overlap. Returns `(frames, resyncs)`.
fn walk_partition(buf: &[u8]) -> Result<(u64, u64), String> {
    let mut pos = 0usize;
    let (mut frames, mut resyncs) = (0u64, 0u64);
    for item in FrameCursor::new(buf) {
        match item {
            CursorItem::Frame { start, header } => {
                if start != pos {
                    return Err(format!("frame at {start}, cursor position {pos}"));
                }
                pos += HEADER_LEN + header.payload_len as usize;
                frames += 1;
            }
            CursorItem::Resync { skipped } => {
                if skipped == 0 {
                    return Err("zero-length resync would not terminate".into());
                }
                pos += skipped;
                resyncs += 1;
            }
        }
        if pos > buf.len() {
            return Err(format!("cursor overran: {pos} > {}", buf.len()));
        }
    }
    if pos != buf.len() {
        return Err(format!("cursor stopped at {pos} of {}", buf.len()));
    }
    Ok((frames, resyncs))
}

fn ingest(buf: &[u8], machines: usize) -> StreamReport {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    ingest_serial(buf, machines, &mut est)
}

proptest! {
    /// Arbitrary bytes: the cursor never panics, never loops, and its
    /// items partition the input exactly.
    #[test]
    fn arbitrary_bytes_partition_cleanly(
        buf in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        walk_partition(&buf)?;
        // Full ingest over garbage: no panic, and accounting stays
        // within the input (can't resync more bytes than exist).
        let rep = ingest(&buf, 8);
        prop_assert!(rep.resync_bytes <= buf.len() as u64);
        prop_assert!(rep.rows_written <= 8);
    }

    /// A valid stream cut at an arbitrary point: ingest never panics,
    /// is deterministic (same bytes, same report), and whatever decodes
    /// is a prefix-subset of the fleet.
    #[test]
    fn truncated_streams_ingest_deterministically(
        cut_frac in 0.0f64..1.0,
        machines in 1u64..8,
    ) {
        let full = valid_stream(machines);
        let cut = (cut_frac * full.len() as f64) as usize;
        let buf = &full[..cut.min(full.len())];
        let a = ingest(buf, machines as usize);
        let b = ingest(buf, machines as usize);
        prop_assert_eq!(a, b, "identical bytes must ingest identically");
        prop_assert!(a.rows_written <= machines);
        prop_assert!(a.resync_bytes <= buf.len() as u64);
    }

    /// Arbitrary multi-bit corruption of a valid stream: never a panic,
    /// and counters always account for the whole walk (frames attempted
    /// are bounded by frames present in the pristine stream plus
    /// whatever phantom frames corruption fabricates — all of which end
    /// in a counted outcome, never a silent stall).
    #[test]
    fn corrupted_streams_never_panic(
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..24),
        machines in 1u64..6,
    ) {
        let mut buf = valid_stream(machines);
        for &(at, bit) in &flips {
            let i = at % buf.len();
            buf[i] ^= 1 << bit;
        }
        walk_partition(&buf)?;
        let rep = ingest(&buf, machines as usize);
        prop_assert_eq!(rep, ingest(&buf, machines as usize));
    }
}

#[test]
fn resync_recovers_the_next_intact_frame() {
    // machine 0's frames, then a run of junk free of the magic prefix
    // byte, then machine 1's frames (fresh encoder, so its layout is
    // announced after the junk). The decoder must skip the junk in one
    // resync and ingest machine 1 untouched.
    let mut enc0 = WireEncoder::new();
    enc0.push_sample_set(0, &plain_set(1)).unwrap();
    let mut enc1 = WireEncoder::new();
    enc1.push_sample_set(1, &plain_set(1)).unwrap();

    let mut buf = enc0.finish();
    let junk: Vec<u8> = (0..37u8)
        .map(|b| if b == 0x54 { 0x55 } else { b })
        .collect();
    buf.extend_from_slice(&junk);
    buf.extend_from_slice(&enc1.finish());

    let (frames, resyncs) = walk_partition(&buf).unwrap();
    assert_eq!(frames, 4, "layout + sample per machine");
    assert_eq!(resyncs, 1, "the junk run is exactly one resync");

    let rep = ingest(&buf, 2);
    assert_eq!(rep.rows_written, 2, "both machines decode around the junk");
    assert_eq!(rep.resyncs, 1);
    assert_eq!(rep.resync_bytes, junk.len() as u64);
    assert_eq!(rep.corrupt_frames, 0);
}

#[test]
fn mid_frame_cut_before_good_frames_is_skipped_not_fatal() {
    // A stream whose first frame is cut off mid-payload (its tail
    // replaced by magic-free junk) followed by an intact machine: the
    // classic "writer died mid-frame, log rotated, writer resumed".
    let mut enc0 = WireEncoder::new();
    enc0.push_sample_set(0, &plain_set(1)).unwrap();
    let damaged = enc0.finish();
    // Keep the first frame's header plus a few payload bytes, then junk
    // the rest of its extent so the checksum cannot hold.
    let keep = HEADER_LEN + 3;
    let mut buf = damaged[..keep].to_vec();
    buf.extend(std::iter::repeat_n(0x22u8, 20));

    let mut enc1 = WireEncoder::new();
    enc1.push_sample_set(1, &plain_set(1)).unwrap();
    buf.extend_from_slice(&enc1.finish());

    let rep = ingest(&buf, 2);
    assert_eq!(
        rep.rows_written, 1,
        "machine 1 decodes despite the mangled prefix"
    );
    assert!(
        rep.corrupt_frames + rep.resyncs >= 1,
        "the mangled prefix must be detected, got {rep:?}"
    );
}

#[test]
fn retired_sample_type_byte_is_never_decoded() {
    // Frame type 1 once named the row-major varint sample encoding. It
    // is retired for good: a frame carrying it must fail header parsing
    // and be skipped by resync, never decoded as a sample.
    let mut buf = valid_stream(2);
    // Frames: layout 0, sample 0, layout 1, sample 1.
    let frames: Vec<(usize, usize)> = FrameCursor::new(&buf)
        .map(|item| match item {
            CursorItem::Frame { start, header } => {
                (start, HEADER_LEN + header.payload_len as usize)
            }
            CursorItem::Resync { .. } => panic!("clean stream resynced"),
        })
        .collect();
    assert_eq!(frames.len(), 4);
    let (start, len) = frames[1];
    buf[start + 3] = 1;
    assert_eq!(
        FrameHeader::parse(&buf[start..]),
        Err(HeaderError::BadType),
        "type byte 1 must not parse"
    );

    // Fused ingest and the per-row reference agree on the verdict.
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let reference = ingest_reference_with(&mut IngestState::new(), &buf, 2, &mut est);
    for rep in [ingest(&buf, 2), reference] {
        assert_eq!(rep.resyncs, 1, "the retired frame is one resync");
        assert_eq!(rep.resync_bytes, len as u64, "exactly its bytes skipped");
        assert_eq!(rep.sample_frames, 1, "only machine 1's sample decoded");
        assert_eq!(rep.rows_written, 1);
        assert_eq!(rep.corrupt_frames, 0);
    }
}
