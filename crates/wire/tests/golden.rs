//! Golden wire bytes: the exact `WireEncoder` output for a small fixed
//! stream — a layout frame, planar sample frames whose per-event plane
//! widths change from window to window, and one decimation grant
//! (re-announced layout) — pinned byte for byte. Any change to the
//! planar format, the header layout, the checksum, or the encoder's
//! layout-announcement policy fails here first. The bytes were recorded
//! while the retired varint sample encoding still existed beside the
//! planar one, so they also show that retiring it left the planar wire
//! format untouched.

use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::SampleBatch;
use tdp_wire::{CursorItem, Decoded, FrameCursor, FrameDecoder, WireEncoder};

const LAYOUT: [PerfEvent; 3] = [
    PerfEvent::Cycles,
    PerfEvent::L2Misses,
    PerfEvent::InterruptsTotal,
];

fn set(seq: u64, counts: &[[u64; 3]]) -> SampleSet {
    SampleSet {
        time_ms: (seq + 1) * 1000,
        window_ms: 1000,
        seq,
        per_cpu: counts
            .iter()
            .enumerate()
            .map(|(cpu, row)| {
                CounterSample::new(
                    CpuId::new(cpu as u8),
                    seq,
                    LAYOUT.iter().copied().zip(row.iter().copied()).collect(),
                )
            })
            .collect(),
        interrupts: InterruptSnapshot::default(),
    }
}

/// The fixed stream as `(machine, set, decimation wanted before the
/// push)`: machine 0 over three windows on 3 CPUs, machine 1 once on
/// 2 CPUs, and a decimation grant for machine 0 before its third
/// window.
fn golden_sets() -> Vec<(u64, SampleSet, Option<u16>)> {
    vec![
        // Window 0: 1-byte bases and 1-byte deltas everywhere.
        (0, set(0, &[[10, 20, 30], [11, 19, 31], [12, 21, 29]]), None),
        (1, set(0, &[[200, 7, 1], [190, 9, 1]]), None),
        // Window 1: 4-byte base and 2-byte deltas on event 0, 8-byte
        // base on event 1; event 2 keeps its widths.
        (
            0,
            set(
                1,
                &[
                    [3_000_000_000, 5_000_000_000, 40],
                    [3_000_001_000, 5_000_000_001, 41],
                    [2_999_999_000, 5_000_000_002, 39],
                ],
            ),
            None,
        ),
        // Window 2 after a decimation grant (the push re-announces the
        // layout): 4-byte deltas on event 1, an 8-byte delta (an
        // i64::MIN step) on event 2.
        (
            0,
            set(
                2,
                &[
                    [65_535, 1 << 20, 3],
                    [
                        65_536,
                        (1 << 20) + (1 << 30),
                        3u64.wrapping_add(i64::MIN as u64),
                    ],
                    [65_534, 1 << 20, 3],
                ],
            ),
            Some(4),
        ),
    ]
}

fn golden_stream() -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for (machine, set, grant) in golden_sets() {
        if let Some(dec) = grant {
            enc.set_decimation(machine, dec);
        }
        enc.push_sample_set(machine, &set).unwrap();
    }
    enc.finish()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const GOLDEN: &str = concat!(
    // machine 0 layout: header, then payload
    "54570100030000000000000000000000000000000000000025e14d8a7fefa42a00000300b2f15d48ef2d418b",
    "00040d",
    // machine 0 window 0: header, then payload
    "545701020c0000000000000000000000000000000000000025e14d8a7fefa42a030003009f52f846dc52fb90",
    "0000000a141e020201040203",
    // machine 1 layout: header, then payload
    "54570100030000000100000000000000000000000000000025e14d8a7fefa42a00000300b7e1e9acbc391591",
    "00040d",
    // machine 1 window 0: header, then payload
    "54570102090000000100000000000000000000000000000025e14d8a7fefa42a02000300962baef5d75e66e0",
    "000000c80701130400",
    // machine 0 window 1: header, then payload
    "54570102180000000000000000000000010000000000000025e14d8a7fefa42a03000300118bd817356c6643",
    "120300005ed0b200f2052a0100000028d0079f0f02020203",
    // machine 0 layout, decimation 4: header, then payload
    "54570100030000000000000000000000020000000000000025e14d8a7fefa42a040003006c68230cec9a332a",
    "00040d",
    // machine 0 window 2: header, then payload
    "54570102240000000000000000000000020000000000000025e14d8a7fefa42a0300030075bb83ef89af8f1d",
    "012230ffff0000100003020300000080ffffff7fffffffffffffffffffffffffffffffff",
);

#[test]
fn encoder_output_matches_the_golden_bytes() {
    let wire = golden_stream();
    assert_eq!(hex(&wire), GOLDEN, "planar wire bytes changed");
}

#[test]
fn golden_bytes_decode_to_the_in_memory_rows() {
    let wire = golden_stream();
    let sets = golden_sets();
    let mut dec = FrameDecoder::new();
    let mut rows = Vec::new();
    let mut decimations = Vec::new();
    let mut cursor = FrameCursor::new(&wire);
    while let Some(item) = cursor.next() {
        let CursorItem::Frame { start, header } = item else {
            panic!("golden stream must frame cleanly");
        };
        match dec.decode_frame(&header, cursor.payload(start, &header)) {
            Ok(Decoded::Layout { decimation }) => decimations.push(decimation),
            Ok(Decoded::Row {
                machine_id, row, ..
            }) => rows.push((machine_id, row)),
            Err(e) => panic!("golden frame rejected: {e:?}"),
        }
    }
    assert_eq!(decimations, [1, 1, 4], "two first sightings and one grant");
    assert_eq!(rows.len(), sets.len());
    for ((machine, row), (want_machine, set, _)) in rows.iter().zip(&sets) {
        let mut batch = SampleBatch::new();
        batch.push_sample_set(set);
        assert_eq!(machine, want_machine);
        for (got, want) in row.iter().zip(batch.columns()) {
            assert_eq!(got.to_bits(), want[0].to_bits());
        }
    }
}
