//! Dev-only decomposition of the fused planar ingest path. Not wired
//! into the report; run manually: `cargo run --release -p tdp-bench
//! --bin profile_wire`. Stages run round-robin and report the minimum
//! over rounds to cancel frequency-ramp and ordering effects.

use std::hint::black_box;
use std::time::Instant;
use tdp_bench::fleet::synthetic_set;
use tdp_bench::ExperimentConfig;
use tdp_fleet::FleetEstimator;
use tdp_wire::frame::{FrameType, PayloadChecksum};
use tdp_wire::planar::decode_planes;
use tdp_wire::{ingest_serial_with, CursorItem, FrameCursor, IngestState, WireEncoder};
use trickledown::SystemPowerModel;

const N: usize = 1024;
const REPS: usize = 100;
const ROUNDS: usize = 7;

fn main() {
    let seed = ExperimentConfig::default().seed;
    let sets: Vec<_> = (0..N).map(|m| synthetic_set(m, seed)).collect();
    let mut enc = WireEncoder::new();
    // First window announces layouts; the steady-state window (what the
    // repro harness times after warm-up) carries sample frames only.
    for (m, set) in sets.iter().enumerate() {
        enc.push_sample_set(m as u64, set).expect("encodes");
    }
    let warm_buf = enc.take_bytes();
    let mut sets2 = sets.clone();
    for set in &mut sets2 {
        set.seq += 1;
    }
    for (m, set) in sets2.iter().enumerate() {
        enc.push_sample_set(m as u64, set).expect("encodes");
    }
    let buf = enc.take_bytes();
    // The ingest stages re-encode a fresh-sequence window untimed per
    // rep (a re-ingested window would read as all-duplicates and skip
    // the fold entirely) — also leaving the buffer cache-warm exactly
    // as the repro harness's encode→ingest rotation does.
    let mut next_seq = 3u64;
    let d = tdp_simd::Dispatch::active();

    let mut lanes: Vec<f64> = Vec::new();
    let model = SystemPowerModel::paper();
    let mut est = FleetEstimator::with_capacity(model.clone(), N);
    let mut state = IngestState::new();
    ingest_serial_with(&mut state, &warm_buf, N, &mut est);
    ingest_serial_with(&mut state, &buf, N, &mut est);
    let mut mem = FleetEstimator::with_capacity(model, N);
    mem.process_window(&sets);
    let mut dec = tdp_wire::FrameDecoder::new();
    {
        let mut cursor = FrameCursor::new(&warm_buf);
        while let Some(item) = cursor.next() {
            if let CursorItem::Frame { start, header } = item {
                dec.decode_frame(&header, cursor.payload(start, &header))
                    .expect("warm-up decodes");
            }
        }
    }

    let names = [
        "cursor walk",
        "+ decode (no finish)",
        "+ finish + verdict",
        "full ingest",
        "ingest + estimate",
        "in-memory baseline",
        "checksum only",
        "decode_frame (row out)",
        "fold only (hot lanes)",
        "pending only",
        "pending + fold",
    ];
    let mut best = [f64::INFINITY; 11];
    for _ in 0..ROUNDS {
        for (k, slot) in best.iter_mut().enumerate() {
            let mut timed = 0.0f64;
            let t = Instant::now();
            for _rep in 0..REPS {
                match k {
                    0 => {
                        let mut frames = 0u64;
                        for item in FrameCursor::new(&buf) {
                            if let CursorItem::Frame { .. } = item {
                                frames += 1;
                            }
                        }
                        black_box(frames);
                    }
                    1 | 2 => {
                        let mut cursor = FrameCursor::new(&buf);
                        let mut ok = 0u64;
                        while let Some(item) = cursor.next() {
                            if let CursorItem::Frame { start, header } = item {
                                if header.frame_type != FrameType::PlanarSample {
                                    continue;
                                }
                                let payload = cursor.payload(start, &header);
                                let mut ck = PayloadChecksum::new(&header);
                                decode_planes(
                                    payload,
                                    header.n_events as usize,
                                    header.cpu_count as usize,
                                    false,
                                    &mut lanes,
                                    &mut ck,
                                )
                                .expect("clean");
                                if k == 2 {
                                    ok += (ck.finish(payload) == header.checksum) as u64;
                                }
                                black_box(&lanes);
                            }
                        }
                        black_box(ok);
                    }
                    3 | 4 => {
                        for set in &mut sets2 {
                            set.seq = next_seq;
                        }
                        next_seq += 1;
                        for (m, set) in sets2.iter().enumerate() {
                            enc.push_sample_set(m as u64, set).expect("encodes");
                        }
                        let b = enc.take_bytes();
                        let ti = Instant::now();
                        let rep = ingest_serial_with(&mut state, &b, N, &mut est);
                        if k == 4 {
                            black_box(est.estimate().fleet_total());
                        }
                        timed += ti.elapsed().as_secs_f64();
                        assert_eq!(rep.rows_written, N as u64, "clean commit path");
                    }
                    5 => {
                        black_box(mem.process_window(&sets).fleet_total());
                    }
                    6 => {
                        // The full checksum alone: new + absorb + finish
                        // per frame, no decode.
                        let mut cursor = FrameCursor::new(&buf);
                        let mut ok = 0u64;
                        while let Some(item) = cursor.next() {
                            if let CursorItem::Frame { start, header } = item {
                                if header.frame_type != FrameType::PlanarSample {
                                    continue;
                                }
                                let payload = cursor.payload(start, &header);
                                let mut ck = PayloadChecksum::new(&header);
                                ck.absorb_to(payload, payload.len());
                                ok += (ck.finish(payload) == header.checksum) as u64;
                            }
                        }
                        black_box(ok);
                    }
                    7 => {
                        // Public decode path: pending + fold + row copy,
                        // no ledger/batch machinery.
                        let mut acc = 0.0f64;
                        let mut cursor = FrameCursor::new(&buf);
                        while let Some(item) = cursor.next() {
                            if let CursorItem::Frame { start, header } = item {
                                if let Ok(tdp_wire::Decoded::Row { row, .. }) =
                                    dec.decode_frame(&header, cursor.payload(start, &header))
                                {
                                    acc += row[1];
                                }
                            }
                        }
                        black_box(acc);
                    }
                    9 | 10 => {
                        let mut acc = 0.0f64;
                        let mut seqs = 0u64;
                        let mut cursor = FrameCursor::new(&buf);
                        while let Some(item) = cursor.next() {
                            if let CursorItem::Frame { start, header } = item {
                                let payload = cursor.payload(start, &header);
                                if k == 9 {
                                    seqs += dec.profile_pending_only(&header, payload).expect("ok");
                                } else {
                                    acc += dec.profile_row(&header, payload).expect("ok")[1];
                                }
                            }
                        }
                        black_box((acc, seqs));
                    }
                    _ => {
                        // The lane→row fold alone, on one hot 36-lane
                        // buffer — exactly what the fused path pays per
                        // machine after the payload walk.
                        let identity_pos: [u16; 9] = std::array::from_fn(|j| j as u16);
                        let hot: Vec<f64> = (0..36).map(|i| (i + 1) as f64 * 1e6).collect();
                        let mut acc = 0.0f64;
                        for _ in 0..N {
                            let row = tdp_fleet::fold_event_lanes(
                                d,
                                black_box(&hot),
                                4,
                                &identity_pos,
                                true,
                            );
                            acc += row[1];
                        }
                        black_box(acc);
                    }
                }
            }
            let secs = if matches!(k, 3 | 4) {
                timed
            } else {
                t.elapsed().as_secs_f64()
            };
            let per = secs * 1e9 / (N * REPS) as f64;
            if per < *slot {
                *slot = per;
            }
        }
    }
    for (name, ns) in names.iter().zip(best) {
        println!("{name:22} {ns:7.1} ns/machine");
    }
}
