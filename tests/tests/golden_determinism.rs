//! Golden-trace determinism: the pooled parallel capture must be
//! bit-identical to a serial capture of the same workloads, and repeat
//! runs must be bit-identical to each other.
//!
//! This is the contract that makes the parallel pipeline safe to use
//! for reproduction experiments: per-workload seeding is independent of
//! scheduling, and `tdp_parallel::par_map` returns results in input
//! order, so core count and worker interleaving cannot leak into the
//! captured records.

use tdp_bench::{capture_all, capture_workload, ExperimentConfig};
use tdp_parallel::WorkerPool;
use tdp_workloads::Workload;

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        seed: 424_242,
        trace_seconds: 3,
        ramp_seconds: 1,
        out_dir: std::env::temp_dir().join("tdp-golden-determinism"),
    }
}

#[test]
fn parallel_capture_matches_serial_capture_bit_for_bit() {
    let cfg = tiny_cfg();
    let parallel = capture_all(&cfg);
    let serial: Vec<_> = Workload::ALL
        .iter()
        .map(|&w| capture_workload(&cfg, w))
        .collect();
    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.workload, s.workload, "workload order preserved");
        // Trace derives PartialEq over every record: inputs, raw
        // counter sets and measured watts must all match exactly.
        assert_eq!(p, s, "{:?} trace diverged", p.workload);
    }
}

#[test]
fn repeat_parallel_captures_are_identical() {
    let cfg = tiny_cfg();
    let a = capture_all(&cfg);
    let b = capture_all(&cfg);
    assert_eq!(a, b);
}

#[test]
fn pool_par_map_is_order_preserving_at_any_worker_count() {
    let items: Vec<u64> = (0..997).collect();
    let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 42;
    let expect: Vec<u64> = items.iter().copied().map(f).collect();
    for workers in [1, 2, 8] {
        let pool = WorkerPool::new(workers);
        assert_eq!(
            pool.par_map_chunks(items.clone(), 13, f),
            expect,
            "workers={workers}"
        );
    }
}

#[test]
fn serialized_golden_trace_is_stable_across_runs() {
    // JSON serialisation pins the exact float bits; two captures of the
    // same seed must render identical documents.
    let cfg = tiny_cfg();
    let a = capture_workload(&cfg, Workload::Gcc).to_json().unwrap();
    let b = capture_workload(&cfg, Workload::Gcc).to_json().unwrap();
    assert_eq!(a, b);
}
