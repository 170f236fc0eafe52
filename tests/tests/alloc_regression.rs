//! Allocation-count regression tests for the tick hot path.
//!
//! A counting `#[global_allocator]` (own test binary, so it observes
//! everything) pins the buffer-reuse contract: once the machine's
//! scratch buffers reach steady state, `Machine::tick_into` and
//! `Machine::read_counters_into` must run without heap allocation —
//! and a whole fleet estimation window
//! (`tdp_fleet::FleetEstimator`) must allocate nothing at all.
//!
//! Counting is per thread and armed only around each measured region
//! ([`count_allocations`]), so tests running in parallel under the
//! default runner never count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tdp_simsys::behavior::spin_loop_behavior;
use tdp_simsys::{Machine, MachineConfig, TickActivity};

struct CountingAllocator;

thread_local! {
    /// Whether this thread is inside a measured region.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while armed.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the current thread if it is armed.
/// `try_with` keeps allocations during thread-local teardown safe.
fn note_allocation() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` with this thread's counter armed and returns how many
/// allocations the thread made inside it.
fn count_allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    COUNT.with(Cell::get)
}

/// A machine running four busy compute threads, ticked past warm-up so
/// every internal scratch buffer has reached its steady capacity.
fn warmed_machine() -> (Machine, TickActivity) {
    let mut machine = Machine::new(MachineConfig::default());
    for cpu in 0..4 {
        machine
            .os_mut()
            .spawn(Box::new(spin_loop_behavior(1.5)), cpu);
    }
    let mut activity = TickActivity::empty();
    for _ in 0..5_000 {
        machine.tick_into(&mut activity);
    }
    (machine, activity)
}

#[test]
fn steady_state_tick_into_does_not_allocate() {
    let (mut machine, mut activity) = warmed_machine();
    const TICKS: u64 = 10_000;
    let delta = count_allocations(|| {
        for _ in 0..TICKS {
            machine.tick_into(&mut activity);
        }
    });
    // The contract is zero steady-state allocations; a tiny budget
    // absorbs one-off buffer growth if a scratch vector crosses a
    // capacity threshold mid-measurement.
    assert!(
        delta <= 8,
        "tick_into allocated {delta} times over {TICKS} ticks \
         ({} per 1000 ticks) — hot-path regression",
        delta as f64 * 1000.0 / TICKS as f64
    );
}

#[test]
fn steady_state_counter_reads_do_not_allocate() {
    let (mut machine, mut activity) = warmed_machine();
    let mut set = tdp_counters::SampleSet::empty();
    // Prime the sample-set buffers (first fill sizes per_cpu etc.).
    for _ in 0..3 {
        for _ in 0..100 {
            machine.tick_into(&mut activity);
        }
        machine.read_counters_into(&mut set);
    }
    let delta = count_allocations(|| {
        for _ in 0..50 {
            for _ in 0..100 {
                machine.tick_into(&mut activity);
            }
            machine.read_counters_into(&mut set);
        }
    });
    assert!(
        delta <= 8,
        "50 sampling windows allocated {delta} times — \
         read_counters_into regression"
    );
}

#[test]
fn steady_state_fleet_window_does_not_allocate() {
    // Fleet estimation is advertised as allocation-free once the column
    // buffers reach their steady capacity: per window, one
    // `begin_window`, one `push_sample_set` per machine and one
    // `estimate` must not touch the heap.
    const MACHINES: usize = 64;
    let (mut machine, mut activity) = warmed_machine();
    let mut set = tdp_counters::SampleSet::empty();
    for _ in 0..100 {
        machine.tick_into(&mut activity);
    }
    machine.read_counters_into(&mut set);

    let mut fleet =
        tdp_fleet::FleetEstimator::with_capacity(trickledown::SystemPowerModel::paper(), MACHINES);
    // Prime: first window sizes the estimate columns.
    for _ in 0..3 {
        fleet.begin_window();
        for _ in 0..MACHINES {
            fleet.push_sample_set(&set);
        }
        fleet.estimate();
    }

    let delta = count_allocations(|| {
        for _ in 0..50 {
            fleet.begin_window();
            for _ in 0..MACHINES {
                fleet.push_sample_set(&set);
            }
            std::hint::black_box(fleet.estimate().fleet_total());
        }
    });
    assert_eq!(
        delta, 0,
        "50 fleet windows allocated {delta} times — the steady-state \
         fleet path must be allocation-free"
    );
}

#[test]
fn steady_state_fused_planar_ingest_does_not_allocate() {
    // The fused planar wire path carries the same contract as the
    // in-memory fleet window: once the decoder's lane buffer, the
    // identity-directory memo slab, the ingest ledger, and the batch
    // columns have reached steady capacity, encoding + ingesting +
    // estimating a window must not touch the heap. (The encoder writes
    // into a caller-drained byte buffer we recycle below.)
    const MACHINES: usize = 64;
    let (mut machine, mut activity) = warmed_machine();
    let mut set = tdp_counters::SampleSet::empty();
    for _ in 0..100 {
        machine.tick_into(&mut activity);
    }
    machine.read_counters_into(&mut set);

    // Every window is pre-encoded (fresh window sequences — replayed
    // sequences read as duplicates and skip the fold), so the measured
    // stretch is exactly the consumer: decode, identity-directory
    // memo, ledger, column fold, estimate.
    const PRIME: usize = 5;
    const WINDOWS: usize = 50;
    let mut enc = tdp_wire::WireEncoder::new();
    let bufs: Vec<Vec<u8>> = (0..PRIME + WINDOWS)
        .map(|w| {
            set.seq = w as u64 + 1;
            for m in 0..MACHINES as u64 {
                enc.push_sample_set(m, &set).unwrap();
            }
            enc.take_bytes()
        })
        .collect();

    // Both entry points: the fused path itself, and the pooled
    // signature benchmark harnesses call, on a two-worker pool built
    // outside the measured region.
    let pool = tdp_parallel::WorkerPool::new(2);
    let cfg = tdp_wire::StreamConfig::default();
    for pooled in [false, true] {
        let ingest =
            |state: &mut tdp_wire::IngestState, buf: &[u8], est: &mut tdp_fleet::FleetEstimator| {
                if pooled {
                    tdp_wire::stream_window_with(state, &pool, &cfg, buf, MACHINES, est)
                } else {
                    tdp_wire::ingest_serial_with(state, buf, MACHINES, est)
                }
            };
        let mut est = tdp_fleet::FleetEstimator::with_capacity(
            trickledown::SystemPowerModel::paper(),
            MACHINES,
        );
        let mut state = tdp_wire::IngestState::new();
        // Prime: the first window announces layouts and sizes every slab
        // (ledger, identity-directory memo, lane buffer, batch columns);
        // later windows only change counter magnitudes, so plane widths —
        // and buffer capacities — hold steady.
        for buf in &bufs[..PRIME] {
            ingest(&mut state, buf, &mut est);
            est.estimate();
        }

        let mut rows = 0u64;
        let delta = count_allocations(|| {
            for buf in &bufs[PRIME..] {
                rows += ingest(&mut state, buf, &mut est).rows_written;
                std::hint::black_box(est.estimate().fleet_total());
            }
        });
        assert_eq!(rows, (WINDOWS * MACHINES) as u64, "clean windows commit");
        assert_eq!(
            delta, 0,
            "{WINDOWS} fused planar windows (pooled entry point: {pooled}) \
             allocated {delta} times — the steady-state wire ingest path \
             must be allocation-free"
        );
    }
}

#[test]
fn allocating_tick_wrapper_still_works() {
    // The compatibility wrapper allocates per call by design; assert it
    // produces the same activity as the in-place path on a twin machine.
    let (mut a, mut buf) = warmed_machine();
    let (mut b, _) = warmed_machine();
    for _ in 0..100 {
        a.tick_into(&mut buf);
        let owned = b.tick();
        assert_eq!(buf, owned);
    }
}
