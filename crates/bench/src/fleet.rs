//! Deterministic synthetic fleet counter data.
//!
//! [`synthetic_set_into`] is the input generator of the `perfbench`
//! fleet workloads: one realistic 4-CPU counter read per
//! machine-window, a pure function of `(machine, window)`.

use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};

/// CPUs per simulated machine (the paper's 4-way Xeon server).
const CPUS_PER_MACHINE: usize = 4;

/// Deterministic synthetic counter read for one machine-window,
/// regenerated in place: realistic magnitudes (≈3 GHz × 1 s windows),
/// every event-rate input exercised, varying by machine and window so
/// no consumer can special-case repeated values.
///
/// Reuses `out`'s `per_cpu` arena (and each sample's inline count
/// store) instead of reallocating. A benchmark loop regenerates a whole
/// fleet's sets every window; with thousands of machines, fresh sets
/// would be tens of thousands of short-lived heap allocations per
/// window — pure generator overhead that pollutes the allocator and
/// cache state the timed paths then run under, and that a production
/// ingester (fed fresh network buffers, not regenerated sample structs)
/// never pays.
pub fn synthetic_set_into(out: &mut SampleSet, machine: usize, window: u64) {
    let mut state = (machine as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(window.wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Machine-wide base draws with small per-CPU jitter: sibling CPUs
    // of one server under one workload track each other closely (the
    // paper's 4-way Xeon), which is also the locality the wire codec's
    // CPU-over-CPU delta encoding is designed around.
    let cycles: u64 = 3_000_000_000;
    // Headroom keeps base + jitter below `cycles`, so active time
    // never goes negative on any CPU.
    let halted = next() % (cycles - cycles / 64);
    let active = cycles - halted;
    let fetched = next() % (2 * active + 1);
    let l3 = next() % 8_000_000;
    let bus = next() % 1_000_000;
    let dma = next() % 100_000_000;
    // Interrupt rates stay inside the paper's operating range (tens
    // per second): Equations 4–5 are downward parabolas and blow up
    // far outside it.
    let ints = 1_000 + next() % 60;
    let disk = next() % 30;
    out.per_cpu.truncate(CPUS_PER_MACHINE);
    for cpu in 0..CPUS_PER_MACHINE {
        let mut jitter = |base: u64| base + next() % (base / 128 + 2);
        let pairs = [
            (PerfEvent::Cycles, cycles),
            (PerfEvent::HaltedCycles, jitter(halted)),
            (PerfEvent::FetchedUops, jitter(fetched)),
            (PerfEvent::L3LoadMisses, jitter(l3)),
            (PerfEvent::BusTransactionsAll, jitter(bus)),
            (PerfEvent::DmaOtherBusTransactions, jitter(dma)),
            (PerfEvent::InterruptsTotal, jitter(ints)),
            (PerfEvent::TimerInterrupts, 1_000),
            (PerfEvent::DiskInterrupts, jitter(disk)),
        ];
        let id = CpuId::new(cpu as u8);
        match out.per_cpu.get_mut(cpu) {
            Some(sample) => sample.refill(id, window, pairs),
            None => out
                .per_cpu
                .push(CounterSample::new(id, window, pairs.to_vec())),
        }
    }
    out.time_ms = window.wrapping_add(1).wrapping_mul(1000);
    out.window_ms = 1000;
    out.seq = window;
    out.interrupts = InterruptSnapshot::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(machine: usize, window: u64) -> SampleSet {
        let mut set = SampleSet::empty();
        synthetic_set_into(&mut set, machine, window);
        set
    }

    #[test]
    fn synthetic_sets_are_deterministic_and_varied() {
        let a = fresh(3, 7);
        assert_eq!(a, fresh(3, 7));
        assert_ne!(a, fresh(4, 7), "varies by machine");
        assert_ne!(a, fresh(3, 8), "varies by window");
        assert_eq!(a.per_cpu.len(), CPUS_PER_MACHINE);
    }

    #[test]
    fn refill_matches_fresh_generation() {
        // Reusing a set's allocations must produce the exact sample a
        // fresh build would: the generator is state-free.
        let mut reused = fresh(0, 0);
        for (machine, window) in [(5usize, 11u64), (0, 3), (5, 11), (7, u64::MAX)] {
            synthetic_set_into(&mut reused, machine, window);
            assert_eq!(reused, fresh(machine, window));
        }

        // A fleet regenerated window after window keeps every arena.
        let mut sets: Vec<SampleSet> = (0..3).map(|m| fresh(m, 9)).collect();
        let caps: Vec<_> = sets.iter().map(|s| s.per_cpu.capacity()).collect();
        for (m, set) in sets.iter_mut().enumerate() {
            synthetic_set_into(set, m, 10);
        }
        for (m, set) in sets.iter().enumerate() {
            assert_eq!(*set, fresh(m, 10));
            assert_eq!(set.per_cpu.capacity(), caps[m], "arena was reallocated");
        }
    }
}
