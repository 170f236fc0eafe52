//! End-to-end check of the wire path under fault injection, fed by
//! the [`crate::fleet`] generator `perfbench` drives: a seeded
//! [`tdp_wire::FaultPlan`] batters the encoded stream, persistent ingest
//! degrades it, and the anomaly detector judging the battered estimates
//! stays bit-identical between its serial and pooled updates.

#[cfg(test)]
mod tests {
    use crate::fleet::synthetic_set_into;
    use tdp_counters::SampleSet;
    use tdp_fleet::{AnomalyDetector, FleetEstimator};
    use tdp_parallel::WorkerPool;
    use tdp_wire::{ingest_serial_with, FaultPlan, IngestState, WireEncoder};
    use trickledown::SystemPowerModel;

    #[test]
    fn chaos_anomaly_subrun_keeps_detector_bit_identity_under_fire() {
        const MACHINES: usize = 12;
        // Long enough to outlast the default detector baseline, so
        // judgement runs on faulted estimates, not only warm-up.
        const WINDOWS: u64 = 24;
        let plan = FaultPlan::new(1234);
        let pool = WorkerPool::new(4);
        let mut est = FleetEstimator::with_capacity(SystemPowerModel::paper(), MACHINES);
        let mut state = IngestState::new();
        let mut enc = WireEncoder::new();
        let (mut serial, mut pooled) = (AnomalyDetector::default(), AnomalyDetector::default());
        let mut sets = vec![SampleSet::empty(); MACHINES];
        let mut faults_injected = 0;
        let mut max_z = 0.0f64;

        for w in 0..WINDOWS {
            for (m, set) in sets.iter_mut().enumerate() {
                synthetic_set_into(set, m, w);
                set.seq = w + 1;
                enc.push_sample_set(m as u64, set)
                    .expect("synthetic sets encode");
            }
            let clean = enc.take_bytes();
            // Window 0 stays pristine so every layout frame lands
            // before the plan starts cutting.
            let faulted = (w > 0).then(|| plan.apply(w, &clean));
            let bytes: &[u8] = faulted.as_ref().map_or(&clean, |f| &f.bytes);
            faults_injected += faulted.as_ref().map_or(0, |f| f.injected.len());

            ingest_serial_with(&mut state, bytes, MACHINES, &mut est);
            let estimates = est.estimate().clone();
            serial.update(&estimates);
            pooled.update_pooled(&estimates, &pool);
            assert_eq!(
                serial.digest(),
                pooled.digest(),
                "window {w}: serial and pooled judgement must agree on battered estimates"
            );
            max_z = max_z.max(serial.summary().max_z);
        }
        assert!(faults_injected > 0, "the plan must actually inject faults");
        assert!(serial.warmed(), "{WINDOWS} windows outlast the baseline");
        assert!(max_z.is_finite());
    }
}
