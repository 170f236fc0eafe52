//! **tdp-wire** — zero-copy telemetry wire codec and lock-free
//! streaming ingest for fleet power estimation.
//!
//! A fleet controller doesn't read PMUs itself: machines ship their
//! counter windows over the network, and the estimator's real input is
//! a byte stream. This crate defines that stream and makes decoding it
//! cost about as much as reading local memory:
//!
//! * [`frame`] — the format: 44-byte little-endian headers, LEB128
//!   layout announcements, one sample encoding — column-[`planar`]
//!   fixed-width planes of cross-CPU zigzag deltas (fleet siblings
//!   count nearly alike, so lanes stay narrow), decoded in one
//!   branch-light walk — and a mix-based 64-bit checksum that provably
//!   catches every single-bit corruption.
//! * [`WireEncoder`] — the producer side: self-describing streams that
//!   interleave a layout frame whenever a machine's PMU programming
//!   changes.
//! * [`FrameDecoder`] — the zero-copy consumer: validates frames in
//!   place and reduces them straight to [`SampleBatch`] rows through
//!   the same [`fold_event_lanes`] arithmetic in-memory ingestion uses,
//!   memoising event layouts by hash ([`LayoutTable`]). No intermediate
//!   sample structs, no steady-state allocation.
//! * [`stream_window`] — the pipeline: decoder shards on the existing
//!   [`tdp_parallel::WorkerPool`] (machines sharded by id), bounded
//!   lock-free SPSC [`ring`]s, explicit backpressure, and a streamed
//!   result that is bit-identical to serial ingestion for any decoder
//!   count.
//! * [`health`](PipelineHealth) — graceful degradation under a hostile
//!   stream: per-machine [`HealthState`] ledgers, sequence
//!   reset/duplicate detection, [`DegradePolicy`] sanity quarantine,
//!   bounded last-good-row holds, and a per-window counter block in
//!   which every fault is accounted.
//! * [`faults`] — a seeded, deterministic fault injector
//!   ([`FaultPlan`]) that damages encoded windows in replayable ways,
//!   for chaos tests and `repro --faults`.
//!
//! [`SampleBatch`]: tdp_fleet::SampleBatch
//! [`fold_event_lanes`]: tdp_fleet::fold_event_lanes
//!
//! # Quickstart
//!
//! ```
//! use tdp_fleet::FleetEstimator;
//! use tdp_simsys::{Machine, MachineConfig};
//! use tdp_wire::{ingest_serial, WireEncoder};
//! use trickledown::SystemPowerModel;
//!
//! // Three machines encode their windows onto one wire.
//! let mut enc = WireEncoder::new();
//! for id in 0..3u64 {
//!     let mut m = Machine::new(MachineConfig::default());
//!     for _ in 0..500 {
//!         m.tick();
//!     }
//!     enc.push_sample_set(id, &m.read_counters()).unwrap();
//! }
//! let wire = enc.finish();
//!
//! // The controller decodes the bytes straight into fleet estimates.
//! let mut est = FleetEstimator::with_capacity(SystemPowerModel::paper(), 3);
//! let report = ingest_serial(&wire, 3, &mut est);
//! assert_eq!(report.rows_written, 3);
//! assert_eq!(report.corrupt_frames, 0);
//! assert_eq!(est.estimate().len(), 3);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod varint;

mod decode;
mod encode;
pub mod faults;
mod health;
pub mod planar;
#[allow(unsafe_code)]
pub mod ring;
mod stream;

pub use decode::{CursorItem, DecodeError, Decoded, FrameCursor, FrameDecoder, LayoutTable};
pub use encode::{
    encode_layout_frame, encode_layout_frame_with_decimation, encode_planar_sample_frame,
    EncodeError, WireEncoder,
};
pub use faults::{FaultKind, FaultPlan, FaultedWindow, InjectedFault};
pub use health::{DegradePolicy, HealthState, PipelineHealth};
pub use stream::{
    ingest_serial, ingest_serial_with, stream_window, stream_window_with, IngestState,
    StreamConfig, StreamReport,
};
