//! Frame encoding: [`SampleSet`]s → wire bytes.
//!
//! [`WireEncoder`] is the stateful producer side: it tracks the last
//! layout hash announced per machine and interleaves a layout frame
//! whenever a machine's PMU programming changes (including the first
//! time it is seen), so a stream is always self-describing, and emits
//! each machine-window as one column-planar sample frame. The
//! stateless [`encode_layout_frame`] / [`encode_planar_sample_frame`]
//! building blocks are public for tests and custom producers.

use crate::frame::{
    put_uvarint, FrameHeader, FrameType, HEADER_LEN, MAX_DECIMATION, MAX_WIRE_EVENTS,
};
use std::collections::HashMap;
use tdp_counters::{layout_hash, PerfEvent, SampleSet};

/// Why a sample set could not be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// CPUs within one set disagree on event list or order; a frame
    /// carries exactly one layout for all its CPUs.
    MixedLayouts,
    /// More events per CPU than [`MAX_WIRE_EVENTS`] (or more CPUs than
    /// `u16::MAX`) — outside the format's bounds.
    OutOfBounds,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::MixedLayouts => {
                write!(f, "CPUs in one sample set must share one event layout")
            }
            EncodeError::OutOfBounds => write!(f, "layout exceeds wire format bounds"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Reserves header space, runs `payload` to append the payload, then
/// backfills the header (with checksum) over the reservation.
fn with_frame(out: &mut Vec<u8>, mut header: FrameHeader, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    payload(out);
    let payload_len = out.len() - start - HEADER_LEN;
    header.payload_len = payload_len as u32;
    header.checksum = header.expected_checksum(&out[start + HEADER_LEN..]);
    let (head, _) = out[start..].split_at_mut(HEADER_LEN);
    header.write(head);
}

/// Appends one layout frame declaring `events` for `machine_id`.
///
/// # Errors
///
/// [`EncodeError::OutOfBounds`] if `events` exceeds
/// [`MAX_WIRE_EVENTS`].
pub fn encode_layout_frame(
    out: &mut Vec<u8>,
    machine_id: u64,
    window_seq: u64,
    events: &[PerfEvent],
) -> Result<(), EncodeError> {
    encode_layout_frame_with_decimation(out, machine_id, window_seq, events, 1)
}

/// [`encode_layout_frame`] announcing a sampling decimation alongside
/// the layout: the header's (otherwise unused) `cpu_count` field tells
/// the consumer this machine will send one sample frame every
/// `decimation` windows, phase-staggered, and expects held
/// reconstruction in between. `decimation ≤ 1` writes the legacy `0`,
/// so an every-window stream is byte-identical to one produced before
/// the field existed.
///
/// # Errors
///
/// [`EncodeError::OutOfBounds`] if `events` exceeds
/// [`MAX_WIRE_EVENTS`] or `decimation` exceeds [`MAX_DECIMATION`].
pub fn encode_layout_frame_with_decimation(
    out: &mut Vec<u8>,
    machine_id: u64,
    window_seq: u64,
    events: &[PerfEvent],
    decimation: u16,
) -> Result<(), EncodeError> {
    if events.len() > MAX_WIRE_EVENTS || decimation > MAX_DECIMATION {
        return Err(EncodeError::OutOfBounds);
    }
    let header = FrameHeader {
        frame_type: FrameType::Layout,
        payload_len: 0,
        machine_id,
        window_seq,
        layout_hash: layout_hash(events),
        cpu_count: if decimation <= 1 { 0 } else { decimation },
        n_events: events.len() as u16,
        checksum: 0,
    };
    with_frame(out, header, |buf| {
        for &e in events {
            put_uvarint(buf, e.index() as u64);
        }
    });
    Ok(())
}

/// Appends one column-planar sample frame for `machine_id`, encoding
/// every CPU's counts against the layout all CPUs of the set share, in
/// the fixed-width plane encoding of [`crate::planar`].
///
/// # Errors
///
/// [`EncodeError::MixedLayouts`] if any CPU's counter layout differs
/// from the first CPU's; [`EncodeError::OutOfBounds`] if the layout or
/// CPU count exceeds the format's bounds.
pub fn encode_planar_sample_frame(
    out: &mut Vec<u8>,
    machine_id: u64,
    set: &SampleSet,
) -> Result<(), EncodeError> {
    let first: &[(PerfEvent, u64)] = set.per_cpu.first().map_or(&[], |c| c.counts());
    if first.len() > MAX_WIRE_EVENTS || set.per_cpu.len() > u16::MAX as usize {
        return Err(EncodeError::OutOfBounds);
    }
    for cpu in &set.per_cpu {
        let counts = cpu.counts();
        if counts.len() != first.len() || counts.iter().zip(first).any(|(a, b)| a.0 != b.0) {
            return Err(EncodeError::MixedLayouts);
        }
    }
    let header = FrameHeader {
        frame_type: FrameType::PlanarSample,
        payload_len: 0,
        machine_id,
        window_seq: set.seq,
        layout_hash: layout_hash_of(first),
        cpu_count: set.per_cpu.len() as u16,
        n_events: first.len() as u16,
        checksum: 0,
    };
    with_frame(out, header, |buf| crate::planar::encode_payload(buf, set));
    Ok(())
}

fn layout_hash_of(pairs: &[(PerfEvent, u64)]) -> u64 {
    tdp_counters::layout_hash_indices(pairs.iter().map(|p| p.0.index() as u64))
}

/// Stateful stream encoder: one byte buffer, automatic layout frames.
///
/// # Example
///
/// ```
/// use tdp_simsys::{Machine, MachineConfig};
/// use tdp_wire::WireEncoder;
///
/// let mut machine = Machine::new(MachineConfig::default());
/// for _ in 0..1000 {
///     machine.tick();
/// }
/// let set = machine.read_counters();
///
/// let mut enc = WireEncoder::new();
/// enc.push_sample_set(7, &set).unwrap(); // layout frame + sample frame
/// enc.push_sample_set(7, &set).unwrap(); // sample frame only
/// assert!(!enc.bytes().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WireEncoder {
    buf: Vec<u8>,
    /// Per machine: the layout hash and decimation last *announced* on
    /// the wire. A change in either re-emits the layout frame.
    last_layout: HashMap<u64, (u64, u16)>,
    /// Per machine: the decimation the control loop *wants* (1 when
    /// unset). Announced lazily by the next `push_sample_set`.
    decimation: HashMap<u64, u16>,
    /// Reusable scratch for the pushed set's event layout — one
    /// steady-state `push_sample_set` must not heap-allocate.
    events: Vec<PerfEvent>,
}

impl WireEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the sampling decimation the control loop wants for
    /// `machine_id` (clamped to `1..=`[`MAX_DECIMATION`]). The change
    /// takes effect on the machine's next `push_sample_set`, which
    /// re-announces the (unchanged) layout with the new decimation —
    /// the consumer learns about it in-band, on the frame before the
    /// first frame it applies to.
    pub fn set_decimation(&mut self, machine_id: u64, decimation: u16) {
        self.decimation
            .insert(machine_id, decimation.clamp(1, MAX_DECIMATION));
    }

    /// The decimation currently wanted for `machine_id` (1 if never
    /// set: sample every window).
    pub fn decimation(&self, machine_id: u64) -> u16 {
        self.decimation.get(&machine_id).copied().unwrap_or(1)
    }

    /// Whether `machine_id` should transmit its sample for
    /// `window_seq` under its current decimation: every window at
    /// decimation 1, else one window in `dec`, phase-staggered by
    /// machine id so a homogeneous fleet spreads its transmissions
    /// across windows instead of bursting every `dec`-th one.
    pub fn should_send(&self, machine_id: u64, window_seq: u64) -> bool {
        let dec = self.decimation(machine_id) as u64;
        dec <= 1 || window_seq % dec == machine_id % dec
    }

    /// Appends one machine-window, preceding it with a layout frame if
    /// this machine's event layout is new or changed — or if its
    /// negotiated decimation changed since last announced.
    ///
    /// # Errors
    ///
    /// Propagates [`EncodeError`] (nothing is appended on error).
    pub fn push_sample_set(&mut self, machine_id: u64, set: &SampleSet) -> Result<(), EncodeError> {
        self.events.clear();
        if let Some(c) = set.per_cpu.first() {
            self.events.extend(c.counts().iter().map(|p| p.0));
        }
        let hash = layout_hash(&self.events);
        let dec = self.decimation(machine_id);
        let rollback = self.buf.len();
        if self.last_layout.get(&machine_id) != Some(&(hash, dec)) {
            encode_layout_frame_with_decimation(
                &mut self.buf,
                machine_id,
                set.seq,
                &self.events,
                dec,
            )?;
        }
        match encode_planar_sample_frame(&mut self.buf, machine_id, set) {
            Ok(()) => {
                self.last_layout.insert(machine_id, (hash, dec));
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(rollback);
                Err(e)
            }
        }
    }

    /// The encoded stream so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drains the encoded bytes, keeping the per-machine layout
    /// memory — the natural per-window flush for a long-lived
    /// producer: layout frames are re-emitted only when a machine's
    /// PMU programming actually changes, not once per window.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Consumes the encoder, returning the encoded stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}
