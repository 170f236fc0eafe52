//! Zero-copy frame decoding straight into fleet sample rows.
//!
//! [`FrameDecoder`] never materialises an intermediate `SampleSet` or
//! `SystemSample`: it walks a planar frame's payload in place
//! ([`crate::planar::decode_planes`]), unfolds the delta chain straight
//! into one reused buffer of f64 event lanes, and folds those through
//! [`tdp_fleet::fold_event_lanes`] — the *same* arithmetic
//! `SampleBatch::push_sample_set` applies to in-memory samples, which
//! is what makes wire ingestion bit-identical to in-memory ingestion by
//! construction. In the steady state (layouts already registered,
//! lane buffer sized) a decode performs no allocation.
//!
//! Layouts are resolved through [`LayoutTable`], keyed on the header's
//! `layout_hash`: a layout frame registers the positions of the nine
//! [`ROW_EVENTS`] within the wire event list once, and every subsequent
//! sample frame with that hash reuses the memoised positions (a
//! one-entry hot cache makes the common single-layout fleet a single
//! comparison). A sample frame whose hash was never declared is
//! reported as [`DecodeError::UnknownLayout`], never guessed at — and
//! because positions are keyed on the *hash of the full ordered list*,
//! a mid-stream PMU reprogramming (reordered or extended event list)
//! can never misattribute columns.

use crate::frame::{
    FrameHeader, FrameType, HeaderError, PayloadChecksum, HEADER_LEN, MAGIC, MAX_DECIMATION,
    MAX_WIRE_EVENTS,
};
use crate::varint::read_uvarint;
use tdp_counters::layout_hash_indices;
use tdp_fleet::{fold_event_lanes, COLUMNS, ROW_EVENTS};
use tdp_simd::Dispatch;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Stored checksum does not match header + payload.
    Checksum,
    /// A layout frame whose payload hashes differently than its header
    /// claims, a payload that disagrees with its declared geometry or
    /// widths, or out-of-bounds counts of events/CPUs.
    Malformed,
    /// A sample frame referencing a `layout_hash` no layout frame
    /// declared.
    UnknownLayout,
}

/// A successfully decoded frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decoded {
    /// A layout frame; its mapping is now registered in the decoder.
    Layout {
        /// The machine's negotiated sampling decimation, carried in the
        /// layout header's `cpu_count` field (normalised: a legacy `0`
        /// on the wire decodes as 1 — sample every window).
        decimation: u16,
    },
    /// One machine-window reduced to a fleet sample row.
    Row {
        /// Which machine the row describes.
        machine_id: u64,
        /// The window sequence number from the frame header.
        window_seq: u64,
        /// Machine aggregates, ready for
        /// [`SampleBatch::push_row`](tdp_fleet::SampleBatch::push_row) /
        /// [`set_row`](tdp_fleet::SampleBatch::set_row).
        row: [f64; COLUMNS],
    },
}

/// One registered wire layout: where each of the nine [`ROW_EVENTS`]
/// sits in the wire event list (`u16::MAX` = absent).
#[derive(Debug, Clone, Copy)]
struct LayoutEntry {
    hash: u64,
    n_events: u16,
    /// The layout is exactly [`ROW_EVENTS`] in order — the canonical
    /// producer layout, whose counts are consumed without position
    /// indirection.
    identity: bool,
    pos: [u16; ROW_EVENTS.len()],
}

/// Memoised `layout_hash → column positions` mapping.
///
/// Fleets overwhelmingly run one PMU programming, so lookups check a
/// hot index first; the fallback is a linear scan (distinct layouts per
/// stream are few — re-registration of a known hash is free).
#[derive(Debug, Clone, Default)]
pub struct LayoutTable {
    entries: Vec<LayoutEntry>,
    hot: usize,
}

impl LayoutTable {
    fn lookup(&mut self, hash: u64) -> Option<&LayoutEntry> {
        if let Some(e) = self.entries.get(self.hot) {
            if e.hash == hash {
                return self.entries.get(self.hot);
            }
        }
        let i = self.entries.iter().position(|e| e.hash == hash)?;
        self.hot = i;
        self.entries.get(i)
    }

    fn register(&mut self, entry: LayoutEntry) {
        if let Some(i) = self.entries.iter().position(|e| e.hash == entry.hash) {
            self.entries[i] = entry;
            self.hot = i;
        } else {
            self.hot = self.entries.len();
            self.entries.push(entry);
        }
    }

    /// Registered layouts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no layout has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Highest machine id the identity-directory memo will track. Ids at or
/// past the cap simply skip memoisation (every frame takes the full
/// validation path), so the cap bounds decoder memory without bounding
/// the fleet.
const MAX_DIR_MEMO: usize = 4096;

/// One machine's memoised planar frame shape: the header geometry and
/// width-directory bytes of its last **checksum-verified** planar
/// frame, plus the layout entry that frame resolved to.
///
/// Steady-state planar streams repeat the same `(layout, cpu_count,
/// width directory)` window after window — counter magnitudes drift
/// slowly, so minimal widths rarely change — and when the next frame's
/// header fields and directory bytes are byte-identical to a frame
/// already validated, re-running the layout lookup, the geometry
/// check, and the directory validation could only repeat their earlier
/// verdict. The memo skips them; every per-plane bounds check and the
/// full payload checksum still run per frame.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Value of [`FrameDecoder::layout_epoch`] when memoised; any
    /// layout (re-)registration bumps the epoch and strands every memo,
    /// so a remapped `layout_hash` can never be consumed through a
    /// stale entry.
    epoch: u64,
    layout_hash: u64,
    payload_len: u32,
    n_events: u16,
    cpus: u16,
    /// The frame's width-directory bytes (first `n_events` meaningful).
    dir: [u8; MAX_WIRE_EVENTS],
    /// The resolved layout of the memoised frame.
    entry: LayoutEntry,
}

/// Streaming frame decoder; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    layouts: LayoutTable,
    /// Bumped on every layout registration; see [`DirEntry::epoch`].
    layout_epoch: u64,
    /// Per-machine identity-directory memo, indexed by machine id
    /// (grown lazily, capped at [`MAX_DIR_MEMO`]).
    dir_memo: Vec<Option<DirEntry>>,
    /// Scratch for a layout frame's event indices.
    layout_indices: Vec<u64>,
    /// A planar frame's decoded f64 event lanes, event-major
    /// (`lanes[e · cpus + c]`), ready for the column fold.
    lanes: Vec<f64>,
}

impl FrameDecoder {
    /// A decoder with no layouts registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// The layouts registered so far.
    pub fn layouts(&self) -> &LayoutTable {
        &self.layouts
    }

    /// Decodes one frame given its parsed header and payload slice
    /// (both still borrowed from the input buffer — nothing is copied
    /// out except the reconstructed counts).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Checksum`] on any corruption (the checksum covers
    /// every header field and payload bit), [`DecodeError::Malformed`]
    /// on a structurally invalid frame that nonetheless checksums
    /// (encoder bug), [`DecodeError::UnknownLayout`] for a sample frame
    /// whose layout was never declared.
    pub fn decode_frame(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<Decoded, DecodeError> {
        match header.frame_type {
            FrameType::Layout => {
                if !header.verify(payload) {
                    return Err(DecodeError::Checksum);
                }
                if header.n_events as usize > MAX_WIRE_EVENTS {
                    return Err(DecodeError::Malformed);
                }
                self.decode_layout(header, payload)
            }
            // Sample frames fuse verification into the payload walk
            // (the hot path — see `decode_sample_pending`); the
            // checksum verdict still takes precedence over every
            // structural one, exactly as the layout arm orders them.
            FrameType::PlanarSample => {
                let pending = self.decode_sample_pending(header, payload)?;
                Ok(Decoded::Row {
                    machine_id: pending.machine_id,
                    window_seq: pending.window_seq,
                    row: self.fold_row(&pending),
                })
            }
        }
    }

    fn decode_layout(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<Decoded, DecodeError> {
        // Layout frames have no CPUs; their header's `cpu_count` field
        // carries the machine's negotiated sampling decimation instead
        // (0 = legacy every-window). An absurd value is an encoder bug
        // or corruption that slipped the checksum — reject it.
        if header.cpu_count > MAX_DECIMATION {
            return Err(DecodeError::Malformed);
        }
        let decimation = header.cpu_count.max(1);
        // Re-declaration of an already-registered hash: the checksum
        // proved this frame intact, and the hash → positions binding
        // was payload-verified when first registered, so re-parsing
        // would recompute the identical entry. Skipping it makes
        // producers that re-announce layouts (e.g. at stream joins)
        // nearly free — which matters, because a decimation change is
        // announced by re-sending the (already known) layout frame.
        if let Some(e) = self.layouts.lookup(header.layout_hash) {
            if e.n_events == header.n_events {
                return Ok(Decoded::Layout { decimation });
            }
        }
        let n = header.n_events as usize;
        self.layout_indices.clear();
        let mut pos = 0usize;
        for _ in 0..n {
            self.layout_indices
                .push(read_uvarint(payload, &mut pos).ok_or(DecodeError::Malformed)?);
        }
        if pos != payload.len() {
            return Err(DecodeError::Malformed);
        }
        // The payload must hash to what the header claims — otherwise
        // sample frames keyed on that hash would silently bind to the
        // wrong column mapping.
        if layout_hash_indices(self.layout_indices.iter().copied()) != header.layout_hash {
            return Err(DecodeError::Malformed);
        }
        let mut entry = LayoutEntry {
            hash: header.layout_hash,
            n_events: header.n_events,
            identity: false,
            pos: [u16::MAX; ROW_EVENTS.len()],
        };
        for (k, e) in ROW_EVENTS.iter().enumerate() {
            // First occurrence wins, matching the in-memory rescan rule.
            entry.pos[k] = self
                .layout_indices
                .iter()
                .position(|&i| i == e.index() as u64)
                .map_or(u16::MAX, |i| i as u16);
        }
        entry.identity = entry.n_events as usize == ROW_EVENTS.len()
            && entry.pos.iter().enumerate().all(|(k, &p)| p as usize == k);
        self.layouts.register(entry);
        // A registration can remap an existing hash, so every
        // identity-directory memo taken under the old table is stale:
        // bumping the epoch strands them all (each machine revalidates
        // once and re-memoises). The short-circuit return above keeps
        // no-op re-announcements from paying this.
        self.layout_epoch += 1;
        Ok(Decoded::Layout { decimation })
    }

    /// Drops the identity-directory memo for one machine — the hook for
    /// stream-level eviction (a machine leaving the fleet, or an
    /// operator reset); its next planar frame revalidates from scratch.
    pub fn evict_dir_memo(&mut self, machine_id: u64) {
        if let Some(slot) = self.dir_memo.get_mut(machine_id as usize) {
            *slot = None;
        }
    }

    /// Decodes a sample frame up to (but not including) the row
    /// reduction: checksum verification fused into the planar walk,
    /// delta chain unfolded into the decoder's lane buffer. The caller
    /// folds the lanes with [`fold_row`](Self::fold_row) (the per-row
    /// path behind [`decode_frame`](Self::decode_frame)) or
    /// [`fold_into`](Self::fold_into) (fused ingest, straight into the
    /// batch's columns) — the fold must happen before the next
    /// decode reuses the buffer.
    ///
    /// Error precedence is identical to the historical two-pass decode:
    /// the checksum is *always* computed over the full payload (the
    /// walk absorbs what it reads, [`PayloadChecksum::finish`] the
    /// rest) and checked first, so a corrupt frame reports
    /// [`DecodeError::Checksum`] no matter how it is corrupt, and only
    /// a frame that checksums can report a structural error.
    pub(crate) fn decode_sample_pending(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<PendingSample, DecodeError> {
        let mut ck = PayloadChecksum::new(header);
        let scanned = self.scan_planar(header, payload, &mut ck);
        if header.checksum != ck.finish(payload) {
            return Err(DecodeError::Checksum);
        }
        let (entry, memo_hit) = scanned?;
        if !memo_hit {
            // Memoise only now — after the structural walk accepted the
            // frame *and* the checksum proved it intact — so a corrupt
            // or malformed frame can never seed the fast path.
            self.store_dir_memo(header, payload, entry);
        }
        Ok(PendingSample {
            machine_id: header.machine_id,
            window_seq: header.window_seq,
            entry,
            cpus: header.cpu_count as usize,
        })
    }

    /// The structural half of a sample decode: layout lookup, geometry
    /// checks, and the single-pass decode into the f64 lane buffer
    /// (event-major — see [`crate::planar`]). Whatever this returns,
    /// the caller finishes the checksum and gives its verdict
    /// precedence. The returned flag reports whether the
    /// identity-directory memo supplied the layout (`true` = hit,
    /// nothing to memoise).
    fn scan_planar(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
        ck: &mut PayloadChecksum,
    ) -> Result<(LayoutEntry, bool), DecodeError> {
        let (entry, memo_hit) = match self.lookup_dir_memo(header, payload) {
            Some(entry) => (entry, true),
            None => {
                if header.n_events as usize > MAX_WIRE_EVENTS {
                    return Err(DecodeError::Malformed);
                }
                let entry = *self
                    .layouts
                    .lookup(header.layout_hash)
                    .ok_or(DecodeError::UnknownLayout)?;
                if entry.n_events != header.n_events {
                    return Err(DecodeError::Malformed);
                }
                (entry, false)
            }
        };
        crate::planar::decode_planes(
            payload,
            header.n_events as usize,
            header.cpu_count as usize,
            memo_hit,
            &mut self.lanes,
            ck,
        )
        .ok_or(DecodeError::Malformed)?;
        Ok((entry, memo_hit))
    }

    /// The identity-directory fast path: returns the memoised layout
    /// entry iff this frame's geometry fields and width-directory bytes
    /// are byte-identical to the machine's last checksum-verified
    /// planar frame *and* no layout registration intervened. Directory
    /// validation and the price floor are pure functions of exactly
    /// those inputs, so a hit licenses `decode_planes` to skip them
    /// (`dir_valid`); the per-plane bounds checks and the full payload
    /// checksum still run.
    #[inline]
    fn lookup_dir_memo(&self, header: &FrameHeader, payload: &[u8]) -> Option<LayoutEntry> {
        let m = self.dir_memo.get(header.machine_id as usize)?.as_ref()?;
        let n = m.n_events as usize;
        (m.epoch == self.layout_epoch
            && m.layout_hash == header.layout_hash
            && m.payload_len == header.payload_len
            && m.n_events == header.n_events
            && m.cpus == header.cpu_count
            && payload.get(..n) == Some(&m.dir[..n]))
        .then_some(m.entry)
    }

    /// Memoises a just-verified planar frame's shape for
    /// [`lookup_dir_memo`](Self::lookup_dir_memo). Machine ids past
    /// [`MAX_DIR_MEMO`] are not tracked; the slab grows lazily to the
    /// highest tracked id.
    fn store_dir_memo(&mut self, header: &FrameHeader, payload: &[u8], entry: LayoutEntry) {
        let id = header.machine_id as usize;
        let n = header.n_events as usize;
        if id >= MAX_DIR_MEMO || payload.len() < n {
            return;
        }
        if self.dir_memo.len() <= id {
            self.dir_memo.resize(id + 1, None);
        }
        let mut dir = [0u8; MAX_WIRE_EVENTS];
        dir[..n].copy_from_slice(&payload[..n]);
        self.dir_memo[id] = Some(DirEntry {
            epoch: self.layout_epoch,
            layout_hash: header.layout_hash,
            payload_len: header.payload_len,
            n_events: header.n_events,
            cpus: header.cpu_count,
            dir,
            entry,
        });
    }

    /// Reduces a pending sample's decoded lanes to one fleet row
    /// through [`fold_event_lanes`] — the arithmetic
    /// `SampleBatch::push_sample_set` applies to in-memory samples
    /// (widening and missing-event mapping bit-identical to its
    /// `Option<u64>` path — see its docs).
    pub(crate) fn fold_row(&self, p: &PendingSample) -> [f64; COLUMNS] {
        fold_event_lanes(
            Dispatch::active(),
            &self.lanes,
            p.cpus,
            &p.entry.pos,
            p.entry.identity,
        )
    }

    /// [`fold_row`](Self::fold_row) writing straight into a batch's
    /// column slices at `idx` — the serial fused path, which skips the
    /// intermediate row copy through `set_row`.
    pub(crate) fn fold_into(
        &self,
        p: &PendingSample,
        cols: &mut [&mut [f64]; COLUMNS],
        idx: usize,
    ) {
        for (c, v) in cols.iter_mut().zip(self.fold_row(p)) {
            c[idx] = v;
        }
    }
}

/// A sample frame that decoded cleanly (checksummed, delta-unfolded in
/// the decoder's lane buffer) but has not yet been reduced to a fleet row —
/// the handle [`FrameDecoder::fold_row`] / [`FrameDecoder::fold_into`]
/// consume. Valid only until the decoder's next sample decode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingSample {
    /// Which machine the frame describes.
    pub machine_id: u64,
    /// The window sequence number from the frame header.
    pub window_seq: u64,
    entry: LayoutEntry,
    cpus: usize,
}

/// One framing step over a raw byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorItem {
    /// A well-framed frame (header parsed; checksum **not** yet
    /// verified — that happens when the payload is decoded).
    Frame {
        /// Byte offset of the frame's header in the stream.
        start: usize,
        /// The parsed header.
        header: FrameHeader,
    },
    /// Bytes skipped while hunting for the next frame boundary after a
    /// framing failure (bad magic/version/type, or a length that
    /// overruns the buffer).
    Resync {
        /// How many bytes were discarded.
        skipped: usize,
    },
}

/// Splits a byte stream into frames, resynchronising on the magic
/// number after corruption. Framing depends on the bytes alone, so
/// every walk over the same buffer agrees on frame boundaries even
/// around corrupt regions.
#[derive(Debug, Clone)]
pub struct FrameCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The payload slice of a frame yielded by this cursor.
    pub fn payload(&self, start: usize, header: &FrameHeader) -> &'a [u8] {
        let p = start + HEADER_LEN;
        &self.buf[p..p + header.payload_len as usize]
    }

    /// Scans forward from `from` to the next possible magic, returning
    /// the new position (end of buffer if none).
    fn next_magic(&self, from: usize) -> usize {
        let magic = MAGIC.to_le_bytes();
        let mut i = from;
        while i + 1 < self.buf.len() {
            if self.buf[i] == magic[0] && self.buf[i + 1] == magic[1] {
                return i;
            }
            i += 1;
        }
        self.buf.len()
    }
}

impl Iterator for FrameCursor<'_> {
    type Item = CursorItem;

    fn next(&mut self) -> Option<CursorItem> {
        let remaining = self.buf.len() - self.pos;
        if remaining == 0 {
            return None;
        }
        let start = self.pos;
        match FrameHeader::parse(&self.buf[start..]) {
            Ok(h) => {
                let total = HEADER_LEN + h.payload_len as usize;
                if total <= remaining {
                    self.pos = start + total;
                    return Some(CursorItem::Frame { start, header: h });
                }
                // Length overruns the buffer: either truncation or a
                // corrupt length field. Hunt for the next boundary.
                self.pos = self.next_magic(start + 2);
                Some(CursorItem::Resync {
                    skipped: self.pos - start,
                })
            }
            Err(HeaderError::Truncated) => {
                self.pos = self.buf.len();
                Some(CursorItem::Resync { skipped: remaining })
            }
            Err(_) => {
                self.pos = self.next_magic(start + 2);
                Some(CursorItem::Resync {
                    skipped: self.pos - start,
                })
            }
        }
    }
}
