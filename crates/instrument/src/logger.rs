//! The branch-log runtime: one bit per instrumented branch execution.
//!
//! Reproduces §4 of the paper: "The instrumentation simply uses a bit per
//! branch in a large buffer, and flushes the buffer to disk when it is
//! full. We use a buffer of 4KB." No online compression; no per-branch
//! program locations (the id sequence is implied by the instrumented-
//! branch list plus the execution path).
//!
//! Two log formats exist (see [`crate::plan::LogFormat`]):
//!
//! - **flat** ([`BitLog`] → [`BranchTrace`]): the paper's single
//!   bitvector, bits in global execution order;
//! - **per-location cursors** ([`CursorLog`] → [`CursorTrace`]): one bit
//!   stream per static branch location, each consumed by its own cursor.
//!   Spending [`CURSOR_STEP_COST`] extra instructions per logged
//!   execution buys alignment robustness: one wrong unlogged loop exit
//!   can no longer shift which branch instance consumes which bit across
//!   the whole log — a misaligned candidate now diverges *locally*, at
//!   the first wrong bit of the affected location's own stream.
//!
//! [`TraceLog`] is the shipped artifact covering both formats; replay
//! reads it through its own indexed reader.

use minic::cost::{BRANCH_LOG_COST, CURSOR_STEP_COST, LOG_BUFFER_BYTES, LOG_FLUSH_COST};
use serde::{Deserialize, Serialize};

/// An append-only bit log with buffered flushing (4 KiB by default).
#[derive(Debug, Clone)]
pub struct BitLog {
    bits: Vec<u8>,
    n_bits: u64,
    buffered_bits: usize,
    flushes: u64,
    buffer_bytes: usize,
}

impl Default for BitLog {
    fn default() -> Self {
        Self::with_buffer_size(LOG_BUFFER_BYTES)
    }
}

impl BitLog {
    /// Creates an empty log with the paper's 4 KiB buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a log with a custom flush-buffer size (the buffer-size
    /// ablation; the paper chose 4 KiB "in order to avoid writing to
    /// disk too often").
    pub fn with_buffer_size(buffer_bytes: usize) -> Self {
        BitLog {
            bits: Vec::new(),
            n_bits: 0,
            buffered_bits: 0,
            flushes: 0,
            buffer_bytes: buffer_bytes.max(1),
        }
    }

    /// Appends one branch direction, returning the cost units charged
    /// (17 per bit, plus the flush amortization when the buffer fills).
    pub fn push(&mut self, taken: bool) -> u64 {
        let byte = (self.n_bits / 8) as usize;
        if byte == self.bits.len() {
            self.bits.push(0);
        }
        if taken {
            self.bits[byte] |= 1 << (self.n_bits % 8);
        }
        self.n_bits += 1;
        self.buffered_bits += 1;
        let mut cost = BRANCH_LOG_COST;
        if self.buffered_bits >= self.buffer_bytes.saturating_mul(8) {
            self.buffered_bits = 0;
            self.flushes += 1;
            cost += LOG_FLUSH_COST;
        }
        cost
    }

    /// Number of bits recorded.
    pub fn len(&self) -> u64 {
        self.n_bits
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Bytes of storage used (the Figure 4b metric).
    pub fn bytes(&self) -> u64 {
        self.n_bits.div_ceil(8)
    }

    /// Buffer flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Finalizes into an immutable, shippable trace.
    pub fn finish(self) -> BranchTrace {
        BranchTrace {
            bits: self.bits,
            n_bits: self.n_bits,
        }
    }
}

/// The shipped branch trace: the bitvector of §3.1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct BranchTrace {
    bits: Vec<u8>,
    n_bits: u64,
}

impl BranchTrace {
    /// An empty trace.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a trace from plain directions (test support).
    pub fn from_bools(dirs: &[bool]) -> Self {
        let mut log = BitLog::new();
        for d in dirs {
            log.push(*d);
        }
        log.finish()
    }

    /// Number of recorded bits.
    pub fn len(&self) -> u64 {
        self.n_bits
    }

    /// True if the trace has no bits.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Size in bytes (what gets transferred to the developer).
    pub fn bytes(&self) -> u64 {
        self.n_bits.div_ceil(8)
    }

    /// The direction of bit `i`, if in range.
    pub fn get(&self, i: u64) -> Option<bool> {
        if i >= self.n_bits {
            return None;
        }
        let byte = (i / 8) as usize;
        Some(self.bits[byte] & (1 << (i % 8)) != 0)
    }

    /// The raw backing bytes (for compression experiments).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Rebuilds a trace from raw backing bytes (the wire decoder).
    /// Returns `None` when the byte count cannot hold `n_bits`.
    pub fn from_raw(bits: Vec<u8>, n_bits: u64) -> Option<Self> {
        if (bits.len() as u64) < n_bits.div_ceil(8) {
            return None;
        }
        Some(BranchTrace { bits, n_bits })
    }

    /// A cursor for sequential replay consumption.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            pos: 0,
        }
    }

    /// Truncates to the first `n` bits (failure-injection tests).
    pub fn truncated(&self, n: u64) -> BranchTrace {
        let n = n.min(self.n_bits);
        let mut out = BitLog::new();
        for i in 0..n {
            out.push(self.get(i).expect("index in range"));
        }
        out.finish()
    }

    /// Flips bit `i` (corruption-injection tests).
    pub fn corrupted(&self, i: u64) -> BranchTrace {
        let mut c = self.clone();
        if i < c.n_bits {
            let byte = (i / 8) as usize;
            c.bits[byte] ^= 1 << (i % 8);
        }
        c
    }
}

/// Sequential reader over a [`BranchTrace`].
#[derive(Debug, Clone)]
pub struct TraceCursor<'t> {
    trace: &'t BranchTrace,
    pos: u64,
}

impl<'t> TraceCursor<'t> {
    /// Takes the next recorded direction, if any remain.
    pub fn next_bit(&mut self) -> Option<bool> {
        let b = self.trace.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Bits consumed so far.
    pub fn consumed(&self) -> u64 {
        self.pos
    }

    /// True when every recorded bit has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.trace.len()
    }

    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.trace.len() - self.pos
    }
}

/// An append-only log holding one bit stream per branch location (the
/// per-location-cursor log format).
///
/// Flush accounting is shared across streams — the runtime still owns a
/// single 4 KiB buffer, it just tags buffered bits with their location —
/// so the flush cadence matches the flat format for the same bit volume.
/// Each push charges [`BRANCH_LOG_COST`] plus [`CURSOR_STEP_COST`] for
/// the cursor-table indirection; the extra units are accumulated in
/// [`spend_units`](CursorLog::spend_units) so the instrumentation-spend
/// columns of the tables stay honest about what the format costs.
#[derive(Debug, Clone)]
pub struct CursorLog {
    /// Stream of each location, indexed by location id; `None` until the
    /// location records its first bit.
    streams: Vec<Option<BitLog>>,
    /// Locations whose stream exists.
    n_streams: usize,
    n_bits: u64,
    buffered_bits: usize,
    flushes: u64,
    buffer_bytes: usize,
    spend_units: u64,
}

impl Default for CursorLog {
    fn default() -> Self {
        Self::with_buffer_size(LOG_BUFFER_BYTES)
    }
}

impl CursorLog {
    /// Creates an empty cursor log with the paper's 4 KiB buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cursor log with a custom flush-buffer size.
    pub fn with_buffer_size(buffer_bytes: usize) -> Self {
        CursorLog {
            streams: Vec::new(),
            n_streams: 0,
            n_bits: 0,
            buffered_bits: 0,
            flushes: 0,
            buffer_bytes: buffer_bytes.max(1),
            spend_units: 0,
        }
    }

    /// Appends one direction to location `loc`'s stream, returning the
    /// cost units charged (flat per-bit cost + cursor indirection, plus
    /// the flush amortization when the shared buffer fills).
    pub fn push(&mut self, loc: u32, taken: bool) -> u64 {
        let i = loc as usize;
        if i >= self.streams.len() {
            self.streams.resize_with(i + 1, || None);
        }
        let stream = self.streams[i].get_or_insert_with(|| {
            self.n_streams += 1;
            // Per-stream BitLogs never flush on their own: the shared
            // buffer below owns the flush cadence.
            BitLog::with_buffer_size(usize::MAX)
        });
        let _ = stream.push(taken);
        self.n_bits += 1;
        self.buffered_bits += 1;
        self.spend_units += CURSOR_STEP_COST;
        let mut cost = BRANCH_LOG_COST + CURSOR_STEP_COST;
        if self.buffered_bits >= self.buffer_bytes.saturating_mul(8) {
            self.buffered_bits = 0;
            self.flushes += 1;
            cost += LOG_FLUSH_COST;
        }
        cost
    }

    /// Total bits recorded across all streams.
    pub fn len(&self) -> u64 {
        self.n_bits
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Buffer flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Branch locations with at least one recorded bit.
    pub fn n_locations(&self) -> usize {
        self.n_streams
    }

    /// Extra instrumentation units spent on cursor maintenance (the
    /// spend counter: what this format costs over flat).
    pub fn spend_units(&self) -> u64 {
        self.spend_units
    }

    /// Every stream's current length, sorted by location — the snapshot
    /// a checkpointing plan records at each logged syscall boundary
    /// (the syscall-anchored cursor checkpoint escalation rule).
    pub fn positions(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::with_capacity(self.n_streams);
        for (loc, s) in self.streams.iter().enumerate() {
            if let Some(s) = s {
                out.push((loc as u32, s.len()));
            }
        }
        out
    }

    /// Finalizes into an immutable, shippable cursor trace.
    pub fn finish(self) -> CursorTrace {
        // Exact capacity: a fleet holds tens of thousands of finished
        // traces, so none may keep the dense table's allocation.
        let mut streams = Vec::with_capacity(self.n_streams);
        for (loc, log) in self.streams.into_iter().enumerate() {
            if let Some(log) = log {
                streams.push(LocStream {
                    loc: loc as u32,
                    bits: log.finish(),
                });
            }
        }
        CursorTrace { streams }
    }
}

/// One location's shipped bit stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocStream {
    /// The static branch location id.
    pub loc: u32,
    /// Its recorded directions, in that location's execution order.
    pub bits: BranchTrace,
}

/// The shipped per-location trace: a cursor table keyed by static branch
/// id, with a compact on-wire encoding ([`CursorTrace::encode`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CursorTrace {
    /// Streams sorted by location id.
    streams: Vec<LocStream>,
}

impl CursorTrace {
    /// An empty trace.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a trace from (location, directions) pairs (test support).
    /// Pairs are sorted by location; duplicate locations are rejected.
    pub fn from_streams(pairs: &[(u32, &[bool])]) -> Self {
        let mut streams: Vec<LocStream> = pairs
            .iter()
            .map(|(loc, dirs)| LocStream {
                loc: *loc,
                bits: BranchTrace::from_bools(dirs),
            })
            .collect();
        streams.sort_by_key(|s| s.loc);
        assert!(
            streams.windows(2).all(|w| w[0].loc < w[1].loc),
            "duplicate location stream"
        );
        CursorTrace { streams }
    }

    /// The stream of one location, if it recorded anything.
    ///
    /// Relies on the sorted-unique invariant; call
    /// [`normalize`](CursorTrace::normalize) first on traces from
    /// untrusted sources (the derived `Deserialize` cannot enforce it).
    pub fn stream(&self, loc: u32) -> Option<&BranchTrace> {
        self.streams
            .binary_search_by_key(&loc, |s| s.loc)
            .ok()
            .map(|i| &self.streams[i].bits)
    }

    /// Re-establishes the sorted-unique-location invariant that
    /// [`stream`](CursorTrace::stream) and [`encode`](CursorTrace::encode)
    /// rely on. Construction paths (`CursorLog::finish`, `from_streams`,
    /// `decode`) uphold it already; a report deserialized from external
    /// JSON may not — the derived `Deserialize` has no validation hook,
    /// so consumers normalize at the trust boundary. Duplicate locations
    /// keep their first stream. No-op (no allocation) when already valid.
    pub fn normalize(&mut self) {
        if self.streams.windows(2).all(|w| w[0].loc < w[1].loc) {
            return;
        }
        self.streams.sort_by_key(|s| s.loc);
        self.streams.dedup_by_key(|s| s.loc);
    }

    /// All streams, sorted by location id.
    pub fn streams(&self) -> &[LocStream] {
        &self.streams
    }

    /// Total bits across all streams.
    pub fn len(&self) -> u64 {
        self.streams.iter().map(|s| s.bits.len()).sum()
    }

    /// True when no stream recorded anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locations with at least one recorded bit.
    pub fn n_locations(&self) -> usize {
        self.streams.len()
    }

    /// Compact on-wire encoding: varint stream count, then per stream a
    /// varint location-id delta, a varint bit count, and the packed bit
    /// bytes. Location ids are strictly increasing, so deltas stay small.
    pub fn encode(&self) -> Vec<u8> {
        // The delta encoding needs the sorted-unique invariant; encode
        // through a normalized copy if a deserialized trace lacks it
        // (otherwise the id delta underflows).
        if !self.streams.windows(2).all(|w| w[0].loc < w[1].loc) {
            let mut c = self.clone();
            c.normalize();
            return c.encode();
        }
        let mut out = Vec::new();
        push_varint(&mut out, self.streams.len() as u64);
        let mut prev = 0u64;
        for s in &self.streams {
            push_varint(&mut out, u64::from(s.loc) - prev);
            prev = u64::from(s.loc);
            push_varint(&mut out, s.bits.len());
            out.extend_from_slice(&s.bits.raw_bytes()[..s.bits.len().div_ceil(8) as usize]);
        }
        out
    }

    /// Decodes [`encode`](CursorTrace::encode)'s output. Returns `None`
    /// on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let n = read_varint(bytes, &mut pos)?;
        let mut streams = Vec::with_capacity(n.min(1024) as usize);
        let mut prev = 0u64;
        for i in 0..n {
            let delta = read_varint(bytes, &mut pos)?;
            // The first stream's id is an absolute value; later deltas
            // must advance (ids are strictly increasing).
            if i > 0 && delta == 0 {
                return None;
            }
            let loc = prev
                .checked_add(delta)
                .filter(|l| *l <= u64::from(u32::MAX))?;
            prev = loc;
            let n_bits = read_varint(bytes, &mut pos)?;
            let n_bytes = n_bits.div_ceil(8) as usize;
            let raw = bytes.get(pos..pos + n_bytes)?.to_vec();
            pos += n_bytes;
            streams.push(LocStream {
                loc: loc as u32,
                bits: BranchTrace::from_raw(raw, n_bits)?,
            });
        }
        if pos != bytes.len() {
            return None;
        }
        Some(CursorTrace { streams })
    }

    /// Wire size in bytes (what gets transferred to the developer).
    pub fn bytes(&self) -> u64 {
        self.encode().len() as u64
    }
}

/// Wire size of syscall-anchored checkpoint snapshots: per snapshot a
/// varint entry count, then per entry a varint location id and a varint
/// cursor position. Checkpoints ship as report metadata; this keeps the
/// transfer-size accounting honest about what the escalation rule costs.
pub fn checkpoints_wire_bytes(checkpoints: &[Vec<(u32, u64)>]) -> u64 {
    fn vlen(mut v: u64) -> u64 {
        let mut n = 1;
        while v >= 0x80 {
            v >>= 7;
            n += 1;
        }
        n
    }
    checkpoints
        .iter()
        .map(|s| {
            vlen(s.len() as u64)
                + s.iter()
                    .map(|(l, p)| vlen(u64::from(*l)) + vlen(*p))
                    .sum::<u64>()
        })
        .sum()
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        let payload = u64::from(b & 0x7f);
        // Ten groups of 7 overflow u64; the tenth group may only carry
        // the top bit. Rejecting (not truncating) overlong encodings
        // keeps corrupted wire input a decode failure, never a silently
        // wrong value.
        if shift >= 64 || (shift == 63 && payload > 1) {
            return None;
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// The shipped branch log in either format — the artifact a
/// [`crate::BugReport`] carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceLog {
    /// The paper's flat bitvector.
    Flat(BranchTrace),
    /// Per-branch-location bit streams.
    Cursors(CursorTrace),
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::Flat(BranchTrace::empty())
    }
}

impl TraceLog {
    /// Total recorded bits.
    pub fn len(&self) -> u64 {
        match self {
            TraceLog::Flat(t) => t.len(),
            TraceLog::Cursors(c) => c.len(),
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire size in bytes: the flat bitvector's packed bytes, or the
    /// cursor table's compact encoding.
    pub fn bytes(&self) -> u64 {
        match self {
            TraceLog::Flat(t) => t.bytes(),
            TraceLog::Cursors(c) => c.bytes(),
        }
    }

    /// The bytes that go on the wire (for compression experiments).
    pub fn wire_bytes(&self) -> Vec<u8> {
        match self {
            TraceLog::Flat(t) => t.raw_bytes().to_vec(),
            TraceLog::Cursors(c) => c.encode(),
        }
    }

    /// The flat bitvector, when this log is flat.
    pub fn as_flat(&self) -> Option<&BranchTrace> {
        match self {
            TraceLog::Flat(t) => Some(t),
            TraceLog::Cursors(_) => None,
        }
    }

    /// The cursor table, when this log is per-location.
    pub fn as_cursors(&self) -> Option<&CursorTrace> {
        match self {
            TraceLog::Flat(_) => None,
            TraceLog::Cursors(c) => Some(c),
        }
    }

    /// Re-establishes the cursor invariant after deserialization (see
    /// [`CursorTrace::normalize`]); no-op for flat logs.
    pub fn normalize(&mut self) {
        if let TraceLog::Cursors(c) = self {
            c.normalize();
        }
    }

    /// Truncates to the first `n` bits — failure-injection tests.
    ///
    /// Flat logs lose their *time-ordered* tail, faithfully modeling an
    /// unflushed buffer at crash time. Cursor logs carry no global time
    /// order, so truncation here is in concatenated stream order
    /// (ascending location id): a *structural*-loss injection, not a
    /// crash-truncation model. Note the semantic asymmetry downstream:
    /// a flat replay reads end-of-log as "recording stopped, explore
    /// freely", while a cursor replay treats one empty stream among
    /// non-empty ones as overrun evidence — so structurally truncated
    /// cursor logs can abort the true path by design. Modeling real
    /// buffer loss for cursors would need per-stream tail trimming
    /// proportional to recording time, which the trace alone cannot
    /// reconstruct.
    pub fn truncated(&self, n: u64) -> TraceLog {
        match self {
            TraceLog::Flat(t) => TraceLog::Flat(t.truncated(n)),
            TraceLog::Cursors(c) => {
                let mut left = n;
                let mut streams = Vec::new();
                for s in &c.streams {
                    if left == 0 {
                        break;
                    }
                    let take = left.min(s.bits.len());
                    streams.push(LocStream {
                        loc: s.loc,
                        bits: s.bits.truncated(take),
                    });
                    left -= take;
                }
                TraceLog::Cursors(CursorTrace { streams })
            }
        }
    }

    /// Flips bit `i` (concatenated stream order for cursors) —
    /// corruption-injection tests.
    pub fn corrupted(&self, i: u64) -> TraceLog {
        match self {
            TraceLog::Flat(t) => TraceLog::Flat(t.corrupted(i)),
            TraceLog::Cursors(c) => {
                let mut at = i;
                let mut out = c.clone();
                for s in &mut out.streams {
                    if at < s.bits.len() {
                        s.bits = s.bits.corrupted(at);
                        break;
                    }
                    at -= s.bits.len();
                }
                TraceLog::Cursors(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_bits() {
        let dirs = [true, false, true, true, false, false, true, false, true];
        let t = BranchTrace::from_bools(&dirs);
        assert_eq!(t.len(), dirs.len() as u64);
        for (i, d) in dirs.iter().enumerate() {
            assert_eq!(t.get(i as u64), Some(*d));
        }
        assert_eq!(t.get(dirs.len() as u64), None);
    }

    #[test]
    fn each_bit_costs_seventeen() {
        let mut log = BitLog::new();
        assert_eq!(log.push(true), BRANCH_LOG_COST);
        assert_eq!(log.push(false), BRANCH_LOG_COST);
    }

    #[test]
    fn flush_fires_every_buffer_of_bits() {
        let mut log = BitLog::new();
        let bits_per_buffer = (LOG_BUFFER_BYTES * 8) as u64;
        let mut total = 0u64;
        for _ in 0..bits_per_buffer * 2 {
            total += log.push(true);
        }
        assert_eq!(log.flushes(), 2);
        assert_eq!(
            total,
            bits_per_buffer * 2 * BRANCH_LOG_COST + 2 * LOG_FLUSH_COST
        );
    }

    #[test]
    fn bytes_round_up() {
        let t = BranchTrace::from_bools(&[true; 9]);
        assert_eq!(t.bytes(), 2);
    }

    #[test]
    fn cursor_consumes_in_order() {
        let t = BranchTrace::from_bools(&[true, false, true]);
        let mut c = t.cursor();
        assert_eq!(c.next_bit(), Some(true));
        assert_eq!(c.next_bit(), Some(false));
        assert!(!c.exhausted());
        assert_eq!(c.next_bit(), Some(true));
        assert!(c.exhausted());
        assert_eq!(c.next_bit(), None);
        assert_eq!(c.consumed(), 3);
    }

    #[test]
    fn truncation_and_corruption() {
        let t = BranchTrace::from_bools(&[true, true, true, true]);
        let short = t.truncated(2);
        assert_eq!(short.len(), 2);
        let bad = t.corrupted(1);
        assert_eq!(bad.get(1), Some(false));
        assert_eq!(bad.get(0), Some(true));
    }

    #[test]
    fn serde_roundtrip() {
        let t = BranchTrace::from_bools(&[true, false, false, true, true]);
        let json = serde_json::to_string(&t).unwrap();
        let u: BranchTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, u);
    }

    proptest! {
        #[test]
        fn trace_stores_arbitrary_sequences(dirs in proptest::collection::vec(any::<bool>(), 0..2000)) {
            let t = BranchTrace::from_bools(&dirs);
            prop_assert_eq!(t.len(), dirs.len() as u64);
            let mut c = t.cursor();
            for d in &dirs {
                prop_assert_eq!(c.next_bit(), Some(*d));
            }
            prop_assert!(c.exhausted());
        }
    }

    #[test]
    fn cursor_encoding_roundtrips_empty_stream() {
        let empty = CursorTrace::empty();
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        let wire = empty.encode();
        assert_eq!(wire, vec![0], "empty table is one varint zero");
        assert_eq!(CursorTrace::decode(&wire), Some(empty));
    }

    #[test]
    fn cursor_encoding_roundtrips_single_location() {
        let t = CursorTrace::from_streams(&[(7, &[true, false, true][..])]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.n_locations(), 1);
        let wire = t.encode();
        let back = CursorTrace::decode(&wire).expect("decodes");
        assert_eq!(back, t);
        assert_eq!(back.stream(7).unwrap().get(1), Some(false));
        assert_eq!(back.stream(8), None);
        assert_eq!(t.bytes(), wire.len() as u64);
    }

    #[test]
    fn cursor_encoding_roundtrips_multi_location_and_rejects_garbage() {
        let t = CursorTrace::from_streams(&[
            (0, &[true][..]),
            (3, &[false; 17][..]),
            (300, &[true, true][..]),
        ]);
        let wire = t.encode();
        assert_eq!(CursorTrace::decode(&wire), Some(t.clone()));
        // Truncated input must not decode.
        assert_eq!(CursorTrace::decode(&wire[..wire.len() - 1]), None);
        // Trailing junk must not decode.
        let mut long = wire.clone();
        long.push(0);
        assert_eq!(CursorTrace::decode(&long), None);
        // Serde round-trip (the report is a serializable artifact).
        let json = serde_json::to_string(&t).unwrap();
        let u: CursorTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, u);
    }

    #[test]
    fn decode_rejects_overlong_varints() {
        // Ten continuation groups overflow u64; a tenth group carrying
        // more than the top bit must be rejected, not truncated.
        let mut overlong = vec![0x80u8; 9];
        overlong.push(0x7e);
        let mut pos = 0;
        assert_eq!(read_varint(&overlong, &mut pos), None);
        // The maximal legal encoding (u64::MAX) still decodes.
        let mut max = Vec::new();
        push_varint(&mut max, u64::MAX);
        let mut pos = 0;
        assert_eq!(read_varint(&max, &mut pos), Some(u64::MAX));
        // And as a stream count it fails later (truncated input), not
        // with a wrong silent value.
        assert_eq!(CursorTrace::decode(&overlong), None);
    }

    #[test]
    fn normalize_repairs_deserialized_stream_order() {
        // The derived Deserialize cannot enforce the sorted-unique
        // invariant; a hand-crafted JSON report can violate it.
        let json = r#"{"streams":[
            {"loc":5,"bits":{"bits":[1],"n_bits":1}},
            {"loc":3,"bits":{"bits":[0],"n_bits":1}},
            {"loc":5,"bits":{"bits":[0],"n_bits":1}}]}"#;
        let mut t: CursorTrace = serde_json::from_str(json).unwrap();
        // encode() is already defensive (normalizes a copy): no panic,
        // and the output decodes.
        let wire = t.encode();
        assert!(CursorTrace::decode(&wire).is_some());
        t.normalize();
        assert_eq!(t.n_locations(), 2, "duplicate loc dropped");
        assert_eq!(t.stream(3).unwrap().get(0), Some(false));
        assert_eq!(t.stream(5).unwrap().get(0), Some(true), "first wins");
        assert_eq!(CursorTrace::decode(&t.encode()), Some(t));
    }

    #[test]
    fn cursor_log_splits_streams_and_charges_the_spend() {
        let mut log = CursorLog::new();
        let c0 = log.push(4, true);
        assert_eq!(c0, BRANCH_LOG_COST + CURSOR_STEP_COST);
        log.push(9, false);
        log.push(4, false);
        assert_eq!(log.len(), 3);
        assert_eq!(log.n_locations(), 2);
        assert_eq!(log.spend_units(), 3 * CURSOR_STEP_COST);
        let t = log.finish();
        assert_eq!(t.stream(4).unwrap().len(), 2);
        assert_eq!(t.stream(4).unwrap().get(0), Some(true));
        assert_eq!(t.stream(4).unwrap().get(1), Some(false));
        assert_eq!(t.stream(9).unwrap().get(0), Some(false));
    }

    #[test]
    fn cursor_log_flush_cadence_matches_flat_for_same_volume() {
        let mut cursor = CursorLog::new();
        let mut flat = BitLog::new();
        let bits = (LOG_BUFFER_BYTES * 8) as u64 * 2 + 5;
        for i in 0..bits {
            cursor.push((i % 3) as u32, i % 2 == 0);
            flat.push(i % 2 == 0);
        }
        assert_eq!(cursor.flushes(), flat.flushes());
    }

    #[test]
    fn trace_log_truncation_and_corruption_cover_cursors() {
        let t = TraceLog::Cursors(CursorTrace::from_streams(&[
            (1, &[true, true][..]),
            (5, &[true][..]),
        ]));
        let short = t.truncated(2);
        assert_eq!(short.len(), 2);
        let bad = t.corrupted(2);
        assert_eq!(
            bad.as_cursors().unwrap().stream(5).unwrap().get(0),
            Some(false)
        );
        assert_eq!(
            bad.as_cursors().unwrap().stream(1).unwrap().get(0),
            Some(true)
        );
    }

    proptest! {
        // Pushing one interleaved (location, direction) sequence through
        // both log formats must agree: the flat log replays the global
        // order, and each cursor stream replays exactly that location's
        // subsequence — read per location, the cursor format yields the
        // same directions the flat format yields globally.
        #[test]
        fn cursor_and_flat_formats_record_identically(
            seq in proptest::collection::vec((0u32..6, any::<bool>()), 0..600),
        ) {
            let mut flat = BitLog::new();
            let mut cursors = CursorLog::new();
            for (loc, taken) in &seq {
                flat.push(*taken);
                cursors.push(*loc, *taken);
            }
            let flat = TraceLog::Flat(flat.finish());
            let cursor = TraceLog::Cursors(cursors.finish());
            prop_assert_eq!(flat.len(), cursor.len());
            // Wire round-trip of the cursor form.
            let wire = cursor.as_cursors().unwrap().encode();
            prop_assert_eq!(
                CursorTrace::decode(&wire).as_ref(),
                cursor.as_cursors()
            );
            // Reading in the recorded execution order yields identical
            // directions from both formats.
            let flat_bits = flat.as_flat().unwrap();
            let streams = cursor.as_cursors().unwrap();
            let mut per_loc = [0u64; 6];
            for (i, (loc, taken)) in seq.iter().enumerate() {
                prop_assert_eq!(flat_bits.get(i as u64), Some(*taken));
                let k = &mut per_loc[*loc as usize];
                prop_assert_eq!(streams.stream(*loc).unwrap().get(*k), Some(*taken));
                *k += 1;
            }
            for (loc, n) in per_loc.iter().enumerate() {
                let len = streams.stream(loc as u32).map_or(0, |s| s.len());
                prop_assert_eq!(len, *n);
            }
        }
    }
}
