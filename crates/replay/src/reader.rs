//! The replay-side reader of a shipped branch log.
//!
//! Replay reads the next recorded bit at every instrumented branch it
//! executes, over hundreds of runs of one report. [`LogIndex`] indexes
//! the log once per reproduction into one stream table — the flat log is
//! stream 0, a per-location log has the stream of every program branch
//! location — plus the total bit count. Each run reads through its own
//! [`LogReader`], one position per stream: a read is an array access,
//! and exhaustion compares two counters.
//!
//! A report is untrusted input, so every table here is sized by the
//! program's branch count, never by a location id the report names. A
//! stream at a location the program lacks is never read, but it still
//! counts toward the total, so a log carrying one is never exhausted.

use instrument::{BranchTrace, TraceLog};
use std::collections::BTreeSet;

/// A shipped branch log indexed for reading, built once per
/// reproduction and shared by every run.
#[derive(Debug)]
pub struct LogIndex<'t> {
    /// The streams by stream id: `[flat]`, or one per program branch
    /// location.
    streams: Vec<Option<&'t BranchTrace>>,
    /// True for the per-location format (stream id = location id).
    per_location: bool,
    /// Every shipped bit, readable or not.
    total: u64,
    /// The program's branch count: the size of the read-location set.
    n_locations: usize,
}

impl<'t> LogIndex<'t> {
    /// Indexes `trace` for a program with `n_locations` branch locations.
    /// A per-location `trace` must be normalized
    /// ([`TraceLog::normalize`]): one stream per location.
    pub fn new(trace: &'t TraceLog, n_locations: usize) -> Self {
        let streams = match trace {
            TraceLog::Flat(t) => vec![Some(t)],
            TraceLog::Cursors(c) => {
                let mut by_loc = vec![None; n_locations];
                for s in c.streams() {
                    if let Some(slot) = by_loc.get_mut(s.loc as usize) {
                        *slot = Some(&s.bits);
                    }
                }
                by_loc
            }
        };
        LogIndex {
            streams,
            per_location: matches!(trace, TraceLog::Cursors(_)),
            total: trace.len(),
            n_locations,
        }
    }

    /// A reader at the start of the log, for one run.
    pub fn reader(&self) -> LogReader<'_> {
        LogReader {
            index: self,
            pos: vec![0; self.streams.len()],
            consumed: 0,
            read: vec![0; self.n_locations.div_ceil(64)],
        }
    }

    /// The stream branch location `loc` reads from.
    fn stream_of(&self, loc: u32) -> usize {
        if self.per_location {
            loc as usize
        } else {
            0
        }
    }
}

/// One run's read positions over a [`LogIndex`]: one position per
/// stream.
#[derive(Debug)]
pub struct LogReader<'i> {
    index: &'i LogIndex<'i>,
    /// Each stream's position.
    pos: Vec<u64>,
    /// Bits read so far.
    consumed: u64,
    /// Bitset of locations read from: each location that consumed a
    /// bit, plus, in the per-location format, each location whose
    /// stream is empty and was asked for one.
    read: Vec<u64>,
}

impl LogReader<'_> {
    /// Consumes the next recorded direction for branch location `loc`.
    /// `None` means the relevant stream is exhausted (recording stopped
    /// at the crash), or the per-location log has no stream for `loc`.
    pub fn next_bit(&mut self, loc: u32) -> Option<bool> {
        let i = loc as usize;
        let s = self.index.stream_of(loc);
        let trace = self.index.streams.get(s).copied().flatten()?;
        let p = &mut self.pos[s];
        let Some(b) = trace.get(*p) else {
            if self.index.per_location && *p == 0 {
                // An empty stream still shows in `positions`.
                self.mark(i);
            }
            return None;
        };
        *p += 1;
        self.consumed += 1;
        self.mark(i);
        Some(b)
    }

    fn mark(&mut self, i: usize) {
        if let Some(w) = self.read.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    /// The read-from locations, ascending.
    fn read_locations(&self) -> impl Iterator<Item = usize> + '_ {
        self.read.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }

    /// True for the per-location log format.
    pub fn per_location(&self) -> bool {
        self.index.per_location
    }

    /// Total bits consumed (across all streams).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// True once every shipped bit has been consumed.
    pub fn exhausted(&self) -> bool {
        self.consumed >= self.index.total
    }

    /// The cursor position of one location (0 if never consumed). For a
    /// flat log this is the global position regardless of `loc`.
    pub fn position(&self, loc: u32) -> u64 {
        self.pos
            .get(self.index.stream_of(loc))
            .copied()
            .unwrap_or(0)
    }

    /// The position of every location this run asked its stream for a
    /// bit, sorted by location (empty for a flat log — use
    /// [`consumed`](LogReader::consumed) there).
    pub fn positions(&self) -> Vec<(u32, u64)> {
        if !self.per_location() {
            return Vec::new();
        }
        self.read_locations()
            .map(|i| (i as u32, self.pos[i]))
            .collect()
    }

    /// Branch locations whose shipped bits this run consumed.
    pub fn consulted(&self) -> BTreeSet<u32> {
        self.read_locations()
            .filter(|&i| !self.per_location() || self.pos[i] > 0)
            .map(|i| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrument::{BranchLog, CursorTrace, LogFormat};
    use proptest::prelude::*;

    #[test]
    fn trace_log_consumes_per_location_and_reports_exhaustion() {
        let t = TraceLog::Cursors(CursorTrace::from_streams(&[
            (1, &[true, true][..]),
            (5, &[false][..]),
            (6, &[][..]),
            (u32::MAX, &[true, false][..]),
        ]));
        let index = LogIndex::new(&t, 8);
        let mut cur = index.reader();
        assert!(!cur.exhausted());
        assert_eq!(cur.next_bit(5), Some(false));
        assert_eq!(cur.next_bit(5), None, "stream 5 exhausted");
        assert_eq!(cur.next_bit(2), None, "no stream for loc 2");
        assert_eq!(cur.next_bit(6), None, "stream 6 is empty");
        assert_eq!(cur.next_bit(9), None, "loc 9 is past the program");
        assert_eq!(cur.next_bit(u32::MAX), None, "never read");
        assert_eq!(cur.next_bit(1), Some(true));
        assert!(!cur.exhausted());
        assert_eq!(cur.next_bit(1), Some(true));
        assert!(
            !cur.exhausted(),
            "the unreadable stream still counts toward the total"
        );
        assert_eq!(cur.consumed(), 3);
        assert_eq!(cur.position(1), 2);
        assert_eq!(cur.position(5), 1);
        assert_eq!(cur.position(u32::MAX), 0);
        assert_eq!(cur.positions(), vec![(1, 2), (5, 1), (6, 0)]);
        assert_eq!(cur.consulted(), BTreeSet::from([1, 5]));
        // Each run starts from the beginning.
        assert_eq!(index.reader().next_bit(5), Some(false));
    }

    proptest! {
        // One interleaved (location, direction) sequence recorded in both
        // formats reads back identically: the flat log in the global
        // order, each cursor stream in its location's own order.
        #[test]
        fn flat_and_cursor_logs_read_identically(
            seq in proptest::collection::vec((0u32..70, any::<bool>()), 0..600),
        ) {
            let mut flat = BranchLog::new(LogFormat::Flat);
            let mut cursors = BranchLog::new(LogFormat::PerLocation);
            for (loc, taken) in &seq {
                flat.push(*loc, *taken);
                cursors.push(*loc, *taken);
            }
            let (flat, cursor) = (flat.finish(), cursors.finish());
            let (fi, ci) = (LogIndex::new(&flat, 70), LogIndex::new(&cursor, 70));
            let (mut fc, mut cc) = (fi.reader(), ci.reader());
            for (loc, taken) in &seq {
                prop_assert_eq!(fc.next_bit(*loc), Some(*taken));
                prop_assert_eq!(cc.next_bit(*loc), Some(*taken));
            }
            prop_assert!(fc.exhausted());
            prop_assert!(cc.exhausted());
            prop_assert_eq!(fc.next_bit(0), None);
            // A flat log has one global position, whatever the location.
            prop_assert_eq!(fc.position(69), seq.len() as u64);
            prop_assert_eq!(fc.positions(), vec![]);
            let locs: BTreeSet<u32> = seq.iter().map(|(l, _)| *l).collect();
            prop_assert_eq!(fc.consulted(), locs.clone());
            prop_assert_eq!(cc.consulted(), locs);
            let want: Vec<(u32, u64)> = cursor
                .as_cursors()
                .expect("per-location")
                .streams()
                .iter()
                .map(|s| (s.loc, s.bits.len()))
                .collect();
            prop_assert_eq!(cc.positions(), want);
        }
    }
}
