//! Selective system-call result logging (§2.3).
//!
//! "We log the results of all system calls for which logging considerably
//! simplifies replay, including select() and read(). The input data
//! itself is never logged." — the log records *control metadata* (byte
//! counts, readiness sets, clock/PRNG values), never buffer contents,
//! preserving the privacy property.

use minic::cost::SYSCALL_LOG_COST;
use minic::types::Sys;
use serde::{Deserialize, Serialize};

/// Which syscalls get their results logged.
pub fn is_logged(sys: Sys) -> bool {
    matches!(
        sys,
        Sys::Read | Sys::Select | Sys::Accept | Sys::Time | Sys::Rand
    )
}

/// One logged syscall result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SysRecord {
    /// Which call.
    pub sys: Sys,
    /// The return value (e.g. bytes read, ready count, clock value).
    pub ret: i64,
    /// Control outputs written to memory — only `select`'s 0/1 ready
    /// flags; never input data.
    pub flags: Vec<i64>,
}

impl SysRecord {
    /// Approximate wire size: one tag byte + varint-ish value + flags.
    pub fn wire_bytes(&self) -> u64 {
        1 + varint_len(self.ret) + self.flags.len() as u64
    }
}

/// The shipped syscall-result log.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyscallLog {
    /// Records in execution order.
    pub records: Vec<SysRecord>,
}

impl SyscallLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, returning the cost units charged.
    pub fn push(&mut self, rec: SysRecord) -> u64 {
        self.records.push(rec);
        SYSCALL_LOG_COST
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate wire size: the sum of the records'
    /// [`SysRecord::wire_bytes`].
    pub fn bytes(&self) -> u64 {
        self.records.iter().map(SysRecord::wire_bytes).sum()
    }
}

fn varint_len(v: i64) -> u64 {
    let mut n = 1;
    let mut x = v.unsigned_abs();
    while x >= 0x80 {
        x >>= 7;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logged_set_matches_paper() {
        assert!(is_logged(Sys::Read));
        assert!(is_logged(Sys::Select));
        assert!(!is_logged(Sys::Write));
        assert!(!is_logged(Sys::Mkdir));
    }

    #[test]
    fn log_accumulates_and_sizes() {
        let mut log = SyscallLog::new();
        let c1 = log.push(SysRecord {
            sys: Sys::Read,
            ret: 42,
            flags: vec![],
        });
        log.push(SysRecord {
            sys: Sys::Select,
            ret: 1,
            flags: vec![0, 1],
        });
        assert_eq!(c1, SYSCALL_LOG_COST);
        assert_eq!(log.len(), 2);
        assert!(log.bytes() >= 4);
    }

    #[test]
    fn no_input_data_in_records() {
        // The record type has no payload field for buffer contents; this
        // test documents the privacy invariant at the type level.
        let r = SysRecord {
            sys: Sys::Read,
            ret: 100,
            flags: vec![],
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("data"));
        assert!(!json.contains("buf"));
    }
}
