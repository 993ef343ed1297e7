//! The replay environment: syscall semantics at the developer site.
//!
//! During replay there is no real kernel — the developer re-creates the
//! environment from the bug report plus a *candidate input* proposed by
//! the solver. Two modes per §3.3:
//!
//! - **Logged**: calls with logged results "always return exactly the
//!   recorded value"; `read` delivers exactly the logged byte count from
//!   the candidate stream, `select` returns the recorded ready set.
//! - **Modeled**: the results become symbolic model variables ("a
//!   symbolic variable for the return value that determines how much
//!   input is read … constrained to be between −1 and the amount
//!   requested"); the engine searches over their values across runs.
//!
//! Deterministic filesystem calls (`open`, `mkdir`, `stat`, …) replay
//! against a candidate filesystem directly — their results are functions
//! of the input, not non-determinism.

use concolic::Streams;
use instrument::{SysRecord, SyscallLog};
use minic::types::Sys;
use oskit::{errno, SimFs, StreamSource};

/// Result of a nondeterminism-returning call: the concrete value plus,
/// in modeled mode, the `(model_index, lo, hi)` of its model variable.
pub type ModeledResult = Result<(i64, Option<(usize, i64, i64)>), SyscallDivergence>;

/// How syscall non-determinism is resolved.
#[derive(Debug, Clone)]
pub enum SyscallMode {
    /// Follow the shipped syscall log.
    Logged(SyscallLog),
    /// Use symbolic models; concrete values come from `nondet_assign`.
    Modeled,
}

#[derive(Debug, Clone)]
enum RFd {
    Closed,
    Stdin { pos: usize },
    Stdout,
    File { path: Vec<u8>, pos: usize },
    Listener,
    Conn { idx: usize, pos: usize },
}

/// What a replayed `read` produced.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The return value.
    pub ret: i64,
    /// Bytes delivered with their stream origin (for input shadows).
    pub bytes: Vec<u8>,
    /// Stream source + starting offset of the delivered bytes.
    pub stream: Option<(StreamSource, usize)>,
    /// Model variable index for the return value (modeled mode only):
    /// the k-th non-determinism event of the run.
    pub model_event: Option<(usize, i64, i64)>,
}

/// A replayed `select` result.
#[derive(Debug, Clone)]
pub struct SelectResult {
    /// Return value (ready count).
    pub ret: i64,
    /// Per-fd 0/1 readiness flags.
    pub flags: Vec<i64>,
    /// Model events backing each flag (modeled mode only): (event index,
    /// lo, hi).
    pub flag_events: Vec<Option<(usize, i64, i64)>>,
    /// Model event for the return value.
    pub ret_event: Option<(usize, i64, i64)>,
}

/// Divergence detected by the environment (wrong syscall order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallDivergence {
    /// Which call the program made.
    pub got: Sys,
}

/// The developer-site environment for one replay run.
#[derive(Debug)]
pub struct ReplayEnv {
    streams: Streams,
    fs: SimFs,
    fds: Vec<RFd>,
    mode: SyscallMode,
    log_pos: usize,
    /// Sequential non-determinism event counter (stable across runs with
    /// identical prefixes, giving model variables cross-run identity).
    nondet_seq: usize,
    /// Concrete values for model variables, by event index.
    nondet_assign: Vec<i64>,
    next_conn: usize,
    uid: i64,
    clock: i64,
}

impl ReplayEnv {
    /// Creates an environment over candidate streams.
    ///
    /// `base_fs` replicates the deployment filesystem (concrete parts);
    /// candidate file contents are layered on top.
    pub fn new(
        streams: Streams,
        base_fs: SimFs,
        mode: SyscallMode,
        nondet_assign: Vec<i64>,
    ) -> Self {
        let mut fs = base_fs;
        streams.install_files(&mut fs);
        ReplayEnv {
            streams,
            fs,
            fds: vec![RFd::Stdin { pos: 0 }, RFd::Stdout, RFd::Stdout],
            mode,
            log_pos: 0,
            nondet_seq: 0,
            nondet_assign,
            next_conn: 0,
            uid: 1000,
            clock: 1_300_000_000,
        }
    }

    /// The candidate argv.
    pub fn argv(&self) -> &[Vec<u8>] {
        &self.streams.argv
    }

    /// Takes the next logged record if it matches; `Err` on divergence,
    /// `Ok(None)` when the log is exhausted (fall back to models).
    fn next_log(&mut self, sys: Sys) -> Result<Option<SysRecord>, SyscallDivergence> {
        let SyscallMode::Logged(log) = &self.mode else {
            return Ok(None);
        };
        match log.records.get(self.log_pos) {
            None => Ok(None),
            Some(rec) if rec.sys == sys => {
                self.log_pos += 1;
                Ok(Some(rec.clone()))
            }
            Some(_) => Err(SyscallDivergence { got: sys }),
        }
    }

    /// Allocates/looks up the next model event and its concrete value.
    fn model_event(&mut self, default: i64, lo: i64, hi: i64) -> (usize, i64) {
        let k = self.nondet_seq;
        self.nondet_seq += 1;
        let v = self
            .nondet_assign
            .get(k)
            .copied()
            .unwrap_or(default)
            .clamp(lo, hi);
        (k, v)
    }

    fn alloc_fd(&mut self, fd: RFd) -> i64 {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if matches!(slot, RFd::Closed) {
                *slot = fd;
                return i as i64;
            }
        }
        self.fds.push(fd);
        (self.fds.len() - 1) as i64
    }

    /// `open` — deterministic against the candidate filesystem.
    pub fn open(&mut self, path: &[u8], flags: i64) -> i64 {
        if flags == 0 {
            match self.fs.open_read(path) {
                Ok(_) => self.alloc_fd(RFd::File {
                    path: normalize(path),
                    pos: 0,
                }),
                Err(e) => e,
            }
        } else {
            match self.fs.open_write(path) {
                Ok(()) => self.alloc_fd(RFd::File {
                    path: normalize(path),
                    pos: 0,
                }),
                Err(e) => e,
            }
        }
    }

    /// `close`.
    pub fn close(&mut self, fd: i64) -> i64 {
        match self.fds.get_mut(fd as usize) {
            Some(slot) if !matches!(slot, RFd::Closed) => {
                *slot = RFd::Closed;
                0
            }
            _ => errno::EINVAL,
        }
    }

    /// `socket`/`bind`/`listen` — trivially succeed; the listener is
    /// implied by the report's workload shape.
    pub fn socket(&mut self) -> i64 {
        self.alloc_fd(RFd::Listener)
    }

    /// `accept` — logged: recorded fd result; modeled: next conn if any.
    pub fn accept(&mut self) -> Result<i64, SyscallDivergence> {
        let logged = self.next_log(Sys::Accept)?;
        match logged {
            Some(rec) => {
                if rec.ret >= 0 {
                    let idx = self.next_conn;
                    self.next_conn += 1;
                    let fd = self.alloc_fd(RFd::Conn { idx, pos: 0 });
                    // The recorded fd number may differ from ours if fd
                    // allocation interleaved differently; ours is
                    // deterministic, so use ours (the program only passes
                    // it back opaquely).
                    Ok(fd)
                } else {
                    Ok(rec.ret)
                }
            }
            None => {
                if self.next_conn < self.streams.conns.len() {
                    let idx = self.next_conn;
                    self.next_conn += 1;
                    Ok(self.alloc_fd(RFd::Conn { idx, pos: 0 }))
                } else {
                    Ok(-1)
                }
            }
        }
    }

    /// `read` — the heart of §3.3.
    pub fn read(&mut self, fd: i64, n: i64) -> Result<ReadResult, SyscallDivergence> {
        let n = n.max(0) as usize;
        let logged = self.next_log(Sys::Read)?;
        let (stream_kind, pos, available): (Option<StreamSource>, usize, usize) =
            match self.fds.get(fd as usize) {
                Some(RFd::Stdin { pos }) => (
                    Some(StreamSource::Stdin),
                    *pos,
                    self.streams.stdin.len().saturating_sub(*pos),
                ),
                Some(RFd::File { path, pos }) => {
                    let len = self
                        .streams
                        .files
                        .get(path)
                        .map(|d| d.len())
                        .or_else(|| self.fs.open_read(path).ok().map(|d| d.len()))
                        .unwrap_or(0);
                    (
                        Some(StreamSource::File(path.clone())),
                        *pos,
                        len.saturating_sub(*pos),
                    )
                }
                Some(RFd::Conn { idx, pos }) => (
                    Some(StreamSource::Conn(*idx)),
                    *pos,
                    self.streams
                        .conns
                        .get(*idx)
                        .map(|c| c.len())
                        .unwrap_or(0)
                        .saturating_sub(*pos),
                ),
                _ => (None, 0, 0),
            };
        let Some(kind) = stream_kind else {
            return Ok(ReadResult {
                ret: errno::EINVAL,
                bytes: Vec::new(),
                stream: None,
                model_event: None,
            });
        };

        let (ret, model_event) = match logged {
            Some(rec) => (rec.ret, None),
            None => match self.mode {
                SyscallMode::Logged(_) => {
                    // Log exhausted: behave like the kernel would (drain).
                    (available.min(n) as i64, None)
                }
                SyscallMode::Modeled => {
                    let default = available.min(n) as i64;
                    let (k, v) = self.model_event(default, -1, n as i64);
                    (v, Some((k, -1, n as i64)))
                }
            },
        };
        let deliver = ret.clamp(0, available.min(n) as i64) as usize;
        let bytes = self.stream_bytes(&kind, pos, deliver);
        self.advance_fd(fd, deliver);
        Ok(ReadResult {
            ret,
            bytes,
            stream: Some((kind, pos)),
            model_event,
        })
    }

    fn stream_bytes(&self, kind: &StreamSource, pos: usize, n: usize) -> Vec<u8> {
        let src: &[u8] = match kind {
            StreamSource::Stdin => &self.streams.stdin,
            StreamSource::File(path) => match self.streams.files.get(path) {
                Some(d) => d,
                None => {
                    return self.fs.open_read(path).ok().map_or(Vec::new(), |d| {
                        d.iter().skip(pos).take(n).copied().collect()
                    })
                }
            },
            StreamSource::Conn(idx) => match self.streams.conns.get(*idx) {
                Some(d) => d,
                None => return Vec::new(),
            },
        };
        src.iter().skip(pos).take(n).copied().collect()
    }

    fn advance_fd(&mut self, fd: i64, n: usize) {
        match self.fds.get_mut(fd as usize) {
            Some(RFd::Stdin { pos })
            | Some(RFd::File { pos, .. })
            | Some(RFd::Conn { pos, .. }) => *pos += n,
            _ => {}
        }
    }

    /// `select` — logged flags or per-fd model variables.
    pub fn select(&mut self, fds: &[i64]) -> Result<SelectResult, SyscallDivergence> {
        let logged = self.next_log(Sys::Select)?;
        match logged {
            Some(rec) => {
                let mut flags = rec.flags.clone();
                flags.resize(fds.len(), 0);
                Ok(SelectResult {
                    ret: rec.ret,
                    flags,
                    flag_events: vec![None; fds.len()],
                    ret_event: None,
                })
            }
            None => {
                let modeled = matches!(self.mode, SyscallMode::Modeled);
                let mut flags = Vec::with_capacity(fds.len());
                let mut flag_events = Vec::with_capacity(fds.len());
                for fd in fds {
                    let natural = self.natural_ready(*fd) as i64;
                    if modeled {
                        let (k, v) = self.model_event(natural, 0, 1);
                        flags.push(v);
                        flag_events.push(Some((k, 0, 1)));
                    } else {
                        flags.push(natural);
                        flag_events.push(None);
                    }
                }
                let ret: i64 = flags.iter().sum();
                Ok(SelectResult {
                    ret,
                    flags,
                    flag_events,
                    ret_event: None,
                })
            }
        }
    }

    fn natural_ready(&self, fd: i64) -> bool {
        match self.fds.get(fd as usize) {
            Some(RFd::Listener) => self.next_conn < self.streams.conns.len(),
            Some(RFd::Conn { idx, pos }) => self
                .streams
                .conns
                .get(*idx)
                .map(|c| *pos <= c.len())
                .unwrap_or(false),
            Some(RFd::Stdin { pos }) => *pos < self.streams.stdin.len(),
            Some(RFd::File { .. }) | Some(RFd::Stdout) => true,
            _ => false,
        }
    }

    /// `time` — logged value or model variable.
    pub fn time(&mut self) -> ModeledResult {
        match self.next_log(Sys::Time)? {
            Some(rec) => Ok((rec.ret, None)),
            None => {
                self.clock += 2;
                let default = self.clock;
                if matches!(self.mode, SyscallMode::Modeled) {
                    let (k, v) = self.model_event(default, 0, i64::MAX / 2);
                    Ok((v, Some((k, 0, i64::MAX / 2))))
                } else {
                    Ok((default, None))
                }
            }
        }
    }

    /// `rand` — logged value or model variable.
    pub fn rand(&mut self) -> ModeledResult {
        match self.next_log(Sys::Rand)? {
            Some(rec) => Ok((rec.ret, None)),
            None => {
                let default = 4; // chosen by fair dice roll in the model
                if matches!(self.mode, SyscallMode::Modeled) {
                    let (k, v) = self.model_event(default, 0, 0x7fff);
                    Ok((v, Some((k, 0, 0x7fff))))
                } else {
                    Ok((default, None))
                }
            }
        }
    }

    /// Deterministic filesystem calls.
    pub fn fs_call(&mut self, sys: Sys, path: &[u8], a: i64, b: i64) -> i64 {
        match sys {
            Sys::Mkdir => self.fs.mkdir(path, a),
            Sys::Mknod => self.fs.mknod(path, a, b),
            Sys::Mkfifo => self.fs.mkfifo(path, a),
            Sys::Stat => self.fs.stat(path),
            Sys::Unlink => self.fs.unlink(path),
            _ => errno::EINVAL,
        }
    }

    /// `getuid`.
    pub fn getuid(&self) -> i64 {
        self.uid
    }

    /// `write` — sinks bytes, returns the count.
    pub fn write(&mut self, fd: i64, bytes: &[u8]) -> i64 {
        match self.fds.get(fd as usize) {
            Some(RFd::Stdout) | Some(RFd::Conn { .. }) => bytes.len() as i64,
            Some(RFd::File { path, .. }) => {
                let path = path.clone();
                self.fs.append(&path, bytes)
            }
            _ => errno::EINVAL,
        }
    }

    /// True when the syscall log (if any) has been fully consumed.
    pub fn log_exhausted(&self) -> bool {
        match &self.mode {
            SyscallMode::Logged(log) => self.log_pos >= log.records.len(),
            SyscallMode::Modeled => true,
        }
    }
}

fn normalize(path: &[u8]) -> Vec<u8> {
    if path.first() == Some(&b'/') {
        path.to_vec()
    } else {
        let mut p = vec![b'/'];
        p.extend_from_slice(path);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn streams_with_conn(bytes: &[u8]) -> Streams {
        Streams {
            argv: vec![b"prog".to_vec()],
            stdin: Vec::new(),
            files: HashMap::new(),
            conns: vec![bytes.to_vec()],
        }
    }

    #[test]
    fn logged_read_returns_exact_counts() {
        let mut log = SyscallLog::new();
        log.push(SysRecord {
            sys: Sys::Accept,
            ret: 3,
            flags: vec![],
        });
        log.push(SysRecord {
            sys: Sys::Read,
            ret: 3,
            flags: vec![],
        });
        log.push(SysRecord {
            sys: Sys::Read,
            ret: 2,
            flags: vec![],
        });
        let mut env = ReplayEnv::new(
            streams_with_conn(b"hello"),
            SimFs::new(),
            SyscallMode::Logged(log),
            Vec::new(),
        );
        let fd = {
            env.socket();
            env.accept().unwrap()
        };
        let r1 = env.read(fd, 100).unwrap();
        assert_eq!(r1.ret, 3);
        assert_eq!(r1.bytes, b"hel");
        assert_eq!(r1.stream, Some((StreamSource::Conn(0), 0)));
        let r2 = env.read(fd, 100).unwrap();
        assert_eq!(r2.ret, 2);
        assert_eq!(r2.bytes, b"lo");
        assert_eq!(r2.stream, Some((StreamSource::Conn(0), 3)));
    }

    #[test]
    fn log_order_mismatch_is_divergence() {
        let mut log = SyscallLog::new();
        log.push(SysRecord {
            sys: Sys::Select,
            ret: 1,
            flags: vec![1],
        });
        let mut env = ReplayEnv::new(
            streams_with_conn(b"x"),
            SimFs::new(),
            SyscallMode::Logged(log),
            Vec::new(),
        );
        env.socket();
        let fd = env.accept();
        // accept is a logged call; the log has Select first -> divergence.
        assert!(fd.is_err());
    }

    #[test]
    fn modeled_read_uses_assignment_values() {
        let mut env = ReplayEnv::new(
            streams_with_conn(b"abcdef"),
            SimFs::new(),
            SyscallMode::Modeled,
            vec![2, 4], // event 0 -> ret 2, event 1 -> ret 4
        );
        env.socket();
        let fd = env.accept().unwrap();
        let r1 = env.read(fd, 6).unwrap();
        assert_eq!(r1.ret, 2);
        assert_eq!(r1.bytes, b"ab");
        assert_eq!(r1.model_event, Some((0, -1, 6)));
        let r2 = env.read(fd, 6).unwrap();
        assert_eq!(r2.ret, 4);
        assert_eq!(r2.bytes, b"cdef");
    }

    #[test]
    fn modeled_read_defaults_to_full_drain() {
        let mut env = ReplayEnv::new(
            streams_with_conn(b"abc"),
            SimFs::new(),
            SyscallMode::Modeled,
            Vec::new(),
        );
        env.socket();
        let fd = env.accept().unwrap();
        let r = env.read(fd, 100).unwrap();
        assert_eq!(r.ret, 3, "initially returns all available input");
    }

    #[test]
    fn logged_select_returns_recorded_flags() {
        let mut log = SyscallLog::new();
        log.push(SysRecord {
            sys: Sys::Select,
            ret: 1,
            flags: vec![0, 1],
        });
        let mut env = ReplayEnv::new(
            streams_with_conn(b"x"),
            SimFs::new(),
            SyscallMode::Logged(log),
            Vec::new(),
        );
        let r = env.select(&[3, 4]).unwrap();
        assert_eq!(r.ret, 1);
        assert_eq!(r.flags, vec![0, 1]);
    }

    #[test]
    fn filesystem_calls_replay_deterministically() {
        let mut env = ReplayEnv::new(
            Streams::default(),
            SimFs::new(),
            SyscallMode::Modeled,
            Vec::new(),
        );
        assert_eq!(env.fs_call(Sys::Mkdir, b"/d", 0, 0), 0);
        assert_eq!(env.fs_call(Sys::Mkdir, b"/d", 0, 0), errno::EEXIST);
        assert_eq!(env.fs_call(Sys::Stat, b"/d", 0, 0), 0);
    }

    #[test]
    fn candidate_files_are_visible() {
        let mut streams = Streams::default();
        streams.files.insert(b"/in/a".to_vec(), b"content".to_vec());
        let mut env = ReplayEnv::new(streams, SimFs::new(), SyscallMode::Modeled, Vec::new());
        let fd = env.open(b"/in/a", 0);
        assert!(fd >= 3);
        let r = env.read(fd, 100).unwrap();
        assert_eq!(r.bytes, b"content");
    }

    #[test]
    fn model_events_are_sequential_and_stable() {
        let run = |assign: Vec<i64>| {
            let mut env = ReplayEnv::new(
                streams_with_conn(b"abcd"),
                SimFs::new(),
                SyscallMode::Modeled,
                assign,
            );
            env.socket();
            let fd = env.accept().unwrap();
            let a = env.read(fd, 4).unwrap().model_event.unwrap().0;
            let b = env.read(fd, 4).unwrap().model_event.unwrap().0;
            (a, b)
        };
        assert_eq!(run(vec![]), (0, 1));
        assert_eq!(run(vec![1, 1]), (0, 1), "event ids stable across runs");
    }
}
