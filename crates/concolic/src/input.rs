//! Symbolic input specification and realization.
//!
//! An [`InputSpec`] fixes the *shape* of a program's input (how many
//! argv arguments of what length, which files, which client packets) and
//! leaves the *contents* symbolic. The engine allocates one byte-domain
//! solver variable per content byte; realizing a variable assignment
//! yields concrete argv plus a [`KernelConfig`] for one run.
//!
//! This mirrors the paper's setups: "up to 10 arguments, each 100 bytes
//! long" (coreutils, §5.2), "200 bytes of symbolic memory for each
//! accepted connection" (uServer, §5.3), symbolic file contents (diff,
//! §5.4).

use oskit::{ClientScript, KernelConfig, SimFs, StreamSource};
use solver::{ExprArena, VarId, VarInfo};
use std::collections::HashMap;

/// One argv argument: fixed bytes or a symbolic run of bytes.
#[derive(Debug, Clone)]
pub enum ArgSpec {
    /// A concrete argument (e.g. the program name).
    Fixed(Vec<u8>),
    /// `len` symbolic bytes.
    Symbolic(usize),
}

/// A file whose contents are symbolic input.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Absolute path the program will open.
    pub path: String,
    /// Number of symbolic content bytes.
    pub len: usize,
}

/// A scripted client whose packet contents are symbolic.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Length of each packet.
    pub packet_lens: Vec<usize>,
    /// Whether the client closes after its last packet.
    pub close_after: bool,
}

/// The full input shape of one analysis session.
#[derive(Debug, Clone, Default)]
pub struct InputSpec {
    /// argv, in order (argv\[0\] is typically `Fixed`).
    pub argv: Vec<ArgSpec>,
    /// Symbolic bytes available on stdin.
    pub stdin_len: usize,
    /// Files with symbolic contents.
    pub files: Vec<FileSpec>,
    /// Clients with symbolic packet contents.
    pub clients: Vec<ClientSpec>,
}

impl InputSpec {
    /// The coreutils shape: `prog` plus `n_args` symbolic arguments of
    /// `arg_len` bytes each (paper §5.2).
    pub fn argv_symbolic(prog: &str, n_args: usize, arg_len: usize) -> Self {
        let mut argv = vec![ArgSpec::Fixed(prog.as_bytes().to_vec())];
        for _ in 0..n_args {
            argv.push(ArgSpec::Symbolic(arg_len));
        }
        InputSpec {
            argv,
            ..InputSpec::default()
        }
    }

    /// Total number of symbolic (controllable) bytes.
    pub fn n_symbolic_bytes(&self) -> usize {
        let argv: usize = self
            .argv
            .iter()
            .map(|a| match a {
                ArgSpec::Fixed(_) => 0,
                ArgSpec::Symbolic(n) => *n,
            })
            .sum();
        let files: usize = self.files.iter().map(|f| f.len).sum();
        let clients: usize = self
            .clients
            .iter()
            .map(|c| c.packet_lens.iter().sum::<usize>())
            .sum();
        argv + self.stdin_len + files + clients
    }
}

/// The variable tables of one session: maps every symbolic input byte to
/// its solver variable. The ids are consecutive in spec order: argv,
/// stdin, files, clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputVars {
    /// Per argv argument: the variable of each byte (empty for fixed).
    pub argv: Vec<Vec<VarId>>,
    /// Stdin byte variables.
    pub stdin: Vec<VarId>,
    /// Per file (keyed by normalized path bytes): byte variables.
    pub files: HashMap<Vec<u8>, Vec<VarId>>,
    /// Per client: byte variables across all packets, concatenated.
    pub clients: Vec<Vec<VarId>>,
    /// Variables with id below this are controllable program input;
    /// variables allocated later are per-run non-determinism.
    pub n_controllable: u32,
}

impl InputVars {
    /// The variables of every symbolic byte of `spec`, numbered from
    /// `first` — the ids [`InputVars::alloc`] assigns on an arena that
    /// holds `first` variables, computed from the spec alone.
    pub fn layout(spec: &InputSpec, first: u32) -> Self {
        let mut next = first;
        let mut take = |n: usize| -> Vec<VarId> {
            let ids = (next..next + n as u32).map(VarId).collect();
            next += n as u32;
            ids
        };
        let argv = spec
            .argv
            .iter()
            .map(|a| match a {
                ArgSpec::Fixed(_) => Vec::new(),
                ArgSpec::Symbolic(n) => take(*n),
            })
            .collect();
        let stdin = take(spec.stdin_len);
        let files = spec
            .files
            .iter()
            .map(|f| (normalize_path(f.path.as_bytes()), take(f.len)))
            .collect();
        let clients = spec
            .clients
            .iter()
            .map(|c| take(c.packet_lens.iter().sum()))
            .collect();
        InputVars {
            argv,
            stdin,
            files,
            clients,
            n_controllable: next,
        }
    }

    /// Allocates a byte-domain variable in `arena` for every symbolic
    /// byte of `spec`.
    pub fn alloc(arena: &mut ExprArena, spec: &InputSpec) -> Self {
        let vars = InputVars::layout(spec, arena.n_vars() as u32);
        for _ in 0..spec.n_symbolic_bytes() {
            arena.fresh_var(VarInfo::byte());
        }
        vars
    }

    /// The variable carrying byte `offset` of `stream`, if it is a
    /// declared symbolic input byte.
    pub fn var_for(&self, stream: &StreamSource, offset: usize) -> Option<VarId> {
        match stream {
            StreamSource::Stdin => self.stdin.get(offset).copied(),
            StreamSource::File(path) => self
                .files
                .get(&normalize_path(path))
                .and_then(|v| v.get(offset).copied()),
            StreamSource::Conn(idx) => self.clients.get(*idx).and_then(|v| v.get(offset).copied()),
        }
    }
}

fn normalize_path(path: &[u8]) -> Vec<u8> {
    if path.first() == Some(&b'/') {
        path.to_vec()
    } else {
        let mut p = vec![b'/'];
        p.extend_from_slice(path);
        p
    }
}

/// Concrete input streams realized from a solver assignment.
#[derive(Debug, Clone, Default)]
pub struct Streams {
    /// argv strings (argv\[0\] included).
    pub argv: Vec<Vec<u8>>,
    /// stdin bytes.
    pub stdin: Vec<u8>,
    /// File contents keyed by normalized path.
    pub files: HashMap<Vec<u8>, Vec<u8>>,
    /// Per-connection byte streams, packets flattened: replay paces them
    /// from the log or the models; [`realize`] splits them back into the
    /// spec's packets.
    pub conns: Vec<Vec<u8>>,
}

impl Streams {
    /// Installs the files into `fs`, after creating their parent
    /// directories.
    pub fn install_files(&self, fs: &mut SimFs) {
        for path in self.files.keys() {
            let path = String::from_utf8_lossy(path);
            let mut acc = String::new();
            for comp in path.split('/').filter(|c| !c.is_empty()) {
                acc.push('/');
                acc.push_str(comp);
                if acc != path {
                    fs.install_dir(&acc);
                }
            }
        }
        for (path, content) in &self.files {
            fs.install_file(&String::from_utf8_lossy(path), content.clone());
        }
    }
}

/// Builds the concrete input streams of an assignment: every symbolic
/// byte is its variable's value masked to a byte, and a variable the
/// assignment does not reach reads as 0.
pub fn realize_streams(spec: &InputSpec, vars: &InputVars, assignment: &[i64]) -> Streams {
    let byte = |v: &VarId| (assignment.get(v.0 as usize).copied().unwrap_or(0) & 0xff) as u8;
    let bytes = |vs: &[VarId]| vs.iter().map(byte).collect::<Vec<u8>>();
    let argv = spec
        .argv
        .iter()
        .zip(&vars.argv)
        .map(|(a, vs)| match a {
            ArgSpec::Fixed(fixed) => fixed.clone(),
            ArgSpec::Symbolic(_) => bytes(vs),
        })
        .collect();
    Streams {
        argv,
        stdin: bytes(&vars.stdin),
        files: vars
            .files
            .iter()
            .map(|(path, vs)| (path.clone(), bytes(vs)))
            .collect(),
        conns: vars.clients.iter().map(|vs| bytes(vs)).collect(),
    }
}

/// Builds concrete argv and a kernel configuration from an assignment.
///
/// `base` supplies everything the spec does not control (seed, signal
/// plan, arrival window, pre-existing concrete files).
pub fn realize(
    spec: &InputSpec,
    vars: &InputVars,
    assignment: &[i64],
    base: &KernelConfig,
) -> (Vec<Vec<u8>>, KernelConfig) {
    let streams = realize_streams(spec, vars, assignment);
    let mut cfg = base.clone();
    streams.install_files(&mut cfg.fs);
    cfg.stdin = streams.stdin;
    cfg.clients = spec
        .clients
        .iter()
        .zip(streams.conns)
        .map(|(c, conn)| {
            let mut rest = &conn[..];
            let packets = c
                .packet_lens
                .iter()
                .map(|&len| {
                    let (packet, tail) = rest.split_at(len);
                    rest = tail;
                    packet.to_vec()
                })
                .collect();
            ClientScript {
                packets,
                close_after: c.close_after,
            }
        })
        .collect();
    (streams.argv, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_one_var_per_symbolic_byte() {
        let mut arena = ExprArena::new();
        let spec = InputSpec {
            argv: vec![ArgSpec::Fixed(b"prog".to_vec()), ArgSpec::Symbolic(3)],
            stdin_len: 2,
            files: vec![FileSpec {
                path: "/f".into(),
                len: 4,
            }],
            clients: vec![ClientSpec {
                packet_lens: vec![5, 5],
                close_after: true,
            }],
        };
        let vars = InputVars::alloc(&mut arena, &spec);
        assert_eq!(spec.n_symbolic_bytes(), 3 + 2 + 4 + 10);
        assert_eq!(arena.n_vars(), spec.n_symbolic_bytes());
        assert_eq!(vars.n_controllable as usize, arena.n_vars());
        assert_eq!(vars.argv[0].len(), 0);
        assert_eq!(vars.argv[1].len(), 3);
    }

    #[test]
    fn var_for_resolves_streams() {
        let mut arena = ExprArena::new();
        let spec = InputSpec {
            argv: vec![],
            stdin_len: 2,
            files: vec![FileSpec {
                path: "/data/in".into(),
                len: 3,
            }],
            clients: vec![ClientSpec {
                packet_lens: vec![2],
                close_after: true,
            }],
        };
        let vars = InputVars::alloc(&mut arena, &spec);
        assert_eq!(vars.var_for(&StreamSource::Stdin, 0), Some(vars.stdin[0]));
        assert_eq!(
            vars.var_for(&StreamSource::File(b"/data/in".to_vec()), 2),
            Some(vars.files[&b"/data/in".to_vec()][2])
        );
        assert_eq!(
            vars.var_for(&StreamSource::Conn(0), 1),
            Some(vars.clients[0][1])
        );
        assert_eq!(vars.var_for(&StreamSource::Conn(0), 99), None);
        assert_eq!(vars.var_for(&StreamSource::Conn(7), 0), None);
    }

    #[test]
    fn realize_builds_argv_and_kernel() {
        let mut arena = ExprArena::new();
        let spec = InputSpec {
            argv: vec![ArgSpec::Fixed(b"prog".to_vec()), ArgSpec::Symbolic(2)],
            stdin_len: 1,
            files: vec![FileSpec {
                path: "/in/a".into(),
                len: 2,
            }],
            clients: vec![ClientSpec {
                packet_lens: vec![2, 1],
                close_after: false,
            }],
        };
        let vars = InputVars::alloc(&mut arena, &spec);
        // Assignment: argv bytes 'h','i'; stdin 'X'; file [1,2]; conn "abc".
        let assignment: Vec<i64> = vec![
            b'h' as i64,
            b'i' as i64,
            b'X' as i64,
            1,
            2,
            b'a' as i64,
            b'b' as i64,
            b'c' as i64,
        ];
        let (argv, cfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
        assert_eq!(argv, vec![b"prog".to_vec(), b"hi".to_vec()]);
        assert_eq!(cfg.stdin, b"X");
        assert_eq!(cfg.fs.open_read(b"/in/a").unwrap(), vec![1, 2]);
        assert_eq!(cfg.clients.len(), 1);
        assert_eq!(cfg.clients[0].packets, vec![b"ab".to_vec(), b"c".to_vec()]);
        assert!(!cfg.clients[0].close_after);
    }
}
