//! Logged/unlogged symbolic-branch statistics (Tables 4, 7 and 8).
//!
//! The paper correlates replay time with "the number of symbolic branch
//! locations NOT logged". These helpers compute, for a given plan and the
//! *true* buggy execution, how many symbolic branch locations (and
//! executions) were covered by the log versus left for the search.

use concolic::{InputSpec, Profile};
use instrument::Plan;
use serde::{Deserialize, Serialize};

/// Logged/unlogged split of the symbolic branches of one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogStats {
    /// Symbolic branch locations covered by the plan.
    pub logged_locs: usize,
    /// Executions of those locations.
    pub logged_execs: u64,
    /// Symbolic branch locations not covered by the plan.
    pub unlogged_locs: usize,
    /// Executions of those locations.
    pub unlogged_execs: u64,
}

impl LogStats {
    /// Splits a (true-execution) profile by a plan's coverage.
    pub fn from_profile(profile: &Profile, plan: &Plan) -> LogStats {
        let mut s = LogStats::default();
        for (i, sym_execs) in profile.symbolic.iter().enumerate() {
            if *sym_execs == 0 {
                continue;
            }
            let covered = plan.instrumented.get(i).copied().unwrap_or(false);
            if covered {
                s.logged_locs += 1;
                s.logged_execs += sym_execs;
            } else {
                s.unlogged_locs += 1;
                s.unlogged_execs += sym_execs;
            }
        }
        s
    }

    /// Formats like the paper's table cells: `locs / execs`.
    pub fn logged_cell(&self) -> String {
        format!("{} / {}", self.logged_locs, self.logged_execs)
    }

    /// Formats the not-logged cell.
    pub fn unlogged_cell(&self) -> String {
        if self.unlogged_locs == 0 {
            "0".to_string()
        } else {
            format!("{} / {}", self.unlogged_locs, self.unlogged_execs)
        }
    }
}

/// The concrete content of every symbolic input slot of a spec, used to
/// build the assignment of the *true* (recorded) execution.
#[derive(Debug, Clone, Default)]
pub struct InputParts {
    /// Bytes of each symbolic argv argument, in argv order.
    pub argv_sym: Vec<Vec<u8>>,
    /// stdin bytes.
    pub stdin: Vec<u8>,
    /// File contents, in spec order.
    pub files: Vec<Vec<u8>>,
    /// Per-connection bytes (packets flattened), in spec order.
    pub conns: Vec<Vec<u8>>,
}

/// Flattens concrete input parts into a solver assignment, following the
/// allocation order of `InputVars::alloc` (argv, stdin, files, conns).
/// Short parts are zero-padded to the spec's lengths; long parts are
/// truncated.
pub fn assignment_from_input(spec: &InputSpec, parts: &InputParts) -> Vec<i64> {
    let mut out = Vec::with_capacity(spec.n_symbolic_bytes());
    let mut sym_arg = 0usize;
    for a in &spec.argv {
        if let concolic::ArgSpec::Symbolic(n) = a {
            let bytes = parts.argv_sym.get(sym_arg).cloned().unwrap_or_default();
            for i in 0..*n {
                out.push(bytes.get(i).copied().unwrap_or(0) as i64);
            }
            sym_arg += 1;
        }
    }
    for i in 0..spec.stdin_len {
        out.push(parts.stdin.get(i).copied().unwrap_or(0) as i64);
    }
    for (fi, f) in spec.files.iter().enumerate() {
        let bytes = parts.files.get(fi).cloned().unwrap_or_default();
        for i in 0..f.len {
            out.push(bytes.get(i).copied().unwrap_or(0) as i64);
        }
    }
    for (ci, c) in spec.clients.iter().enumerate() {
        let total: usize = c.packet_lens.iter().sum();
        let bytes = parts.conns.get(ci).cloned().unwrap_or_default();
        for i in 0..total {
            out.push(bytes.get(i).copied().unwrap_or(0) as i64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use concolic::{realize, realize_streams, ArgSpec, ClientSpec, FileSpec, InputVars, Streams};
    use instrument::Method;
    use minic::BranchId;
    use oskit::{KernelConfig, StreamSource};
    use proptest::prelude::*;
    use solver::{ExprArena, VarId, VarInfo};

    #[test]
    fn splits_profile_by_plan() {
        let mut p = Profile::new(4);
        p.observe(BranchId(0), true); // symbolic, will be logged
        p.observe(BranchId(0), true);
        p.observe(BranchId(1), true); // symbolic, not logged
        p.observe(BranchId(2), false); // concrete: ignored entirely
        let plan = Plan {
            method: Method::Dynamic,
            instrumented: vec![true, false, true, false],
            ..Plan::none(4)
        };
        let s = LogStats::from_profile(&p, &plan);
        assert_eq!(s.logged_locs, 1);
        assert_eq!(s.logged_execs, 2);
        assert_eq!(s.unlogged_locs, 1);
        assert_eq!(s.unlogged_execs, 1);
        assert_eq!(s.logged_cell(), "1 / 2");
        assert_eq!(s.unlogged_cell(), "1 / 1");
    }

    #[test]
    fn assignment_layout_matches_alloc_order() {
        let spec = InputSpec {
            argv: vec![ArgSpec::Fixed(b"p".to_vec()), ArgSpec::Symbolic(2)],
            stdin_len: 1,
            files: vec![concolic::FileSpec {
                path: "/f".into(),
                len: 2,
            }],
            clients: vec![concolic::ClientSpec {
                packet_lens: vec![1, 1],
                close_after: true,
            }],
        };
        let parts = InputParts {
            argv_sym: vec![b"ab".to_vec()],
            stdin: b"S".to_vec(),
            files: vec![b"fg".to_vec()],
            conns: vec![b"xy".to_vec()],
        };
        let a = assignment_from_input(&spec, &parts);
        assert_eq!(
            a,
            vec![
                b'a' as i64,
                b'b' as i64,
                b'S' as i64,
                b'f' as i64,
                b'g' as i64,
                b'x' as i64,
                b'y' as i64
            ]
        );
    }

    #[test]
    fn padding_and_truncation() {
        let spec = InputSpec {
            argv: vec![ArgSpec::Symbolic(4)],
            ..InputSpec::default()
        };
        let parts = InputParts {
            argv_sym: vec![b"hello-too-long".to_vec()],
            ..InputParts::default()
        };
        let a = assignment_from_input(&spec, &parts);
        assert_eq!(a.len(), 4);
        let short = InputParts {
            argv_sym: vec![b"x".to_vec()],
            ..InputParts::default()
        };
        let b = assignment_from_input(&spec, &short);
        assert_eq!(b, vec![b'x' as i64, 0, 0, 0]);
    }

    /// Builds a spec from drawn shapes: argv arguments (symbolic or
    /// fixed, by length), stdin, files at absolute or relative paths,
    /// and clients with several packets.
    fn drawn_spec(
        argv: &[(bool, usize)],
        stdin_len: usize,
        files: &[(bool, usize)],
        clients: &[(Vec<usize>, bool)],
    ) -> InputSpec {
        InputSpec {
            argv: argv
                .iter()
                .map(|&(symbolic, len)| match symbolic {
                    true => ArgSpec::Symbolic(len),
                    false => ArgSpec::Fixed(vec![b'f'; len]),
                })
                .collect(),
            stdin_len,
            files: files
                .iter()
                .enumerate()
                .map(|(i, &(absolute, len))| FileSpec {
                    path: format!("{}d{i}/f{i}", if absolute { "/" } else { "" }),
                    len,
                })
                .collect(),
            clients: clients
                .iter()
                .map(|(packet_lens, close_after)| ClientSpec {
                    packet_lens: packet_lens.clone(),
                    close_after: *close_after,
                })
                .collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        // One input layout: the arena-free ids are `alloc`'s, every
        // realized byte is its variable's value masked to a byte (0 past
        // the assignment's end) under both walks, and flattening the
        // realized input gives back the assignment's controllable prefix.
        #[test]
        fn one_input_layout_for_alloc_realize_and_assignment(
            argv in collection::vec((any::<bool>(), 0usize..4), 0..4),
            stdin_len in 0usize..4,
            files in collection::vec((any::<bool>(), 0usize..4), 0..3),
            clients in collection::vec((collection::vec(0usize..4, 1..4), any::<bool>()), 0..3),
            values in collection::vec(any::<i64>(), 0..40),
        ) {
            let spec = drawn_spec(&argv, stdin_len, &files, &clients);
            let n = spec.n_symbolic_bytes();
            for first in [0, 3] {
                let mut arena = ExprArena::new();
                for _ in 0..first {
                    arena.fresh_var(VarInfo::byte());
                }
                prop_assert_eq!(
                    InputVars::layout(&spec, first as u32),
                    InputVars::alloc(&mut arena, &spec)
                );
                prop_assert_eq!(arena.n_vars(), first + n);
            }
            let vars = InputVars::layout(&spec, 0);
            let byte = |v: VarId| (values.get(v.0 as usize).copied().unwrap_or(0) & 0xff) as u8;
            let stream_bytes = |source: StreamSource, len: usize| {
                (0..len)
                    .map(|k| byte(vars.var_for(&source, k).expect("declared byte")))
                    .collect::<Vec<u8>>()
            };
            let (kernel_argv, cfg) = realize(&spec, &vars, &values, &KernelConfig::default());
            let streams = realize_streams(&spec, &vars, &values);
            prop_assert_eq!(&kernel_argv, &streams.argv);
            for (i, arg) in spec.argv.iter().enumerate() {
                let expected = match arg {
                    ArgSpec::Fixed(fixed) => fixed.clone(),
                    ArgSpec::Symbolic(_) => vars.argv[i].iter().map(|&v| byte(v)).collect(),
                };
                prop_assert_eq!(&streams.argv[i], &expected);
            }
            let stdin = stream_bytes(StreamSource::Stdin, spec.stdin_len);
            prop_assert_eq!(&cfg.stdin, &stdin);
            prop_assert_eq!(&streams.stdin, &stdin);
            for f in &spec.files {
                let path = format!("/{}", f.path.trim_start_matches('/')).into_bytes();
                let content = stream_bytes(StreamSource::File(path.clone()), f.len);
                prop_assert_eq!(&cfg.fs.open_read(&path).expect("installed"), &content);
                prop_assert_eq!(&streams.files[&path], &content);
            }
            for (ci, c) in spec.clients.iter().enumerate() {
                let total = c.packet_lens.iter().sum();
                let conn = stream_bytes(StreamSource::Conn(ci), total);
                let script = &cfg.clients[ci];
                let lens: Vec<usize> = script.packets.iter().map(Vec::len).collect();
                prop_assert_eq!(&lens, &c.packet_lens);
                prop_assert_eq!(&script.packets.concat(), &conn);
                prop_assert_eq!(script.close_after, c.close_after);
                prop_assert_eq!(&streams.conns[ci], &conn);
            }

            let bytes: Vec<i64> = values.iter().map(|v| v & 0xff).collect();
            let Streams { argv, stdin, files, conns } = realize_streams(&spec, &vars, &bytes);
            let parts = InputParts {
                argv_sym: spec
                    .argv
                    .iter()
                    .zip(argv)
                    .filter(|(a, _)| matches!(a, ArgSpec::Symbolic(_)))
                    .map(|(_, arg)| arg)
                    .collect(),
                stdin,
                files: spec
                    .files
                    .iter()
                    .map(|f| files[format!("/{}", f.path.trim_start_matches('/')).as_bytes()].clone())
                    .collect(),
                conns,
            };
            let mut prefix = bytes;
            prefix.resize(n, 0);
            prop_assert_eq!(assignment_from_input(&spec, &parts), prefix);
        }
    }
}
