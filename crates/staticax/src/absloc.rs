//! Abstract memory locations for the whole-program analyses.
//!
//! Field- and element-insensitive: one abstract location per variable,
//! string, or allocation site. This matches the precision class of the
//! paper's CIL-based points-to analysis ("the points-to analysis tends to
//! over-estimate the set of aliases", §2.2) — over-approximation is the
//! documented, intended bias of the static method.

use minic::ast::ExprId;
use minic::types::{FuncId, GlobalId, StrId};
use std::collections::HashMap;

/// An abstract memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbsLoc {
    /// A global variable.
    Global(GlobalId),
    /// A local slot (parameter or declaration) of a function, by frame
    /// offset.
    Frame(FuncId, u32),
    /// A string literal object.
    Str(StrId),
    /// A heap allocation site (`malloc` call expression).
    Heap(ExprId),
    /// The argv pointer array.
    ArgvArr,
    /// The argv string bytes (all argument strings collapsed).
    ArgvStr,
}

/// A node of the points-to constraint graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKey {
    /// The contents of an abstract location.
    Loc(AbsLoc),
    /// The value of an expression.
    Expr(ExprId),
    /// The return value of a function.
    Ret(FuncId),
}

/// Dense interning of [`NodeKey`]s and [`AbsLoc`]s.
#[derive(Debug, Default)]
pub struct Interner {
    nodes: HashMap<NodeKey, usize>,
    node_keys: Vec<NodeKey>,
    locs: HashMap<AbsLoc, usize>,
    loc_keys: Vec<AbsLoc>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dense id of a node (created on first use).
    pub fn node(&mut self, k: NodeKey) -> usize {
        if let Some(i) = self.nodes.get(&k) {
            return *i;
        }
        let i = self.node_keys.len();
        self.nodes.insert(k, i);
        self.node_keys.push(k);
        i
    }

    /// Dense id of an abstract location (created on first use).
    pub fn loc(&mut self, l: AbsLoc) -> usize {
        if let Some(i) = self.locs.get(&l) {
            return *i;
        }
        let i = self.loc_keys.len();
        self.locs.insert(l, i);
        self.loc_keys.push(l);
        i
    }

    /// The location behind a dense id.
    pub fn loc_key(&self, i: usize) -> AbsLoc {
        self.loc_keys[i]
    }

    /// The node behind a dense id.
    pub fn node_key(&self, i: usize) -> NodeKey {
        self.node_keys[i]
    }

    /// Number of interned nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_keys.len()
    }

    /// Number of interned locations.
    pub fn n_locs(&self) -> usize {
        self.loc_keys.len()
    }

    /// Dense id of an existing node, if interned.
    pub fn node_id(&self, k: &NodeKey) -> Option<usize> {
        self.nodes.get(k).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut i = Interner::new();
        let a = i.node(NodeKey::Loc(AbsLoc::ArgvArr));
        let b = i.node(NodeKey::Ret(FuncId(0)));
        assert_eq!(i.node(NodeKey::Loc(AbsLoc::ArgvArr)), a);
        assert_ne!(a, b);
        assert_eq!(i.node_key(a), NodeKey::Loc(AbsLoc::ArgvArr));
    }

    #[test]
    fn locs_and_nodes_are_separate_spaces() {
        let mut i = Interner::new();
        let l = i.loc(AbsLoc::ArgvStr);
        let n = i.node(NodeKey::Loc(AbsLoc::ArgvStr));
        assert_eq!(l, 0);
        assert_eq!(n, 0);
        assert_eq!(i.n_locs(), 1);
        assert_eq!(i.n_nodes(), 1);
    }
}
