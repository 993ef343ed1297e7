//! Branch labels and per-branch-location execution profiles.
//!
//! Labels follow §2.1 of the paper exactly: a branch starts `Unvisited`;
//! the first execution labels it `Concrete` or `Symbolic` depending on
//! whether its condition depended on input; a `Concrete` branch is
//! *upgraded* to `Symbolic` if a later execution has a symbolic
//! condition; `Symbolic` never downgrades. The label type is the plan
//! layer's [`DynLabel`]: the analysis writes the labels that
//! `instrument::Plan::build` reads.

use instrument::DynLabel;
use minic::BranchId;
use serde::{Deserialize, Serialize};

/// Labels for every branch location of a program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelMap {
    labels: Vec<DynLabel>,
}

impl LabelMap {
    /// All-unvisited map for `n` branch locations.
    pub fn new(n: usize) -> Self {
        LabelMap {
            labels: vec![DynLabel::Unvisited; n],
        }
    }

    /// The label of a branch.
    pub fn get(&self, b: BranchId) -> DynLabel {
        self.labels[b.0 as usize]
    }

    /// Records one execution of `b` with a symbolic or concrete condition,
    /// applying the upgrade-only rule.
    pub fn observe(&mut self, b: BranchId, symbolic: bool) {
        let slot = &mut self.labels[b.0 as usize];
        *slot = match (*slot, symbolic) {
            (_, true) => DynLabel::Symbolic,
            (DynLabel::Symbolic, false) => DynLabel::Symbolic,
            (_, false) => DynLabel::Concrete,
        };
    }

    /// Merges another map (e.g. from a later run) into this one.
    pub fn merge(&mut self, other: &LabelMap) {
        for (i, l) in other.labels.iter().enumerate() {
            match l {
                DynLabel::Unvisited => {}
                DynLabel::Concrete => self.observe(BranchId(i as u32), false),
                DynLabel::Symbolic => self.observe(BranchId(i as u32), true),
            }
        }
    }

    /// Number of branch locations.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterator over `(BranchId, label)`.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, DynLabel)> + '_ {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (BranchId(i as u32), *l))
    }

    /// Count of branches with the given label.
    pub fn count(&self, label: DynLabel) -> usize {
        self.labels.iter().filter(|l| **l == label).count()
    }

    /// Fraction of branch locations visited, in percent (the paper's
    /// coverage metric for the LC/HC configurations).
    pub fn coverage_pct(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        let visited = self.len() - self.count(DynLabel::Unvisited);
        visited as f64 * 100.0 / self.labels.len() as f64
    }
}

/// Per-branch-location execution counts (Figures 1 and 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// Total executions per branch location.
    pub total: Vec<u64>,
    /// Executions with a symbolic condition per branch location.
    pub symbolic: Vec<u64>,
}

impl Profile {
    /// Zeroed profile for `n` branch locations.
    pub fn new(n: usize) -> Self {
        Profile {
            total: vec![0; n],
            symbolic: vec![0; n],
        }
    }

    /// Records one execution.
    pub fn observe(&mut self, b: BranchId, symbolic: bool) {
        self.total[b.0 as usize] += 1;
        if symbolic {
            self.symbolic[b.0 as usize] += 1;
        }
    }

    /// Adds another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..self.total.len() {
            self.total[i] += other.total[i];
            self.symbolic[i] += other.symbolic[i];
        }
    }

    /// Total branch executions.
    pub fn total_execs(&self) -> u64 {
        self.total.iter().sum()
    }

    /// Total symbolic branch executions.
    pub fn symbolic_execs(&self) -> u64 {
        self.symbolic.iter().sum()
    }

    /// Branch locations executed at least once.
    pub fn executed_locations(&self) -> usize {
        self.total.iter().filter(|c| **c > 0).count()
    }

    /// Branch locations executed symbolically at least once.
    pub fn symbolic_locations(&self) -> usize {
        self.symbolic.iter().filter(|c| **c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_upgrade_but_never_downgrade() {
        let mut m = LabelMap::new(2);
        let b = BranchId(0);
        assert_eq!(m.get(b), DynLabel::Unvisited);
        m.observe(b, false);
        assert_eq!(m.get(b), DynLabel::Concrete);
        m.observe(b, true);
        assert_eq!(m.get(b), DynLabel::Symbolic);
        m.observe(b, false);
        assert_eq!(m.get(b), DynLabel::Symbolic, "no downgrade");
    }

    #[test]
    fn merge_applies_upgrade_rules() {
        let mut a = LabelMap::new(3);
        a.observe(BranchId(0), false);
        a.observe(BranchId(1), true);
        let mut b = LabelMap::new(3);
        b.observe(BranchId(0), true);
        b.observe(BranchId(2), false);
        a.merge(&b);
        assert_eq!(a.get(BranchId(0)), DynLabel::Symbolic);
        assert_eq!(a.get(BranchId(1)), DynLabel::Symbolic);
        assert_eq!(a.get(BranchId(2)), DynLabel::Concrete);
    }

    #[test]
    fn coverage_counts_visited() {
        let mut m = LabelMap::new(4);
        m.observe(BranchId(0), false);
        m.observe(BranchId(1), true);
        assert!((m.coverage_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn profile_accumulates() {
        let mut p = Profile::new(2);
        p.observe(BranchId(0), false);
        p.observe(BranchId(0), true);
        p.observe(BranchId(1), false);
        assert_eq!(p.total_execs(), 3);
        assert_eq!(p.symbolic_execs(), 1);
        assert_eq!(p.executed_locations(), 2);
        assert_eq!(p.symbolic_locations(), 1);
    }
}
