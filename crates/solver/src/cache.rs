//! Path-prefix solve cache.
//!
//! Sibling candidates on a frontier differ by one negated tail literal:
//! almost everything a solve call does for one candidate — per-literal
//! interval refutation, backward range propagation, support collection —
//! was already done, with the same outcome, for a neighbour sharing the
//! prefix. A [`PrefixCache`] banks that work once per *executed* run and
//! lets every later solve over a shared prefix skip it.
//!
//! The cache only ever caches facts that are **provably
//! outcome-identical**, so solving with the cache on is bit-identical to
//! solving with it off (the cache-invariance suite in `retrace-bench`
//! pins this end to end):
//!
//! - *Satisfied-prefix signatures*: each registered literal held under
//!   the producing run's concrete assignment, which lies within the
//!   declared variable domains. The forward interval of that literal's
//!   expression (a sound over-approximation over those domains) must
//!   therefore contain the witness value — so the per-literal
//!   `obviously_unsat` check is provably false for every literal of a
//!   registered prefix, and skipping it cannot change the verdict.
//! - *Per-expression intervals and supports*: pure functions of the
//!   expression's node content and the variable table, both append-only
//!   and immutable once created — a cached value is valid for the rest
//!   of the session (and in any clone sharing the frozen arena prefix).
//! - *Propagation states*: [`propagate`](crate::interval::propagate())
//!   reads only the range-constraint vector and the declared domains.
//!   Its narrowing is recorded as a delta against the defaults, keyed by
//!   a signature of the *entire* range vector, and replayed onto the
//!   current (possibly longer) variable table — variables added after
//!   registration keep their defaults, exactly as a fresh propagation
//!   over the same ranges would leave them.
//!
//! Writes happen at one place only: the engines' serial bank phase
//! (`register_path`), after a run executed. Solves — including the
//! parallel workers' speculative solves — take the cache by shared
//! reference. That single-writer discipline is what makes the cache
//! counters worker-count-invariant: within a solve streak the cache
//! content is frozen, so every worker observes the same hits a serial
//! engine would.

use crate::arena::{ExprArena, ExprRef, VarId, VarInfo};
use crate::constraint::{ConstraintSet, Lit, RangeConstraint};
use crate::fasthash::{FastMap, FastSet};
use crate::interval::{propagate, range, Interval};

/// FNV-1a 128-bit offset basis. One home for the constants the search
/// crate's dedup signatures and this cache's prefix signatures share.
pub const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// FNV-1a 128-bit prime.
pub const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a hasher over `u128` words.
///
/// The exact mixing `search::signature` has always used, factored out so
/// the prefix cache can hash literal prefixes *incrementally* (one mix
/// per literal, reusing the running hash) and so the two crates cannot
/// drift apart on the constants.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Fnv128 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    /// Mixes one word: XOR, then multiply by the FNV prime.
    pub fn mix(&mut self, v: u128) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
    }

    /// Mixes one literal: its expression id, then its polarity. The
    /// literal part of `search::signature`, word for word.
    pub fn mix_lit(&mut self, l: &Lit) {
        self.mix(l.expr.0 as u128);
        self.mix(l.positive as u128);
    }

    /// Mixes one range constraint: its expression id and bounds.
    /// `observed` is a hint, not an identity (and propagation never
    /// reads it), so it stays out of the hash.
    pub fn mix_range(&mut self, rc: &RangeConstraint) {
        self.mix(0x5eed_0000_0000_0000u128 ^ rc.expr.0 as u128);
        self.mix(rc.lo as u128);
        self.mix(rc.hi as u128);
    }

    /// The current hash value.
    pub fn value(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Propagation states are registered for every prefix of a run's range
/// vector up to this length; longer vectors register only their first
/// `MAX_RANGE_PREFIXES` prefixes. Range constraints are rare on the
/// workloads that matter (the combined rows carry none), so the cap is
/// a memory bound, not a hit-rate concern.
const MAX_RANGE_PREFIXES: usize = 32;

/// The path-prefix solve cache. See the module docs for the exactness
/// argument behind each table.
#[derive(Debug, Default)]
pub struct PrefixCache {
    /// Signatures of every satisfied literal prefix ever registered.
    sat_prefixes: FastSet<u128>,
    /// Forward interval per literal/range expression (default domains).
    expr_ranges: FastMap<ExprRef, Interval>,
    /// Support (sorted, deduped) per literal expression.
    expr_supports: FastMap<ExprRef, Vec<VarId>>,
    /// Narrowing deltas vs the default domains, keyed by a signature of
    /// the full range-constraint vector.
    range_states: FastMap<u128, Vec<(u32, VarInfo)>>,
    /// Arena generation at the last registration (diagnostics; entries
    /// stay valid across generations because nodes are immutable).
    generation: u64,
    /// Executed paths registered so far.
    paths_registered: u64,
}

impl PrefixCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arena generation recorded by the last [`register_path`]
    /// (0 before the first registration).
    ///
    /// [`register_path`]: PrefixCache::register_path
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of executed paths registered.
    pub fn paths_registered(&self) -> u64 {
        self.paths_registered
    }

    /// Number of distinct satisfied-prefix signatures banked.
    pub fn n_prefixes(&self) -> usize {
        self.sat_prefixes.len()
    }

    /// Banks one executed run's path: `lits` are the path literals in
    /// execution order (each held under the run's concrete assignment),
    /// `ranges` the concretization constraints emitted along it (each
    /// admitted the run's observed value). Every literal prefix is
    /// registered as satisfied; every literal expression gets its
    /// interval and support memoized; every range-vector prefix gets its
    /// propagation state banked.
    pub fn register_path(&mut self, arena: &ExprArena, lits: &[Lit], ranges: &[RangeConstraint]) {
        self.generation = arena.generation();
        self.paths_registered += 1;
        let mut h = Fnv128::new();
        // Registered prefixes are closed under prefix, and the call that
        // registered one also banked the interval and support of each of
        // its literals: while the running prefix is registered, there is
        // nothing to add.
        let mut known = true;
        for l in lits {
            h.mix_lit(l);
            if known && self.sat_prefixes.contains(&h.value()) {
                continue;
            }
            known = false;
            self.sat_prefixes.insert(h.value());
            self.expr_ranges
                .entry(l.expr)
                .or_insert_with(|| range(arena, l.expr));
            self.expr_supports
                .entry(l.expr)
                .or_insert_with(|| arena.support(l.expr));
        }
        let defaults = arena.var_infos();
        let mut rh = Fnv128::new();
        let mut prefix = ConstraintSet::new();
        for rc in ranges.iter().take(MAX_RANGE_PREFIXES) {
            rh.mix_range(rc);
            prefix.push_range(*rc);
            let sig = rh.value();
            if self.range_states.contains_key(&sig) {
                continue;
            }
            // The run's witness satisfied every prefix of its own range
            // vector, so propagation cannot refute it; if it somehow
            // does (it would be a soundness bug elsewhere), just skip —
            // a missing entry only costs a recomputation.
            let Some(dom) = propagate(arena, &prefix) else {
                continue;
            };
            let deltas: Vec<(u32, VarInfo)> = dom
                .iter()
                .enumerate()
                .filter(|(i, d)| defaults[*i] != **d)
                .map(|(i, d)| (i as u32, *d))
                .collect();
            self.range_states.insert(sig, deltas);
        }
    }

    /// Length of the longest registered satisfied prefix of `lits`.
    /// Every literal below the returned length held, verbatim, on some
    /// executed run — the per-literal refutation check is provably false
    /// for each of them.
    pub fn sat_prefix_len(&self, lits: &[Lit]) -> usize {
        let mut h = Fnv128::new();
        let mut best = 0;
        for (i, l) in lits.iter().enumerate() {
            h.mix_lit(l);
            // Registered prefixes are closed under prefix (they are
            // inserted incrementally), so the first miss ends the walk.
            if !self.sat_prefixes.contains(&h.value()) {
                break;
            }
            best = i + 1;
        }
        best
    }

    /// The memoized forward interval of an expression, if banked.
    pub fn range_of(&self, e: ExprRef) -> Option<Interval> {
        self.expr_ranges.get(&e).copied()
    }

    /// The memoized support of an expression, if banked.
    pub fn support_of(&self, e: ExprRef) -> Option<&[VarId]> {
        self.expr_supports.get(&e).map(|v| v.as_slice())
    }

    /// Reconstructs the propagation result for `ranges` from a banked
    /// state: the current default domains with the registered narrowing
    /// deltas applied. `None` on a cache miss (the caller runs the real
    /// propagation). The reconstruction is exact — see the module docs.
    pub fn propagate_cached(
        &self,
        arena: &ExprArena,
        ranges: &[RangeConstraint],
    ) -> Option<Vec<VarInfo>> {
        if ranges.is_empty() || ranges.len() > MAX_RANGE_PREFIXES {
            return None;
        }
        let mut rh = Fnv128::new();
        for rc in ranges {
            rh.mix_range(rc);
        }
        let deltas = self.range_states.get(&rh.value())?;
        let mut dom = arena.var_infos().to_vec();
        for (i, info) in deltas {
            dom[*i as usize] = *info;
        }
        Some(dom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::VarInfo;
    use crate::op::Op;

    fn guard_chain(n: usize) -> (ExprArena, Vec<Lit>) {
        let mut a = ExprArena::new();
        let lits = (0..n)
            .map(|i| {
                let (_, v) = a.fresh_var(VarInfo::byte());
                let c = a.constant((i as i64 * 13) % 256);
                Lit {
                    expr: a.bin(Op::Eq, v, c),
                    positive: true,
                }
            })
            .collect();
        (a, lits)
    }

    #[test]
    fn sat_prefix_len_matches_shared_prefix() {
        let (a, lits) = guard_chain(6);
        let mut cache = PrefixCache::new();
        assert_eq!(cache.sat_prefix_len(&lits), 0, "empty cache never hits");
        cache.register_path(&a, &lits, &[]);
        assert_eq!(cache.paths_registered(), 1);
        // The whole path and every prefix are registered.
        assert_eq!(cache.sat_prefix_len(&lits), 6);
        assert_eq!(cache.sat_prefix_len(&lits[..3]), 3);
        // A sibling candidate (prefix + negated tail) hits the prefix.
        let mut sibling = lits[..4].to_vec();
        sibling.push(lits[4].negated());
        assert_eq!(cache.sat_prefix_len(&sibling), 4);
        // A candidate diverging at the first literal misses entirely.
        let mut stranger = vec![lits[0].negated()];
        stranger.extend_from_slice(&lits[1..]);
        assert_eq!(cache.sat_prefix_len(&stranger), 0);
    }

    #[test]
    fn prefix_signatures_distinguish_polarity_and_order() {
        let (a, lits) = guard_chain(2);
        let mut cache = PrefixCache::new();
        cache.register_path(&a, &lits, &[]);
        let swapped = vec![lits[1], lits[0]];
        assert_eq!(cache.sat_prefix_len(&swapped), 0, "order matters");
        let flipped = vec![lits[0].negated()];
        assert_eq!(cache.sat_prefix_len(&flipped), 0, "polarity matters");
    }

    #[test]
    fn registration_order_and_repeats_leave_the_same_cache() {
        let (a, lits) = guard_chain(6);
        let spliced = |head: &[Lit], tail: &[Lit]| [head, tail].concat();
        // Paths sharing prefixes: a trunk, a prefix of it, siblings that
        // leave it at different depths, and one that reorders its head.
        let paths = [
            lits.clone(),
            lits[..3].to_vec(),
            spliced(&lits[..2], &[lits[2].negated(), lits[4], lits[5]]),
            spliced(&lits[..4], &[lits[5]]),
            vec![lits[1], lits[0], lits[3]],
        ];
        let orders: [&[usize]; 4] = [
            &[0, 1, 2, 3, 4],
            &[4, 3, 2, 1, 0],
            &[1, 1, 0, 2, 0, 3, 4, 4],
            &[2, 3, 1, 0, 4, 2, 1],
        ];
        let cache_after = |order: &[usize]| {
            let mut c = PrefixCache::new();
            for &k in order {
                c.register_path(&a, &paths[k], &[]);
            }
            c
        };
        let want = cache_after(orders[0]);
        assert_eq!(want.n_prefixes(), 13, "distinct non-empty prefixes");
        for order in &orders[1..] {
            let got = cache_after(order);
            assert_eq!(got.n_prefixes(), want.n_prefixes(), "{order:?}");
            for p in &paths {
                for n in 0..=p.len() {
                    assert_eq!(got.sat_prefix_len(&p[..n]), want.sat_prefix_len(&p[..n]));
                }
            }
            for e in lits.iter().map(|l| l.expr) {
                assert_eq!(got.range_of(e), Some(range(&a, e)), "{order:?}");
                assert_eq!(got.range_of(e), want.range_of(e));
                assert_eq!(got.support_of(e), want.support_of(e));
            }
        }
    }

    #[test]
    fn expr_tables_memoize_interval_and_support() {
        let (a, lits) = guard_chain(3);
        let mut cache = PrefixCache::new();
        assert!(cache.range_of(lits[0].expr).is_none());
        cache.register_path(&a, &lits, &[]);
        for l in &lits {
            assert_eq!(cache.range_of(l.expr), Some(range(&a, l.expr)));
            assert_eq!(cache.support_of(l.expr), Some(&a.support(l.expr)[..]));
        }
    }

    #[test]
    fn propagate_cached_reconstructs_exactly() {
        let mut a = ExprArena::new();
        let (_, x) = a.fresh_var(VarInfo::byte());
        let four = a.constant(4);
        let seven = a.constant(7);
        let scaled = a.bin(Op::Mul, x, four);
        let off = a.bin(Op::Add, scaled, seven);
        let ranges = vec![RangeConstraint::range(off, 27, 48, 31)];
        let mut cache = PrefixCache::new();
        assert!(cache.propagate_cached(&a, &ranges).is_none(), "cold miss");
        cache.register_path(&a, &[], &ranges);
        let mut cs = ConstraintSet::new();
        cs.push_range(ranges[0]);
        let fresh = propagate(&a, &cs).expect("satisfiable");
        assert_eq!(cache.propagate_cached(&a, &ranges), Some(fresh));
        // Exactness must survive later-added variables: the new var
        // keeps its default domain, exactly as a fresh propagation
        // over the same ranges would leave it.
        a.fresh_var(VarInfo::range(-1, 4096));
        let fresh2 = propagate(&a, &cs).expect("satisfiable");
        assert_eq!(cache.propagate_cached(&a, &ranges), Some(fresh2));
        // A different bound vector is a different key.
        let other = vec![RangeConstraint::range(off, 27, 49, 31)];
        assert!(cache.propagate_cached(&a, &other).is_none());
    }

    #[test]
    fn register_records_arena_generation() {
        let (mut a, lits) = guard_chain(2);
        let mut cache = PrefixCache::new();
        cache.register_path(&a, &lits[..1], &[]);
        assert_eq!(cache.generation(), 0, "unfrozen arena registers gen 0");
        let g = a.freeze();
        cache.register_path(&a, &lits, &[]);
        assert_eq!(cache.generation(), g);
    }

    #[test]
    fn fnv_matches_reference_mixing() {
        // Pin the factored-out hasher to the historical constants: the
        // frontier dedup signatures (and therefore every golden table)
        // depend on these exact values.
        let mut h = Fnv128::new();
        assert_eq!(h.value(), FNV128_OFFSET);
        h.mix(7);
        assert_eq!(h.value(), (FNV128_OFFSET ^ 7).wrapping_mul(FNV128_PRIME));
    }
}
