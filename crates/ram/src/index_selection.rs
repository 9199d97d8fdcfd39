//! Automatic index selection by minimum chain cover.
//!
//! Implements the MinIndex algorithm of Subotic et al., *Automatic Index
//! Selection for Large-Scale Datalog Computation* (VLDB 2018) — reference
//! 48 of the STI paper. Every primitive search on a relation has a
//! *search signature*: the set of columns it binds. A lexicographic order
//! can service a signature iff the signature's columns form a prefix of
//! the order, so a single order can service any *chain* of signatures
//! `s1 ⊂ s2 ⊂ ... ⊂ sk`. The minimum number of indexes is therefore the
//! minimum number of chains covering the signature set which, by
//! Dilworth/König, equals `|S| − |maximum matching|` in the bipartite
//! containment graph. We compute the matching with Kuhn's augmenting-path
//! algorithm (signature sets are small) and read the chains off the
//! matching.

use crate::program::{ColumnOrder, RamProgram, ReprKind, Role};
use crate::stmt::{RamCond, RamOp, RamStmt};
use std::collections::{BTreeSet, HashMap};

/// A search signature: bit `c` set ⇔ source column `c` is bound.
pub type Signature = u32;

/// Computes the signature of a pattern.
pub fn signature_of<T>(pattern: &[Option<T>]) -> Signature {
    let mut sig = 0;
    for (c, p) in pattern.iter().enumerate() {
        if p.is_some() {
            sig |= 1 << c;
        }
    }
    sig
}

/// The outcome of index selection for one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionResult {
    /// The chosen index orders; `orders[0]` is the primary index.
    pub orders: Vec<ColumnOrder>,
    /// Which index services each signature.
    pub index_of: HashMap<Signature, usize>,
}

/// Runs minimum-chain-cover index selection for one relation.
///
/// The empty signature (full scan) and the full signature (whole-tuple
/// existence check) are serviceable by any index; they are mapped to the
/// primary index / folded into a chain respectively.
pub fn select_indexes(arity: usize, signatures: &BTreeSet<Signature>) -> SelectionResult {
    // Full scans need no dedicated index.
    let sigs: Vec<Signature> = signatures.iter().copied().filter(|&s| s != 0).collect();
    if sigs.is_empty() {
        return SelectionResult {
            orders: vec![(0..arity).collect()],
            index_of: [(0, 0)].into_iter().collect(),
        };
    }

    let n = sigs.len();
    // Bipartite containment graph: left i → right j iff sigs[i] ⊂ sigs[j].
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| i != j && sigs[i] & sigs[j] == sigs[i] && sigs[i] != sigs[j])
                .collect()
        })
        .collect();

    // Kuhn's algorithm.
    let mut match_right: Vec<Option<usize>> = vec![None; n]; // right j ← left i
    let mut match_left: Vec<Option<usize>> = vec![None; n]; // left i → right j
    fn try_augment(
        u: usize,
        adj: &[Vec<usize>],
        seen: &mut [bool],
        match_right: &mut [Option<usize>],
        match_left: &mut [Option<usize>],
    ) -> bool {
        for &v in &adj[u] {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            if match_right[v].is_none()
                || try_augment(
                    match_right[v].expect("checked"),
                    adj,
                    seen,
                    match_right,
                    match_left,
                )
            {
                match_right[v] = Some(u);
                match_left[u] = Some(v);
                return true;
            }
        }
        false
    }
    for u in 0..n {
        let mut seen = vec![false; n];
        try_augment(u, &adj, &mut seen, &mut match_right, &mut match_left);
    }

    // Chains: heads are left nodes that are not any edge's target.
    let mut orders: Vec<ColumnOrder> = Vec::new();
    let mut index_of: HashMap<Signature, usize> = HashMap::new();
    for (head, preceded) in match_right.iter().enumerate() {
        if preceded.is_some() {
            continue; // not a chain head: something precedes it
        }
        let index_id = orders.len();
        let mut order: ColumnOrder = Vec::with_capacity(arity);
        let mut covered: Signature = 0;
        let mut cur = Some(head);
        while let Some(i) = cur {
            let sig = sigs[i];
            // Append the newly bound columns in ascending order.
            for c in 0..arity {
                if sig & (1 << c) != 0 && covered & (1 << c) == 0 {
                    order.push(c);
                }
            }
            covered = sig;
            index_of.insert(sig, index_id);
            cur = match_left[i];
        }
        // Pad with the unused columns for a total order.
        for c in 0..arity {
            if covered & (1 << c) == 0 {
                order.push(c);
            }
        }
        orders.push(order);
    }
    index_of.insert(0, 0); // full scans use the primary index
    SelectionResult { orders, index_of }
}

/// Collects all search signatures per relation, runs selection, stores the
/// chosen orders on each [`crate::program::RamRelation`], and patches the
/// `index` field of every `IndexScan`/`ExistenceCheck`/`Aggregate`.
///
/// Equivalence relations keep their single natural-order index; the
/// translator has already flipped `{1}` signatures into `{0}` using
/// symmetry.
pub fn assign_indexes(program: &mut RamProgram) {
    let nrels = program.relations.len();
    let mut signatures: Vec<BTreeSet<Signature>> = vec![BTreeSet::new(); nrels];

    let mut collect = |stmt: &RamStmt| {
        if let RamStmt::Query { op, .. } = stmt {
            op.walk(&mut |op| match op {
                RamOp::IndexScan { rel, pattern, .. } | RamOp::Aggregate { rel, pattern, .. } => {
                    signatures[rel.0].insert(signature_of(pattern));
                }
                RamOp::Filter { cond, .. } => collect_cond(cond, &mut signatures),
                _ => {}
            });
        }
        if let RamStmt::Exit(cond) = stmt {
            collect_cond(cond, &mut signatures);
        }
    };
    for stmt in program.stmts() {
        stmt.walk(&mut collect);
    }

    // Provenance annotation columns are excluded by construction: the two
    // widened `(height, rule)` columns live in a dedicated side store
    // outside the queryable index set, so no search signature may bind
    // them — every signature must fit the relation's declared arity.
    debug_assert!(
        signatures
            .iter()
            .zip(&program.relations)
            .all(|(sigs, r)| sigs.iter().all(|s| (s >> r.arity) == 0)),
        "search signature covers columns beyond the declared arity"
    );

    // A relation and its `delta_`/`new_` versions are one logical relation:
    // they exchange contents via MERGE/SWAP, so they must share one index
    // layout. Union their signatures and select once per group (this is
    // also what Soufflé's index analysis does). A `cone_` relation is only
    // ever scanned whole, so it keeps one natural-order index of its own.
    let group_of: Vec<usize> = program
        .relations
        .iter()
        .map(|r| match r.role {
            Role::Delta(base) | Role::New(base) | Role::Upd(base) => base.0,
            Role::Standard | Role::Cone(_) => r.id.0,
        })
        .collect();
    let mut group_signatures: Vec<BTreeSet<Signature>> = vec![BTreeSet::new(); nrels];
    for (i, sigs) in signatures.iter().enumerate() {
        group_signatures[group_of[i]].extend(sigs.iter().copied());
    }

    let mut results: Vec<Option<SelectionResult>> = vec![None; nrels];
    for (i, rel) in program.relations.iter().enumerate() {
        if group_of[i] != i {
            continue;
        }
        let res = if rel.repr == ReprKind::EqRel {
            let mut index_of = HashMap::new();
            for &sig in &group_signatures[i] {
                index_of.insert(sig, 0);
            }
            index_of.insert(0, 0);
            SelectionResult {
                orders: vec![vec![0, 1]],
                index_of,
            }
        } else {
            select_indexes(rel.arity, &group_signatures[i])
        };
        results[i] = Some(res);
    }
    let results: Vec<SelectionResult> = group_of
        .iter()
        .map(|&g| results[g].clone().expect("group representative selected"))
        .collect();
    for (rel, res) in program.relations.iter_mut().zip(&results) {
        rel.orders = res.orders.clone();
    }

    let mut patch = |stmt: &mut RamStmt| match stmt {
        RamStmt::Query { op, .. } => {
            op.walk_mut(&mut |op| match op {
                RamOp::IndexScan {
                    rel,
                    index,
                    pattern,
                    ..
                }
                | RamOp::Aggregate {
                    rel,
                    index,
                    pattern,
                    ..
                } => {
                    *index = results[rel.0].index_of[&signature_of(pattern)];
                }
                RamOp::Filter { cond, .. } => patch_cond(cond, &results),
                _ => {}
            });
        }
        RamStmt::Exit(cond) => patch_cond(cond, &results),
        _ => {}
    };
    for stmt in program.stmts_mut() {
        stmt.walk_mut(&mut patch);
    }
}

fn collect_cond(cond: &RamCond, signatures: &mut [BTreeSet<Signature>]) {
    match cond {
        RamCond::Conjunction(cs) => {
            for c in cs {
                collect_cond(c, signatures);
            }
        }
        RamCond::Negation(c) => collect_cond(c, signatures),
        RamCond::ExistenceCheck { rel, pattern, .. } => {
            signatures[rel.0].insert(signature_of(pattern));
        }
        _ => {}
    }
}

fn patch_cond(cond: &mut RamCond, results: &[SelectionResult]) {
    match cond {
        RamCond::Conjunction(cs) => {
            for c in cs {
                patch_cond(c, results);
            }
        }
        RamCond::Negation(c) => patch_cond(c, results),
        RamCond::ExistenceCheck {
            rel,
            index,
            pattern,
        } => {
            *index = results[rel.0].index_of[&signature_of(pattern)];
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs(list: &[&[usize]]) -> BTreeSet<Signature> {
        list.iter()
            .map(|cols| cols.iter().fold(0u32, |acc, &c| acc | (1 << c)))
            .collect()
    }

    fn covers(order: &[usize], sig: Signature) -> bool {
        // sig's columns must be a prefix of order.
        let k = sig.count_ones() as usize;
        let prefix: BTreeSet<usize> = order[..k].iter().copied().collect();
        (0..32)
            .filter(|c| sig & (1 << c) != 0)
            .all(|c| prefix.contains(&c))
    }

    #[test]
    fn no_searches_yield_one_natural_index() {
        let res = select_indexes(3, &BTreeSet::new());
        assert_eq!(res.orders, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn chain_of_subsets_shares_one_index() {
        // {0} ⊂ {0,1} ⊂ {0,1,2}: a single index covers all three.
        let res = select_indexes(3, &sigs(&[&[0], &[0, 1], &[0, 1, 2]]));
        assert_eq!(res.orders.len(), 1);
        for (&sig, &idx) in &res.index_of {
            assert!(covers(&res.orders[idx], sig), "sig {sig:b}");
        }
    }

    #[test]
    fn incomparable_signatures_need_two_indexes() {
        // {0} and {1} cannot share a prefix.
        let res = select_indexes(2, &sigs(&[&[0], &[1]]));
        assert_eq!(res.orders.len(), 2);
        for (&sig, &idx) in &res.index_of {
            assert!(covers(&res.orders[idx], sig));
        }
    }

    #[test]
    fn diamond_is_covered_by_two_chains() {
        // {0}, {1}, {0,1}: minimum cover is 2 chains
        // (e.g. {0}⊂{0,1} and {1}).
        let res = select_indexes(2, &sigs(&[&[0], &[1], &[0, 1]]));
        assert_eq!(res.orders.len(), 2);
        for (&sig, &idx) in &res.index_of {
            assert!(covers(&res.orders[idx], sig));
        }
    }

    #[test]
    fn paper_style_example_minimizes() {
        // Signatures {0}, {2}, {0,2}, {0,1,2} over arity 3:
        // chains {0} ⊂ {0,2} ⊂ {0,1,2} and {2} → 2 indexes.
        let res = select_indexes(3, &sigs(&[&[0], &[2], &[0, 2], &[0, 1, 2]]));
        assert_eq!(res.orders.len(), 2);
        for (&sig, &idx) in &res.index_of {
            assert!(covers(&res.orders[idx], sig));
        }
    }

    #[test]
    fn every_order_is_a_permutation() {
        let res = select_indexes(4, &sigs(&[&[1], &[1, 3], &[2], &[0, 2], &[3]]));
        for order in &res.orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn full_scan_signature_maps_to_primary() {
        let res = select_indexes(2, &sigs(&[&[1]]));
        assert_eq!(res.index_of[&0], 0);
    }
}
