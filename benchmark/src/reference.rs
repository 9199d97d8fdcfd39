//! Plain-Rust reference answers: BFS, hash join, nested loop.
//!
//! Deliberately uses no `stir*` crate, so a bug shared by every product
//! evaluation path (interpreter, resident engine, disk indexes) still
//! shows as a mismatch. Only the relations that carry the workloads'
//! weight are recomputed; the golden digests cover the rest at seed 1.

use crate::gen::{Facts, Row};
use std::collections::{BTreeMap, HashMap, HashSet};

fn rows<'a>(facts: &'a Facts, rel: &str) -> &'a [Row] {
    facts.get(rel).map_or(&[], Vec::as_slice)
}

/// `|subnet_reach|` and `|conn|` for the VPC program.
///
/// The peering rule of `subnet_reach` also requires `route(b, c)`, so it
/// derives nothing the plain route rule does not: the relation is the
/// reflexive-transitive closure of `route` from every subnet.
pub fn vpc_counts(facts: &Facts) -> BTreeMap<&'static str, usize> {
    let mut adj: HashMap<i32, Vec<i32>> = HashMap::new();
    for r in rows(facts, "route") {
        adj.entry(r[0]).or_default().push(r[1]);
    }
    let mut reach: HashSet<(i32, i32)> = HashSet::new();
    for s in rows(facts, "subnet") {
        let start = s[0];
        let mut seen = HashSet::from([start]);
        let mut frontier = vec![start];
        while let Some(b) = frontier.pop() {
            for &c in adj.get(&b).map_or(&[][..], Vec::as_slice) {
                if seen.insert(c) {
                    frontier.push(c);
                }
            }
        }
        reach.extend(seen.into_iter().map(|c| (start, c)));
    }

    let mut in_subnet: HashMap<i32, Vec<i32>> = HashMap::new();
    for r in rows(facts, "instance") {
        in_subnet.entry(r[1]).or_default().push(r[0]);
    }
    let listens: HashSet<(i32, i32)> = rows(facts, "listens")
        .iter()
        .map(|r| (r[0], r[1]))
        .collect();
    let mut conn: HashSet<(i32, i32, i32)> = HashSet::new();
    for acl in rows(facts, "acl_allow") {
        let (sa, sb, port) = (acl[0], acl[1], acl[2]);
        if !reach.contains(&(sa, sb)) {
            continue;
        }
        let (Some(from), Some(to)) = (in_subnet.get(&sa), in_subnet.get(&sb)) else {
            continue;
        };
        for &j in to.iter().filter(|&&j| listens.contains(&(j, port))) {
            conn.extend(from.iter().filter(|&&i| i != j).map(|&i| (i, j, port)));
        }
    }
    BTreeMap::from([("subnet_reach", reach.len()), ("conn", conn.len())])
}

/// `|code|`, `|moved_label|` and `|moved_data|` for the DDisasm program.
/// Arithmetic is 32-bit with a truncated remainder, as in the engine.
pub fn ddisasm_counts(facts: &Facts) -> BTreeMap<&'static str, usize> {
    let mut succ: HashMap<i32, Vec<i32>> = HashMap::new();
    let rets: HashSet<i32> = rows(facts, "ret").iter().map(|r| r[0]).collect();
    for r in rows(facts, "next") {
        if !rets.contains(&r[0]) {
            succ.entry(r[0]).or_default().push(r[1]);
        }
    }
    for rel in ["direct_jump", "direct_call"] {
        for r in rows(facts, rel) {
            succ.entry(r[0]).or_default().push(r[1]);
        }
    }
    let mut code: HashSet<i32> = rows(facts, "entry").iter().map(|r| r[0]).collect();
    let mut frontier: Vec<i32> = code.iter().copied().collect();
    while let Some(a) = frontier.pop() {
        for &b in succ.get(&a).map_or(&[][..], Vec::as_slice) {
            if code.insert(b) {
                frontier.push(b);
            }
        }
    }

    let mut moved_label: HashSet<(i32, i32, i32)> = HashSet::new();
    let mut moved_data: HashSet<(i32, i32)> = HashSet::new();
    for sym in rows(facts, "sym_value") {
        let (a, v) = (sym[0], sym[1]);
        for cand in rows(facts, "candidate") {
            let (c, k) = (cand[0], cand[1]);
            let d = v - c;
            if v >= c - 4096
                && v <= c + 4096
                && (v & 4095) != 0
                && d != 0
                && d % 8 == 0
                && ((v ^ k) & 7) != 3
                && v * 2 - c > 16
            {
                moved_label.insert((a, v, d));
            }
            if c >= v - 512 && c <= v + 512 && (c & 15) == (v & 15) && (k + v - c) % 4 != 1 {
                moved_data.insert((a, c));
            }
        }
    }
    BTreeMap::from([
        ("code", code.len()),
        ("moved_label", moved_label.len()),
        ("moved_data", moved_data.len()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpc_closure_and_join_on_a_hand_checked_topology() {
        // Subnets 0 -> 1 -> 2, instance k lives in subnet k.
        let facts = Facts::from([
            ("subnet", vec![vec![0, 0], vec![1, 0], vec![2, 0]]),
            ("route", vec![vec![0, 1], vec![1, 2]]),
            ("instance", vec![vec![0, 0], vec![1, 1], vec![2, 2]]),
            (
                "acl_allow",
                vec![vec![0, 2, 80], vec![2, 0, 80], vec![0, 0, 80]],
            ),
            ("listens", vec![vec![2, 80], vec![0, 80]]),
        ]);
        let c = vpc_counts(&facts);
        // 0 reaches {0,1,2}, 1 reaches {1,2}, 2 reaches {2}.
        assert_eq!(c["subnet_reach"], 3 + 2 + 1);
        // acl 0->2 is reachable (conn(0,2,80)); 2->0 is not; 0->0 needs i != j.
        assert_eq!(c["conn"], 1);
    }

    #[test]
    fn ddisasm_reachability_stops_at_returns() {
        let facts = Facts::from([
            ("entry", vec![vec![1]]),
            ("next", vec![vec![1, 2], vec![2, 3], vec![3, 4]]),
            ("ret", vec![vec![2]]),
            ("direct_jump", vec![vec![1, 9]]),
            ("direct_call", vec![]),
            // v - c = 8, v & 4095 = 8: passes every moved_label filter.
            ("sym_value", vec![vec![1, 0x40_0008]]),
            ("candidate", vec![vec![0x40_0000, 0], vec![0x40_0008, 0]]),
        ]);
        let c = ddisasm_counts(&facts);
        // 1, 2 (fallthrough) and 9 (jump); 2 returns, so 3 is not reached.
        assert_eq!(c["code"], 3);
        // d = 8 passes, d = 0 does not.
        assert_eq!(c["moved_label"], 1);
        // c = 0x400000: low nibbles 0 and 8 differ. c = v: (0 + 0) % 4 != 1.
        assert_eq!(c["moved_data"], 1);
    }
}
