//! Order-independent digests of output relations, and the committed
//! golden values for seed 1 at full size.

use crate::gen::Row;
use std::collections::BTreeMap;
use std::path::Path;

/// Tuple count plus the wrapping sum of a per-row hash: equal for any
/// two orderings of the same set, different (with overwhelming odds) for
/// different sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

fn row_hash(row: &[i32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in row {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // A finalizer, so rows differing in one low bit do not sum to
    // near-identical totals.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

pub fn digest(rows: &[Row]) -> Digest {
    Digest {
        count: rows.len() as u64,
        hash: rows
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r))),
    }
}

/// Digests of every `<rel>.csv` in a `stir -D` output directory.
pub fn digest_dir(dir: &Path) -> std::io::Result<BTreeMap<String, Digest>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "csv") {
            let rel = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_owned();
            out.insert(rel, digest(&crate::gen::read_rows(&path)?));
        }
    }
    Ok(out)
}

/// `golden.txt`: one `workload relation count hash` line per output
/// relation, written by `stir-benchmark verify --write-golden`.
const GOLDEN: &str = include_str!("../golden.txt");

pub fn golden(workload: &str) -> BTreeMap<String, Digest> {
    parse_golden(GOLDEN, workload)
}

fn parse_golden(text: &str, workload: &str) -> BTreeMap<String, Digest> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let [w, rel, count, hash] = fields[..] else {
                return None;
            };
            if w != workload {
                return None;
            }
            let digest = Digest {
                count: count.parse().ok()?,
                hash: u64::from_str_radix(hash, 16).ok()?,
            };
            Some((rel.to_owned(), digest))
        })
        .collect()
}

pub fn render_golden(all: &BTreeMap<String, BTreeMap<String, Digest>>) -> String {
    let mut out = String::from(
        "# workload relation tuples hash -- seed 1, full size; \
         regenerate with `stir-benchmark verify --write-golden`\n",
    );
    for (workload, rels) in all {
        for (rel, d) in rels {
            out.push_str(&format!("{workload} {rel} {} {:016x}\n", d.count, d.hash));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_sees_content() {
        let a = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let b = vec![vec![5, 6], vec![1, 2], vec![3, 4]];
        let c = vec![vec![1, 2], vec![3, 4], vec![5, 7]];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_ne!(digest(&[vec![1, 2]]), digest(&[vec![2, 1]]));
    }

    #[test]
    fn golden_round_trips_per_workload() {
        let d = Digest {
            count: 3,
            hash: 0xdead_beef,
        };
        let all = BTreeMap::from([
            ("w1".to_owned(), BTreeMap::from([("conn".to_owned(), d)])),
            ("w2".to_owned(), BTreeMap::new()),
        ]);
        let text = render_golden(&all);
        assert_eq!(parse_golden(&text, "w1"), all["w1"]);
        assert!(parse_golden(&text, "w2").is_empty());
    }
}
