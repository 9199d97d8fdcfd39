//! Operation classes and the seeded schedules that emit them.
//!
//! A schedule is a pure function of (seed, connection): the n-th
//! operation a connection issues is the same on every run and every
//! commit; only how many get issued in the timed window varies.

use crate::gen::{Facts, Row, DDISASM_HUB, PORTS};
use crate::rng::{KeyDist, Rng};
use std::collections::{HashSet, VecDeque};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A query with every column bound.
    Point,
    /// A query whose bound columns are an index prefix.
    Prefix,
    /// A query no index serves: the relation is scanned.
    Scan,
    /// `+fact.` into a non-recursive stratum's input.
    Update,
    /// `-fact.` of an earlier [`Class::Update`].
    Retract,
    /// Sixteen `+fact.` lines sent in one write.
    Burst,
    /// `+edge.` into the recursive stratum's input.
    EdgeInsert,
    /// `-edge.` of an earlier [`Class::EdgeInsert`]: DRed over the
    /// recursive stratum.
    EdgeRetract,
}

pub const BURST_LINES: usize = 16;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fact {
    pub rel: &'static str,
    pub row: Row,
}

impl Fact {
    fn atom(&self) -> String {
        let terms: Vec<String> = self.row.iter().map(i32::to_string).collect();
        format!("{}({})", self.rel, terms.join(", "))
    }

    pub fn insert_line(&self) -> String {
        format!("+{}.", self.atom())
    }

    pub fn retract_line(&self) -> String {
        format!("-{}.", self.atom())
    }

    pub fn query_line(&self) -> String {
        format!("?{}", self.atom())
    }
}

/// `?rel(1, _, 3)` as the relation name and one `Some(constant)` or
/// `None` (free) per column.
pub fn parse_query(line: &str) -> Option<(&str, Vec<Option<i32>>)> {
    let (rel, terms) = line.strip_prefix('?')?.strip_suffix(')')?.split_once('(')?;
    let pattern = terms
        .split(',')
        .map(|t| match t.trim() {
            "_" => Some(None),
            n => n.parse().ok().map(Some),
        })
        .collect::<Option<_>>()?;
    Some((rel, pattern))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub class: Class,
    pub lines: Vec<String>,
}

impl Op {
    fn one(class: Class, line: String) -> Op {
        Op {
            class,
            lines: vec![line],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    Vpc,
    Ddisasm,
}

/// What the schedules need to know about one generated database: its key
/// spaces, and pools of facts that are not in it.
#[derive(Debug, Clone)]
pub struct Domain {
    pub program: Program,
    /// VPC: instance ids are `0..keys_a`, subnet ids `0..keys_b`.
    /// DDisasm: `addrs[..keys_a]` carry symbols, `addrs[..keys_b]` is code.
    keys_a: usize,
    keys_b: usize,
    addrs: Vec<i32>,
    /// Facts for [`Class::Update`]/[`Class::Burst`], none of them in the
    /// base facts, all distinct.
    pub fresh_facts: Vec<Fact>,
    /// A second such pool for the fixed-count phase after the timed one, so
    /// that however far the timed phase got (and wrapped) in
    /// `fresh_facts`, these are known not to be live.
    pub coda_facts: Vec<Fact>,
    /// Edges for [`Class::EdgeInsert`], likewise.
    pub fresh_edges: Vec<Fact>,
}

const CODA_POOL: usize = 64;
/// (wanted, required) sizes: the timed phase's pool plus the coda's; edges.
const FACT_POOLS: (usize, usize) = (2048 + CODA_POOL, 2 * CODA_POOL);
const EDGE_POOL: (usize, usize) = (64, 8);

impl Domain {
    pub fn new(program: Program, facts: &Facts, seed: u64) -> Domain {
        let mut rng = Rng::stream(seed, "fresh-facts");
        let base = |rel: &'static str| -> HashSet<Fact> {
            facts[rel]
                .iter()
                .map(|row| Fact {
                    rel,
                    row: row.clone(),
                })
                .collect()
        };
        // Up to `n` distinct facts outside `taken`; fewer when the key space
        // is too small to hold that many (tiny test sizes). `make` gets the
        // position the fact will have, so that pools can alternate between
        // relations: every seed then inserts the same mix.
        let mut pool = |mut taken: HashSet<Fact>,
                        (n, at_least): (usize, usize),
                        make: &mut dyn FnMut(&mut Rng, usize) -> Fact| {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n * 8 {
                let f = make(&mut rng, out.len());
                if out.len() < n && taken.insert(f.clone()) {
                    out.push(f);
                }
            }
            assert!(out.len() >= at_least, "key space too small for a fact pool");
            out
        };
        match program {
            Program::Vpc => {
                let instances = facts["instance"].len();
                let subnets = facts["subnet"].len();
                let per_vpc = subnets / facts["vpc"].len();
                let mut small = base("listens");
                small.extend(base("acl_allow"));
                let mut fresh_facts = pool(small, FACT_POOLS, &mut |r, at| {
                    if at % 2 == 0 {
                        Fact {
                            rel: "listens",
                            row: vec![r.below(instances) as i32, *r.pick(&PORTS)],
                        }
                    } else {
                        Fact {
                            rel: "acl_allow",
                            row: vec![
                                r.below(subnets) as i32,
                                r.below(subnets) as i32,
                                *r.pick(&PORTS),
                            ],
                        }
                    }
                });
                // Intra-VPC shortcuts. The closure is already complete, so
                // inserting one derives nothing; retracting it is the case
                // DRed handles worst: every pair has a derivation through it.
                let fresh_edges = pool(base("route"), EDGE_POOL, &mut |r, _| {
                    let v = r.below(subnets / per_vpc) * per_vpc;
                    let from = r.below(per_vpc);
                    let to = (from + 1 + r.below(per_vpc - 1)) % per_vpc;
                    Fact {
                        rel: "route",
                        row: vec![(v + from) as i32, (v + to) as i32],
                    }
                });
                Domain {
                    program,
                    coda_facts: fresh_facts.split_off(fresh_facts.len() - CODA_POOL),
                    keys_a: instances,
                    keys_b: subnets,
                    addrs: Vec::new(),
                    fresh_facts,
                    fresh_edges,
                }
            }
            Program::Ddisasm => {
                let addrs: Vec<i32> = facts["instr"].iter().map(|r| r[0]).collect();
                let mut small = base("candidate");
                small.extend(base("sym_value"));
                let mut fresh_facts = pool(small, FACT_POOLS, &mut |r, at| {
                    let near_hub = (DDISASM_HUB + r.range(-6000, 6000)) as i32;
                    if at % 2 == 0 {
                        Fact {
                            rel: "candidate",
                            row: vec![near_hub, r.below(16) as i32],
                        }
                    } else {
                        Fact {
                            rel: "sym_value",
                            row: vec![*r.pick(&addrs), near_hub],
                        }
                    }
                });
                // Jumps from one entry point to another: both ends are code
                // already, so (as with the VPC shortcuts) the insert derives
                // nothing in `code` and the retract over-deletes everything
                // reachable from the target, whatever the seed.
                let entries: Vec<i32> = facts["entry"].iter().map(|r| r[0]).collect();
                let fresh_edges = pool(base("direct_jump"), EDGE_POOL, &mut |r, _| {
                    let from = r.below(entries.len());
                    let to = (from + 1 + r.below(entries.len() - 1)) % entries.len();
                    Fact {
                        rel: "direct_jump",
                        row: vec![entries[from], entries[to]],
                    }
                });
                Domain {
                    program,
                    coda_facts: fresh_facts.split_off(fresh_facts.len() - CODA_POOL),
                    keys_a: facts["sym_value"].len().min(addrs.len()),
                    keys_b: addrs.len(),
                    addrs,
                    fresh_facts,
                    fresh_edges,
                }
            }
        }
    }

    fn query(&self, class: Class, rng: &mut Rng, keys: &Keys) -> String {
        let (a, b) = (keys.a.sample(rng), keys.b.sample(rng));
        let coin = rng.chance(0.5);
        match (self.program, class) {
            (Program::Vpc, Class::Point) => format!(
                "?conn({a}, {}, {})",
                rng.below(self.keys_a),
                rng.pick(&PORTS)
            ),
            (Program::Vpc, Class::Prefix) if coin => format!("?conn({a}, _, _)"),
            (Program::Vpc, Class::Prefix) => format!("?subnet_reach(_, {b})"),
            (Program::Vpc, Class::Scan) if coin => format!("?subnet_reach({b}, _)"),
            (Program::Vpc, Class::Scan) => format!("?conn(_, _, {})", rng.pick(&PORTS)),
            (Program::Ddisasm, Class::Point) => {
                format!("?in_block({}, {})", self.addrs[b], rng.pick(&self.addrs))
            }
            (Program::Ddisasm, Class::Prefix) if coin => {
                format!("?moved_label({}, _, _)", self.addrs[a])
            }
            (Program::Ddisasm, Class::Prefix) => format!("?in_block({}, _)", self.addrs[b]),
            (Program::Ddisasm, Class::Scan) if coin => format!("?in_block(_, {})", self.addrs[b]),
            (Program::Ddisasm, Class::Scan) => {
                format!("?moved_data(_, {})", DDISASM_HUB + rng.range(-6000, 6000))
            }
            (_, other) => unreachable!("{other:?} is not a query class"),
        }
    }
}

/// How a schedule draws its two kinds of key.
#[derive(Debug, Clone)]
pub struct Keys {
    a: KeyDist,
    b: KeyDist,
}

/// Zipf exponent of the skewed read mixes (YCSB's default).
pub const ZIPF_S: f64 = 0.99;

impl Keys {
    pub fn new(domain: &Domain, zipf: bool) -> Keys {
        let dist = |n| {
            if zipf {
                KeyDist::zipf(n, ZIPF_S)
            } else {
                KeyDist::Uniform(n)
            }
        };
        Keys {
            a: dist(domain.keys_a),
            b: dist(domain.keys_b),
        }
    }
}

/// Shares of a read-mostly mix, in tenths of a percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub point: u32,
    pub prefix: u32,
    pub scan: u32,
    pub update: u32,
}

/// A strided cursor over one of the domain's pools: connection `c` of `n`
/// takes entries `c, c + n, ...`, so no two connections hold the same fact.
#[derive(Debug, Clone)]
pub struct PoolCursor {
    next: usize,
    stride: usize,
}

impl PoolCursor {
    fn take<'a>(&mut self, pool: &'a [Fact]) -> &'a Fact {
        let f = &pool[self.next % pool.len()];
        self.next += self.stride;
        f
    }
}

/// One connection's operation source.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Draws each operation from a mix.
    Mixed {
        rng: Rng,
        keys: Keys,
        mix: Mix,
        facts: PoolCursor,
        live: Vec<Fact>,
    },
    /// The write cycle: eight single inserts, one burst of sixteen, then
    /// retracts of the oldest live facts down to [`WRITER_WINDOW`], so the
    /// database stays the same size however long the phase runs.
    Writer {
        facts: PoolCursor,
        live: VecDeque<Fact>,
        step: usize,
    },
}

pub const WRITER_SINGLES: usize = 8;
pub const WRITER_WINDOW: usize = WRITER_SINGLES + BURST_LINES;

impl Schedule {
    pub fn mixed(
        domain: &Domain,
        seed: u64,
        conn: usize,
        conns: usize,
        mix: Mix,
        zipf: bool,
    ) -> Schedule {
        Schedule::Mixed {
            rng: Rng::stream(seed, &format!("conn-{conn}")),
            keys: Keys::new(domain, zipf),
            mix,
            facts: PoolCursor {
                next: conn,
                stride: conns,
            },
            live: Vec::new(),
        }
    }

    pub fn writer(conn: usize, conns: usize) -> Schedule {
        Schedule::Writer {
            facts: PoolCursor {
                next: conn,
                stride: conns,
            },
            live: VecDeque::new(),
            step: 0,
        }
    }

    pub fn next_op(&mut self, domain: &Domain) -> Op {
        match self {
            Schedule::Mixed {
                rng,
                keys,
                mix,
                facts,
                live,
            } => {
                let roll = rng.below(1000) as u32;
                let class = if roll < mix.point {
                    Class::Point
                } else if roll < mix.point + mix.prefix {
                    Class::Prefix
                } else if roll < mix.point + mix.prefix + mix.scan {
                    Class::Scan
                } else {
                    Class::Update
                };
                if class == Class::Update {
                    let f = facts.take(&domain.fresh_facts).clone();
                    let line = f.insert_line();
                    live.push(f);
                    Op::one(class, line)
                } else {
                    Op::one(class, domain.query(class, rng, keys))
                }
            }
            Schedule::Writer { facts, live, step } => {
                let cycle_step = *step;
                if cycle_step < WRITER_SINGLES {
                    *step += 1;
                    let f = facts.take(&domain.fresh_facts).clone();
                    let line = f.insert_line();
                    live.push_back(f);
                    Op::one(Class::Update, line)
                } else if cycle_step == WRITER_SINGLES {
                    *step += 1;
                    let burst: Vec<Fact> = (0..BURST_LINES)
                        .map(|_| facts.take(&domain.fresh_facts).clone())
                        .collect();
                    let lines = burst.iter().map(Fact::insert_line).collect();
                    live.extend(burst);
                    Op {
                        class: Class::Burst,
                        lines,
                    }
                } else if live.len() > WRITER_WINDOW {
                    let f = live.pop_front().expect("non-empty");
                    Op::one(Class::Retract, f.retract_line())
                } else {
                    *step = 0;
                    self.next_op(domain)
                }
            }
        }
    }

    /// Facts this schedule inserted and has not retracted.
    pub fn live(&self) -> Vec<Fact> {
        match self {
            Schedule::Mixed { live, .. } => live.clone(),
            Schedule::Writer { live, .. } => live.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, DdisasmSize, VpcSize};

    fn vpc_domain(seed: u64) -> Domain {
        let size = VpcSize {
            vpcs: 2,
            subnets_per_vpc: 6,
            instances_per_subnet: 3,
            routes_per_subnet: 2,
        };
        Domain::new(Program::Vpc, &gen::vpc(size, seed), seed)
    }

    const READ: Mix = Mix {
        point: 450,
        prefix: 450,
        scan: 100,
        update: 0,
    };

    fn first_ops(schedule: &mut Schedule, domain: &Domain, n: usize) -> Vec<Op> {
        (0..n).map(|_| schedule.next_op(domain)).collect()
    }

    #[test]
    fn schedule_is_identical_per_seed_and_differs_across_seeds_and_connections() {
        let d = vpc_domain(4);
        let ops =
            |seed, conn| first_ops(&mut Schedule::mixed(&d, seed, conn, 2, READ, true), &d, 200);
        assert_eq!(ops(4, 0), ops(4, 0));
        assert_ne!(ops(4, 0), ops(5, 0));
        assert_ne!(ops(4, 0), ops(4, 1));
    }

    #[test]
    fn queries_parse_back_into_patterns() {
        assert_eq!(
            parse_query("?conn(17, _, 443)"),
            Some(("conn", vec![Some(17), None, Some(443)]))
        );
        assert_eq!(parse_query("?code(-5)"), Some(("code", vec![Some(-5)])));
        assert_eq!(parse_query("+conn(1, 2, 3)."), None);
        assert_eq!(parse_query("?conn(x, 2)"), None);
    }

    #[test]
    fn mix_shares_are_respected() {
        let d = vpc_domain(1);
        let ops = first_ops(&mut Schedule::mixed(&d, 1, 0, 1, READ, true), &d, 4000);
        let share = |c: Class| ops.iter().filter(|o| o.class == c).count() as f64 / 4000.0;
        assert!((share(Class::Point) - 0.45).abs() < 0.03);
        assert!((share(Class::Prefix) - 0.45).abs() < 0.03);
        assert!((share(Class::Scan) - 0.10).abs() < 0.02);
        assert_eq!(share(Class::Update), 0.0);
    }

    #[test]
    fn fresh_pools_are_distinct_and_outside_the_base_facts() {
        let size = DdisasmSize {
            instrs: 300,
            symbols: 40,
            candidates: 40,
        };
        let facts = gen::ddisasm(size, 3);
        let d = Domain::new(Program::Ddisasm, &facts, 3);
        for pool in [&d.fresh_facts, &d.coda_facts, &d.fresh_edges] {
            let distinct: HashSet<&Fact> = pool.iter().collect();
            assert_eq!(distinct.len(), pool.len());
            assert!(pool.iter().all(|f| !facts[f.rel].contains(&f.row)));
        }
        assert!(d.coda_facts.iter().all(|f| !d.fresh_facts.contains(f)));
    }

    #[test]
    fn writer_cycle_keeps_the_database_stationary() {
        let d = vpc_domain(2);
        let mut w = Schedule::writer(0, 2);
        let ops = first_ops(&mut w, &d, 400);
        let classes: Vec<Class> = ops.iter().take(9).map(|o| o.class).collect();
        assert_eq!(&classes[..8], &[Class::Update; 8]);
        assert_eq!(classes[8], Class::Burst);
        assert_eq!(ops[8].lines.len(), BURST_LINES);
        // From the second cycle on, every cycle retracts what it inserts.
        let live = w.live().len();
        assert!(
            (WRITER_WINDOW..=2 * WRITER_WINDOW).contains(&live),
            "{live}"
        );
        let inserted: usize = ops
            .iter()
            .filter(|o| matches!(o.class, Class::Update | Class::Burst))
            .map(|o| o.lines.len())
            .sum();
        let retracted = ops.iter().filter(|o| o.class == Class::Retract).count();
        assert_eq!(inserted - retracted, live);
        // Two writers never hold the same fact.
        let other: HashSet<Fact> = {
            let mut w1 = Schedule::writer(1, 2);
            first_ops(&mut w1, &d, 400);
            w1.live().into_iter().collect()
        };
        assert!(w.live().iter().all(|f| !other.contains(f)));
    }
}
