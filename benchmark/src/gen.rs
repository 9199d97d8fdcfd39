//! Seeded input generators for the two frozen programs.
//!
//! Shapes follow `crates/workloads` (ring-plus-shortcut VPC topologies,
//! a linear instruction stream with clustered relocation tables) but the
//! sizes are explicit constants owned by the benchmark, never the
//! product's `Scale` presets.

use crate::rng::Rng;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

pub type Row = Vec<i32>;
/// Input facts by relation name; a `BTreeMap` so every walk over it (fact
/// files, digests) is in one order.
pub type Facts = BTreeMap<&'static str, Vec<Row>>;

pub const VPC_PROGRAM: &str = include_str!("../programs/vpc.dl");
pub const DDISASM_PROGRAM: &str = include_str!("../programs/ddisasm.dl");

pub const PORTS: [i32; 6] = [22, 80, 443, 5432, 6379, 8080];

/// Size of one VPC topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpcSize {
    pub vpcs: i32,
    pub subnets_per_vpc: i32,
    pub instances_per_subnet: i32,
    pub routes_per_subnet: i32,
}

impl VpcSize {
    pub fn subnets(&self) -> i32 {
        self.vpcs * self.subnets_per_vpc
    }

    pub fn instances(&self) -> i32 {
        self.subnets() * self.instances_per_subnet
    }
}

/// Size of one synthetic binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdisasmSize {
    pub instrs: usize,
    /// `sym_value` rows; with `candidates` it sets the quadratic
    /// `moved_label`/`moved_data` work (the paper's gcc-like outlier).
    pub symbols: usize,
    pub candidates: usize,
}

pub fn vpc(size: VpcSize, seed: u64) -> Facts {
    let mut rng = Rng::stream(seed, "vpc-facts");
    let (spv, total) = (size.subnets_per_vpc, size.subnets());
    let mut f = Facts::new();

    f.insert("vpc", (0..size.vpcs).map(|v| vec![v]).collect());
    f.insert("subnet", (0..total).map(|s| vec![s, s / spv]).collect());
    f.insert(
        "instance",
        (0..size.instances())
            .map(|i| vec![i, i / size.instances_per_subnet])
            .collect(),
    );

    // Routes: a ring inside every VPC plus random shortcuts, and two routes
    // from every VPC into the next (peered) one, wrapping around. The whole
    // graph is therefore strongly connected whatever the seed draws, so
    // `subnet_reach` is all `subnets^2` pairs and retracting any route
    // over-deletes the same cone: costs depend on the size, not on the seed.
    let mut routes = Vec::new();
    for v in 0..size.vpcs {
        let base = v * spv;
        for k in 0..spv {
            routes.push(vec![base + k, base + (k + 1) % spv]);
            for _ in 1..size.routes_per_subnet {
                routes.push(vec![base + k, base + rng.below(spv as usize) as i32]);
            }
        }
        let next = (v + 1) % size.vpcs * spv;
        for _ in 0..2 {
            routes.push(vec![
                base + rng.below(spv as usize) as i32,
                next + rng.below(spv as usize) as i32,
            ]);
        }
    }
    f.insert("route", routes);
    f.insert(
        "peering",
        (0..size.vpcs)
            .map(|v| vec![v, (v + 1) % size.vpcs])
            .collect(),
    );
    f.insert(
        "acl_allow",
        (0..total * 6)
            .map(|_| {
                vec![
                    rng.below(total as usize) as i32,
                    rng.below(total as usize) as i32,
                    *rng.pick(&PORTS),
                ]
            })
            .collect(),
    );
    let mut listens = Vec::new();
    for i in 0..size.instances() {
        for _ in 0..1 + rng.below(2) {
            listens.push(vec![i, *rng.pick(&PORTS)]);
        }
    }
    f.insert("listens", listens);
    f.insert("sensitive_port", vec![vec![22], vec![5432], vec![6379]]);
    f.insert(
        "trusted",
        (0..size.instances())
            .filter(|_| rng.chance(0.6))
            .map(|i| vec![i])
            .collect(),
    );
    f.insert("gateway", (0..size.vpcs).map(|v| vec![v * spv]).collect());
    f
}

/// Where symbol values and relocation candidates cluster, so the ±4096
/// windows of `moved_label` are densely populated.
pub const DDISASM_HUB: i64 = 0x40_0000;

pub fn ddisasm(size: DdisasmSize, seed: u64) -> Facts {
    let mut rng = Rng::stream(seed, "ddisasm-facts");
    let mut f = Facts::new();

    let mut addr = 0x1000i32;
    let mut addrs = Vec::with_capacity(size.instrs);
    let mut instr = Vec::with_capacity(size.instrs);
    for _ in 0..size.instrs {
        let len = *rng.pick(&[1, 2, 3, 4, 4, 8]);
        addrs.push(addr);
        instr.push(vec![addr, len, rng.below(128) as i32]);
        addr += len;
    }
    f.insert("instr", instr);
    f.insert("next", addrs.windows(2).map(|w| vec![w[0], w[1]]).collect());

    let (mut jumps, mut calls, mut rets) = (Vec::new(), Vec::new(), Vec::new());
    for &a in &addrs {
        let roll = rng.unit();
        if roll < 0.08 {
            jumps.push(vec![a, *rng.pick(&addrs)]);
        } else if roll < 0.12 {
            calls.push(vec![a, *rng.pick(&addrs)]);
        } else if roll < 0.15 {
            rets.push(vec![a]);
        }
    }
    f.insert("direct_jump", jumps);
    f.insert("direct_call", calls);
    f.insert("ret", rets);
    f.insert(
        "entry",
        addrs
            .iter()
            .step_by((addrs.len() / 16).max(1))
            .map(|&a| vec![a])
            .collect(),
    );
    f.insert(
        "sym_value",
        (0..size.symbols)
            .map(|i| {
                vec![
                    addrs[i % addrs.len()],
                    (DDISASM_HUB + rng.range(-6000, 6000)) as i32,
                ]
            })
            .collect(),
    );
    f.insert(
        "candidate",
        (0..size.candidates)
            .map(|_| {
                vec![
                    (DDISASM_HUB + rng.range(-6000, 6000)) as i32,
                    rng.below(16) as i32,
                ]
            })
            .collect(),
    );
    f
}

/// Writes `<dir>/<rel>.facts` (tab-separated) for every relation.
pub fn write_facts_dir(dir: &Path, facts: &Facts) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (rel, rows) in facts {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{rel}.facts")))?);
        for row in rows {
            let mut sep = "";
            for v in row {
                write!(out, "{sep}{v}")?;
                sep = "\t";
            }
            out.write_all(b"\n")?;
        }
        out.flush()?;
    }
    Ok(())
}

/// Reads a tab-separated file of numbers (`stir`'s `.csv` outputs).
pub fn read_rows(path: &Path) -> std::io::Result<Vec<Row>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.split('\t')
                .map(|f| {
                    f.parse::<i32>().map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("{}: `{f}` is not a number", path.display()),
                        )
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const VPC_TINY: VpcSize = VpcSize {
        vpcs: 2,
        subnets_per_vpc: 4,
        instances_per_subnet: 2,
        routes_per_subnet: 2,
    };
    const DD_TINY: DdisasmSize = DdisasmSize {
        instrs: 200,
        symbols: 30,
        candidates: 30,
    };

    #[test]
    fn generators_are_a_function_of_the_seed() {
        assert_eq!(vpc(VPC_TINY, 5), vpc(VPC_TINY, 5));
        assert_ne!(vpc(VPC_TINY, 5), vpc(VPC_TINY, 6));
        assert_eq!(ddisasm(DD_TINY, 5), ddisasm(DD_TINY, 5));
        assert_ne!(ddisasm(DD_TINY, 5), ddisasm(DD_TINY, 6));
    }

    #[test]
    fn vpc_has_every_input_relation_at_the_stated_size() {
        let f = vpc(VPC_TINY, 1);
        assert_eq!(f["subnet"].len(), 8);
        assert_eq!(f["instance"].len(), 16);
        assert_eq!(f["acl_allow"].len(), 48);
        assert_eq!(f["route"].len(), 8 * 2 + 4);
        assert_eq!(f["peering"].len(), 2);
        for rel in [
            "vpc",
            "peering",
            "listens",
            "sensitive_port",
            "trusted",
            "gateway",
        ] {
            assert!(f.contains_key(rel), "{rel}");
        }
    }

    #[test]
    fn fact_files_round_trip() {
        let dir = crate::child::WorkDir::new("gen-test").expect("work dir");
        let f = ddisasm(DD_TINY, 2);
        write_facts_dir(dir.path(), &f).expect("writes");
        let back = read_rows(&dir.path().join("sym_value.facts")).expect("reads");
        assert_eq!(back, f["sym_value"]);
    }
}
