//! The six workloads: what runs, at what size, and why.
//!
//! Every workload has a batch part (the `stir` CLI evaluates the program
//! from fact files) and a resident part (`stird` serves a database of the
//! same program over loopback TCP). `--seconds` goes to the part the
//! workload is named for; the other part runs at a small fixed size so
//! that every end-to-end metric is measured, not guessed, on every
//! workload.

use crate::gen::{self, DdisasmSize, Facts, VpcSize};
use crate::ops::{Mix, Program};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Vpc(VpcSize),
    Ddisasm(DdisasmSize),
}

/// What one connection does during the timed serving phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Mixed(Mix),
    Writer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// `--storage mem`, no data directory: nothing survives a restart.
    MemVolatile,
    /// `--storage mem -D dir --durability batch`.
    MemDurable,
    /// `--storage disk -D dir --durability batch` on a prebuilt v2
    /// snapshot, page cache capped at an eighth of the snapshot.
    DiskSnapshot,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub program: Program,
    /// Inputs of the `stir` runs: the timed ones, or each set-up's one.
    pub size: Size,
    /// Inputs of the server and of the from-scratch oracle run: the same
    /// where serving is what is timed, a small database elsewhere.
    pub resident: Size,
    /// Whether `--seconds` times batch runs (else the serving phase).
    pub batch_timed: bool,
    /// `--jobs` for the batch runs.
    pub jobs: usize,
    pub storage: Storage,
    /// One connection each. Where batch runs are timed there is no timed
    /// serving phase: the one role is what the traced run replays.
    pub roles: &'static [Role],
    /// Zipf(0.99) keys, else uniform.
    pub zipf: bool,
    /// Insert-then-retract pairs on the recursive stratum's input.
    pub edge_pairs: usize,
}

/// 45 % point, 45 % indexed prefix, 10 % unindexed.
pub const READ_MIX: Mix = Mix {
    point: 450,
    prefix: 450,
    scan: 100,
    update: 0,
};
/// The reader beside the writer: indexed queries only.
const INDEXED_MIX: Mix = Mix {
    point: 500,
    prefix: 500,
    scan: 0,
    update: 0,
};
/// [`READ_MIX`] scaled to 95 %, plus 5 % inserts.
const DISK_MIX: Mix = Mix {
    point: 428,
    prefix: 427,
    scan: 95,
    update: 50,
};

/// Explicit input sizes. At full size one timed batch run takes about a
/// second on the 2-core reference box, and a resident database comes up
/// in a few tenths of one: the driver's budget of 136 runs in 57 minutes
/// leaves about 17 s per run for three set-ups, the timed phase, the
/// fixed-count phase, the oracle run and the restart together.
struct Sizes {
    /// `batch_join`, `batch_join_j2`: timed batch runs.
    join: Size,
    /// `batch_filter`: gcc-like relocation density, i.e. the symbol and
    /// candidate tables 1.25x what the product's generators pair with
    /// this many instructions.
    filter: Size,
    /// `serve_read`, `serve_disk` (the same database once in memory, once
    /// eight times the page cache).
    read: Size,
    /// `serve_write`, and the resident part of the VPC batch workloads:
    /// small enough that one recursive retraction costs a few hundred ms.
    write: Size,
    /// The resident part of `batch_filter`.
    filter_resident: Size,
}

fn sizes(quick: bool) -> Sizes {
    let vpc = |subnets_per_vpc, instances_per_subnet| {
        Size::Vpc(VpcSize {
            vpcs: if quick { 3 } else { 8 },
            subnets_per_vpc,
            instances_per_subnet,
            routes_per_subnet: 3,
        })
    };
    let ddisasm = |instrs, tables| {
        Size::Ddisasm(DdisasmSize {
            instrs,
            symbols: tables,
            candidates: tables,
        })
    };
    if quick {
        return Sizes {
            join: vpc(8, 3),
            filter: ddisasm(2_000, 150),
            read: vpc(8, 3),
            write: vpc(8, 3),
            filter_resident: ddisasm(2_000, 150),
        };
    }
    Sizes {
        join: vpc(32, 8),
        filter: ddisasm(40_000, 2_500),
        read: vpc(24, 5),
        write: vpc(20, 5),
        filter_resident: ddisasm(16_000, 1_000),
    }
}

pub fn all(quick: bool) -> Vec<Spec> {
    let sizes = sizes(quick);
    let batch = Spec {
        name: "batch_join",
        why: "stir CLI, VPC reachability: index-heavy recursion, B-tree insert/range and loop nests, almost no arithmetic",
        program: Program::Vpc,
        size: sizes.join,
        resident: sizes.write,
        batch_timed: true,
        jobs: 1,
        storage: Storage::MemDurable,
        roles: &[Role::Mixed(READ_MIX)],
        zipf: true,
        edge_pairs: 3,
    };
    let serve = Spec {
        name: "serve_read",
        why: "stird TCP, 2 closed-loop clients, 100% queries (45 point/45 prefix/10 unindexed, Zipf 0.99), in memory and cache-fitting: transport, line parsing, index choice",
        program: Program::Vpc,
        size: sizes.read,
        resident: sizes.read,
        batch_timed: false,
        jobs: 1,
        storage: Storage::MemVolatile,
        roles: &[Role::Mixed(READ_MIX), Role::Mixed(READ_MIX)],
        zipf: true,
        edge_pairs: 3,
    };
    vec![
        batch,
        Spec {
            name: "batch_filter",
            why: "stir CLI, DDisasm shape at gcc-like relocation density: dispatch-heavy expression evaluation, indexes only scanned; the contrast to batch_join",
            program: Program::Ddisasm,
            size: sizes.filter,
            resident: sizes.filter_resident,
            ..batch
        },
        Spec {
            name: "batch_join_j2",
            why: "batch_join's inputs with --jobs 2: morsel stealing, per-worker sinks, coordinator merge; splits from batch_join when a gain helps only one path",
            jobs: 2,
            ..batch
        },
        serve,
        Spec {
            name: "serve_write",
            why: "stird TCP, durable: a writer (inserts, 16-line bursts, retracts) beside a reader on one lock, then recursive retractions, SIGKILL and WAL recovery",
            size: sizes.write,
            resident: sizes.write,
            storage: Storage::MemDurable,
            roles: &[Role::Writer, Role::Mixed(INDEXED_MIX)],
            edge_pairs: 4,
            ..serve
        },
        Spec {
            name: "serve_disk",
            why: "stird TCP on a snap2 snapshot, page cache 1/8 of it, uniform keys, 5% inserts: demand paging and cold start; the larger-than-cache case to serve_read",
            storage: Storage::DiskSnapshot,
            roles: &[Role::Mixed(DISK_MIX), Role::Mixed(DISK_MIX)],
            zipf: false,
            edge_pairs: 1,
            ..serve
        },
    ]
}

impl Size {
    pub fn generate(self, seed: u64) -> Facts {
        match self {
            Size::Vpc(s) => gen::vpc(s, seed),
            Size::Ddisasm(s) => gen::ddisasm(s, seed),
        }
    }
}

impl Spec {
    pub fn program_text(&self) -> &'static str {
        match self.program {
            Program::Vpc => gen::VPC_PROGRAM,
            Program::Ddisasm => gen::DDISASM_PROGRAM,
        }
    }

    pub fn durable(&self) -> bool {
        self.storage != Storage::MemVolatile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_six_normative_ones_and_whys_fit_the_contract() {
        let names: Vec<&str> = all(false).iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "batch_join",
                "batch_filter",
                "batch_join_j2",
                "serve_read",
                "serve_write",
                "serve_disk"
            ]
        );
        for s in all(false) {
            assert!(
                s.why.len() <= 200,
                "{}: why is {} chars",
                s.name,
                s.why.len()
            );
            assert!(!s.why.contains('\n'));
        }
    }

    #[test]
    fn mixes_sum_to_the_whole() {
        for m in [READ_MIX, INDEXED_MIX, DISK_MIX] {
            assert_eq!(m.point + m.prefix + m.scan + m.update, 1000);
        }
    }

    #[test]
    fn j2_shares_batch_joins_inputs() {
        let specs = all(false);
        assert_eq!(specs[0].size, specs[2].size);
    }
}
