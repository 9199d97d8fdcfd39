//! Inserts and the write path.
//!
//! [`ResidentEngine::insert_facts`] and [`ResidentEngine::retract_facts`]
//! run one sequence — validate at the front door, append to the WAL by
//! kind, apply, auto-snapshot — and WAL replay validates each record
//! again and applies it through the same step.
//!
//! An insert stages the genuinely new tuples of a batch in the target
//! relation's `upd_` sibling and walks the strata bottom-up. An affected
//! stratum normally re-runs its translation-provided incremental update
//! statement ([`stir_ram::program::RamStratum::update`]): new upstream
//! tuples seed the semi-naive deltas, so only derivations that use at
//! least one new tuple are enumerated, and the stratum's own newly
//! derived tuples land in its `upd_` relations for downstream strata to
//! pick up. Every statement a write runs is lowered into its interpreter
//! tree once, when the engine is assembled ([`build_plans`]); a write
//! only looks trees up in that plan table, so no RAM is rewritten or
//! lowered between a request and the interpreter.

use super::*;
use crate::interp::Interpreter;
use crate::itree::{self, ITree};
use crate::wal::WalRecord;
use stir_ram::deletion::deletion_stmt;

/// One stratum's prebuilt interpreter trees.
#[derive(Debug)]
pub(super) struct StratumPlan {
    /// The full recompute: the stratum's child of the main statement.
    pub(super) recompute: ITree,
    /// The insertion-mode update statement; `None` for eqrel heads.
    pub(super) update: Option<ITree>,
    /// A retraction's deletion twin (phase 1) and re-derive check (phase
    /// 3); `None` when every retraction reaching the stratum recomputes
    /// it (fallback rule (a) in the module docs).
    pub(super) retract: Option<(ITree, ITree)>,
}

/// Builds the plan table, one [`StratumPlan`] per stratum of `ram`: the
/// only place the serving subsystem lowers RAM after bring-up's fixpoint.
pub(super) fn build_plans(ram: &RamProgram, config: &InterpreterConfig) -> Vec<StratumPlan> {
    let build = |stmt: &RamStmt| itree::build_stmt(ram, config, stmt);
    let strata = ram.strata.iter().enumerate();
    strata
        .map(|(i, s)| {
            // Phase 3 re-checks over-deleted heads with the stratum's
            // re-derive statement, which a rule drawing `$` values lacks;
            // under provenance a recompute re-annotates exactly.
            let rederive = s.rederive.as_ref().filter(|_| !config.provenance);
            let retract =
                rederive.and_then(|check| Some((build(&deletion_stmt(ram, i)?), build(check))));
            StratumPlan {
                recompute: build(ram.stratum_stmt(i)),
                update: s.update.as_ref().map(build),
                retract,
            }
        })
        .collect()
}

/// What one [`ResidentEngine::insert_facts`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateReport {
    /// Tuples of the batch that were not already present.
    pub inserted: u64,
    /// Strata re-run through their incremental update statement.
    pub strata_rerun: u64,
    /// Strata recomputed from scratch (negation/aggregate reads, eqrel
    /// heads, or rebuilt upstream strata).
    pub full_fallbacks: u64,
    /// The request's deadline elapsed during evaluation. The update was
    /// still applied in full (and, when durability is on, logged) —
    /// aborting between strata would leave downstream strata stale — so
    /// callers should report the timeout while treating the data as
    /// committed.
    pub deadline_exceeded: bool,
}

/// What one [`ResidentEngine::retract_facts`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetractReport {
    /// Tuples of the batch that were actually present (and removed).
    pub retracted: u64,
    /// Over-deleted derived tuples restored because a surviving
    /// derivation (or surviving ground fact) still supports them.
    pub rederived: u64,
    /// Strata repaired through the deletion-mode delta + re-derivation
    /// pipeline.
    pub strata_rerun: u64,
    /// Strata recomputed from scratch (negation/aggregate readers,
    /// eqrel heads, provenance mode, or rebuilt upstream strata).
    pub full_fallbacks: u64,
    /// The request's deadline elapsed during evaluation; the retraction
    /// was still applied in full (see [`UpdateReport::deadline_exceeded`]
    /// for why mid-way aborts are never an option).
    pub deadline_exceeded: bool,
}

impl ResidentEngine {
    /// Inserts a batch of facts into an `.input` relation and brings all
    /// downstream strata up to date incrementally (see the module docs
    /// for the delta-restart algorithm and its fallback rule).
    ///
    /// When the engine was [`Self::open`]ed with a data directory, the
    /// batch is appended to the write-ahead log *before* evaluation, so
    /// an `Ok` return means the facts survive a crash at any later
    /// point; a [`EngineError::Storage`] return means the batch was
    /// neither logged nor applied.
    ///
    /// # Errors
    ///
    /// Rejects unknown or non-`.input` relations and wrong-arity tuples;
    /// propagates WAL failures and runtime errors from re-evaluation.
    pub fn insert_facts(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        tel: Option<&Telemetry>,
    ) -> Result<UpdateReport, EngineError> {
        self.insert_facts_deadline(rel, rows, None, tel)
    }

    /// [`Self::insert_facts`] with a per-request deadline. Evaluation is
    /// never aborted mid-way (that would leave downstream strata stale);
    /// instead [`UpdateReport::deadline_exceeded`] is set when the
    /// deadline elapsed, and the caller decides how to report it.
    ///
    /// # Errors
    ///
    /// As [`Self::insert_facts`].
    pub fn insert_facts_deadline(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<UpdateReport, EngineError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:update"));
        self.write(WalRecordKind::Insert, rel, rows, tel, |e, target| {
            e.insert_internal(target, rows, deadline, tel)
        })
    }

    /// Retracts a batch of facts from an `.input` relation and repairs
    /// all downstream strata (delete-and-re-derive; see the module docs).
    ///
    /// When the engine is durable, the batch is appended to the WAL as a
    /// delete record *before* evaluation, so an `Ok` return means the
    /// retraction survives a crash at any later point.
    ///
    /// # Errors
    ///
    /// Rejects unknown or non-`.input` relations and wrong-arity tuples;
    /// propagates WAL failures and runtime errors from re-evaluation.
    pub fn retract_facts(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        tel: Option<&Telemetry>,
    ) -> Result<RetractReport, EngineError> {
        self.retract_facts_deadline(rel, rows, None, tel)
    }

    /// [`Self::retract_facts`] with a per-request deadline; like
    /// updates, retraction commits in full and only flags the overrun.
    ///
    /// # Errors
    ///
    /// As [`Self::retract_facts`].
    pub fn retract_facts_deadline(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<RetractReport, EngineError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:retract"));
        self.counters.retracts.fetch_add(1, Ordering::Relaxed);
        self.write(WalRecordKind::Delete, rel, rows, tel, |e, target| {
            e.retract_internal(target, rows, deadline, tel)
        })
    }

    /// The one serving write path: validate, log by kind, `apply`,
    /// auto-snapshot.
    fn write<R>(
        &mut self,
        kind: WalRecordKind,
        rel: &str,
        rows: &[Vec<Value>],
        tel: Option<&Telemetry>,
        apply: impl FnOnce(&mut Self, RelId) -> Result<R, EvalError>,
    ) -> Result<R, EngineError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        // Validate before logging, so the WAL only ever holds batches
        // the engine would accept on replay.
        let target = self
            .lookup(rel, Access::Write, rows.iter().map(Vec::len))?
            .id;
        if let Some(p) = &mut self.persistence {
            // WAL-then-evaluate: nothing is acknowledged (or applied)
            // unless it is recoverable first.
            if let Err(e) = p.wal.append_kind(kind, rel, rows) {
                self.note_storage_failure(&e.to_string());
                return Err(e.into());
            }
        }
        let report = apply(self, target)?;
        self.maybe_auto_snapshot(tel);
        Ok(report)
    }

    /// Re-applies one WAL record at recovery through the serving path's
    /// apply step, minus the WAL append; returns the tuples it inserted
    /// or removed. The record is validated again: a CRC-valid record is
    /// still input from outside the program.
    pub(super) fn replay(
        &mut self,
        rec: &WalRecord,
        tel: Option<&Telemetry>,
    ) -> Result<u64, EvalError> {
        let rows = &rec.rows;
        let id = self
            .lookup(&rec.rel, Access::Write, rows.iter().map(Vec::len))?
            .id;
        Ok(match rec.kind {
            WalRecordKind::Insert => self.insert_internal(id, rows, None, tel)?.inserted,
            WalRecordKind::Delete => self.retract_internal(id, rows, None, tel)?.retracted,
        })
    }

    /// Applies one validated insert batch: staging, delta restart,
    /// fallback.
    fn insert_internal(
        &mut self,
        target: RelId,
        rows: &[Vec<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<UpdateReport, EvalError> {
        let upd = self.ram.upd_of(target);
        let encoded: Vec<Vec<RamDomain>> = {
            let mut symbols = self.db.symbols_wr();
            let encode = |row: &Vec<Value>| row.iter().map(|v| v.encode(&mut symbols)).collect();
            rows.iter().map(encode).collect()
        };

        self.clear_staging();
        let mut inserted = 0u64;
        for t in encoded {
            if admit(&mut self.db.wr(target), &t, self.db.provenance()) {
                inserted += 1;
                if let Some(u) = upd {
                    self.db.wr(u).insert(&t);
                }
                admit(&mut self.ground[target.0], &t, self.db.provenance());
            }
        }
        self.counters
            .update_tuples
            .fetch_add(inserted, Ordering::Relaxed);

        let (strata_rerun, full_fallbacks) = if inserted == 0 {
            (0, 0)
        } else {
            self.walk_strata(WalRecordKind::Insert, target, |i, update| match update {
                None => self.recompute_stratum(i, tel).map(|()| false),
                Some(tree) => self.run_tree(tree, tel).map(|()| true),
            })?
        };
        Ok(UpdateReport {
            inserted,
            strata_rerun,
            full_fallbacks,
            deadline_exceeded: elapsed(deadline),
        })
    }

    /// The one bottom-up stratum walk of a write of `kind` to `target`.
    /// Each stratum that defines or reads a changed relation goes to
    /// `step` with the tree that brings it up to date incrementally — the
    /// update statement's for an insert, its deletion twin's for a
    /// retraction — or `None` when the fallback rule (module docs) sends
    /// it to a recompute. `step` answers whether the stratum stayed
    /// incremental. Returns `(strata_rerun, full_fallbacks)`, already
    /// added to the serving counters.
    pub(super) fn walk_strata(
        &self,
        kind: WalRecordKind,
        target: RelId,
        mut step: impl FnMut(usize, Option<&ITree>) -> Result<bool, EvalError>,
    ) -> Result<(u64, u64), EvalError> {
        let ram = &self.ram;
        let hit = |ids: &[RelId], flags: &[bool]| ids.iter().any(|r| flags[r.0]);
        // `changed`: relations this write changed; unless also `rebuilt`,
        // the change is staged in their `upd_` siblings. `rebuilt`:
        // recomputed from scratch, so readers cannot update incrementally.
        let mut changed = vec![false; ram.relations.len()];
        let mut rebuilt = changed.clone();
        changed[target.0] = true;
        rebuilt[target.0] = ram.upd_of(target).is_none(); // eqrel input: no staging
        let (mut rerun, mut fallbacks) = (0, 0);
        for (i, s) in ram.strata.iter().enumerate() {
            let read = [&s.defines, &s.pos_reads, &s.neg_agg_reads];
            if !read.iter().any(|ids| hit(ids, &changed)) {
                continue;
            }
            let stale = hit(&s.neg_agg_reads, &changed)
                || hit(&s.pos_reads, &rebuilt)
                || hit(&s.defines, &rebuilt);
            let plan = &self.plans[i];
            let tree = match kind {
                _ if stale => None,
                WalRecordKind::Insert => plan.update.as_ref(),
                WalRecordKind::Delete => plan.retract.as_ref().map(|(delete, _)| delete),
            };
            if step(i, tree)? {
                for d in &s.defines {
                    let staged = ram.upd_of(*d);
                    changed[d.0] |= staged.is_some_and(|u| !self.db.rd(u).is_empty());
                }
                rerun += 1;
            } else {
                for d in &s.defines {
                    (changed[d.0], rebuilt[d.0]) = (true, true);
                }
                fallbacks += 1;
            }
        }
        let c = &self.counters;
        c.strata_rerun.fetch_add(rerun, Ordering::Relaxed);
        c.full_fallbacks.fetch_add(fallbacks, Ordering::Relaxed);
        Ok((rerun, fallbacks))
    }

    /// Starts a fresh staging cycle: `upd_` relations hold exactly the
    /// tuples that became visible (or doomed) during *this* batch.
    pub(super) fn clear_staging(&self) {
        for &u in &self.all_upds {
            self.db.wr(u).clear();
        }
    }

    /// Clears a stratum's relations, replays their ground facts, and
    /// re-runs the stratum's recompute tree. Correct at any point of
    /// the bottom-up walk because every upstream relation is already
    /// fully up to date when its readers are visited.
    pub(super) fn recompute_stratum(
        &self,
        i: usize,
        tel: Option<&Telemetry>,
    ) -> Result<(), EvalError> {
        for d in &self.ram.strata[i].defines {
            self.db.wr(*d).clear();
            for a in &self.aux_of[d.0] {
                self.db.wr(*a).clear();
            }
            self.replay_ground(*d);
        }
        self.run_tree(&self.plans[i].recompute, tel)
    }

    /// Re-admits `rel`'s ground facts after a recompute cleared it.
    pub(super) fn replay_ground(&self, rel: RelId) {
        self.db.wr(rel).merge_from(&self.ground[rel.0]);
    }

    /// Runs a prebuilt tree against the resident database, and folds the
    /// run's work-stealing statistics into the serving counters (also
    /// when the run fails part-way).
    pub(super) fn run_tree(&self, tree: &ITree, tel: Option<&Telemetry>) -> Result<(), EvalError> {
        let mut interp = Interpreter::new(&self.ram, &self.db, self.config);
        if let Some(t) = tel {
            interp.attach_telemetry(t);
        }
        let res = interp.run(tree);
        self.counters
            .absorb_parallel(interp.parallel_report().as_ref());
        res
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;

    #[test]
    fn incremental_chain_extension_matches_batch() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = resident(TC, &inputs);
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2), (1, 3), (2, 3)]));

        let report = r
            .insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("updates");
        assert_eq!(report.inserted, 1);
        assert!(report.strata_rerun >= 1);
        assert_eq!(
            report.full_fallbacks, 0,
            "monotone program never falls back"
        );
        assert_eq!(
            r.outputs()["p"],
            pairs(&[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        );
    }

    #[test]
    fn duplicate_inserts_are_absorbed() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        let report = r
            .insert_facts("e", &pairs(&[(1, 2)]), None)
            .expect("updates");
        assert_eq!(report.inserted, 0);
        assert_eq!(report.strata_rerun + report.full_fallbacks, 0);
    }

    #[test]
    fn negation_reader_falls_back_and_retracts() {
        let src = "\
            .decl a(x: number)\n.input a\n\
            .decl b(x: number)\n.input b\n\
            .decl r(x: number)\n.output r\n\
            r(x) :- a(x), !b(x).\n";
        let mut inputs = InputData::new();
        inputs.insert(
            "a".into(),
            vec![vec![Value::Number(1)], vec![Value::Number(2)]],
        );
        inputs.insert("b".into(), vec![vec![Value::Number(2)]]);
        let mut r = resident(src, &inputs);
        assert_eq!(r.outputs()["r"], vec![vec![Value::Number(1)]]);

        // Growing the negated relation must *remove* a derived tuple,
        // which only the full-recompute fallback can do.
        let report = r
            .insert_facts("b", &[vec![Value::Number(1)]], None)
            .expect("updates");
        assert!(report.full_fallbacks >= 1);
        assert!(r.outputs()["r"].is_empty());
    }

    #[test]
    fn multi_stratum_updates_cascade() {
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n\
            .decl q(x: number)\n.output q\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n\
            q(y) :- p(1, y).\n";
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(src, &inputs);
        assert_eq!(r.outputs()["q"], vec![vec![Value::Number(2)]]);
        let report = r
            .insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("updates");
        assert!(report.strata_rerun >= 2, "both strata re-run incrementally");
        assert_eq!(
            r.outputs()["q"],
            vec![vec![Value::Number(2)], vec![Value::Number(3)]]
        );
    }

    #[test]
    fn insert_deadline_sets_flag_but_commits() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let report = r
            .insert_facts_deadline("e", &pairs(&[(2, 3)]), Some(past), None)
            .expect("applies despite deadline");
        assert!(report.deadline_exceeded);
        assert_eq!(report.inserted, 1, "the update still committed");
        assert_eq!(r.outputs()["p"].len(), 3);
    }
}
