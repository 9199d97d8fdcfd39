//! Retraction, the deletion dual of an insert: a DRed-style
//! delete-and-re-derive in three phases.
//!
//! 1. **Cone** — with the doomed tuples staged in `upd_target` and the
//!    database *unmutated*, the stratum walk runs each affected stratum's
//!    deletion-mode twin statement ([`stir_ram::deletion`]): every derived
//!    tuple with at least one derivation touching a removed tuple — the
//!    *over-delete cone* — accumulates in its `upd_` relation. Strata the
//!    fallback rule sends to a recompute are only planned here.
//! 2. **Erase** — the doomed tuples and every collected cone leave their
//!    relations. All `upd_` staging is then cleared: it holds *deleted*
//!    tuples, which a downstream insertion-mode statement would otherwise
//!    happily treat as new.
//! 3. **Re-derive** — bottom-up again: fallback strata recompute from
//!    scratch; incremental strata stage their cones in the `cone_`
//!    relations and run their translated re-derive statement
//!    ([`stir_ram::program::RamStratum::rederive`]), re-admit each cone
//!    member it found one-step derivable from the post-deletion database
//!    or that is still a ground fact, then run the *normal* update
//!    statement so restored seeds propagate (within-stratum recursion
//!    included). A re-derive statement that fails to evaluate sends its
//!    stratum to a recompute instead.
//!    Skipping the statement when no seed survives is sound: any truly
//!    derivable cone member of minimal derivation height has all its
//!    premises outside the cone, so it would have been a seed.

use super::*;

impl ResidentEngine {
    /// Applies one validated, encoded retraction batch (see the module
    /// docs). Does *not* touch the WAL: serving appends first, recovery
    /// folds it.
    pub(super) fn retract_internal(
        &mut self,
        target: RelId,
        mut doomed: Vec<Vec<RamDomain>>,
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<RetractReport, EvalError> {
        let upd = self.ram.upd_of(target);

        // Dedup, and keep only tuples actually present.
        doomed.sort_unstable();
        doomed.dedup();
        {
            let rel_rd = self.db.rd(target);
            doomed.retain(|t| rel_rd.contains(t));
        }
        let c = &self.counters;
        c.retract_tuples
            .fetch_add(doomed.len() as u64, Ordering::Relaxed);
        let mut report = RetractReport {
            retracted: doomed.len() as u64,
            ..RetractReport::default()
        };
        if doomed.is_empty() {
            report.deadline_exceeded = elapsed(deadline);
            return Ok(report);
        }

        // The retracted rows stop being ground: a fallback replay (or a
        // recovery that loads this state from a snapshot) must not
        // resurrect them.
        for t in &doomed {
            self.ground[target.0].erase(t);
        }

        // ---- Phase 1: collect the over-delete cone (DB unmutated). ----
        self.clear_staging();
        if let Some(u) = upd {
            let mut w = self.db.wr(u);
            for t in &doomed {
                w.insert(t);
            }
        }
        let strata = self.ram.strata.len();
        let mut fallback = vec![false; strata];
        // Per incremental stratum: each defined relation's cone.
        let mut cones: Vec<Vec<(RelId, Vec<Vec<RamDomain>>)>> = vec![Vec::new(); strata];
        let walk = self.walk_strata(WalRecordKind::Delete, target, |i, twin| {
            fallback[i] = true;
            let Some(twin) = twin else { return Ok(false) };
            self.run_tree(twin, tel)?;
            let defines = self.ram.strata[i].defines.iter();
            let staged = |d: &RelId| self.ram.upd_of(*d).expect("a deletion twin requires upd");
            let stratum: Vec<_> = defines
                .map(|d| (*d, self.db.rd(staged(d)).to_sorted_tuples()))
                .collect();
            let cone_total: usize = stratum.iter().map(|(_, cone)| cone.len()).sum();
            let live_total: usize = stratum.iter().map(|(d, _)| self.db.rd(*d).len()).sum();
            // Cost-based demotion: when the deletion wave swallows most of
            // a non-trivial stratum, erasing and re-checking the cone tuple
            // by tuple costs more than recomputing the stratum outright.
            // Tiny strata stay incremental — either path is cheap and the
            // counters stay stable.
            if live_total > 1024 && cone_total * 2 > live_total {
                return Ok(false);
            }
            (fallback[i], cones[i]) = (false, stratum);
            Ok(true)
        });
        (report.strata_rerun, report.full_fallbacks) = walk?;

        // ---- Phase 2: erase the doomed tuples and the cones. ----
        if upd.is_none() {
            // An eqrel input cannot erase a single pair soundly (the
            // closure may re-imply it); rebuild it from the surviving
            // ground facts and let insertion re-close it.
            self.db.wr(target).clear();
            self.replay_ground(target);
        } else {
            let mut w = self.db.wr(target);
            for t in &doomed {
                w.erase(t);
            }
        }
        for (d, cone) in cones.iter().flatten() {
            let mut w = self.db.wr(*d);
            for t in cone {
                w.erase(t);
            }
        }
        // Phase 1 left doomed tuples and cones staged in `upd_`; an
        // insertion-mode statement in phase 3 would consume them as if
        // they were fresh inserts. Restart the staging from empty.
        self.clear_staging();

        // ---- Phase 3: re-derive survivors, bottom-up. ----
        let ram = &self.ram;
        for (i, stratum) in cones.iter().enumerate() {
            if fallback[i] {
                self.recompute_stratum(i, tel)?;
                continue;
            }
            if stratum.iter().all(|(_, cone)| cone.is_empty()) {
                continue;
            }
            // The re-derive statement projects each staged cone member
            // that the surviving database derives in one step into its
            // `upd_` sibling, which it never reads: every check sees the
            // post-deletion database, the pure DRed re-derive step. The
            // insertion statement below restores multi-step survivors
            // from these seeds.
            let cone_of = |d: &RelId| ram.cone_of(*d).expect("incremental plan");
            for (d, cone) in stratum {
                let mut w = self.db.wr(cone_of(d));
                for t in cone {
                    w.insert(t);
                }
            }
            let plan = &self.plans[i];
            let (Some(update), Some((_, rederive))) = (&plan.update, &plan.retract) else {
                unreachable!("walk_strata ran the deletion twin of stratum {i}");
            };
            let checked = self.run_tree(rederive, tel);
            for (d, _) in stratum {
                self.db.wr(cone_of(d)).clear();
            }
            if checked.is_err() {
                // The variant joins in its own order, so it can evaluate
                // an expression (a division, a `to_number`) on a binding
                // the forward plan prunes first; such a binding derives
                // nothing. Recompute the stratum instead and stage its
                // surviving cone members for the strata downstream.
                self.recompute_stratum(i, tel)?;
                for (d, cone) in stratum {
                    let mut staged = self.db.wr(ram.upd_of(*d).expect("incremental plan"));
                    staged.clear();
                    let rel = self.db.rd(*d);
                    for t in cone.iter().filter(|t| rel.contains(t)) {
                        staged.insert(t);
                    }
                    report.rederived += staged.len() as u64;
                }
                report.full_fallbacks += 1;
                self.counters.full_fallbacks.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let mut seeded = false;
            for (d, cone) in stratum {
                let mut seeds = self.db.wr(ram.upd_of(*d).expect("incremental plan"));
                // Ground facts of `d` (an `.input` relation can also be a
                // rule head) survive unconditionally.
                for t in cone.iter().filter(|t| self.ground[d.0].contains(t)) {
                    seeds.insert(t);
                }
                self.db.wr(*d).merge_from(&seeds);
                report.rederived += seeds.len() as u64;
                seeded |= !seeds.is_empty();
            }
            if seeded {
                // The *insertion* statement: restored seeds propagate to
                // their within-stratum consequences, and its `upd_`
                // staging feeds downstream strata.
                self.run_tree(update, tel)?;
            }
        }

        let c = &self.counters;
        c.rederived.fetch_add(report.rederived, Ordering::Relaxed);
        report.deadline_exceeded = elapsed(deadline);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;

    #[test]
    fn retraction_removes_the_derived_cone_incrementally() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (3, 4)]));
        let mut r = resident(TC, &inputs);
        assert_eq!(r.outputs()["p"].len(), 6);

        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(report.strata_rerun >= 1);
        assert_eq!(report.full_fallbacks, 0, "monotone program stays delta");
        // Only e(1,2)→p(1,2) and e(3,4)→p(3,4) survive.
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2), (3, 4)]));
        assert_eq!(r.query("e", &[None, None], None).expect("queries").len(), 2);
    }

    #[test]
    fn retraction_restores_alternatively_derivable_tuples() {
        // Diamond: p(1,4) via 2 and via 3. Removing one path must keep it.
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 4), (1, 3), (3, 4)]));
        let mut r = resident(TC, &inputs);

        let report = r
            .retract_facts("e", &pairs(&[(2, 4)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(report.rederived >= 1, "p(1,4) must be restored: {report:?}");
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2), (1, 3), (1, 4), (3, 4)]));
    }

    #[test]
    fn retracting_absent_or_unknown_tuples_is_a_noop() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        let report = r
            .retract_facts("e", &pairs(&[(7, 8)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 0);
        assert_eq!(report.strata_rerun + report.full_fallbacks, 0);
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2)]));
    }

    #[test]
    fn retraction_cascades_across_strata() {
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n\
            .decl q(x: number)\n.output q\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n\
            q(y) :- p(1, y).\n";
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = resident(src, &inputs);
        assert_eq!(r.outputs()["q"].len(), 2);

        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert!(report.strata_rerun >= 2, "{report:?}");
        assert_eq!(report.full_fallbacks, 0);
        assert_eq!(r.outputs()["q"], vec![vec![Value::Number(2)]]);
    }

    #[test]
    fn negation_reader_gains_tuples_via_fallback() {
        let src = "\
            .decl a(x: number)\n.input a\n\
            .decl b(x: number)\n.input b\n\
            .decl r(x: number)\n.output r\n\
            r(x) :- a(x), !b(x).\n";
        let mut inputs = InputData::new();
        inputs.insert("a".into(), vec![vec![Value::Number(1)]]);
        inputs.insert("b".into(), vec![vec![Value::Number(1)]]);
        let mut r = resident(src, &inputs);
        assert!(r.outputs()["r"].is_empty());

        // Shrinking a negated relation *adds* downstream tuples — only
        // the full-recompute fallback can produce them.
        let report = r
            .retract_facts("b", &[vec![Value::Number(1)]], None)
            .expect("retracts");
        assert!(report.full_fallbacks >= 1, "{report:?}");
        assert_eq!(r.outputs()["r"], vec![vec![Value::Number(1)]]);
    }

    #[test]
    fn interleaved_inserts_and_retractions_match_from_scratch() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let mut r = resident(TC, &inputs);
        r.insert_facts("e", &pairs(&[(2, 3), (3, 4)]), None)
            .expect("inserts");
        r.retract_facts("e", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        r.insert_facts("e", &pairs(&[(4, 1)]), None)
            .expect("inserts");
        r.retract_facts("e", &pairs(&[(3, 4)]), None)
            .expect("retracts");

        // Survivors: e(2,3), e(4,1).
        let mut fresh_inputs = InputData::new();
        fresh_inputs.insert("e".into(), pairs(&[(2, 3), (4, 1)]));
        let fresh = resident(TC, &fresh_inputs);
        assert_eq!(r.outputs(), fresh.outputs());
    }

    /// `a` is a program-fact relation *and* the head of a stratum behind
    /// negation, so `+b(3)` recomputes it from the ground-fact list.
    const GROUND: &str = "\
        .decl a(x: number)\n.input a\n\
        .decl b(x: number)\n.input b\n\
        .decl c(x: number)\n.input c\n\
        .decl r(x: number)\n.output r\n\
        a(1). a(2). b(9).\n\
        a(x) :- c(x), !b(x).\n\
        r(x) :- a(x), !b(x).\n";

    /// After `-a(1)`, forces the negation fallbacks with `+b(3)`: the
    /// retracted program fact must stay gone, and `a(2)` must survive
    /// the recompute.
    fn retracted_program_fact_stays_gone(r: &mut ResidentEngine, setup: &str) {
        let report = r
            .insert_facts("b", &[vec![Value::Number(3)]], None)
            .expect("inserts");
        assert!(report.full_fallbacks >= 2, "{setup}: {report:?}");
        let two = vec![vec![Value::Number(2)]];
        assert_eq!(
            r.query("a", &[None], None).expect("queries"),
            two,
            "{setup}"
        );
        assert_eq!(r.outputs()["r"], two, "{setup}");
    }

    #[test]
    fn retracting_a_program_ground_fact_sticks() {
        let mut r = resident(GROUND, &InputData::new());
        assert_eq!(r.outputs()["r"].len(), 2);
        r.retract_facts("a", &[vec![Value::Number(1)]], None)
            .expect("retracts");
        assert_eq!(r.outputs()["r"], vec![vec![Value::Number(2)]]);
        retracted_program_fact_stays_gone(&mut r, "in memory");

        // Across recovery: the retraction covered by a snapshot, then
        // only in the WAL suffix.
        for (setup, config) in all_setups() {
            for snapshot in [true, false] {
                let dir = tmpdir("ground-recovery");
                let (inputs, opts) = (InputData::new(), PersistOptions::default());
                let (mut w, _) = open_dir(GROUND, config, &inputs, &dir, opts);
                w.retract_facts("a", &[vec![Value::Number(1)]], None)
                    .expect("retracts");
                if snapshot {
                    w.snapshot(None).expect("snapshots");
                }
                drop(w);
                let (mut r, rec) = open_dir(GROUND, config, &inputs, &dir, opts);
                let setup = format!("{setup}, snapshot={snapshot}");
                assert_eq!(rec.snapshot_loaded, snapshot, "{setup}");
                assert_eq!(rec.replayed_batches, u64::from(!snapshot), "{setup}");
                retracted_program_fact_stays_gone(&mut r, &setup);
                drop(r);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn eqrel_input_retraction_rebuilds_the_closure() {
        let src = "\
            .decl eq(x: number, y: number) eqrel\n.input eq\n\
            .decl out(x: number, y: number)\n.output out\n\
            out(x, y) :- eq(x, y).\n";
        let mut r = resident(src, &InputData::new());
        r.insert_facts("eq", &pairs(&[(1, 2), (2, 3)]), None)
            .expect("inserts");
        let one_three = [Some(Value::Number(1)), Some(Value::Number(3))];
        assert_eq!(r.query("eq", &one_three, None).expect("queries").len(), 1);

        let report = r
            .retract_facts("eq", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(report.full_fallbacks >= 1, "eqrel readers recompute");
        // The closure of the surviving generator {(2,3)} excludes 1.
        assert!(r
            .query("eq", &[Some(Value::Number(1)), None], None)
            .expect("queries")
            .is_empty());
        let two_three = [Some(Value::Number(2)), Some(Value::Number(3))];
        assert_eq!(r.query("out", &two_three, None).expect("queries").len(), 1);
    }

    #[test]
    fn retraction_survives_wal_replay() {
        let dir = tmpdir("retract-wal");
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let opts = PersistOptions::default();

        let (mut r, _) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        r.insert_facts("e", &pairs(&[(2, 3)]), None)
            .expect("inserts");
        r.retract_facts("e", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        let before = r.outputs();
        drop(r); // crash: recovery must replay the delete record too

        let (r, rec) = open_dir(TC, InterpreterConfig::optimized(), &inputs, &dir, opts);
        assert_eq!(rec.replayed_batches, 2);
        assert_eq!(r.outputs(), before);
        assert_eq!(r.outputs()["p"], pairs(&[(2, 3)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retraction_is_covered_by_snapshots() {
        // Retract a *program* ground fact, snapshot, recover: neither
        // `Database::new_with`'s fact pre-load nor the replay list may
        // resurrect it.
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n.output p\n\
            e(1, 2). e(2, 3).\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n";
        let dir = tmpdir("retract-snap");
        let (config, opts) = (InterpreterConfig::optimized(), PersistOptions::default());

        let (mut r, _) = open_dir(src, config, &InputData::new(), &dir, opts);
        r.retract_facts("e", &pairs(&[(1, 2)]), None)
            .expect("retracts");
        r.snapshot(None).expect("snapshots");
        let before = r.outputs();
        drop(r);

        let (mut r, rec) = open_dir(src, config, &InputData::new(), &dir, opts);
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.replayed_batches, 0);
        assert_eq!(r.outputs(), before);
        assert_eq!(r.outputs()["p"], pairs(&[(2, 3)]));
        // And a post-recovery fallback recompute must not resurrect it
        // from the reconciled replay list either.
        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert_eq!(report.retracted, 1);
        assert!(r.outputs()["p"].is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retract_deadline_sets_flag_but_commits() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = resident(TC, &inputs);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let report = r
            .retract_facts_deadline("e", &pairs(&[(2, 3)]), Some(past), None)
            .expect("applies despite deadline");
        assert!(report.deadline_exceeded);
        assert_eq!(report.retracted, 1, "the retraction still committed");
        assert_eq!(r.outputs()["p"], pairs(&[(1, 2)]));
    }

    fn modes() -> [InterpreterConfig; 2] {
        [
            InterpreterConfig::optimized(),
            InterpreterConfig::dynamic_adapter(),
        ]
    }

    /// Retracts `rows` from `rel` under the STI and the dynamic adapter,
    /// checks the result against a from-scratch engine over the
    /// survivors, and returns each mode's report.
    fn matches_from_scratch(
        src: &str,
        inputs: &InputData,
        rel: &str,
        rows: &[Vec<Value>],
    ) -> Vec<RetractReport> {
        let mut survivors = inputs.clone();
        survivors
            .get_mut(rel)
            .expect("an input")
            .retain(|r| !rows.contains(r));
        let build = |inputs, config| {
            ResidentEngine::from_source(src, config, inputs, None).expect("builds")
        };
        let mut reports = Vec::new();
        for config in modes() {
            let mut r = build(inputs, config);
            reports.push(r.retract_facts(rel, rows, None).expect("retracts"));
            let fresh = build(&survivors, config);
            assert_eq!(r.outputs(), fresh.outputs(), "mode {config:?}");
        }
        reports
    }

    fn numbers(values: &[i32]) -> Vec<Vec<Value>> {
        values.iter().map(|&v| vec![Value::Number(v)]).collect()
    }

    #[test]
    fn retraction_matches_from_scratch_in_every_mode() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (3, 1), (3, 4)]));
        matches_from_scratch(TC, &inputs, "e", &pairs(&[(2, 3)]));
        // `p(1, 3)` survives in one step through `e(1, 3)`, `p(1, 4)` only
        // through the restored `p(1, 3)`.
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (3, 4), (1, 3)]));
        for report in matches_from_scratch(TC, &inputs, "e", &pairs(&[(2, 3)])) {
            assert_eq!(
                (report.rederived, report.full_fallbacks),
                (1, 0),
                "{report:?}"
            );
        }
    }

    #[test]
    fn constant_heads_with_negation_rederive_in_every_mode() {
        let src = "\
            .decl a(x: number)\n.input a\n\
            .decl b(x: number)\n.input b\n\
            .decl c(x: number)\n.input c\n\
            .decl r(x: number, y: number)\n.output r\n\
            r(x, 7) :- a(x), !b(x).\n\
            r(x, 7) :- c(x).\n";
        let mut inputs = InputData::new();
        inputs.insert("a".into(), numbers(&[1, 2, 3]));
        inputs.insert("b".into(), numbers(&[2]));
        inputs.insert("c".into(), numbers(&[1]));
        // `r(1, 7)` survives through `c(1)`, `r(3, 7)` goes, and the
        // negation never let `r(2, 7)` exist.
        for report in matches_from_scratch(src, &inputs, "a", &numbers(&[1, 2, 3])) {
            assert_eq!(
                (report.rederived, report.full_fallbacks),
                (1, 0),
                "{report:?}"
            );
        }
    }

    #[test]
    fn substituted_head_columns_evaluate_after_the_guards_in_every_mode() {
        // `q` is defined by substitution, so the re-derive variant, like
        // the forward plan, evaluates `h / d` only after `d != 0`.
        let src = "\
            .decl a(h: number, d: number)\n.input a\n\
            .decl c(h: number, q: number)\n.input c\n\
            .decl r(h: number, q: number)\n.output r\n\
            r(h, q) :- a(h, d), q = h / d, d != 0.\n\
            r(h, q) :- c(h, q).\n";
        let mut inputs = InputData::new();
        inputs.insert("a".into(), pairs(&[(4, 2), (4, 0), (6, 3)]));
        inputs.insert("c".into(), pairs(&[(4, 2)]));
        for report in matches_from_scratch(src, &inputs, "a", &pairs(&[(4, 2)])) {
            assert_eq!(
                (report.rederived, report.full_fallbacks),
                (1, 0),
                "{report:?}"
            );
        }
    }

    #[test]
    fn a_failing_rederive_check_recomputes_the_stratum_in_every_mode() {
        // `b` binds `q`, so the variant compares `q = h / d` as soon as
        // `a` binds `d`, before the later `d != 0`: `a(4, 0)` divides by
        // zero there, where the forward plan's guard pruned it.
        let src = "\
            .decl a(h: number, d: number)\n.input a\n\
            .decl b(q: number)\n.input b\n\
            .decl c(h: number, q: number)\n.input c\n\
            .decl r(h: number, q: number)\n.output r\n\
            r(h, q) :- a(h, d), b(q), q = h / d, d != 0.\n\
            r(h, q) :- c(h, q).\n";
        let mut inputs = InputData::new();
        inputs.insert("a".into(), pairs(&[(4, 2), (4, 0), (6, 3)]));
        inputs.insert("b".into(), numbers(&[1, 2]));
        inputs.insert("c".into(), pairs(&[(4, 2)]));
        for report in matches_from_scratch(src, &inputs, "a", &pairs(&[(4, 2)])) {
            assert_eq!(
                (report.rederived, report.full_fallbacks),
                (1, 1),
                "{report:?}"
            );
        }
    }

    #[test]
    fn aggregate_heads_rederive_over_current_contents_in_every_mode() {
        let src = "\
            .decl a(x: number, y: number)\n.input a\n\
            .decl e(x: number, y: number)\n.input e\n\
            .decl t(x: number, n: number)\n.output t\n\
            t(x, n) :- a(x, _), n = count : { e(x, _) }.\n";
        let mut inputs = InputData::new();
        inputs.insert("a".into(), pairs(&[(1, 5), (1, 6), (2, 5)]));
        inputs.insert("e".into(), pairs(&[(1, 1), (1, 2), (2, 1)]));
        // The count is recomputed for `t(1, 2)`, which `a(1, 6)` still
        // supports; `t(2, 1)` goes with `a(2, 5)`.
        let doomed = pairs(&[(1, 5), (2, 5)]);
        for report in matches_from_scratch(src, &inputs, "a", &doomed) {
            assert_eq!(
                (report.rederived, report.full_fallbacks),
                (1, 0),
                "{report:?}"
            );
        }
    }

    #[test]
    fn each_retraction_fallback_reason_recomputes_only_its_stratum_in_every_mode() {
        // Three independent corners, one per input: `p` falls back only
        // under provenance, `eq` for its eqrel head and `id` for drawing
        // `$`; `r` and `s` share an input with the latter two and stay
        // incremental.
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl f(x: number, y: number)\n.input f\n\
            .decl g(x: number)\n.input g\n\
            .decl p(x: number, y: number)\n.output p\n\
            .decl eq(x: number, y: number) eqrel\n.output eq\n\
            .decl r(x: number)\n.output r\n\
            .decl id(x: number, n: number)\n.output id\n\
            .decl s(x: number)\n.output s\n\
            p(x, y) :- e(x, y).\n\
            p(x, z) :- p(x, y), e(y, z).\n\
            eq(x, y) :- f(x, y).\n\
            r(x) :- f(x, _).\n\
            id(x, $) :- g(x).\n\
            s(x) :- g(x).\n";
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        inputs.insert("f".into(), pairs(&[(1, 2), (2, 3)]));
        inputs.insert("g".into(), numbers(&[1, 2]));
        // (reason, provenance, relation, retracted row, strata re-run)
        let cases = [
            ("provenance", true, "e", pairs(&[(2, 3)]), 0),
            ("eqrel head", false, "f", pairs(&[(2, 3)]), 1),
            ("draws `$`", false, "g", numbers(&[2]), 1),
        ];
        let build = |inputs: &InputData, config| {
            ResidentEngine::from_source(src, config, inputs, None).expect("builds")
        };
        for mode in modes() {
            for (reason, provenance, rel, rows, rerun) in &cases {
                let config = if *provenance {
                    mode.with_provenance()
                } else {
                    mode
                };
                let mut r = build(&inputs, config);
                let report = r.retract_facts(rel, rows, None).expect("retracts");
                let counts = (report.full_fallbacks, report.strata_rerun);
                assert_eq!(counts, (1, *rerun), "{reason} in {config:?}");
                let mut survivors = inputs.clone();
                survivors
                    .get_mut(*rel)
                    .expect("input")
                    .retain(|t| !rows.contains(t));
                let (mut got, mut want) = (r.outputs(), build(&survivors, config).outputs());
                // Recomputed `$` values depend on how often the counter ran.
                got.remove("id");
                want.remove("id");
                assert_eq!(got, want, "{reason} in {config:?}");
            }
        }
    }
}
