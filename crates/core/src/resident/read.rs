//! The read path. [`ResidentEngine::query`] answers a partially-bound
//! pattern with the relation's existing indexes through
//! [`Relation::select`]: the index whose order has the longest prefix of
//! bound columns drives an inclusive range scan, and the remaining bound
//! columns are post-filtered. No statement or tree is built. Queries and
//! `.explain` pass the front door and encode values with
//! `encode_existing`, so a read never interns a symbol: a bound symbol
//! that was never interned simply matches nothing.

use super::*;
use crate::prov::{ExplainLimits, ProofNode};

impl ResidentEngine {
    /// Answers a partially-bound pattern against the resident database.
    ///
    /// `pattern[i] = Some(v)` binds column `i` to `v`; `None` leaves it
    /// free. The lookup is one [`Relation::select`]; rows come back sorted,
    /// so they do not depend on which index answered. A bound symbol that
    /// was never interned yields an empty result.
    ///
    /// # Errors
    ///
    /// Rejects unknown relations, auxiliary (`delta_`/`new_`/`upd_`)
    /// relations, and wrong-arity patterns.
    pub fn query(
        &self,
        rel: &str,
        pattern: &[Option<Value>],
        tel: Option<&Telemetry>,
    ) -> Result<Vec<Vec<Value>>, EvalError> {
        self.query_deadline(rel, pattern, None, tel)
    }

    /// [`Self::query`] with a per-request deadline. Unlike updates,
    /// queries are read-only, so an elapsed deadline aborts the scan
    /// outright — nothing is poisoned — and reports an error.
    ///
    /// # Errors
    ///
    /// As [`Self::query`], plus a `deadline exceeded` error when the
    /// scan ran past `deadline`.
    pub fn query_deadline(
        &self,
        rel: &str,
        pattern: &[Option<Value>],
        deadline: Option<Instant>,
        tel: Option<&Telemetry>,
    ) -> Result<Vec<Vec<Value>>, EvalError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:query"));
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let meta = lookup(&self.ram, rel, Access::Query, [pattern.len()])?;
        // Check once up front so an already-elapsed deadline aborts even
        // a tiny scan; the in-loop poll only fires every 4096 tuples.
        if elapsed(deadline) {
            return Err(EvalError::new("deadline exceeded"));
        }

        let rel_guard = self.db.rd(meta.id);
        let symbols = self.db.symbols_rd();
        let Some(bits) = encode_existing(&symbols, pattern.iter().flatten()) else {
            return Ok(Vec::new());
        };
        let mut bits = bits.into_iter();
        let bound: Vec<Option<RamDomain>> = pattern
            .iter()
            .map(|term| term.as_ref().and_then(|_| bits.next()))
            .collect();

        // A nullary relation holds at most the empty tuple, which no scan
        // yields.
        let mut out = Vec::new();
        if meta.arity == 0 && !rel_guard.is_empty() {
            out.push(Vec::new());
        }
        let mut matches = rel_guard.select(&bound);
        let mut scanned = 0u32;
        while let Some(hit) = matches.advance() {
            // Poll the clock every 4096 tuples: cheap enough to leave on,
            // frequent enough that a runaway scan stops promptly.
            scanned = scanned.wrapping_add(1);
            if scanned & 0xFFF == 0 && elapsed(deadline) {
                return Err(EvalError::new("deadline exceeded"));
            }
            if hit {
                out.push(matches.current().to_vec());
            }
        }
        // Which index answered the query depends on the engine mode and
        // the program's search signatures; sorting the encoded tuples
        // makes the row order deterministic across all of them (the same
        // convention `to_sorted_tuples` uses for batch outputs).
        out.sort_unstable();
        let rows: Vec<Vec<Value>> = out
            .iter()
            .map(|src| {
                src.iter()
                    .zip(&meta.attr_types)
                    .map(|(&bits, &ty)| Value::decode(bits, ty, &symbols))
                    .collect()
            })
            .collect();
        self.counters
            .query_rows
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }

    /// Explains how `row` of relation `rel` was derived, as a
    /// minimal-height proof tree (see [`crate::prov`]).
    ///
    /// Requires the engine to run with
    /// [`crate::InterpreterConfig::provenance`] on; render the result
    /// with [`Self::render_proof`].
    ///
    /// # Errors
    ///
    /// Rejects unknown/internal relations and wrong-arity rows; reports
    /// provenance-off engines and non-derivable facts as evaluation
    /// errors.
    pub fn explain(
        &self,
        rel: &str,
        row: &[Value],
        limits: ExplainLimits,
        tel: Option<&Telemetry>,
    ) -> Result<ProofNode, EvalError> {
        let _span = tel.map(|t| t.tracer.span("phase:serve:explain"));
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .explain_requests
            .fetch_add(1, Ordering::Relaxed);
        let node = explain_row(&self.ram, &self.db, rel, row, &limits)?;
        self.counters
            .explain_nodes
            .fetch_add(node.size() as u64, Ordering::Relaxed);
        Ok(node)
    }

    /// Renders a proof tree from [`Self::explain`] as an indented text
    /// block (one line per node, premises indented under their rule).
    pub fn render_proof(&self, node: &ProofNode) -> String {
        crate::prov::render_proof(&self.ram, &self.db, node)
    }
}

/// `.explain` over any database: the front door, then the proof tree of
/// [`crate::prov::explain`]. The resident engine and the batch
/// [`crate::Engine::explain_with`] share it.
pub(crate) fn explain_row(
    ram: &RamProgram,
    db: &Database,
    rel: &str,
    row: &[Value],
    limits: &ExplainLimits,
) -> Result<ProofNode, EvalError> {
    let meta = lookup(ram, rel, Access::Explain, [row.len()])?;
    let Some(tuple) = encode_existing(&db.symbols_rd(), row) else {
        // A never-interned symbol cannot be in any relation.
        let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        return Err(EvalError::new(format!(
            "`{rel}({})` is not derivable",
            vals.join(", ")
        )));
    };
    crate::prov::explain(ram, db, meta.id, &tuple, limits)
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;

    #[test]
    fn queries_use_bound_prefixes_and_post_filters() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (2, 4)]));
        let mut r = resident(TC, &inputs);
        r.insert_facts("e", &pairs(&[(4, 5)]), None)
            .expect("updates");

        let from2 = r
            .query("p", &[Some(Value::Number(2)), None], None)
            .expect("queries");
        assert_eq!(from2.len(), 3); // (2,3) (2,4) (2,5)
        let exact = r
            .query("p", &[Some(Value::Number(1)), Some(Value::Number(5))], None)
            .expect("queries");
        assert_eq!(exact, pairs(&[(1, 5)]));
        let all = r.query("e", &[None, None], None).expect("queries");
        assert_eq!(all.len(), 4);
        let to3 = r
            .query("p", &[None, Some(Value::Number(3))], None)
            .expect("queries");
        assert_eq!(to3.len(), 2); // (1,3) (2,3)
    }

    #[test]
    fn unknown_symbols_match_nothing_without_interning() {
        let src = "\
            .decl n(s: symbol)\n.input n\n\
            .decl out(s: symbol)\n.output out\n\
            out(s) :- n(s).\n";
        let mut inputs = InputData::new();
        inputs.insert("n".into(), vec![vec![Value::Symbol("ada".into())]]);
        let r = resident(src, &inputs);
        let rows = r
            .query("out", &[Some(Value::Symbol("ghost".into()))], None)
            .expect("queries");
        assert!(rows.is_empty());
        let rows = r
            .query("out", &[Some(Value::Symbol("ada".into()))], None)
            .expect("queries");
        assert_eq!(rows, vec![vec![Value::Symbol("ada".into())]]);
    }

    #[test]
    fn query_deadline_aborts_cleanly() {
        // Non-recursive program: large EDB without a quadratic closure.
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n.output p\n\
            p(x, y) :- e(x, y).\n";
        let mut inputs = InputData::new();
        // Enough rows that the scan crosses at least one deadline poll.
        inputs.insert(
            "e".into(),
            pairs(&(0..5000).map(|i| (i, i + 1)).collect::<Vec<_>>()),
        );
        let r = resident(src, &inputs);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let err = r
            .query_deadline("e", &[None, None], Some(past), None)
            .unwrap_err();
        assert!(err.msg.contains("deadline"), "{err:?}");
        // The engine is untouched: the same query without a deadline works.
        assert_eq!(
            r.query("e", &[None, None], None).expect("queries").len(),
            5000
        );
    }

    #[test]
    fn query_rows_come_back_sorted_in_every_mode() {
        // Insertion order deliberately scrambled; rows must come back in
        // encoded-tuple order regardless of which index serves the scan.
        let scrambled = pairs(&[(5, 1), (2, 9), (2, 3), (4, 4), (1, 7)]);
        for config in [
            InterpreterConfig::optimized(),
            InterpreterConfig::dynamic_adapter(),
        ] {
            let mut inputs = InputData::new();
            inputs.insert("e".into(), scrambled.clone());
            let r = ResidentEngine::from_source(TC, config, &inputs, None).expect("builds");
            let rows = r.query("e", &[None, None], None).expect("queries");
            assert_eq!(
                rows,
                pairs(&[(1, 7), (2, 3), (2, 9), (4, 4), (5, 1)]),
                "sorted rows in {config:?}"
            );
            let bound = r
                .query("p", &[Some(Value::Number(2)), None], None)
                .expect("queries");
            let mut sorted = bound.clone();
            sorted.sort_by_key(|row| match row[1] {
                Value::Number(n) => n,
                _ => unreachable!(),
            });
            assert_eq!(bound, sorted, "bound-prefix rows sorted in {config:?}");
        }
    }

    #[test]
    fn explain_covers_incremental_derivations() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3)]));
        let mut r = ResidentEngine::from_source(
            TC,
            InterpreterConfig::optimized().with_provenance(),
            &inputs,
            None,
        )
        .expect("builds");
        r.insert_facts("e", &pairs(&[(3, 4)]), None)
            .expect("updates");

        // p(1,4) only exists because of the incrementally inserted edge.
        let node = r
            .explain(
                "p",
                &[Value::Number(1), Value::Number(4)],
                ExplainLimits::default(),
                None,
            )
            .expect("explains");
        assert!(!node.is_input());
        assert!(node.premises.iter().any(|p| p.tuple == vec![3, 4]));
        let rendered = r.render_proof(&node);
        assert!(rendered.contains("p(1, 4)"), "{rendered}");
        assert!(rendered.contains("[input]"), "{rendered}");
        let s = r.stats();
        assert_eq!(s.explain_requests, 1);
        assert!(s.explain_nodes >= node.size() as u64);

        // Non-derivable and never-interned facts report errors, not trees.
        assert!(r
            .explain(
                "p",
                &[Value::Number(9), Value::Number(9)],
                ExplainLimits::default(),
                None,
            )
            .is_err());
    }

    #[test]
    fn explain_rejects_provenance_off_engines() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2)]));
        let r = resident(TC, &inputs);
        let err = r
            .explain(
                "p",
                &[Value::Number(1), Value::Number(2)],
                ExplainLimits::default(),
                None,
            )
            .unwrap_err();
        assert!(err.msg.contains("provenance"), "{err:?}");
    }

    #[test]
    fn explain_stays_exact_after_retraction() {
        let mut inputs = InputData::new();
        inputs.insert("e".into(), pairs(&[(1, 2), (2, 3), (1, 3)]));
        let mut r = ResidentEngine::from_source(
            TC,
            InterpreterConfig::optimized().with_provenance(),
            &inputs,
            None,
        )
        .expect("builds");

        let report = r
            .retract_facts("e", &pairs(&[(2, 3)]), None)
            .expect("retracts");
        assert!(
            report.full_fallbacks >= 1,
            "provenance mode recomputes for exact annotations: {report:?}"
        );
        // p(1,3) survives via the direct edge and explains as such.
        let node = r
            .explain(
                "p",
                &[Value::Number(1), Value::Number(3)],
                ExplainLimits::default(),
                None,
            )
            .expect("explains");
        assert!(node.premises.iter().all(|p| p.tuple != vec![2, 3]));
        // p(2,3) is gone and reports non-derivable.
        assert!(r
            .explain(
                "p",
                &[Value::Number(2), Value::Number(3)],
                ExplainLimits::default(),
                None,
            )
            .is_err());
    }
}
