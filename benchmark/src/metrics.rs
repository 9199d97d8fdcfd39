//! Metric names, units and directions: the vocabulary `BENCHMARK.json`
//! and the result line share.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of `stir`/`stird` sees; measured with tracing off, on
/// every workload (see README.md for what each means on which workload).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("run_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("ready_s", "s"),
    higher("requests_per_s", "1/s"),
    lower("query_p50_us", "us"),
    lower("query_p95_us", "us"),
    lower("scan_query_p50_us", "us"),
    lower("update_p50_us", "us"),
    lower("update_p95_us", "us"),
    lower("retract_p50_us", "us"),
    lower("update_burst16_p50_us", "us"),
];

/// One number per layer boundary, from the traced in-process replay. A
/// layer a workload never enters reports 0. The last two were end-to-end
/// metrics: they come from the real child but carry no bound (README.md,
/// "Steadiness").
pub const PER_LAYER: &[MetricDef] = &[
    lower("frontend.parse_us", "us"),
    lower("ram.translate_us", "us"),
    lower("ram.index_selection_us", "us"),
    lower("ram.indexes", "count"),
    lower("itree.build_us", "us"),
    lower("database.load_us", "us"),
    lower("database.extract_us", "us"),
    lower("interp.run_us", "us"),
    lower("interp.dispatches", "count"),
    lower("interp.iterations", "count"),
    lower("interp.tuples_derived", "count"),
    lower("interp.ns_per_dispatch", "ns"),
    lower("morsel.morsels", "count"),
    lower("morsel.steals", "count"),
    lower("morsel.worker_skew", "ratio"),
    lower("der.btree.insert_ns", "ns"),
    lower("der.btree.contains_ns", "ns"),
    lower("der.btree.range_ns", "ns"),
    lower("der.btree.scan_ns_per_tuple", "ns"),
    lower("der.brie.insert_ns", "ns"),
    lower("der.brie.range_ns", "ns"),
    lower("der.eqrel.insert_ns", "ns"),
    lower("der.bytes_per_tuple", "B"),
    lower("disk.range_warm_us", "us"),
    lower("disk.range_cold_us", "us"),
    lower("disk.scan_ns_per_tuple", "ns"),
    higher("disk.page_hit_ratio", "ratio"),
    lower("disk.page_misses_per_query", "count"),
    lower("disk.page_evictions", "count"),
    lower("disk.overlay_tuples", "count"),
    lower("resident.open_ms", "ms"),
    lower("resident.query_point_us", "us"),
    lower("resident.query_prefix_us", "us"),
    lower("resident.query_scan_us", "us"),
    lower("resident.insert_us", "us"),
    lower("resident.insert_strata_rerun", "count"),
    lower("resident.full_fallbacks", "count"),
    lower("resident.retract_us", "us"),
    lower("rederive.retract_recursive_ms", "ms"),
    lower("rederive.rederived_per_retract", "ratio"),
    lower("wal.append_us", "us"),
    lower("wal.sync_us", "us"),
    lower("wal.bytes_per_fact", "B"),
    lower("wal.replay_ms", "ms"),
    lower("snap2.write_ms", "ms"),
    lower("snap2.open_ms", "ms"),
    lower("snap2.compact_ms", "ms"),
    lower("snap2.bytes_per_tuple", "B"),
    lower("serve.handle_query_us", "us"),
    lower("serve.handle_update_us", "us"),
    lower("serve.self_us", "us"),
    lower("serve.read_request_us", "us"),
    lower("serve.response_bytes", "B"),
    lower("serve.writes_per_response", "count"),
    lower("stird.transport_us", "us"),
    lower("stird.connect_us", "us"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.self_time_coverage", "ratio"),
    lower("retract_recursive_p50_ms", "ms"),
    lower("restart_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
