//! The metric vocabulary and the result a workload run prints.
//!
//! The two tables below are the only place a metric name is declared;
//! `BENCHMARK.json` must list exactly the same names (a unit test compares
//! them) and [`Report::set`] refuses a name that is in neither table, so
//! nothing can be printed that the contract does not declare.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; which user-visible number fills `op_*`, `alt_*` and
/// `throughput_per_s` on which workload is tabulated in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("alt_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by the traced run. The layer is the text
/// before the first dot and names a crate under `crates/` (`trace` is the
/// recorder itself). A workload that never enters a layer reports 0 for
/// that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The user-visible numbers under the names the issue gave them; the
    // end-to-end slots above are filled from these.
    ("core.mine_wall_s", "s"),
    ("exec.mine_t2_wall_s", "s"),
    ("serve.update_visible_p50_ms", "ms"),
    ("serve.update_visible_p90_ms", "ms"),
    ("serve.stream_windows_per_s", "1/s"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p90_ms", "ms"),
    ("router.patterns_cold_p50_ms", "ms"),
    ("router.patterns_cold_p90_ms", "ms"),
    ("router.support_cold_p50_ms", "ms"),
    ("router.read_cached_p50_ms", "ms"),
    ("router.update_p50_ms", "ms"),
    ("router.read_mixed_p50_ms", "ms"),
    ("router.read_mixed_p90_ms", "ms"),
    // graph
    ("graph.read_db_s", "s"),
    ("graph.write_patterns_s", "s"),
    ("graph.min_dfs_code_ns", "ns"),
    ("graph.is_min_ns", "ns"),
    ("graph.embed_from_code_ns_per_row", "ns"),
    ("graph.iso_support_us", "us"),
    ("graph.intersect_ns_per_elem", "ns"),
    ("graph.embeddings_extended", "count"),
    ("graph.embeddings_spilled", "count"),
    ("graph.search_calls", "count"),
    ("graph.search_calls_avoided", "count"),
    ("graph.iso_tests_run", "count"),
    ("graph.iso_tests_pruned", "count"),
    // partition
    ("partition.build_s", "s"),
    ("partition.build_direct_s", "s"),
    ("partition.apply_update_us", "us"),
    // miner
    ("miner.unit_mine_s", "s"),
    ("miner.extensions", "count"),
    ("miner.patterns", "count"),
    ("miner.gspan_ref_s", "s"),
    // core
    ("core.merge_join_s", "s"),
    ("core.merge_join_share", "ratio"),
    ("core.candidates_generated", "count"),
    ("core.verified_frequent", "count"),
    ("core.verified_infrequent", "count"),
    ("core.bound_shortcut", "count"),
    ("core.known_skipped", "count"),
    ("core.candidate_yield", "ratio"),
    ("core.stage_coverage", "ratio"),
    ("core.inc_update_p50_ms", "ms"),
    ("core.inc_units_remined", "count"),
    ("core.inc_prune_set_hits", "count"),
    ("core.cold_mine_ms", "ms"),
    ("core.inc_over_cold", "ratio"),
    // exec
    ("exec.jobs", "count"),
    ("exec.steals", "count"),
    ("exec.queue_peak", "count"),
    ("exec.map_overhead_us", "us"),
    ("exec.speedup_t2", "ratio"),
    // storage
    ("storage.wal_submit_p50_us", "us"),
    ("storage.wal_bytes_per_window", "B"),
    ("storage.group_commits", "count"),
    ("storage.group_frames", "count"),
    ("storage.frames_per_fsync", "ratio"),
    ("storage.recover_ms", "ms"),
    ("storage.warm_boot_ms", "ms"),
    // serve: in-process twins of the wire ops, then `status` counters
    ("serve.submit_window_us", "us"),
    ("serve.apply_p50_ms", "ms"),
    ("serve.support_of_us.patterns", "us"),
    ("serve.support_of_us.embeddings", "us"),
    ("serve.support_of_us.search", "us"),
    ("serve.handle_us.patterns", "us"),
    ("serve.handle_us.support", "us"),
    ("serve.handle_us.update", "us"),
    ("serve.parse_request_us", "us"),
    ("serve.reply_bytes", "B"),
    ("serve.wire_ms", "ms"),
    ("serve.support_from_patterns", "count"),
    ("serve.support_from_embeddings", "count"),
    ("serve.support_from_search", "count"),
    ("serve.epoch_swaps", "count"),
    ("serve.ingest_ops_in", "count"),
    ("serve.ingest_ops_coalesced", "count"),
    ("serve.ingest_backpressure", "count"),
    ("serve.ingest_pending_peak", "count"),
    ("serve.req_errors", "count"),
    ("serve.req_overloaded", "count"),
    ("serve.boot_cold_ms", "ms"),
    // router
    ("router.call_ms.patterns", "ms"),
    ("router.call_ms.support", "ms"),
    ("router.call_ms.status", "ms"),
    ("router.front_wire_ms", "ms"),
    ("router.shard_direct_ms", "ms"),
    ("router.scatter_fanout_per_read", "ratio"),
    ("router.cache_hits", "count"),
    ("router.cache_misses", "count"),
    ("router.cache_evictions", "count"),
    ("router.cache_hit_ratio", "ratio"),
    ("router.cache_hit_ratio_cold", "ratio"),
    ("router.phase1_truncated", "count"),
    ("router.hedged_reads", "count"),
    ("router.shard_retries", "count"),
    ("router.gather_partial", "count"),
    ("router.epoch_2pc_aborts", "count"),
    ("router.plan_shards_ms", "ms"),
    // telemetry
    ("telemetry.json_parse_mb_s", "MB/s"),
    ("telemetry.json_serialize_mb_s", "MB/s"),
    // the trace: wall-time attribution per layer, summing to the whole
    ("graph.self_s", "s"),
    ("partition.self_s", "s"),
    ("miner.self_s", "s"),
    ("core.self_s", "s"),
    ("exec.self_s", "s"),
    ("storage.self_s", "s"),
    ("serve.self_s", "s"),
    ("router.self_s", "s"),
    ("telemetry.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|&(_, unit)| unit)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Value and, for timing summaries, the sample count behind it.
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Operations the timed phases attempted and how many were refused or
    /// errored (`backpressure` retries are not failures; they are counted
    /// under `serve.ingest_backpressure`).
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, in the order they were found.
    pub errors: Vec<String>,
}

impl Report {
    /// Records a metric. Panics on an undeclared name: every printed
    /// metric must be in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, value, None);
    }

    /// Records a metric that summarizes `n` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.put(name, value, Some(n));
    }

    fn put(&mut self, name: &'static str, value: f64, n: Option<usize>) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not declared in metrics.rs");
        self.values.insert(name, (value, n));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Records the outcome of a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Every recorded metric as `name = value unit (n=samples)`, one per
    /// line, in table order.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(&(v, n)) = self.values.get(name) {
                let n = n.map_or(String::new(), |n| format!(" (n={n})"));
                out.push_str(&format!("{name} = {v} {unit}{n}\n"));
            }
        }
        out
    }

    /// The result line of the contract: with tracing off every
    /// end-to-end metric, with tracing on every per-layer metric (0 for a
    /// layer the workload never entered). A missing end-to-end metric is
    /// a harness bug and marks the run incorrect.
    pub fn result_line(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.errors.push(format!("metric `{name}` is not finite: {v}"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.errors.push(format!("end-to-end metric `{name}` was not measured"));
                    0.0
                }
            };
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of the objects in the array under `key` of a
    /// `BENCHMARK.json` text (names and keys hold no escapes).
    fn names_under(text: &str, key: &str) -> Vec<String> {
        let from = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no key {key}"));
        let body = &text[from..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let open = rest.find('"').expect("name value") + 1;
                let close = open + rest[open..].find('"').expect("name value end");
                rest[open..close].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_harness_prints() {
        let text = benchmark_json();
        let declared = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names_under(&text, "end_to_end"), declared(END_TO_END));
        assert_eq!(names_under(&text, "per_layer"), declared(PER_LAYER));
        // Units agree too: each declared unit appears next to its name.
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let at = text.find(&format!("\"name\": \"{name}\"")).expect(name);
            let entry = &text[at..at + text[at..].find('}').expect("entry end")];
            assert!(entry.contains(&format!("\"unit\": \"{unit}\"")), "{name}: unit in {entry}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "bad metric name `{name}`");
            assert!(ok_unit(unit), "bad unit `{unit}` on `{name}`");
            assert!(seen.insert(name.to_string()), "metric `{name}` declared twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")), "the contract requires setup_s");
        let workloads = names_under(&benchmark_json(), "workloads");
        assert_eq!(workloads, crate::WORKLOADS);
        for w in workloads {
            assert!(ok_name(&w), "bad workload name `{w}`");
            assert!(seen.insert(w.clone()), "`{w}` names a workload and a metric");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_cannot_be_recorded() {
        Report::default().set("made.up_metric", 1.0);
    }

    #[test]
    fn the_result_line_holds_exactly_the_declared_table() {
        let mut r = Report::default();
        for &(name, _) in END_TO_END {
            r.set_n(name, 1.25, 7);
        }
        r.set("core.merge_join_s", 0.5);
        r.attempted = 3;
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert!(!line.contains("core.merge_join_s"));
        let traced = r.result_line(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"core.merge_join_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(traced.contains("\"router.cache_hits\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(r.correct());
    }

    #[test]
    fn a_missing_end_to_end_metric_marks_the_run_incorrect() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(r.errors.iter().any(|e| e.contains("peak_rss_mb")));
    }

    #[test]
    fn human_output_names_units_and_sample_counts() {
        let mut r = Report::default();
        r.set_n("op_p50_ms", 88.5, 40);
        r.set("peak_rss_mb", 120.0);
        let text = r.human();
        assert!(text.contains("op_p50_ms = 88.5 ms (n=40)\n"));
        assert!(text.contains("peak_rss_mb = 120 MB\n"));
    }
}
