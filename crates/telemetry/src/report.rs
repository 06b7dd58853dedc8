//! Machine-readable run reports.

use crate::counters::Counter;
use crate::json::JsonValue;
use crate::spans::{SpanRecord, Telemetry};

/// Aggregated wall time for one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotal {
    /// Stage name (matches the span name, e.g. `unit_mine`).
    pub name: String,
    /// Summed wall time across the stage's spans, in nanoseconds.
    pub total_ns: u64,
    /// Number of spans contributing to the total.
    pub count: u64,
}

/// A serializable summary of one mining run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Which algorithm produced the run (e.g. `partminer`).
    pub algo: String,
    /// Wall time from telemetry creation to report capture, nanoseconds.
    pub total_ns: u64,
    /// Per-stage totals, aggregated from top-level spans by name.
    pub stages: Vec<StageTotal>,
    /// Final counter table, in slot order.
    pub counters: Vec<(String, u64)>,
    /// The raw span log.
    pub spans: Vec<SpanRecord>,
}

impl RunReport {
    /// Captures a report from a live telemetry handle.
    ///
    /// Stage totals come from *top-level* spans (no parent) grouped by
    /// name, so on a serial run they partition the total wall time.
    pub fn capture(algo: &str, tel: &Telemetry) -> RunReport {
        let spans = tel.spans();
        let mut stages: Vec<StageTotal> = Vec::new();
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            match stages.iter_mut().find(|st| st.name == s.name) {
                Some(st) => {
                    st.total_ns += s.dur_ns;
                    st.count += 1;
                }
                None => {
                    stages.push(StageTotal { name: s.name.clone(), total_ns: s.dur_ns, count: 1 })
                }
            }
        }
        RunReport {
            algo: algo.to_string(),
            total_ns: tel.elapsed_ns(),
            stages,
            counters: tel
                .counters()
                .snapshot()
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
            spans,
        }
    }

    /// The value of a counter by report name (0 when absent).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.iter().find(|(n, _)| n == c.name()).map(|&(_, v)| v).unwrap_or(0)
    }

    /// Summed wall time of one stage (0 when absent).
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.stages.iter().find(|s| s.name == name).map(|s| s.total_ns).unwrap_or(0)
    }

    /// Serializes the report as a single JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The report as a JSON value, for embedding in a larger document.
    pub fn to_value(&self) -> JsonValue {
        let opt = |v: Option<u64>| match v {
            Some(n) => JsonValue::Num(n),
            None => JsonValue::Null,
        };
        JsonValue::Obj(vec![
            ("algo".into(), JsonValue::Str(self.algo.clone())),
            ("total_ns".into(), JsonValue::Num(self.total_ns)),
            (
                "stages".into(),
                JsonValue::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            JsonValue::Obj(vec![
                                ("name".into(), JsonValue::Str(s.name.clone())),
                                ("total_ns".into(), JsonValue::Num(s.total_ns)),
                                ("count".into(), JsonValue::Num(s.count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                JsonValue::Obj(
                    self.counters.iter().map(|(n, v)| (n.clone(), JsonValue::Num(*v))).collect(),
                ),
            ),
            (
                "spans".into(),
                JsonValue::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            JsonValue::Obj(vec![
                                ("id".into(), JsonValue::Num(s.id)),
                                ("parent".into(), opt(s.parent)),
                                ("name".into(), JsonValue::Str(s.name.clone())),
                                ("node".into(), opt(s.node)),
                                ("thread".into(), JsonValue::Str(s.thread.clone())),
                                ("start_ns".into(), JsonValue::Num(s.start_ns)),
                                ("dur_ns".into(), JsonValue::Num(s.dur_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;

    #[test]
    fn capture_groups_top_level_spans() {
        let tel = Telemetry::new();
        {
            let _p = tel.span("partition");
        }
        for node in 0..3 {
            let _u = tel.span_node("unit_mine", node);
        }
        {
            let _m = tel.span("merge_join");
            let _inner = tel.span("check_frequency"); // nested: not a stage
        }
        tel.counters().add(Counter::CandidatesGenerated, 7);
        let report = RunReport::capture("partminer", &tel);
        assert_eq!(report.algo, "partminer");
        let unit = report.stages.iter().find(|s| s.name == "unit_mine").unwrap();
        assert_eq!(unit.count, 3);
        assert!(report.stages.iter().all(|s| s.name != "check_frequency"));
        assert_eq!(report.counter(Counter::CandidatesGenerated), 7);
        assert_eq!(report.spans.len(), 6);
        // Top-level stages partition the run: their sum cannot exceed the
        // total wall time on a serial run.
        let staged: u64 = report.stages.iter().map(|s| s.total_ns).sum();
        assert!(staged <= report.total_ns);
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let tel = Telemetry::new();
        {
            let _p = tel.span("partition");
            let _u = tel.span_node("unit_mine", 2);
        }
        tel.counters().add(Counter::IsoTestsRun, 11);
        tel.counters().add(Counter::VerifiedFrequent, 3);
        let report = RunReport::capture("incpartminer", &tel);
        let json = JsonValue::parse(&report.to_json()).unwrap();
        fn num(v: &JsonValue, key: &str) -> Option<u64> {
            v.field(key).and_then(JsonValue::as_num)
        }
        fn text<'v>(v: &'v JsonValue, key: &str) -> Option<&'v str> {
            v.field(key).and_then(JsonValue::as_str)
        }
        assert_eq!(text(&json, "algo"), Some("incpartminer"));
        assert_eq!(num(&json, "total_ns"), Some(report.total_ns));
        let stages = json.field("stages").and_then(JsonValue::as_arr).unwrap();
        let stages: Vec<_> = stages
            .iter()
            .map(|s| StageTotal {
                name: text(s, "name").unwrap().into(),
                total_ns: num(s, "total_ns").unwrap(),
                count: num(s, "count").unwrap(),
            })
            .collect();
        assert_eq!(stages, report.stages);
        let counters = json.field("counters").and_then(JsonValue::as_obj).unwrap();
        let counters: Vec<_> =
            counters.iter().map(|(n, v)| (n.clone(), v.as_num().unwrap())).collect();
        assert_eq!(counters, report.counters);
        let spans = json.field("spans").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(spans.len(), report.spans.len());
        for (got, want) in spans.iter().zip(&report.spans) {
            assert_eq!(num(got, "id"), Some(want.id));
            assert_eq!(num(got, "parent"), want.parent);
            assert_eq!(text(got, "name"), Some(want.name.as_str()));
            assert_eq!(num(got, "node"), want.node);
            assert_eq!(text(got, "thread"), Some(want.thread.as_str()));
            assert_eq!(num(got, "start_ns"), Some(want.start_ns));
            assert_eq!(num(got, "dur_ns"), Some(want.dur_ns));
        }
    }
}
