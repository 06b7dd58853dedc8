//! Wire protocol of the serving daemon: newline-delimited JSON.
//!
//! Every request is one JSON object on one line with a `"cmd"` field;
//! every response is one JSON object on one line with a `"status"` field
//! (`"ok"` or `"error"`). The JSON dialect is the telemetry crate's
//! subset — unsigned integers, strings, arrays, objects, `null`; no
//! floats or booleans — so flags are encoded as `0`/`1` integers.
//!
//! Requests:
//!
//! ```text
//! {"cmd":"status"}                   // add "report":1 for the full RunReport
//! {"cmd":"patterns","top":10,"min_support":3}      // both fields optional
//! {"cmd":"support","code":[[0,1,0,5,1],[1,2,1,5,0]]}
//! {"cmd":"support","graph":{"vertices":[0,1,0],"edges":[[0,1,5],[1,2,5]]}}
//! {"cmd":"support","code":[...],"owned":1}        // count owned gids only
//! {"cmd":"support-batch","codes":[[...],[...]],"owned":1}
//! {"cmd":"update","ops":[{"gid":3,"op":"add-edge","u":0,"v":6,"label":2}]}
//! {"cmd":"update","ops":[...],"ack":"durable"}   // stream: ack at the fsync barrier
//! {"cmd":"update","dry_run":1,"ops":[...]}       // router 2PC: validate only
//! {"cmd":"epoch-commit","global":3,"seq":2}      // router 2PC: publish global epoch
//! {"cmd":"shutdown"}
//! ```
//!
//! A `code` is a list of DFS-code edges `[from, to, from_label,
//! edge_label, to_label]`; it does not have to be minimal — the server
//! canonicalizes. Update ops mirror the CLI text format
//! (`relabel-vertex`, `relabel-edge`, `add-edge`, `add-vertex`,
//! `delete-edge`, `delete-vertex`).
//!
//! An update with `"ack":"applied"` (the default) is answered once the
//! window is folded into the served epoch; `"ack":"durable"` answers at
//! the group-commit fsync barrier, before application. When the ingest
//! queue is full the server sheds the window with
//! `{"status":"error","error":"backpressure","pending":N}` — distinct
//! from `overloaded` (connection queue full) and from real errors:
//! nothing was admitted and the client should retry after a backoff.
//!
//! The `owned`/`support-batch`/`dry_run`/`epoch-commit` extensions serve
//! the scatter/gather router (`graphmine-router`): shards booted with an
//! owned-gid set answer owner-restricted counts (so gathered sums count
//! every graph exactly once), a dry-run update validates a window against
//! the journal tail without admitting it (2PC phase 0), and
//! `epoch-commit` waits for a prepared window to apply and then adopts
//! the router's published global epoch, which `status` reports alongside
//! the local one.

use graphmine_graph::{DbUpdate, DfsCode, Graph, GraphUpdate, Pattern, Support, VLabel};
use graphmine_telemetry::JsonValue;

/// Patterns returned by a `patterns` request when `top` is omitted.
pub const DEFAULT_TOP: usize = 50;

/// When an `update` request is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckMode {
    /// Answer once the window is folded into the served epoch.
    #[default]
    Applied,
    /// Answer at the group-commit fsync barrier; application follows
    /// asynchronously, bounded by the server's staleness bound.
    Durable,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Daemon and database overview, counters, optionally a full report.
    Status {
        /// Include the JSON [`graphmine_telemetry::RunReport`] dump.
        report: bool,
    },
    /// The current frequent patterns, most supported first.
    Patterns {
        /// Maximum number of patterns returned.
        top: usize,
        /// Only return patterns with at least this support.
        min_support: Option<u32>,
    },
    /// Exact support of a client-supplied pattern graph.
    Support {
        /// The pattern, already materialized and validated.
        graph: Graph,
        /// Restrict the count to the shard's owned gids.
        owned: bool,
    },
    /// Exact supports of several patterns in one round trip (router
    /// gather phase 2).
    SupportBatch {
        /// The patterns, in request order.
        graphs: Vec<Graph>,
        /// Restrict the counts to the shard's owned gids.
        owned: bool,
    },
    /// Apply an update batch and fold it into the served result.
    Update {
        /// The updates, in application order.
        ops: Vec<DbUpdate>,
        /// Whether to ack at durability or after application.
        ack: AckMode,
        /// Validate against the journal tail without admitting (2PC
        /// phase 0); `ack` is ignored.
        dry_run: bool,
    },
    /// Adopt a router-published global epoch once the window acked as
    /// `seq` has been applied (2PC commit). `seq` 0 waits for nothing —
    /// used to republish the epoch to untouched or re-admitted shards.
    EpochCommit {
        /// The router's new global epoch.
        global: u64,
        /// Local journal seq the commit must wait for.
        seq: u64,
    },
    /// Stop the daemon (snapshot + journal truncation on the way out).
    Shutdown,
}

/// `true` when an optional `0`/`1` flag field is present and non-zero.
fn flag_field(value: &JsonValue, name: &str) -> bool {
    matches!(value.field(name), Some(JsonValue::Num(n)) if *n != 0)
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown commands,
/// or structurally invalid patterns/updates.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = JsonValue::parse(line).map_err(|e| format!("bad json: {e}"))?;
    let cmd = value
        .field("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string field `cmd`".to_string())?;
    match cmd {
        "status" => Ok(Request::Status { report: flag_field(&value, "report") }),
        "patterns" => {
            let top = match value.field("top") {
                None | Some(JsonValue::Null) => DEFAULT_TOP,
                Some(v) => v.as_num().ok_or("field `top` must be an integer")? as usize,
            };
            let min_support = match value.field("min_support") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(v.as_num().ok_or("field `min_support` must be an integer")? as u32),
            };
            Ok(Request::Patterns { top, min_support })
        }
        "support" => {
            let graph = match (value.field("code"), value.field("graph")) {
                (Some(code), None) => pattern_from_code_json(code)?,
                (None, Some(spec)) => pattern_from_graph_json(spec)?,
                _ => return Err("`support` needs exactly one of `code` or `graph`".to_string()),
            };
            Ok(Request::Support { graph, owned: flag_field(&value, "owned") })
        }
        "support-batch" => {
            let codes = value
                .field("codes")
                .and_then(JsonValue::as_arr)
                .ok_or("`support-batch` needs an array field `codes`")?;
            let graphs =
                codes.iter().map(pattern_from_code_json).collect::<Result<Vec<_>, String>>()?;
            Ok(Request::SupportBatch { graphs, owned: flag_field(&value, "owned") })
        }
        "update" => {
            let ops = value.field("ops").ok_or("missing field `ops`")?;
            let ack = match value.field("ack") {
                None | Some(JsonValue::Null) => AckMode::Applied,
                Some(JsonValue::Str(s)) if s == "applied" => AckMode::Applied,
                Some(JsonValue::Str(s)) if s == "durable" => AckMode::Durable,
                Some(_) => return Err("field `ack` must be \"applied\" or \"durable\"".to_string()),
            };
            Ok(Request::Update {
                ops: ops_from_json(ops)?,
                ack,
                dry_run: flag_field(&value, "dry_run"),
            })
        }
        "epoch-commit" => {
            let global = value
                .field("global")
                .and_then(JsonValue::as_num)
                .ok_or("`epoch-commit` needs an integer field `global`")?;
            let seq = match value.field("seq") {
                None | Some(JsonValue::Null) => 0,
                Some(v) => v.as_num().ok_or("field `seq` must be an integer")?,
            };
            Ok(Request::EpochCommit { global, seq })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// One request line: `cmd` first, then the fields that are present, in
/// the order given (the order the module docs show).
fn encode(cmd: &str, fields: Vec<(&str, Option<JsonValue>)>) -> String {
    let mut obj = vec![("cmd".to_string(), JsonValue::Str(cmd.to_string()))];
    obj.extend(fields.into_iter().filter_map(|(k, v)| Some((k.to_string(), v?))));
    JsonValue::Obj(obj).to_json()
}

/// A `0`/`1` flag field: written as `1`, or left out.
fn flag(on: bool) -> Option<JsonValue> {
    on.then_some(JsonValue::Num(1))
}

/// The `status` request line.
pub fn encode_status(report: bool) -> String {
    encode("status", vec![("report", flag(report))])
}

/// The `patterns` request line; an omitted field takes the server's
/// default.
pub fn encode_patterns(top: Option<u64>, min_support: Option<Support>) -> String {
    let min_support = min_support.map(|s| JsonValue::Num(u64::from(s)));
    encode("patterns", vec![("top", top.map(JsonValue::Num)), ("min_support", min_support)])
}

/// The `support` request line, `code` form.
pub fn encode_support(code: &DfsCode) -> String {
    encode("support", vec![("code", Some(code_to_json(code)))])
}

/// The `support-batch` request line.
pub fn encode_support_batch(codes: &[DfsCode], owned: bool) -> String {
    let codes = JsonValue::Arr(codes.iter().map(code_to_json).collect());
    encode("support-batch", vec![("codes", Some(codes)), ("owned", flag(owned))])
}

/// The `update` request line; `ack` is written only when it is not the
/// default, and after `ops`, where `Client` has always put it.
pub fn encode_update(ops: &[DbUpdate], ack: AckMode, dry_run: bool) -> String {
    let ack = (ack == AckMode::Durable).then(|| JsonValue::Str("durable".to_string()));
    encode(
        "update",
        vec![("dry_run", flag(dry_run)), ("ops", Some(ops_to_json(ops))), ("ack", ack)],
    )
}

/// The `epoch-commit` request line.
pub fn encode_epoch_commit(global: u64, seq: u64) -> String {
    let (global, seq) = (JsonValue::Num(global), JsonValue::Num(seq));
    encode("epoch-commit", vec![("global", Some(global)), ("seq", Some(seq))])
}

/// The `shutdown` request line.
pub fn encode_shutdown() -> String {
    encode("shutdown", Vec::new())
}

/// An `{"status":"ok", ...fields}` response.
pub fn ok_response(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut obj = vec![("status".to_string(), JsonValue::Str("ok".to_string()))];
    obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Obj(obj)
}

/// An `{"status":"error","error":msg}` response.
pub fn error_response(msg: &str) -> JsonValue {
    JsonValue::Obj(vec![
        ("status".to_string(), JsonValue::Str("error".to_string())),
        ("error".to_string(), JsonValue::Str(msg.to_string())),
    ])
}

/// Serializes a DFS code as the wire's list of 5-tuples.
pub fn code_to_json(code: &DfsCode) -> JsonValue {
    JsonValue::Arr(
        code.0
            .iter()
            .map(|e| {
                JsonValue::Arr(vec![
                    JsonValue::Num(u64::from(e.from)),
                    JsonValue::Num(u64::from(e.to)),
                    JsonValue::Num(u64::from(e.from_label)),
                    JsonValue::Num(u64::from(e.edge_label)),
                    JsonValue::Num(u64::from(e.to_label)),
                ])
            })
            .collect(),
    )
}

/// Decodes a wire code (list of 5-tuples) back into a [`DfsCode`].
///
/// Shape-checks only — no minimality or connectivity validation. The
/// router uses this on codes produced by its own shards, where the graph
/// round trip of [`parse_request`]'s `support` arm would be wasted work;
/// anything structurally off still comes back as an error, never a panic.
///
/// # Errors
///
/// Returns a message for non-array input or malformed tuples.
pub fn code_from_json(value: &JsonValue) -> Result<DfsCode, String> {
    let edges = value.as_arr().ok_or("code must be an array of 5-tuples")?;
    let mut out = Vec::with_capacity(edges.len());
    for (i, e) in edges.iter().enumerate() {
        let t = e
            .as_arr()
            .filter(|t| t.len() == 5)
            .ok_or_else(|| format!("code edge {i}: expected a 5-tuple"))?;
        let mut nums = [0u32; 5];
        for (j, v) in t.iter().enumerate() {
            nums[j] = v
                .as_num()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("code edge {i}: field {j} is not a u32"))?;
        }
        out.push(graphmine_graph::DfsEdge {
            from: nums[0],
            to: nums[1],
            from_label: nums[2],
            edge_label: nums[3],
            to_label: nums[4],
        });
    }
    Ok(DfsCode(out))
}

/// Serializes a pattern as `{"support":s,"size":edges,"code":[...]}`.
pub fn pattern_to_json(p: &Pattern) -> JsonValue {
    JsonValue::Obj(vec![
        ("support".to_string(), JsonValue::Num(u64::from(p.support))),
        ("size".to_string(), JsonValue::Num(p.size() as u64)),
        ("code".to_string(), code_to_json(&p.code)),
    ])
}

/// Serializes an update batch as the wire's `ops` array (the client side
/// of [`ops_from_json`]).
pub fn ops_to_json(ops: &[DbUpdate]) -> JsonValue {
    let num = |n: u32| JsonValue::Num(u64::from(n));
    JsonValue::Arr(
        ops.iter()
            .map(|u| {
                let mut obj = vec![("gid".to_string(), num(u.gid))];
                let mut put = |k: &str, v: JsonValue| obj.push((k.to_string(), v));
                match u.update {
                    GraphUpdate::RelabelVertex { v, label } => {
                        put("op", JsonValue::Str("relabel-vertex".to_string()));
                        put("v", num(v));
                        put("label", num(label));
                    }
                    GraphUpdate::RelabelEdge { e, label } => {
                        put("op", JsonValue::Str("relabel-edge".to_string()));
                        put("e", num(e));
                        put("label", num(label));
                    }
                    GraphUpdate::AddEdge { u, v, label } => {
                        put("op", JsonValue::Str("add-edge".to_string()));
                        put("u", num(u));
                        put("v", num(v));
                        put("label", num(label));
                    }
                    GraphUpdate::AddVertex { label, attach_to, elabel } => {
                        put("op", JsonValue::Str("add-vertex".to_string()));
                        put("label", num(label));
                        put("attach_to", num(attach_to));
                        put("elabel", num(elabel));
                    }
                    GraphUpdate::DeleteEdge { e } => {
                        put("op", JsonValue::Str("delete-edge".to_string()));
                        put("e", num(e));
                    }
                    GraphUpdate::DeleteVertex { v } => {
                        put("op", JsonValue::Str("delete-vertex".to_string()));
                        put("v", num(v));
                    }
                }
                JsonValue::Obj(obj)
            })
            .collect(),
    )
}

/// Materializes and validates the `code` form of a `support` request.
///
/// Unlike [`DfsCode::to_graph`] — which asserts canonical gSpan ordering
/// and panics on anything else — this accepts edges in any order and
/// turns every malformed input into an error: the daemon must never
/// panic on untrusted bytes. The resulting graph is canonicalized by the
/// caller via [`min_dfs_code`], so non-minimal codes are fine.
fn pattern_from_code_json(value: &JsonValue) -> Result<Graph, String> {
    let edges = value.as_arr().ok_or("`code` must be an array of 5-tuples")?;
    if edges.is_empty() {
        return Err("`code` must contain at least one edge".to_string());
    }
    let mut labels: Vec<Option<VLabel>> = Vec::new();
    let mut tuples = Vec::with_capacity(edges.len());
    for (i, e) in edges.iter().enumerate() {
        let t = e.as_arr().filter(|t| t.len() == 5).ok_or_else(|| {
            format!("code edge {i}: expected [from, to, from_label, edge_label, to_label]")
        })?;
        let mut nums = [0u32; 5];
        for (j, v) in t.iter().enumerate() {
            nums[j] = v
                .as_num()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("code edge {i}: field {j} is not a u32"))?;
        }
        let [from, to, from_label, edge_label, to_label] = nums;
        if from == to {
            return Err(format!("code edge {i}: self-loop on vertex {from}"));
        }
        for (v, l) in [(from, from_label), (to, to_label)] {
            let idx = v as usize;
            if idx >= labels.len() {
                labels.resize(idx + 1, None);
            }
            match labels[idx] {
                None => labels[idx] = Some(l),
                Some(prev) if prev == l => {}
                Some(prev) => {
                    return Err(format!("vertex {v} labeled both {prev} and {l}"));
                }
            }
        }
        tuples.push((from, to, edge_label));
    }
    let mut g = Graph::with_capacity(labels.len(), tuples.len());
    for (v, label) in labels.iter().enumerate() {
        let label = label.ok_or_else(|| format!("vertex {v} never appears in an edge"))?;
        g.add_vertex(label);
    }
    for (i, (from, to, elabel)) in tuples.into_iter().enumerate() {
        g.add_edge(from, to, elabel).map_err(|e| format!("code edge {i}: {e}"))?;
    }
    if !g.is_connected() {
        return Err("pattern is not connected".to_string());
    }
    Ok(g)
}

/// Materializes and validates the `graph` form of a `support` request:
/// `{"vertices":[label,...],"edges":[[u,v,label],...]}`.
fn pattern_from_graph_json(value: &JsonValue) -> Result<Graph, String> {
    let vertices = value
        .field("vertices")
        .and_then(JsonValue::as_arr)
        .ok_or("`graph` needs an array field `vertices`")?;
    let edges = value
        .field("edges")
        .and_then(JsonValue::as_arr)
        .ok_or("`graph` needs an array field `edges`")?;
    if vertices.is_empty() || edges.is_empty() {
        return Err("pattern must have at least one vertex and one edge".to_string());
    }
    let mut g = Graph::with_capacity(vertices.len(), edges.len());
    for (i, v) in vertices.iter().enumerate() {
        let label = v
            .as_num()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("vertex {i}: label is not a u32"))?;
        g.add_vertex(label);
    }
    for (i, e) in edges.iter().enumerate() {
        let t = e
            .as_arr()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| format!("edge {i}: expected [u, v, label]"))?;
        let mut nums = [0u32; 3];
        for (j, v) in t.iter().enumerate() {
            nums[j] = v
                .as_num()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("edge {i}: field {j} is not a u32"))?;
        }
        g.add_edge(nums[0], nums[1], nums[2]).map_err(|e| format!("edge {i}: {e}"))?;
    }
    if !g.is_connected() {
        return Err("pattern is not connected".to_string());
    }
    Ok(g)
}

/// Decodes the `ops` array of an `update` request.
fn ops_from_json(value: &JsonValue) -> Result<Vec<DbUpdate>, String> {
    let items = value.as_arr().ok_or("`ops` must be an array")?;
    if items.is_empty() {
        return Err("`ops` must contain at least one update".to_string());
    }
    let mut ops = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let num = |key: &str| -> Result<u32, String> {
            item.field(key)
                .and_then(JsonValue::as_num)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("op {i}: missing or invalid u32 field `{key}`"))
        };
        let gid = num("gid")?;
        let op = item
            .field("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("op {i}: missing string field `op`"))?;
        let update = match op {
            "relabel-vertex" => GraphUpdate::RelabelVertex { v: num("v")?, label: num("label")? },
            "relabel-edge" => GraphUpdate::RelabelEdge { e: num("e")?, label: num("label")? },
            "add-edge" => GraphUpdate::AddEdge { u: num("u")?, v: num("v")?, label: num("label")? },
            "add-vertex" => GraphUpdate::AddVertex {
                label: num("label")?,
                attach_to: num("attach_to")?,
                elabel: num("elabel")?,
            },
            "delete-edge" => GraphUpdate::DeleteEdge { e: num("e")? },
            "delete-vertex" => GraphUpdate::DeleteVertex { v: num("v")? },
            other => return Err(format!("op {i}: unknown op `{other}`")),
        };
        ops.push(DbUpdate { gid, update });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::dfscode::min_dfs_code;
    use graphmine_graph::DfsEdge;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_request(r#"{"cmd":"status"}"#).unwrap(),
            Request::Status { report: false }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"status","report":1}"#).unwrap(),
            Request::Status { report: true }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"patterns","top":3,"min_support":2}"#).unwrap(),
            Request::Patterns { top: 3, min_support: Some(2) }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"patterns"}"#).unwrap(),
            Request::Patterns { top: DEFAULT_TOP, min_support: None }
        );
        assert_eq!(parse_request(r#"{"cmd":"shutdown"}"#).unwrap(), Request::Shutdown);
        let up = parse_request(
            r#"{"cmd":"update","ops":[{"gid":3,"op":"add-edge","u":0,"v":6,"label":2}]}"#,
        )
        .unwrap();
        assert_eq!(
            up,
            Request::Update {
                ops: vec![DbUpdate {
                    gid: 3,
                    update: GraphUpdate::AddEdge { u: 0, v: 6, label: 2 }
                }],
                ack: AckMode::Applied,
                dry_run: false,
            }
        );
        let durable = parse_request(
            r#"{"cmd":"update","ack":"durable","ops":[{"gid":3,"op":"add-edge","u":0,"v":6,"label":2}]}"#,
        )
        .unwrap();
        assert!(matches!(durable, Request::Update { ack: AckMode::Durable, .. }));
        assert!(parse_request(r#"{"cmd":"update","ack":"never","ops":[{"gid":0,"op":"relabel-vertex","v":0,"label":1}]}"#).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"nope"}"#).is_err());
        assert!(parse_request(r#"{"no":"cmd"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"update","ops":[]}"#).is_err());
        assert!(parse_request(r#"{"cmd":"update","ops":[{"gid":0,"op":"warp"}]}"#).is_err());
        assert!(parse_request(r#"{"cmd":"support"}"#).is_err());
    }

    #[test]
    fn support_code_round_trips_through_min_code() {
        // A labeled path 0-1-2; the wire code is NOT minimal (edges reversed).
        let req = parse_request(r#"{"cmd":"support","code":[[1,2,1,11,2],[0,1,0,10,1]]}"#).unwrap();
        let Request::Support { graph, owned } = req else { panic!("not a support request") };
        assert!(!owned);
        assert_eq!(graph.vertex_count(), 3);
        assert_eq!(graph.edge_count(), 2);
        let code = min_dfs_code(&graph);
        // The minimal code of the same path, built the canonical way.
        let mut canonical = Graph::new();
        let a = canonical.add_vertex(0);
        let b = canonical.add_vertex(1);
        let c = canonical.add_vertex(2);
        canonical.add_edge(a, b, 10).unwrap();
        canonical.add_edge(b, c, 11).unwrap();
        assert_eq!(code, min_dfs_code(&canonical));
    }

    #[test]
    fn support_code_rejects_untrusted_garbage() {
        // These would all panic inside DfsCode::to_graph.
        for bad in [
            r#"{"cmd":"support","code":[]}"#,
            r#"{"cmd":"support","code":[[0,0,1,1,1]]}"#, // self-loop
            r#"{"cmd":"support","code":[[0,1,2,3]]}"#,   // short tuple
            r#"{"cmd":"support","code":[[0,3,1,1,1]]}"#, // gap: vertex 1,2 missing
            r#"{"cmd":"support","code":[[0,1,5,1,6],[0,1,7,1,6]]}"#, // label conflict
            r#"{"cmd":"support","code":[[0,1,5,1,6],[0,1,5,2,6]]}"#, // duplicate edge
            r#"{"cmd":"support","code":[[0,1,1,1,1],[2,3,1,1,1]]}"#, // disconnected
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn support_graph_spec_builds_the_graph() {
        let req = parse_request(
            r#"{"cmd":"support","graph":{"vertices":[0,1,0],"edges":[[0,1,5],[1,2,5]]}}"#,
        )
        .unwrap();
        let Request::Support { graph, .. } = req else { panic!("not a support request") };
        assert_eq!(graph.vertex_count(), 3);
        assert_eq!(graph.vlabel(2), 0);
        assert!(parse_request(r#"{"cmd":"support","graph":{"vertices":[0,1],"edges":[[0,5,1]]}}"#)
            .is_err());
    }

    #[test]
    fn ops_json_round_trips() {
        let ops = vec![
            DbUpdate { gid: 3, update: GraphUpdate::RelabelVertex { v: 1, label: 9 } },
            DbUpdate { gid: 0, update: GraphUpdate::RelabelEdge { e: 2, label: 4 } },
            DbUpdate { gid: 7, update: GraphUpdate::AddEdge { u: 0, v: 5, label: 2 } },
            DbUpdate {
                gid: 1,
                update: GraphUpdate::AddVertex { label: 6, attach_to: 2, elabel: 1 },
            },
            DbUpdate { gid: 2, update: GraphUpdate::DeleteEdge { e: 4 } },
            DbUpdate { gid: 5, update: GraphUpdate::DeleteVertex { v: 3 } },
        ];
        let line = encode_update(&ops, AckMode::Applied, false);
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Update { ops, ack: AckMode::Applied, dry_run: false }
        );
    }

    #[test]
    fn parses_router_extensions() {
        let req = parse_request(r#"{"cmd":"support","code":[[0,1,0,5,1]],"owned":1}"#).unwrap();
        assert!(matches!(req, Request::Support { owned: true, .. }));
        let batch = parse_request(
            r#"{"cmd":"support-batch","codes":[[[0,1,0,5,1]],[[0,1,2,5,3],[1,2,3,5,2]]],"owned":1}"#,
        )
        .unwrap();
        let Request::SupportBatch { graphs, owned } = batch else { panic!("not a batch") };
        assert!(owned);
        assert_eq!(graphs.len(), 2);
        assert_eq!(graphs[1].edge_count(), 2);
        assert!(parse_request(r#"{"cmd":"support-batch","codes":[[]]}"#).is_err());
        let dry = parse_request(
            r#"{"cmd":"update","dry_run":1,"ops":[{"gid":0,"op":"relabel-vertex","v":0,"label":1}]}"#,
        )
        .unwrap();
        assert!(matches!(dry, Request::Update { dry_run: true, .. }));
        assert_eq!(
            parse_request(r#"{"cmd":"epoch-commit","global":7,"seq":2}"#).unwrap(),
            Request::EpochCommit { global: 7, seq: 2 }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"epoch-commit","global":1}"#).unwrap(),
            Request::EpochCommit { global: 1, seq: 0 }
        );
        assert!(parse_request(r#"{"cmd":"epoch-commit"}"#).is_err());
    }

    /// Every encoder, every flag combination: the line parses back to the
    /// request it encodes and equals, byte for byte, the line the parent
    /// commit's hand-built objects put on the wire (captured there from
    /// `Client` against an echo listener and from `Router` against a
    /// scripted shard). One router-to-shard line moved: see the end of
    /// the test.
    #[test]
    fn encoders_round_trip_and_match_the_golden_lines() {
        let code = DfsCode(vec![DfsEdge::new(0, 1, 0, 5, 1), DfsEdge::new(1, 2, 1, 6, 0)]);
        let codes = [code.clone(), DfsCode(vec![DfsEdge::new(0, 1, 2, 5, 3)])];
        let graphs: Vec<Graph> = codes.iter().map(DfsCode::to_graph).collect();
        let ops = vec![
            DbUpdate { gid: 0, update: GraphUpdate::AddEdge { u: 0, v: 6, label: 2 } },
            DbUpdate { gid: 0, update: GraphUpdate::DeleteVertex { v: 3 } },
        ];
        const OPS: &str = r#"[{"gid":0,"op":"add-edge","u":0,"v":6,"label":2},{"gid":0,"op":"delete-vertex","v":3}]"#;
        let update = |ack, dry_run| Request::Update { ops: ops.clone(), ack, dry_run };
        let patterns = |top, min_support| Request::Patterns { top, min_support };
        let table: Vec<(String, String, Request)> = vec![
            (encode_status(false), r#"{"cmd":"status"}"#.into(), Request::Status { report: false }),
            (
                encode_status(true),
                r#"{"cmd":"status","report":1}"#.into(),
                Request::Status { report: true },
            ),
            (encode_patterns(None, None), r#"{"cmd":"patterns"}"#.into(), patterns(50, None)),
            (
                encode_patterns(Some(10), None),
                r#"{"cmd":"patterns","top":10}"#.into(),
                patterns(10, None),
            ),
            (
                encode_patterns(None, Some(3)),
                r#"{"cmd":"patterns","min_support":3}"#.into(),
                patterns(50, Some(3)),
            ),
            (
                encode_patterns(Some(10), Some(3)),
                r#"{"cmd":"patterns","top":10,"min_support":3}"#.into(),
                patterns(10, Some(3)),
            ),
            (
                encode_patterns(Some(1_000_000_000), None),
                r#"{"cmd":"patterns","top":1000000000}"#.into(),
                patterns(1_000_000_000, None),
            ),
            (
                encode_support(&code),
                r#"{"cmd":"support","code":[[0,1,0,5,1],[1,2,1,6,0]]}"#.into(),
                Request::Support { graph: graphs[0].clone(), owned: false },
            ),
            (
                encode_support_batch(&codes, false),
                r#"{"cmd":"support-batch","codes":[[[0,1,0,5,1],[1,2,1,6,0]],[[0,1,2,5,3]]]}"#.into(),
                Request::SupportBatch { graphs: graphs.clone(), owned: false },
            ),
            (
                encode_support_batch(&codes, true),
                r#"{"cmd":"support-batch","codes":[[[0,1,0,5,1],[1,2,1,6,0]],[[0,1,2,5,3]]],"owned":1}"#
                    .into(),
                Request::SupportBatch { graphs, owned: true },
            ),
            (
                encode_update(&ops, AckMode::Applied, false),
                format!(r#"{{"cmd":"update","ops":{OPS}}}"#),
                update(AckMode::Applied, false),
            ),
            (
                encode_update(&ops, AckMode::Durable, false),
                format!(r#"{{"cmd":"update","ops":{OPS},"ack":"durable"}}"#),
                update(AckMode::Durable, false),
            ),
            (
                encode_update(&ops, AckMode::Applied, true),
                format!(r#"{{"cmd":"update","dry_run":1,"ops":{OPS}}}"#),
                update(AckMode::Applied, true),
            ),
            (
                // No parent caller combines the two (a dry run ignores
                // `ack`).
                encode_update(&ops, AckMode::Durable, true),
                format!(r#"{{"cmd":"update","dry_run":1,"ops":{OPS},"ack":"durable"}}"#),
                update(AckMode::Durable, true),
            ),
            (
                encode_epoch_commit(7, 2),
                r#"{"cmd":"epoch-commit","global":7,"seq":2}"#.into(),
                Request::EpochCommit { global: 7, seq: 2 },
            ),
            (encode_shutdown(), r#"{"cmd":"shutdown"}"#.into(), Request::Shutdown),
        ];
        for (line, golden, request) in table {
            assert_eq!(line, golden);
            assert_eq!(parse_request(&line).unwrap(), request, "{line}");
        }
        // The parent wrote a durable update two ways: `Client` as above,
        // the router's 2PC prepare with `ack` before `ops`. One encoder
        // means one order, the client's and SERVICE.md's, so the line a
        // router sends its shards moved a field: same length, same request.
        let parent_router = format!(r#"{{"cmd":"update","ack":"durable","ops":{OPS}}}"#);
        let now = encode_update(&ops, AckMode::Durable, false);
        assert_eq!(now.len(), parent_router.len());
        assert_eq!(parse_request(&now), parse_request(&parent_router));
    }

    #[test]
    fn code_json_round_trips_without_validation() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(1);
        let c = g.add_vertex(2);
        g.add_edge(a, b, 10).unwrap();
        g.add_edge(b, c, 11).unwrap();
        let code = min_dfs_code(&g);
        let back = code_from_json(&code_to_json(&code)).unwrap();
        assert_eq!(back, code);
        assert!(code_from_json(&JsonValue::Num(3)).is_err());
        assert!(code_from_json(&JsonValue::parse("[[1,2,3]]").unwrap()).is_err());
    }

    #[test]
    fn responses_have_a_status() {
        let ok = ok_response(vec![("epoch", JsonValue::Num(4))]);
        assert_eq!(ok.field("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(ok.field("epoch").and_then(JsonValue::as_num), Some(4));
        let err = error_response("boom");
        assert_eq!(err.field("status").and_then(JsonValue::as_str), Some("error"));
        assert_eq!(err.field("error").and_then(JsonValue::as_str), Some("boom"));
    }
}
