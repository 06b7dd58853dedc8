//! The scatter/gather core: one [`Router`] owns the shard map and the
//! pooled connections, scatters each request across the shards, and
//! gathers answers that are **exact** — every graph counted exactly once
//! — because each shard holds only its owned graphs and the owned-gid
//! sets are disjoint.
//!
//! * `support` — scatter the pattern to every shard, sum the counts.
//! * `patterns` — the SON two-phase query: phase 1 unions the shards'
//!   locally frequent patterns (each shard mines at the lowered
//!   `local_min_support = ceil(s / n_shards)`, so by pigeonhole over the
//!   owned sets no globally frequent pattern is missing from every
//!   shard); phase 2 completes each candidate's count on the shards that
//!   did not return it — a returned row already is that shard's exact
//!   count — and filters at the global threshold. A shard whose phase-2
//!   reply comes from another epoch than its phase-1 reply has every
//!   candidate recounted. The result is bit-identical to a
//!   single-process server over the whole database.
//! * `update` — serialized, three phases: *validate* (dry-run the
//!   per-owner sub-windows), *prepare* (durable-ack the window on every
//!   replica of every touched shard), *commit* (publish the next global
//!   epoch once each replica has applied its prepared seq, then
//!   republish to the untouched shards).
//!
//! A shard whose replicas are all unreachable is marked dead; read
//! answers are then degraded and tagged `"partial":1` (the wire dialect
//! has no booleans) until a `status` probe re-admits the shard, at which
//! point the router republishes the committed global epoch **at each
//! replica's last committed journal seq** — a restarted replica that has
//! not replayed to the committed window rejects the seq and the shard
//! stays dead, so stale counts can never slip back in untagged.
//!
//! Read answers are memoized in an epoch-keyed [`ResultCache`]
//! (see [`crate::cache`]): exact (`partial`-free) `patterns`/`support`
//! replies are stored under the committed global epoch and flushed on
//! every commit and on every dead-shard transition.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use graphmine_graph::dfscode::min_dfs_code;
use graphmine_graph::{DbUpdate, DfsCode, Graph, Support};
use graphmine_serve::protocol::{
    code_from_json, code_to_json, encode_epoch_commit, encode_patterns, encode_status,
    encode_support_batch, encode_update, error_response, ok_response, AckMode, Request,
};
use graphmine_serve::{Handler, ServerConfig, ServerHandle};
use graphmine_telemetry::{Counter, Counters, JsonValue, Telemetry};

use crate::cache::{ReqKind, ResultCache};
use crate::pool::{RouterConfig, ShardState};
use crate::topology::ShardTopology;

/// Phase-1 `top` — effectively "all mined patterns"; an unbounded query
/// (`top >= ALL_PATTERNS`) keeps the untruncated SON union so the answer
/// stays exact and complete.
const ALL_PATTERNS: u64 = 1_000_000_000;

/// `true` when the armed [`DropShardReply`](graphmine_graph::fault::Fault)
/// mutant should silently discard shard `i`'s gather contribution.
#[cfg(feature = "fault-injection")]
fn drop_shard_reply(i: usize) -> bool {
    i == 0 && graphmine_graph::fault::armed(graphmine_graph::fault::Fault::DropShardReply)
}

#[cfg(not(feature = "fault-injection"))]
fn drop_shard_reply(_i: usize) -> bool {
    false
}

/// `true` when the armed
/// [`SkipUnreportedRecount`](graphmine_graph::fault::Fault) mutant should
/// keep SON phase 2 from asking any shard about what it did not report.
#[cfg(feature = "fault-injection")]
fn skip_unreported_recount() -> bool {
    graphmine_graph::fault::armed(graphmine_graph::fault::Fault::SkipUnreportedRecount)
}

#[cfg(not(feature = "fault-injection"))]
fn skip_unreported_recount() -> bool {
    false
}

/// The local epoch a shard answered from.
fn epoch_of(reply: &JsonValue) -> Option<u64> {
    reply.field("epoch").and_then(JsonValue::as_num)
}

/// One shard's phase-1 answer: the epoch it answered from, and its exact
/// support of every pattern it returned.
struct Reported {
    epoch: Option<u64>,
    rows: BTreeMap<DfsCode, u64>,
}

/// The front-end router process state (the socket side is
/// [`graphmine_serve::start`], reached through [`start`]).
pub struct Router {
    topo: ShardTopology,
    cfg: RouterConfig,
    shards: Vec<Mutex<ShardState>>,
    /// `owners[gid]` — owner shard per gid, flattened from the topology.
    owners: Vec<usize>,
    /// Last committed global epoch; starts at 0.
    global_epoch: AtomicU64,
    /// Serializes update windows — 2PC is single-writer by design.
    update_lock: Mutex<()>,
    /// Epoch-keyed read-answer cache; flushed on commits and on
    /// dead-shard transitions.
    cache: Mutex<ResultCache>,
    tel: Telemetry,
}

impl Router {
    /// Builds a router over a validated topology. No connections are
    /// opened until the first request.
    ///
    /// # Errors
    ///
    /// Rejects a topology that fails [`ShardTopology::validate`].
    pub fn new(topo: ShardTopology, cfg: RouterConfig) -> Result<Router, String> {
        topo.validate()?;
        let shards: Vec<_> =
            topo.shards.iter().map(|s| Mutex::new(ShardState::new(s.replicas.clone()))).collect();
        let mut owners = vec![0usize; topo.n_graphs];
        for s in &topo.shards {
            for &gid in &s.owned {
                owners[gid as usize] = s.id;
            }
        }
        let cache = Mutex::new(ResultCache::new(cfg.cache_budget));
        Ok(Router {
            topo,
            cfg,
            shards,
            owners,
            global_epoch: AtomicU64::new(0),
            update_lock: Mutex::new(()),
            cache,
            tel: Telemetry::new(),
        })
    }

    /// The topology this router serves.
    pub fn topology(&self) -> &ShardTopology {
        &self.topo
    }

    /// The router's telemetry (scatter/gather counters).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Last committed global epoch.
    pub fn global_epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::SeqCst)
    }

    /// Cache lookup for the answer to `(kind, args)` under `epoch`.
    fn cache_get(&self, epoch: u64, kind: ReqKind, args: &str) -> Option<JsonValue> {
        self.cache.lock().expect("cache poisoned").get(epoch, kind, args, self.counters())
    }

    /// Admits a finished reply under the epoch its lookup missed at —
    /// unless a commit raced with the computation, in which case the
    /// answer may mix data from both epochs and is not cached at all.
    /// (An insert that races the commit's flush is still harmless: its
    /// key holds the superseded epoch, which no future lookup uses.)
    fn cache_put(&self, epoch: u64, kind: ReqKind, args: &str, reply: &JsonValue) {
        if self.global_epoch() != epoch {
            return;
        }
        self.cache.lock().expect("cache poisoned").insert(
            epoch,
            kind,
            args,
            reply,
            self.counters(),
        );
    }

    /// Drops every cached answer — on epoch commits (the data changed)
    /// and on dead-shard transitions in either direction (what the fleet
    /// can answer changed, and a cache that keeps serving pre-death
    /// answers would mask the `"partial":1` degradation contract).
    fn flush_cache(&self) {
        self.cache.lock().expect("cache poisoned").flush();
    }

    /// Probe + catch-up for a dead shard. The shard is re-admitted only
    /// once every replica confirms the committed global epoch at its
    /// last committed journal seq: `epoch-commit` blocks until that seq
    /// is applied and a restarted replica whose journal has not replayed
    /// that far rejects it as unknown — either way a lagging shard stays
    /// dead (answers stay `"partial":1`) instead of serving stale
    /// owner-restricted counts untagged.
    fn readmit(&self, i: usize, st: &mut ShardState) -> Result<(), String> {
        if !st.probe(&self.cfg) {
            return Err(format!("shard {i}: all replicas unreachable"));
        }
        let global = self.global_epoch();
        for r in 0..st.addrs.len() {
            let seq = st.committed_seqs[r];
            let line = encode_epoch_commit(global, seq);
            if let Err(e) = st.request_replica(r, &line, &self.cfg, self.counters()) {
                st.dead = true;
                return Err(format!(
                    "shard {i}: replica not caught up to epoch {global} seq {seq}: {e}"
                ));
            }
        }
        Ok(())
    }

    /// Runs `f` against every target shard concurrently (one thread per
    /// shard, each under its own shard lock). Dead shards go through
    /// [`Router::readmit`] first; shards that stay dead yield `Err`. Any
    /// dead-state transition observed during the scatter flushes the
    /// result cache.
    fn scatter<T, F>(&self, targets: &[usize], f: F) -> Vec<(usize, Result<T, String>)>
    where
        T: Send,
        F: Fn(usize, &mut ShardState) -> Result<T, String> + Sync,
    {
        self.counters().add(Counter::ScatterFanout, targets.len() as u64);
        let f = &f;
        let results: Vec<(usize, bool, Result<T, String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = targets
                .iter()
                .map(|&i| {
                    scope.spawn(move || {
                        let mut st = self.shards[i].lock().expect("shard state poisoned");
                        let was_dead = st.dead;
                        let res = if st.dead {
                            match self.readmit(i, &mut st) {
                                Ok(()) => f(i, &mut st),
                                Err(e) => Err(e),
                            }
                        } else {
                            f(i, &mut st)
                        };
                        (i, was_dead != st.dead, res)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scatter thread panicked")).collect()
        });
        if results.iter().any(|&(_, transitioned, _)| transitioned) {
            self.flush_cache();
        }
        results.into_iter().map(|(i, _, res)| (i, res)).collect()
    }

    /// Supports of `codes`, summed across all shards. Returns the
    /// per-code sums and whether the answer is partial (some shard was
    /// down and its owned graphs went uncounted).
    fn gather_supports(&self, codes: &[DfsCode]) -> (Vec<u64>, bool) {
        let line = encode_support_batch(codes);
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let replies =
            self.scatter(&all, |_i, st| st.read_request(&line, &self.cfg, self.counters()));
        let mut sums = vec![0u64; codes.len()];
        let mut partial = false;
        for (i, reply) in replies {
            match reply {
                Ok(reply) => {
                    if drop_shard_reply(i) {
                        continue;
                    }
                    let supports = reply.field("supports").and_then(JsonValue::as_arr);
                    match supports {
                        Some(arr) if arr.len() == codes.len() => {
                            for (j, v) in arr.iter().enumerate() {
                                sums[j] += v.as_num().unwrap_or(0);
                            }
                        }
                        _ => partial = true,
                    }
                }
                Err(_) => partial = true,
            }
        }
        if partial {
            self.counters().bump(Counter::GatherPartial);
        }
        (sums, partial)
    }

    /// Exact global support of one pattern graph.
    pub fn support(&self, pattern: &Graph) -> JsonValue {
        let code = min_dfs_code(pattern);
        // The minimal DFS code is canonical, so isomorphic query graphs
        // share one cache entry.
        let args = code_to_json(&code).to_json();
        let epoch = self.global_epoch();
        if let Some(hit) = self.cache_get(epoch, ReqKind::Support, &args) {
            return hit;
        }
        let (sums, partial) = self.gather_supports(std::slice::from_ref(&code));
        let mut fields = vec![
            ("global_epoch", JsonValue::Num(self.global_epoch())),
            ("support", JsonValue::Num(sums[0])),
            ("source", JsonValue::Str("gather".to_string())),
        ];
        if partial {
            fields.push(("partial", JsonValue::Num(1)));
        }
        let reply = ok_response(fields);
        self.cache_put(epoch, ReqKind::Support, &args, &reply);
        reply
    }

    /// Exact global supports of several pattern graphs in one fan-out.
    pub fn support_batch(&self, patterns: &[Graph]) -> JsonValue {
        let codes: Vec<DfsCode> = patterns.iter().map(min_dfs_code).collect();
        let args = codes.iter().map(|c| code_to_json(c).to_json()).collect::<Vec<_>>().join(",");
        let epoch = self.global_epoch();
        if let Some(hit) = self.cache_get(epoch, ReqKind::SupportBatch, &args) {
            return hit;
        }
        let (sums, partial) = self.gather_supports(&codes);
        let mut fields = vec![
            ("global_epoch", JsonValue::Num(self.global_epoch())),
            ("supports", JsonValue::Arr(sums.into_iter().map(JsonValue::Num).collect())),
        ];
        if partial {
            fields.push(("partial", JsonValue::Num(1)));
        }
        let reply = ok_response(fields);
        self.cache_put(epoch, ReqKind::SupportBatch, &args, &reply);
        reply
    }

    /// The SON two-phase `patterns` query; answers exactly like a
    /// single-process server at the topology's global `min_support`
    /// (optionally raised by the query's own floor).
    ///
    /// A bounded query (`top < ALL_PATTERNS`) caps the phase-1 union at
    /// `top · PHASE1_OVERPROVISION` candidates per shard and after the
    /// merge; when that cap actually cuts anything the answer is tagged
    /// `"truncated":1` ([`Counter::RouterPhase1Truncated`]) because a
    /// locally mediocre, globally frequent pattern may have been cut.
    /// Unbounded queries keep the exact untruncated union.
    pub fn patterns(&self, top: usize, min_support: Option<Support>) -> JsonValue {
        let floor = u64::from(self.topo.min_support.max(min_support.unwrap_or(0)));
        let args = format!("top={top};floor={floor}");
        let epoch = self.global_epoch();
        if let Some(hit) = self.cache_get(epoch, ReqKind::Patterns, &args) {
            return hit;
        }
        let reply = self.patterns_uncached(top, floor);
        self.cache_put(epoch, ReqKind::Patterns, &args, &reply);
        reply
    }

    /// SON phase-1 overprovision: a bounded query for the top `k` takes
    /// `k · 4` candidates per shard, slack for locally mediocre but
    /// globally frequent ones.
    const PHASE1_OVERPROVISION: u64 = 4;

    fn patterns_uncached(&self, top: usize, floor: u64) -> JsonValue {
        // Phase 1: union of the shards' locally frequent patterns,
        // bounded per shard when the query itself is bounded.
        let bound = if top >= ALL_PATTERNS as usize {
            ALL_PATTERNS
        } else {
            (top as u64).saturating_mul(Self::PHASE1_OVERPROVISION)
        };
        let line = encode_patterns(Some(bound), None);
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let replies =
            self.scatter(&all, |_i, st| st.read_request(&line, &self.cfg, self.counters()));
        // Dedup the union, keeping each code's best *local* support as
        // its merge rank. Shards order their rows (support desc, code
        // asc) and say so with `"sorted":1`, so a shard-side cut keeps
        // exactly its locally best candidates; a cut reply without the
        // marker gives no such guarantee and also counts as truncation.
        let mut by_code: BTreeMap<DfsCode, u64> = BTreeMap::new();
        let mut reported: Vec<Option<Reported>> = (0..all.len()).map(|_| None).collect();
        let mut partial = false;
        let mut truncated = false;
        for (i, reply) in replies {
            match reply {
                Ok(reply) => {
                    let returned = reply.field("returned").and_then(JsonValue::as_num).unwrap_or(0);
                    let total = reply.field("total").and_then(JsonValue::as_num).unwrap_or(0);
                    if returned < total {
                        truncated = true;
                    }
                    let mut rows = BTreeMap::new();
                    for p in reply.field("patterns").and_then(JsonValue::as_arr).unwrap_or(&[]) {
                        let local = p.field("support").and_then(JsonValue::as_num).unwrap_or(0);
                        if let Some(code) = p.field("code") {
                            match code_from_json(code) {
                                Ok(c) => {
                                    let rank = by_code.entry(c.clone()).or_insert(0);
                                    *rank = (*rank).max(local);
                                    rows.insert(c, local);
                                }
                                Err(_) => partial = true,
                            }
                        }
                    }
                    reported[i] = Some(Reported { epoch: epoch_of(&reply), rows });
                }
                Err(_) => partial = true,
            }
        }
        // Cutoff merge: a min-heap of the `bound` best candidates by
        // (local support desc, code asc) — the merged union never grows
        // past the bound even with many shards.
        let mut candidates: Vec<DfsCode> = if (by_code.len() as u64) > bound {
            truncated = true;
            let mut heap: BinaryHeap<Reverse<(u64, Reverse<DfsCode>)>> =
                BinaryHeap::with_capacity(bound as usize + 1);
            for (code, local) in by_code {
                heap.push(Reverse((local, Reverse(code))));
                if heap.len() as u64 > bound {
                    heap.pop();
                }
            }
            heap.into_iter().map(|Reverse((_, Reverse(code)))| code).collect()
        } else {
            by_code.into_keys().collect()
        };
        candidates.sort();

        let (sums, recount_partial) = self.recount(&candidates, &reported);
        partial |= recount_partial;
        if partial {
            self.counters().bump(Counter::GatherPartial);
        }
        if truncated {
            self.counters().bump(Counter::RouterPhase1Truncated);
        }

        let mut hits: Vec<(DfsCode, u64)> =
            candidates.into_iter().zip(sums).filter(|&(_, s)| s >= floor).collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total = hits.len();
        hits.truncate(top);
        let patterns = hits
            .into_iter()
            .map(|(code, support)| {
                JsonValue::Obj(vec![
                    ("support".to_string(), JsonValue::Num(support)),
                    ("size".to_string(), JsonValue::Num(code.0.len() as u64)),
                    ("code".to_string(), code_to_json(&code)),
                ])
            })
            .collect::<Vec<_>>();
        let mut fields = vec![
            ("global_epoch", JsonValue::Num(self.global_epoch())),
            ("total", JsonValue::Num(total as u64)),
            ("returned", JsonValue::Num(patterns.len() as u64)),
        ];
        if truncated {
            fields.push(("truncated", JsonValue::Num(1)));
        }
        fields.push(("patterns", JsonValue::Arr(patterns)));
        if partial {
            fields.push(("partial", JsonValue::Num(1)));
        }
        ok_response(fields)
    }

    /// SON phase 2: every candidate's support, summed over the shards. A
    /// row a shard returned in phase 1 is already its exact count, so each
    /// shard is asked only about the candidates it did not return. If its
    /// phase-2 reply comes from another epoch than its phase-1 reply, the
    /// two cannot be added, and every candidate is recounted on it. Returns
    /// the sums and whether some shard's count is missing.
    fn recount(&self, candidates: &[DfsCode], reported: &[Option<Reported>]) -> (Vec<u64>, bool) {
        let no_rows = BTreeMap::new();
        let rows = |i: usize| reported[i].as_ref().map_or(&no_rows, |r| &r.rows);
        let asks: Vec<Vec<usize>> = (0..reported.len())
            .map(|i| {
                if skip_unreported_recount() {
                    return Vec::new();
                }
                (0..candidates.len()).filter(|&j| !rows(i).contains_key(&candidates[j])).collect()
            })
            .collect();
        let targets: Vec<usize> = (0..asks.len()).filter(|&i| !asks[i].is_empty()).collect();
        let replies = self.scatter(&targets, |i, st| {
            let counters = self.counters();
            counters.add(Counter::RouterPhase2Recounts, asks[i].len() as u64);
            let line = encode_support_batch(asks[i].iter().map(|&j| &candidates[j]));
            let reply = st.read_request(&line, &self.cfg, counters)?;
            let phase1 = reported[i].as_ref().and_then(|r| r.epoch);
            if phase1.is_none() || epoch_of(&reply) == phase1 {
                return Ok((reply, false));
            }
            counters.add(Counter::RouterPhase2Recounts, candidates.len() as u64);
            let line = encode_support_batch(candidates);
            st.read_request(&line, &self.cfg, counters).map(|reply| (reply, true))
        });
        let mut sums = vec![0u64; candidates.len()];
        let mut partial = false;
        let mut recounted = vec![false; reported.len()];
        for (i, reply) in replies {
            if drop_shard_reply(i) {
                continue;
            }
            let Ok((reply, whole)) = reply else {
                partial = true;
                continue;
            };
            recounted[i] = whole;
            let asked = if whole { candidates.len() } else { asks[i].len() };
            match reply.field("supports").and_then(JsonValue::as_arr) {
                Some(arr) if arr.len() == asked => {
                    for (k, v) in arr.iter().enumerate() {
                        let j = if whole { k } else { asks[i][k] };
                        sums[j] += v.as_num().unwrap_or(0);
                    }
                }
                _ => partial = true,
            }
        }
        for i in (0..reported.len()).filter(|&i| !recounted[i] && !drop_shard_reply(i)) {
            for (j, code) in candidates.iter().enumerate() {
                sums[j] += rows(i).get(code).copied().unwrap_or(0);
            }
        }
        (sums, partial)
    }

    /// Aggregated deployment status: the committed global epoch, the
    /// dead-shard list, per-shard epochs and queue depths, and the
    /// router's own counters.
    pub fn status(&self) -> JsonValue {
        let line = encode_status(false);
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let replies =
            self.scatter(&all, |_i, st| st.read_request(&line, &self.cfg, self.counters()));
        let mut shards = Vec::with_capacity(replies.len());
        let mut dead = Vec::new();
        for (i, reply) in replies {
            match reply {
                Ok(r) => {
                    let pick = |key: &str| {
                        JsonValue::Num(r.field(key).and_then(JsonValue::as_num).unwrap_or(0))
                    };
                    shards.push(JsonValue::Obj(vec![
                        ("id".to_string(), JsonValue::Num(i as u64)),
                        ("epoch".to_string(), pick("epoch")),
                        ("global_epoch".to_string(), pick("global_epoch")),
                        ("pending_windows".to_string(), pick("pending_windows")),
                        ("owned_graphs".to_string(), pick("owned_graphs")),
                    ]));
                }
                Err(e) => {
                    dead.push(JsonValue::Num(i as u64));
                    shards.push(JsonValue::Obj(vec![
                        ("id".to_string(), JsonValue::Num(i as u64)),
                        ("error".to_string(), JsonValue::Str(e)),
                    ]));
                }
            }
        }
        let partial = !dead.is_empty();
        if partial {
            self.counters().bump(Counter::GatherPartial);
        }
        let counters = JsonValue::Obj(
            self.counters()
                .snapshot()
                .into_iter()
                .map(|(name, v)| (name.to_string(), JsonValue::Num(v)))
                .collect(),
        );
        let mut fields = vec![
            ("global_epoch", JsonValue::Num(self.global_epoch())),
            ("n_shards", JsonValue::Num(self.topo.n_shards() as u64)),
            ("db_graphs", JsonValue::Num(self.topo.n_graphs as u64)),
            ("min_support", JsonValue::Num(u64::from(self.topo.min_support))),
            ("local_min_support", JsonValue::Num(u64::from(self.topo.local_min_support))),
            ("dead", JsonValue::Arr(dead)),
            ("shards", JsonValue::Arr(shards)),
            ("counters", counters),
        ];
        if partial {
            fields.push(("partial", JsonValue::Num(1)));
        }
        ok_response(fields)
    }

    /// Routes an update window: split by gid owner, then the three-phase
    /// commit described in the module docs. `dry_run` stops after the
    /// validate phase.
    pub fn update(&self, ops: &[DbUpdate], dry_run: bool) -> JsonValue {
        let _serialize = self.update_lock.lock().expect("update lock poisoned");

        // Split into per-owner sub-windows, preserving per-gid op order —
        // all ops for one gid go to one shard, so each shard sees its
        // slice of the window in exactly the global order.
        let mut windows: Vec<Vec<DbUpdate>> = vec![Vec::new(); self.topo.n_shards()];
        for op in ops {
            let gid = op.gid as usize;
            let Some(&owner) = self.owners.get(gid) else {
                return error_response(&format!("gid {gid} out of range"));
            };
            windows[owner].push(*op);
        }
        let touched: Vec<usize> = (0..windows.len()).filter(|&s| !windows[s].is_empty()).collect();
        if touched.is_empty() {
            return error_response("empty update window");
        }

        // Phase 0: validate each sub-window on its owner shard.
        let dry = self.scatter(&touched, |i, st| {
            let line = encode_update(&windows[i], AckMode::Applied, true);
            st.read_request(&line, &self.cfg, self.counters())
        });
        for (i, reply) in &dry {
            if let Err(e) = reply {
                self.counters().bump(Counter::Epoch2pcAborts);
                return error_response(&format!("validate on shard {i}: {e}"));
            }
        }
        if dry_run {
            return ok_response(vec![
                ("valid", JsonValue::Num(1)),
                ("global_epoch", JsonValue::Num(self.global_epoch())),
            ]);
        }

        // Phase 1 (prepare): durable-ack the sub-window on every replica
        // of every touched shard; collect each replica's journal seq.
        let prepared = self.scatter(&touched, |i, st| {
            let line = encode_update(&windows[i], AckMode::Durable, false);
            let replies = st.write_all_replicas(&line, &self.cfg, self.counters())?;
            let mut seqs = Vec::with_capacity(replies.len());
            for (r, reply) in replies.iter().enumerate() {
                // A reply without a journal seq cannot anchor the
                // commit barrier (seq 0 would wait for nothing and let
                // the epoch publish before the replica applied the
                // window) — treat it as a failed prepare.
                match reply.field("seq").and_then(JsonValue::as_num) {
                    Some(seq) => seqs.push(seq),
                    None => {
                        return Err(format!("replica {}: prepare reply missing `seq`", st.addrs[r]))
                    }
                }
            }
            Ok(seqs)
        });
        let mut shard_seqs: Vec<(usize, Vec<u64>)> = Vec::with_capacity(prepared.len());
        for (i, reply) in prepared {
            match reply {
                Ok(seqs) => shard_seqs.push((i, seqs)),
                Err(e) => {
                    // Prepare is redo-only: replicas that did ack keep the
                    // durable window and will apply it locally, but the
                    // global epoch never advances for this window. Their
                    // local data still changed, so cached answers are no
                    // longer reproducible — flush.
                    self.counters().bump(Counter::Epoch2pcAborts);
                    self.flush_cache();
                    return error_response(&format!("prepare on shard {i}: {e}"));
                }
            }
        }

        // Phase 2 (commit): publish the next global epoch to the touched
        // shards (each replica waits until its prepared seq is applied)…
        let global = self.global_epoch() + 1;
        let seq_of: std::collections::HashMap<usize, Vec<u64>> = shard_seqs.into_iter().collect();
        let committed = self.scatter(&touched, |i, st| {
            let seqs = &seq_of[&i];
            // Remember each replica's committed seq before sending: a
            // straggler that dies here is exactly the shard whose
            // re-admission must republish these seqs as its catch-up
            // barrier.
            st.committed_seqs = seqs.clone();
            for (r, &seq) in seqs.iter().enumerate() {
                let line = encode_epoch_commit(global, seq);
                st.request_replica(r, &line, &self.cfg, self.counters())?;
            }
            Ok(())
        });
        let mut stragglers = Vec::new();
        for (i, reply) in committed {
            if reply.is_err() {
                // Prepared everywhere, so the window is durable; the shard
                // just could not confirm application. It re-syncs through
                // probe + epoch republish.
                stragglers.push(i);
                self.shards[i].lock().expect("shard state poisoned").dead = true;
            }
        }
        self.global_epoch.store(global, Ordering::SeqCst);
        // The commit is the cache's invalidation point: every cached
        // answer is keyed by a now-superseded epoch.
        self.flush_cache();

        // …then republish to the untouched shards so a later `status`
        // shows one converged global epoch (best effort: a shard that
        // misses it picks the epoch up on re-admission).
        let untouched: Vec<usize> =
            (0..self.topo.n_shards()).filter(|s| !touched.contains(s)).collect();
        if !untouched.is_empty() {
            let line = encode_epoch_commit(global, 0);
            let _ = self
                .scatter(&untouched, |_i, st| st.read_request(&line, &self.cfg, self.counters()));
        }

        let mut fields = vec![
            ("global_epoch", JsonValue::Num(global)),
            ("touched", JsonValue::Num(touched.len() as u64)),
            ("ops", JsonValue::Num(ops.len() as u64)),
        ];
        if !stragglers.is_empty() {
            self.counters().bump(Counter::GatherPartial);
            fields.push(("partial", JsonValue::Num(1)));
        }
        ok_response(fields)
    }

    /// Serves one parsed protocol request — the front end's dispatcher.
    /// `shutdown` is acknowledged here and stops only the front end (the
    /// shards are owned by their own processes); `epoch-commit` is a
    /// shard-side verb.
    pub fn handle(&self, req: &Request) -> JsonValue {
        match req {
            Request::Status { .. } => self.status(),
            Request::Patterns { top, min_support } => self.patterns(*top, *min_support),
            Request::Support { graph, .. } => self.support(graph),
            Request::SupportBatch { graphs, .. } => self.support_batch(graphs),
            Request::Update { ops, dry_run, .. } => self.update(ops, *dry_run),
            Request::EpochCommit { .. } => {
                error_response("epoch-commit is shard-side; the router publishes epochs itself")
            }
            Request::Shutdown => ok_response(vec![("stopping", JsonValue::Num(1))]),
        }
    }
}

impl Handler for Router {
    fn handle(&self, req: &Request) -> JsonValue {
        Router::handle(self, req)
    }

    fn counters(&self) -> &Counters {
        self.tel.counters()
    }
}

/// A running router front end; dropping it stops its threads.
pub struct RouterHandle(ServerHandle<Router>);

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// The router behind this front end.
    pub fn router(&self) -> &Arc<Router> {
        self.0.handler()
    }

    /// Blocks until a client `shutdown` stops the front end.
    ///
    /// # Errors
    ///
    /// None today: the router has no state to leave clean.
    pub fn wait(self) -> Result<(), String> {
        self.0.wait()
    }

    /// Stops the front end without waiting for a client request.
    pub fn abort(self) {
        self.0.abort();
    }
}

/// Binds `addr` and starts serving scatter/gather requests on the shared
/// NDJSON server loop, sized by [`ServerConfig::default`].
///
/// # Errors
///
/// Bind failures, with the address in the message.
pub fn start(router: Arc<Router>, addr: &str) -> Result<RouterHandle, String> {
    let cfg = ServerConfig { addr: addr.to_string(), ..ServerConfig::default() };
    graphmine_serve::start(router, &cfg).map(RouterHandle)
}
