//! The router's epoch-keyed result cache: finished read answers
//! (`patterns`, `support`, `support-batch`) stored under
//! `(global_epoch, request kind, normalized args)` and served back
//! byte-identical while the fleet stays on that epoch.
//!
//! Coherence is structural, not TTL-based: shard data only ever changes
//! through the router's own three-phase epoch swap, which always
//! advances `global_epoch`, so an entry keyed by the current epoch can
//! never describe superseded data. The router still flushes the whole
//! cache on every commit and on every dead-shard transition (a shard
//! dying or being re-admitted) — both events change what the *fleet*
//! can answer even when the data did not — and a degraded answer
//! (`"partial":1`) or an error reply is never admitted in the first
//! place.
//!
//! Admission is a byte budget over entries costed by their serialized
//! length: least-recently-used entries are evicted
//! ([`Counter::RouterCacheEvictions`]) until a newcomer fits, which suits
//! a serving tier where the hot set drifts with traffic, and an entry
//! larger than the whole budget is simply not cached.

use std::collections::HashMap;

use graphmine_telemetry::{Counter, Counters, JsonValue};

/// Default byte budget for cached answers (16 MiB) — small next to the
/// embedding store's 64 MiB because entries are serialized replies, not
/// occurrence lists. `0` disables caching entirely.
pub const DEFAULT_CACHE_BUDGET: usize = 16 << 20;

/// The request kinds worth caching. `status` is deliberately absent —
/// its reply embeds live counters and uptime, so two identical requests
/// must not be byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ReqKind {
    Patterns,
    Support,
    SupportBatch,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    kind: ReqKind,
    /// Canonical argument rendering: minimal DFS codes for supports,
    /// `top`/`floor` for patterns — so two requests that ask the same
    /// question share one entry.
    args: String,
}

struct Entry {
    reply: JsonValue,
    bytes: usize,
    /// Last-touch tick for LRU ordering.
    touched: u64,
}

/// A byte-budgeted LRU of finished read answers.
pub(crate) struct ResultCache {
    budget_bytes: usize,
    cached_bytes: usize,
    tick: u64,
    entries: HashMap<CacheKey, Entry>,
}

impl ResultCache {
    pub fn new(budget_bytes: usize) -> ResultCache {
        ResultCache { budget_bytes, cached_bytes: 0, tick: 0, entries: HashMap::new() }
    }

    /// `true` when a zero budget turned caching off.
    pub fn disabled(&self) -> bool {
        self.budget_bytes == 0
    }

    /// Looks up the answer cached for `(epoch, kind, args)`, counting
    /// the hit or miss. Returns a clone — the cached reply is immutable.
    pub fn get(
        &mut self,
        epoch: u64,
        kind: ReqKind,
        args: &str,
        counters: &Counters,
    ) -> Option<JsonValue> {
        if self.disabled() {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let key = CacheKey { epoch, kind, args: args.to_string() };
        let found = match self.entries.get_mut(&key) {
            Some(e) => Some(e),
            // The armed mutant drops the epoch from the key: any entry
            // with the same kind+args answers, however stale. This is
            // the bug class (a forgotten invalidation) the oracle's
            // `router-equivalence` check must catch.
            #[cfg(feature = "fault-injection")]
            None if graphmine_graph::fault::armed(
                graphmine_graph::fault::Fault::ServeStaleCache,
            ) =>
            {
                self.entries
                    .iter_mut()
                    .filter(|(k, _)| k.kind == kind && k.args == args)
                    .max_by_key(|(k, _)| k.epoch)
                    .map(|(_, e)| e)
            }
            None => None,
        };
        match found {
            Some(e) => {
                e.touched = tick;
                counters.bump(Counter::RouterCacheHits);
                Some(e.reply.clone())
            }
            None => {
                counters.bump(Counter::RouterCacheMisses);
                None
            }
        }
    }

    /// Admits a finished reply, evicting least-recently-used entries to
    /// fit the budget. Refuses degraded (`"partial":1`) and error
    /// replies outright — a partial answer is a lower bound for one
    /// moment's fleet health, not a fact about the epoch — and refuses
    /// (without evicting anything) a reply larger than the whole budget.
    pub fn insert(
        &mut self,
        epoch: u64,
        kind: ReqKind,
        args: &str,
        reply: &JsonValue,
        counters: &Counters,
    ) {
        if self.disabled()
            || reply.field("partial").is_some()
            || reply.field("status").and_then(JsonValue::as_str) != Some("ok")
        {
            return;
        }
        let bytes = reply.to_json().len();
        if bytes > self.budget_bytes {
            return;
        }
        while self.cached_bytes + bytes > self.budget_bytes {
            let Some(victim) = self.entries.iter().min_by_key(|(_, e)| e.touched).map(|(k, _)| k)
            else {
                break;
            };
            let victim = victim.clone();
            if let Some(e) = self.entries.remove(&victim) {
                self.cached_bytes -= e.bytes;
                counters.bump(Counter::RouterCacheEvictions);
            }
        }
        self.tick += 1;
        let key = CacheKey { epoch, kind, args: args.to_string() };
        if let Some(old) =
            self.entries.insert(key, Entry { reply: reply.clone(), bytes, touched: self.tick })
        {
            self.cached_bytes -= old.bytes;
        }
        self.cached_bytes += bytes;
    }

    /// Drops every entry — called on epoch commits and on dead-shard
    /// transitions (in either direction).
    pub fn flush(&mut self) {
        // The armed mutant is a forgotten invalidation: the flush is
        // skipped AND `get` ignores the epoch key component, so answers
        // cached before a commit keep being served after it.
        #[cfg(feature = "fault-injection")]
        if graphmine_graph::fault::armed(graphmine_graph::fault::Fault::ServeStaleCache) {
            return;
        }
        self.entries.clear();
        self.cached_bytes = 0;
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_reply(tag: u64) -> JsonValue {
        JsonValue::Obj(vec![
            ("status".to_string(), JsonValue::Str("ok".to_string())),
            ("support".to_string(), JsonValue::Num(tag)),
        ])
    }

    #[test]
    fn hit_requires_the_same_epoch_kind_and_args() {
        let mut c = ResultCache::new(1 << 20);
        let t = Counters::default();
        assert!(c.get(3, ReqKind::Support, "a", &t).is_none());
        c.insert(3, ReqKind::Support, "a", &ok_reply(7), &t);
        let hit = c.get(3, ReqKind::Support, "a", &t).unwrap();
        assert_eq!(hit.to_json(), ok_reply(7).to_json(), "cached answers are byte-identical");
        // Any key component changing is a miss.
        assert!(c.get(4, ReqKind::Support, "a", &t).is_none(), "older epoch must not answer");
        assert!(c.get(3, ReqKind::Patterns, "a", &t).is_none());
        assert!(c.get(3, ReqKind::Support, "b", &t).is_none());
        assert_eq!(t.get(Counter::RouterCacheHits), 1);
        assert_eq!(t.get(Counter::RouterCacheMisses), 4);
    }

    #[test]
    fn partial_and_error_replies_are_never_admitted() {
        let mut c = ResultCache::new(1 << 20);
        let t = Counters::default();
        let partial = JsonValue::Obj(vec![
            ("status".to_string(), JsonValue::Str("ok".to_string())),
            ("support".to_string(), JsonValue::Num(2)),
            ("partial".to_string(), JsonValue::Num(1)),
        ]);
        c.insert(0, ReqKind::Support, "a", &partial, &t);
        let error = JsonValue::Obj(vec![
            ("status".to_string(), JsonValue::Str("error".to_string())),
            ("error".to_string(), JsonValue::Str("boom".to_string())),
        ]);
        c.insert(0, ReqKind::Support, "b", &error, &t);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_eviction_holds_the_byte_budget_and_counts() {
        let entry_bytes = ok_reply(0).to_json().len();
        let mut c = ResultCache::new(entry_bytes * 2);
        let t = Counters::default();
        c.insert(0, ReqKind::Support, "a", &ok_reply(1), &t);
        c.insert(0, ReqKind::Support, "b", &ok_reply(2), &t);
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        assert!(c.get(0, ReqKind::Support, "a", &t).is_some());
        c.insert(0, ReqKind::Support, "c", &ok_reply(3), &t);
        assert_eq!(t.get(Counter::RouterCacheEvictions), 1);
        assert!(c.get(0, ReqKind::Support, "a", &t).is_some(), "recently used survives");
        assert!(c.get(0, ReqKind::Support, "b", &t).is_none(), "LRU entry evicted");
        assert!(c.get(0, ReqKind::Support, "c", &t).is_some());
        assert!(c.cached_bytes <= entry_bytes * 2);
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_refused_without_eviction() {
        let entry_bytes = ok_reply(0).to_json().len();
        let mut c = ResultCache::new(entry_bytes);
        let t = Counters::default();
        c.insert(0, ReqKind::Support, "a", &ok_reply(1), &t);
        let huge = JsonValue::Obj(vec![
            ("status".to_string(), JsonValue::Str("ok".to_string())),
            ("blob".to_string(), JsonValue::Str("x".repeat(entry_bytes * 4))),
        ]);
        c.insert(0, ReqKind::Support, "big", &huge, &t);
        assert_eq!(t.get(Counter::RouterCacheEvictions), 0);
        assert!(c.get(0, ReqKind::Support, "a", &t).is_some(), "resident entry untouched");
    }

    #[test]
    fn a_zero_budget_disables_the_cache() {
        let mut c = ResultCache::new(0);
        let t = Counters::default();
        c.insert(0, ReqKind::Support, "a", &ok_reply(1), &t);
        assert!(c.get(0, ReqKind::Support, "a", &t).is_none());
        assert_eq!(t.get(Counter::RouterCacheMisses), 0, "disabled lookups are not misses");
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = ResultCache::new(1 << 20);
        let t = Counters::default();
        c.insert(0, ReqKind::Support, "a", &ok_reply(1), &t);
        c.insert(0, ReqKind::Patterns, "top=5;floor=3", &ok_reply(2), &t);
        c.flush();
        assert_eq!(c.len(), 0);
        assert_eq!(c.cached_bytes, 0);
        assert!(c.get(0, ReqKind::Support, "a", &t).is_none());
    }
}
