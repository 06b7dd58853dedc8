//! The shard topology file: the one artifact `graphmine shard-plan`
//! writes and every other router-tier process reads.
//!
//! A topology pins down the whole deployment: how many shards, which
//! gids each shard *owns* (the disjoint sets that make gathered counts
//! exact), the replica addresses per shard, and the support thresholds —
//! the global one the router answers at, and the lowered per-shard one
//! (`ceil(s / n_shards)`, the SON/pigeonhole bound) the shards mine at so
//! no globally frequent pattern can hide from every shard's local result.
//!
//! The file is JSON in the telemetry crate's dialect (no floats or
//! booleans), e.g.:
//!
//! ```text
//! {"version":1,"min_support":4,"local_min_support":2,"n_graphs":60,
//!  "router_addr":"127.0.0.1:7870",
//!  "shards":[
//!    {"id":0,"owned":[0,3,5],
//!     "replicas":["127.0.0.1:7871"],"data":"shard-0.txt"},
//!    ...]}
//! ```
//!
//! Files written by older plans also carry `k`, `policy` and per-shard
//! `units`, from when shards hosted partition units; those fields are
//! ignored.

use std::path::Path;

use graphmine_graph::{GraphId, Support};
use graphmine_telemetry::JsonValue;

/// Topology file format version this crate writes and understands.
pub const TOPOLOGY_VERSION: u64 = 1;

/// One shard's slice of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard id, dense in `0..n_shards`.
    pub id: usize,
    /// Gids this shard owns (ascending); owner sets are disjoint across
    /// shards and cover every gid.
    pub owned: Vec<GraphId>,
    /// Replica addresses, primary first. Reads hedge down this list;
    /// writes must be durable on every entry.
    pub replicas: Vec<String>,
    /// The shard's database file, relative to the topology file.
    pub data: String,
}

/// A parsed (or freshly planned) shard topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTopology {
    /// Support threshold the router answers `patterns` at.
    pub min_support: Support,
    /// Per-shard mining threshold: `ceil(min_support / n_shards)`.
    pub local_min_support: Support,
    /// Graphs in the root database; every shard's db is gid-aligned to it.
    pub n_graphs: usize,
    /// Address the router front end binds.
    pub router_addr: String,
    /// Per-shard specs, indexed by shard id.
    pub shards: Vec<ShardSpec>,
}

/// The pigeonhole bound: a pattern with global support `>= s` has owned
/// support `>= ceil(s / n)` on at least one of `n` shards.
pub fn local_min_support(min_support: Support, n_shards: usize) -> Support {
    let n = n_shards.max(1) as u32;
    min_support.div_ceil(n).max(1)
}

impl ShardTopology {
    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Checks the structural invariants the router relies on: dense
    /// shard ids, at least one replica each, owner sets that are
    /// disjoint and cover `0..n_graphs`, and a
    /// `local_min_support` that actually is the pigeonhole bound.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards.is_empty() {
            return Err("topology has no shards".to_string());
        }
        for (i, s) in self.shards.iter().enumerate() {
            if s.id != i {
                return Err(format!("shard {i} has id {} (ids must be dense)", s.id));
            }
            if s.replicas.is_empty() {
                return Err(format!("shard {i} has no replicas"));
            }
            if s.owned.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("shard {i} owned gids not sorted/unique"));
            }
        }
        let mut owned: Vec<GraphId> =
            self.shards.iter().flat_map(|s| s.owned.iter().copied()).collect();
        owned.sort_unstable();
        let expect: Vec<GraphId> = (0..self.n_graphs as GraphId).collect();
        if owned != expect {
            return Err(format!(
                "owner sets do not partition 0..{}: got {} gids",
                self.n_graphs,
                owned.len()
            ));
        }
        let want = local_min_support(self.min_support, self.n_shards());
        if self.local_min_support != want {
            return Err(format!(
                "local_min_support {} != ceil({}/{}) = {want}",
                self.local_min_support,
                self.min_support,
                self.n_shards()
            ));
        }
        Ok(())
    }

    /// Serializes to the JSON wire/file value.
    pub fn to_json(&self) -> JsonValue {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                JsonValue::Obj(vec![
                    ("id".to_string(), JsonValue::Num(s.id as u64)),
                    (
                        "owned".to_string(),
                        JsonValue::Arr(
                            s.owned.iter().map(|&g| JsonValue::Num(u64::from(g))).collect(),
                        ),
                    ),
                    (
                        "replicas".to_string(),
                        JsonValue::Arr(
                            s.replicas.iter().map(|a| JsonValue::Str(a.clone())).collect(),
                        ),
                    ),
                    ("data".to_string(), JsonValue::Str(s.data.clone())),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("version".to_string(), JsonValue::Num(TOPOLOGY_VERSION)),
            ("min_support".to_string(), JsonValue::Num(u64::from(self.min_support))),
            ("local_min_support".to_string(), JsonValue::Num(u64::from(self.local_min_support))),
            ("n_graphs".to_string(), JsonValue::Num(self.n_graphs as u64)),
            ("router_addr".to_string(), JsonValue::Str(self.router_addr.clone())),
            ("shards".to_string(), JsonValue::Arr(shards)),
        ])
    }

    /// Parses a topology value and validates it.
    ///
    /// # Errors
    ///
    /// Reports missing/mistyped fields, an unknown version, or a failed
    /// [`ShardTopology::validate`].
    pub fn from_json(value: &JsonValue) -> Result<ShardTopology, String> {
        let num = |key: &str| {
            value.field(key).and_then(JsonValue::as_num).ok_or(format!("missing field `{key}`"))
        };
        let version = num("version")?;
        if version != TOPOLOGY_VERSION {
            return Err(format!("unsupported topology version {version}"));
        }
        let str_field = |key: &str| {
            value
                .field(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("missing field `{key}`"))
        };
        let shards_json =
            value.field("shards").and_then(JsonValue::as_arr).ok_or("missing field `shards`")?;
        let mut shards = Vec::with_capacity(shards_json.len());
        for (i, s) in shards_json.iter().enumerate() {
            let snum = |key: &str| {
                s.field(key)
                    .and_then(JsonValue::as_num)
                    .ok_or(format!("shard {i}: missing field `{key}`"))
            };
            let list = |key: &str| -> Result<Vec<u64>, String> {
                s.field(key)
                    .and_then(JsonValue::as_arr)
                    .ok_or(format!("shard {i}: missing array `{key}`"))?
                    .iter()
                    .map(|v| v.as_num().ok_or(format!("shard {i}: non-numeric `{key}` entry")))
                    .collect()
            };
            let replicas = s
                .field("replicas")
                .and_then(JsonValue::as_arr)
                .ok_or(format!("shard {i}: missing array `replicas`"))?
                .iter()
                .map(|v| {
                    v.as_str().map(str::to_string).ok_or(format!("shard {i}: bad replica address"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            shards.push(ShardSpec {
                id: snum("id")? as usize,
                owned: list("owned")?.into_iter().map(|g| g as GraphId).collect(),
                replicas,
                data: s
                    .field("data")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or(format!("shard {i}: missing field `data`"))?,
            });
        }
        let topo = ShardTopology {
            min_support: num("min_support")? as Support,
            local_min_support: num("local_min_support")? as Support,
            n_graphs: num("n_graphs")? as usize,
            router_addr: str_field("router_addr")?,
            shards,
        };
        topo.validate()?;
        Ok(topo)
    }

    /// Loads and validates a topology file.
    ///
    /// # Errors
    ///
    /// I/O, JSON, or validation failures, with the path in the message.
    pub fn load(path: &Path) -> Result<ShardTopology, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let value =
            JsonValue::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        ShardTopology::from_json(&value).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the topology file (pretty enough: one line — the dialect
    /// has no pretty printer, and the file is machine-read).
    ///
    /// # Errors
    ///
    /// I/O failures, with the path in the message.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json().to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ShardTopology {
        ShardTopology {
            min_support: 4,
            local_min_support: 2,
            n_graphs: 5,
            router_addr: "127.0.0.1:7870".to_string(),
            shards: vec![
                ShardSpec {
                    id: 0,
                    owned: vec![0, 3],
                    replicas: vec!["127.0.0.1:7871".to_string()],
                    data: "shard-0.txt".to_string(),
                },
                ShardSpec {
                    id: 1,
                    owned: vec![1, 2, 4],
                    replicas: vec!["127.0.0.1:7872".to_string(), "127.0.0.1:7873".to_string()],
                    data: "shard-1.txt".to_string(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json_and_disk() {
        let topo = tiny();
        topo.validate().unwrap();
        let back = ShardTopology::from_json(&topo.to_json()).unwrap();
        assert_eq!(back, topo);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("topology.json");
        topo.save(&path).unwrap();
        assert_eq!(ShardTopology::load(&path).unwrap(), topo);
    }

    /// A file written by an older plan names its partition units; it loads
    /// as the same topology, the unit fields unread.
    #[test]
    fn an_older_plan_with_units_loads_with_them_ignored() {
        let older = r#"{"version":1,"min_support":4,"local_min_support":2,"k":4,
            "policy":"hub","n_graphs":5,"router_addr":"127.0.0.1:7870","shards":[
            {"id":0,"units":[0,2],"owned":[0,3],"replicas":["127.0.0.1:7871"],"data":"shard-0.txt"},
            {"id":1,"units":[1,3],"owned":[1,2,4],
             "replicas":["127.0.0.1:7872","127.0.0.1:7873"],"data":"shard-1.txt"}]}"#;
        let parsed = ShardTopology::from_json(&JsonValue::parse(older).unwrap()).unwrap();
        assert_eq!(parsed, tiny());
        let written = parsed.to_json().to_json();
        assert!(!written.contains("units") && !written.contains("policy"), "{written}");
    }

    #[test]
    fn validation_catches_broken_invariants() {
        let mut overlap = tiny();
        overlap.shards[1].owned = vec![0, 1, 2, 4]; // gid 0 owned twice
        assert!(overlap.validate().unwrap_err().contains("partition"));

        let mut gap = tiny();
        gap.shards[1].owned = vec![1, 2]; // gid 4 unowned
        assert!(gap.validate().is_err());

        let mut bad_ell = tiny();
        bad_ell.local_min_support = 3;
        assert!(bad_ell.validate().unwrap_err().contains("local_min_support"));

        let mut no_replica = tiny();
        no_replica.shards[0].replicas.clear();
        assert!(no_replica.validate().unwrap_err().contains("replicas"));
    }

    #[test]
    fn pigeonhole_bound() {
        assert_eq!(local_min_support(4, 2), 2);
        assert_eq!(local_min_support(5, 2), 3);
        assert_eq!(local_min_support(5, 3), 2);
        assert_eq!(local_min_support(1, 8), 1);
        assert_eq!(local_min_support(0, 3), 1);
    }
}
