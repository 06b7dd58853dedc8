//! Generated databases. All graphs come from `graphmine-datagen`.
//!
//! The generator draws its kernel pool, the kernels' weights and the
//! graphs from one seed, and the kernel pool alone moves the number of
//! frequent patterns — and with it every mining time — by a quarter from
//! seed to seed. A workload is meant to hold the properties the system's
//! behaviour depends on fixed and vary the instance, so each workload
//! generates one *family*: a pool of `D + D/4` graphs from the fixed
//! [`FAMILY_SEED`], out of which `--seed` draws the `D` graphs of the run.
//! Different seeds give different databases of the same distribution
//! (any two share about four graphs in five, which keeps the supports,
//! and with them the mining times, within a few percent of each other).

use graphmine_datagen::{generate, GenParams};
use graphmine_graph::{Graph, GraphDb};

/// Seed of every family's kernel pool (the paper's year, and the
/// benchmark's default `--seed`).
const FAMILY_SEED: u64 = 2006;

/// SplitMix64, the generator behind the seeded draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// `k` distinct indices below `n`, in draw order (a partial Fisher–Yates
/// shuffle).
fn draw(n: usize, k: usize, seed: u64) -> Vec<u32> {
    assert!(k <= n, "cannot draw {k} of {n}");
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in 0..k {
        let j = i + (splitmix64(&mut state) % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// `d` graphs drawn by `seed` out of the `d + d/4` graphs of the
/// `T{t} N20 L200 I5` family. The pool is gone when this returns: the
/// drawn graphs are moved out of it, not copied.
pub fn family_db(d: usize, t: usize, seed: u64) -> GraphDb {
    let mut pool = generate(&GenParams::new(d + d / 4, t, 20, 200, 5).with_seed(FAMILY_SEED));
    let graphs: Vec<Graph> = draw(pool.len(), d, seed)
        .into_iter()
        .map(|gid| std::mem::take(pool.graph_mut(gid)))
        .collect();
    drop(pool);
    GraphDb::from_graphs(graphs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_draw_is_distinct_in_range_and_repeats_for_its_seed() {
        let a = draw(100, 40, 7);
        assert_eq!(a.len(), 40);
        assert!(a.iter().all(|&i| i < 100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40, "indices are distinct");
        assert_eq!(a, draw(100, 40, 7));
        assert_ne!(a, draw(100, 40, 8));
        assert_eq!(draw(5, 5, 1).len(), 5);
    }

    #[test]
    fn the_same_seed_gives_the_same_database_and_another_seed_another() {
        let a = family_db(40, 6, 11);
        let b = family_db(40, 6, 11);
        let c = family_db(40, 6, 12);
        assert_eq!(a.len(), 40);
        assert!(a.iter().all(|(gid, g)| g == b.graph(gid) && g.edge_count() > 0));
        assert!(a.iter().any(|(gid, g)| g != c.graph(gid)));
    }
}
