//! Seeded input generation.
//!
//! The seed decides element labels, variable and predicate names, and the
//! order of operations; it never decides input *sizes*. The graphs are
//! isomorphic copies of the repository's committed scale inputs
//! (`BENCH_scale.json`'s xorshift64* streams), relabelled by a seeded
//! permutation, so the counts those files record hold for every seed and
//! the work per run does not drift with the seed.

use hp_serve::json::{self, Json};
use hp_structures::{Structure, Vocabulary};

/// Deterministic xorshift64* stream, identical to the repository's scale
/// examples.
pub struct XorShift(pub u64);

impl XorShift {
    /// Next 64 pseudo-random bits.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Shuffle `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// A well-mixed stream for workload seed `seed` and purpose `salt`.
pub fn rng(seed: u64, salt: u64) -> XorShift {
    // splitmix64 finaliser: nearby seeds give unrelated streams.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShift((z ^ (z >> 31)) | 1)
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut XorShift) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut p);
    p
}

/// The `{E/2, S/1}` vocabulary of the reach workloads.
pub fn reach_vocab() -> Vocabulary {
    Vocabulary::from_pairs([("E", 2), ("S", 1)])
}

/// The `columnar_scale` reach input with `m` edges over `n = m/4`
/// elements (xorshift64* stream seeded `0xE5CA1E`, source element 0),
/// relabelled by `perm`, with the edges loaded in the stream's order.
pub fn reach_structure(m: usize, perm: &[u32], sources: &[u32]) -> Structure {
    let n = m / 4;
    assert_eq!(perm.len(), n, "permutation covers the universe");
    let mut rng = XorShift(0xE5CA1E | 1);
    let mut b = Structure::builder(reach_vocab(), n);
    for &s in sources {
        b = b.tuple(1, &[perm[s as usize]]);
    }
    for _ in 0..m {
        let u = rng.below(n);
        let w = rng.below(n);
        b = b.tuple(0, &[perm[u], perm[w]]);
    }
    b.build()
}

/// The `columnar_scale` `win_move` input: `n` positions, `2n` draws of a
/// move oriented low → high id (stream seeded `0x5712A7`), relabelled by
/// `perm`. Relabelling keeps the move graph acyclic.
pub fn game_structure(n: usize, perm: &[u32]) -> Structure {
    let v = Vocabulary::from_pairs([("Move", 2), ("Pos", 1)]);
    let mut rng = XorShift(0x5712A7 | 1);
    let mut b = Structure::builder(v, n);
    for &x in perm {
        b = b.tuple(1, &[x]);
    }
    for _ in 0..2 * n {
        let u = rng.below(n);
        let w = rng.below(n);
        if u != w {
            b = b.tuple(0, &[perm[u.min(w)], perm[u.max(w)]]);
        }
    }
    b.build()
}

/// `count` distinct identifiers made of a seeded prefix letter run and an
/// index, starting with an upper-case letter when `upper`.
pub fn names(count: usize, upper: bool, rng: &mut XorShift) -> Vec<String> {
    let letters = b"abcdefghijklmnopqrstuvwxyz";
    (0..count)
        .map(|i| {
            let mut s = String::new();
            for k in 0..2 {
                let c = letters[rng.below(26)] as char;
                s.push(if upper && k == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                });
            }
            s.push_str(&i.to_string());
            s
        })
        .collect()
}

/// The row of a committed `BENCH_*.json` table whose `key` is `value`.
/// `table` is the path of object fields that leads to the row array, e.g.
/// `["win_move", "rows"]`.
pub fn committed_row(file: &str, table: &[&str], key: &str, value: u64) -> Result<Json, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    let rows = table
        .iter()
        .try_fold(&doc, |v, field| v.get(field))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{file} has no table {}", table.join(".")))?;
    rows.iter()
        .find(|r| r.get(key).and_then(Json::as_u64) == Some(value))
        .cloned()
        .ok_or_else(|| format!("{file} has no row with {key} = {value}"))
}

/// The count `field` of a row from [`committed_row`].
pub fn count(row: &Json, field: &str) -> Result<usize, String> {
    row.get(field)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("committed row has no count {field}"))
}
