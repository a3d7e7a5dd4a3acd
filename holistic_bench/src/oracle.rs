//! Independent models every answer is checked against: a sorted copy with
//! prefix sums for read-only data, Fenwick trees over the value domain for
//! data that changes. Neither shares code with the system under test.

/// `(count, sum)` of the values in a half-open range.
pub type CountSum = (u64, i128);

/// Read-only oracle: sorted copy of a column plus prefix sums.
#[derive(Debug)]
pub struct SortedOracle {
    sorted: Vec<i64>,
    /// `prefix[i]` = sum of `sorted[..i]`.
    prefix: Vec<i128>,
}

impl SortedOracle {
    /// Builds the oracle for `values`.
    #[must_use]
    pub fn new(values: &[i64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        let mut acc = 0i128;
        prefix.push(acc);
        for &v in &sorted {
            acc += i128::from(v);
            prefix.push(acc);
        }
        SortedOracle { sorted, prefix }
    }

    fn bounds(&self, lo: i64, hi: i64) -> (usize, usize) {
        let a = self.sorted.partition_point(|&v| v < lo);
        let b = self.sorted.partition_point(|&v| v < hi).max(a);
        (a, b)
    }

    /// Count and sum of the values in `[lo, hi)`.
    #[must_use]
    pub fn count_sum(&self, lo: i64, hi: i64) -> CountSum {
        let (a, b) = self.bounds(lo, hi);
        ((b - a) as u64, self.prefix[b] - self.prefix[a])
    }

    /// The values in `[lo, hi)`, ascending.
    #[must_use]
    pub fn values(&self, lo: i64, hi: i64) -> &[i64] {
        let (a, b) = self.bounds(lo, hi);
        &self.sorted[a..b]
    }
}

/// Whether `got` holds exactly the values of `want` (a sorted slice), in any
/// order.
#[must_use]
pub fn same_multiset(got: &[i64], want_sorted: &[i64]) -> bool {
    if got.len() != want_sorted.len() {
        return false;
    }
    let mut got = got.to_vec();
    got.sort_unstable();
    got == want_sorted
}

/// A Fenwick (binary indexed) tree of `i64` over indices `0..len`.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    /// A tree of `len` zeros.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    /// Adds `delta` at `index`.
    pub fn add(&mut self, index: usize, delta: i64) {
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the entries in `0..end`.
    #[must_use]
    pub fn prefix(&self, end: usize) -> i64 {
        let mut i = end.min(self.tree.len() - 1);
        let mut acc = 0;
        while i > 0 {
            acc += self.tree[i];
            i &= i - 1;
        }
        acc
    }

    /// The smallest index whose prefix sum (inclusive) exceeds `rank`, for a
    /// tree of non-negative entries; `None` when `rank` is at least the total.
    #[must_use]
    pub fn select(&self, rank: i64) -> Option<usize> {
        let n = self.tree.len() - 1;
        if rank < 0 || rank >= self.prefix(n) {
            return None;
        }
        let mut pos = 0usize;
        let mut remaining = rank;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= remaining {
                pos = next;
                remaining -= self.tree[next];
            }
            step >>= 1;
        }
        Some(pos)
    }
}

/// Order-independent hash of a multiset of values: the wrapping sum of a
/// mixed image of each value, so equal multisets hash equal in any order.
#[must_use]
pub fn multiset_hash(values: &[i64]) -> u64 {
    values
        .iter()
        .fold(0u64, |acc, &v| acc.wrapping_add(mix_value(v)))
}

fn mix_value(v: i64) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Updatable oracle over the value domain `0..domain`: per-value
/// multiplicities, with Fenwick trees for range counts and range sums.
#[derive(Debug, Clone)]
pub struct FenwickOracle {
    multiplicity: Vec<u32>,
    counts: Fenwick,
    sums: Fenwick,
}

impl FenwickOracle {
    /// Builds the oracle for `values`, all of which lie in `0..domain`.
    #[must_use]
    pub fn new(domain: usize, values: &[i64]) -> Self {
        let mut oracle = FenwickOracle {
            multiplicity: vec![0; domain],
            counts: Fenwick::new(domain),
            sums: Fenwick::new(domain),
        };
        for &v in values {
            oracle.insert(v);
        }
        oracle
    }

    fn slot(&self, v: i64) -> Option<usize> {
        usize::try_from(v)
            .ok()
            .filter(|&i| i < self.multiplicity.len())
    }

    fn clamp(&self, v: i64) -> usize {
        usize::try_from(v.max(0))
            .map_or(self.multiplicity.len(), |i| i.min(self.multiplicity.len()))
    }

    /// Adds one occurrence of `v` (ignored outside the domain).
    pub fn insert(&mut self, v: i64) {
        if let Some(i) = self.slot(v) {
            self.multiplicity[i] += 1;
            self.counts.add(i, 1);
            self.sums.add(i, v);
        }
    }

    /// Removes one occurrence of `v`; whether there was one.
    pub fn delete(&mut self, v: i64) -> bool {
        match self.slot(v) {
            Some(i) if self.multiplicity[i] > 0 => {
                self.multiplicity[i] -= 1;
                self.counts.add(i, -1);
                self.sums.add(i, -v);
                true
            }
            _ => false,
        }
    }

    /// Number of values held.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.counts.prefix(self.multiplicity.len()) as u64
    }

    /// Count and sum of the values in `[lo, hi)`.
    #[must_use]
    pub fn count_sum(&self, lo: i64, hi: i64) -> CountSum {
        let (a, b) = (self.clamp(lo), self.clamp(hi));
        if b <= a {
            return (0, 0);
        }
        let count = self.counts.prefix(b) - self.counts.prefix(a);
        let sum = self.sums.prefix(b) - self.sums.prefix(a);
        (count as u64, i128::from(sum))
    }

    /// [`multiset_hash`] of the values in `[lo, hi)`.
    #[must_use]
    pub fn range_hash(&self, lo: i64, hi: i64) -> u64 {
        let (a, b) = (self.clamp(lo), self.clamp(hi));
        (a..b.max(a)).fold(0u64, |acc, i| {
            acc.wrapping_add(mix_value(i as i64).wrapping_mul(u64::from(self.multiplicity[i])))
        })
    }

    /// The value at 0-based `rank` in ascending order, if any.
    #[must_use]
    pub fn value_at_rank(&self, rank: u64) -> Option<i64> {
        self.counts
            .select(i64::try_from(rank).ok()?)
            .map(|i| i as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive(values: &[i64], lo: i64, hi: i64) -> (CountSum, Vec<i64>) {
        let mut hit: Vec<i64> = values
            .iter()
            .copied()
            .filter(|&v| v >= lo && v < hi)
            .collect();
        hit.sort_unstable();
        let sum = hit.iter().map(|&v| i128::from(v)).sum();
        ((hit.len() as u64, sum), hit)
    }

    #[test]
    fn sorted_oracle_matches_a_naive_scan() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<i64> = (0..2_000).map(|_| rng.gen_range(1..=500)).collect();
        let oracle = SortedOracle::new(&values);
        for _ in 0..200 {
            let lo = rng.gen_range(-10..520i64);
            let hi = lo + rng.gen_range(-5..60i64);
            let (cs, hit) = naive(&values, lo, hi);
            assert_eq!(oracle.count_sum(lo, hi), cs);
            assert_eq!(oracle.values(lo, hi), hit.as_slice());
        }
    }

    #[test]
    fn fenwick_oracle_matches_a_naive_scan_under_updates() {
        let mut rng = StdRng::seed_from_u64(5);
        let domain = 300usize;
        let mut values: Vec<i64> = (0..1_000)
            .map(|_| rng.gen_range(1..domain as i64))
            .collect();
        let mut oracle = FenwickOracle::new(domain, &values);
        for step in 0..600 {
            if step % 3 == 0 {
                let v = rng.gen_range(0..domain as i64);
                values.push(v);
                oracle.insert(v);
            } else if step % 3 == 1 {
                let v = rng.gen_range(0..domain as i64);
                let pos = values.iter().position(|&x| x == v);
                assert_eq!(oracle.delete(v), pos.is_some());
                if let Some(pos) = pos {
                    values.swap_remove(pos);
                }
            }
            let lo = rng.gen_range(-5..domain as i64 + 5);
            let hi = lo + rng.gen_range(-3..40i64);
            let (cs, hit) = naive(&values, lo, hi);
            assert_eq!(oracle.count_sum(lo, hi), cs, "step {step} [{lo},{hi})");
            assert_eq!(oracle.range_hash(lo, hi), multiset_hash(&hit));
            assert_eq!(oracle.len(), values.len() as u64);
        }
    }

    #[test]
    fn fenwick_select_finds_the_value_at_a_rank() {
        let values = [5i64, 2, 9, 2, 7];
        let oracle = FenwickOracle::new(10, &values);
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for (rank, &v) in sorted.iter().enumerate() {
            assert_eq!(oracle.value_at_rank(rank as u64), Some(v));
        }
        assert_eq!(oracle.value_at_rank(5), None);
    }

    #[test]
    fn multiset_hash_ignores_order_and_sees_multiplicity() {
        assert_eq!(multiset_hash(&[1, 2, 3]), multiset_hash(&[3, 1, 2]));
        assert_ne!(multiset_hash(&[1, 2]), multiset_hash(&[1, 2, 2]));
        assert!(same_multiset(&[3, 1, 2], &[1, 2, 3]));
        assert!(!same_multiset(&[3, 1, 1], &[1, 2, 3]));
    }
}
