//! Inputs derived from `--seed`: column data, range predicates, Poisson
//! arrival schedules. The same seed gives the same inputs; the system under
//! test only ever sees what is generated here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use holistic_workload::{QueryGenerator, UniformRangeGenerator};

/// A half-open value range `[lo, hi)`.
pub type Range = (i64, i64);

/// Independent generator for stream `stream` of run seed `seed`.
#[must_use]
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
}

/// `rows` integers uniform in `[1, rows]` — the paper's data generator.
#[must_use]
pub fn uniform_column(rows: usize, rng: &mut StdRng) -> Vec<i64> {
    (0..rows).map(|_| rng.gen_range(1..=rows as i64)).collect()
}

/// `count` ranges covering `selectivity` of the domain `[1, rows]`, uniformly
/// placed: the workload crate's generator over that domain.
#[must_use]
pub fn uniform_ranges(rows: usize, selectivity: f64, count: usize, rng: &mut StdRng) -> Vec<Range> {
    UniformRangeGenerator::new(0, 1, rows as i64 + 1, selectivity)
        .generate(count, rng)
        .into_iter()
        .map(|q| (q.lo, q.hi))
        .collect()
}

/// One arrival of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the start of the rung at which the request is due.
    pub due_ns: u64,
    /// Which connection sends it.
    pub connection: usize,
    /// Index of the predicate in the workload's range table.
    pub range: u32,
}

/// Poisson arrivals at `rate_qps` for `seconds`, spread uniformly over
/// `connections`, each naming one of `ranges` predicates. Due times ascend.
#[must_use]
pub fn poisson_arrivals(
    rate_qps: f64,
    seconds: f64,
    connections: usize,
    ranges: u32,
    rng: &mut StdRng,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate_qps * seconds * 1.1) as usize + 16);
    let mut at = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate_qps;
        if at >= seconds {
            return out;
        }
        out.push(Arrival {
            due_ns: (at * 1e9) as u64,
            connection: rng.gen_range(0..connections),
            range: rng.gen_range(0..ranges),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = uniform_column(1_000, &mut rng_for(7, 1));
        let b = uniform_column(1_000, &mut rng_for(7, 1));
        let c = uniform_column(1_000, &mut rng_for(8, 1));
        let d = uniform_column(1_000, &mut rng_for(7, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.iter().all(|&v| (1..=1_000).contains(&v)));
    }

    #[test]
    fn ranges_have_the_requested_width_and_stay_in_the_domain() {
        let ranges = uniform_ranges(10_000, 0.01, 500, &mut rng_for(1, 1));
        assert_eq!(ranges.len(), 500);
        for (lo, hi) in ranges {
            assert_eq!(hi - lo, 100);
            assert!(lo >= 1 && hi <= 10_001);
        }
    }

    #[test]
    fn poisson_schedule_ascends_and_matches_the_rate() {
        let arrivals = poisson_arrivals(5_000.0, 2.0, 2, 100, &mut rng_for(9, 3));
        assert!(arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(arrivals.iter().all(|a| a.due_ns < 2_000_000_000));
        assert!(arrivals.iter().all(|a| a.connection < 2 && a.range < 100));
        // 10,000 expected; Poisson sigma is 100.
        assert!((9_500..10_500).contains(&arrivals.len()));
        assert!(arrivals.iter().any(|a| a.connection == 0));
        assert!(arrivals.iter().any(|a| a.connection == 1));
    }
}
