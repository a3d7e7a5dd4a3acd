//! Criterion micro-benchmarks for the partitioning kernels.
//!
//! Two questions are answered here:
//!
//! 1. The classic adaptive-indexing asymmetry: one crack pass is O(n), a
//!    full sort is O(n log n) — the cost gap the whole cracking argument
//!    rests on (`full_sort` baselines).
//! 2. The branchy-vs-predicated trade-off across piece sizes: the branchy
//!    two-pointer loop mispredicts on uniform-random data, the predicated
//!    Lomuto loop executes a fixed instruction stream. The head-to-head
//!    sweep locates the crossover that justifies `CrackKernel::Auto`'s
//!    piece-length threshold, and the `auto` rows verify the dispatcher
//!    tracks the better kernel at every size.
//! 3. The sum-fused forms production runs (`crack_in_two_sums*`), from 4
//!    values to 4 Mi: the branchy loop, the scalar predicated loop, and the
//!    dispatching predicated entry (the AVX-512 compress partition from 16
//!    values on hosts that have it, the scalar loop otherwise), plus `auto`.
//!    These rows set `DEFAULT_PREDICATION_THRESHOLD`. Pieces below 64 Ki
//!    values are cracked many at a time (each with its own pivot drawn from
//!    the piece, as a query bound falling into it would be), so every
//!    sample times at least 64 Ki values and stays far above the timer's
//!    resolution.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use holistic_cracking::kernels::{
    crack_in_three, crack_in_three_pred, crack_in_two, crack_in_two_pred, crack_in_two_sums,
    crack_in_two_sums_pred, crack_in_two_sums_scalar, crack_in_two_with_rowids,
    crack_in_two_with_rowids_pred, crack_in_two_with_rowids_sums,
    crack_in_two_with_rowids_sums_pred, CrackKernel, TwoWaySums,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..n).map(|_| rng.gen_range(1..=n as i64)).collect()
}

/// Piece sizes swept by the branchy-vs-predicated comparison: from well
/// inside L1 (1 Ki values = 8 KiB) to far out of cache (4 Mi values).
const PIECE_SIZES: [usize; 7] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
];

fn bench_crack_in_two_head_to_head(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_two");
    for &n in &PIECE_SIZES {
        let data = dataset(n);
        let pivot = n as i64 / 2;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("branchy", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_two(&mut d, pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("predicated", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_two_pred(&mut d, pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
        let auto = CrackKernel::auto();
        group.bench_with_input(BenchmarkId::new("auto", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(auto.crack_in_two(&mut d, pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_crack_in_two_with_rowids(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_two_rowids");
    for &n in &[1 << 14, 1 << 20] {
        let data = dataset(n);
        let rowids: Vec<u32> = (0..n as u32).collect();
        let pivot = n as i64 / 2;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("branchy", n), &n, |b, _| {
            b.iter_batched(
                || (data.clone(), rowids.clone()),
                |(mut d, mut r)| black_box(crack_in_two_with_rowids(&mut d, &mut r, pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("predicated", n), &n, |b, _| {
            b.iter_batched(
                || (data.clone(), rowids.clone()),
                |(mut d, mut r)| black_box(crack_in_two_with_rowids_pred(&mut d, &mut r, pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Piece sizes of the sum-fused rows: every power of two up to 1 Ki values
/// (where the `Auto` threshold lives), then every fourth up to 4 Mi.
const SUMS_SIZES: [usize; 15] = [
    1 << 2,
    1 << 3,
    1 << 4,
    1 << 5,
    1 << 6,
    1 << 7,
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
];

/// Values cracked per sample in the sum-fused rows.
const SUMS_BATCH: usize = 1 << 16;

/// `max(n, SUMS_BATCH)` values and one pivot per `n`-value piece, drawn
/// from that piece so its split lands anywhere in it.
fn pieces_and_pivots(n: usize) -> (Vec<i64>, Vec<i64>) {
    let data = dataset(n.max(SUMS_BATCH));
    let mut rng = StdRng::seed_from_u64(2);
    let pivots = data.chunks(n).map(|p| p[rng.gen_range(0..n)]).collect();
    (data, pivots)
}

fn bench_crack_in_two_sums(c: &mut Criterion) {
    type SumsFn = fn(&mut [i64], i64) -> TwoWaySums;
    let auto: SumsFn = |d, p| CrackKernel::auto().crack_in_two_sums(d, p);
    let forms: [(&str, SumsFn); 4] = [
        ("branchy", crack_in_two_sums),
        ("predicated_scalar", crack_in_two_sums_scalar),
        ("predicated", crack_in_two_sums_pred),
        ("auto", auto),
    ];
    let mut group = c.benchmark_group("crack_in_two_sums");
    for &n in &SUMS_SIZES {
        let (data, pivots) = pieces_and_pivots(n);
        group.throughput(Throughput::Elements(data.len() as u64));
        for (name, kernel) in forms {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter_batched(
                    || data.clone(),
                    |mut d| {
                        let mut below = 0usize;
                        for (piece, &pivot) in d.chunks_mut(n).zip(&pivots) {
                            below += kernel(piece, pivot).split;
                        }
                        black_box(below)
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_crack_in_two_with_rowids_sums(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_two_rowids_sums");
    for &n in &[1 << 8, 1 << 14, 1 << 20] {
        let (data, pivots) = pieces_and_pivots(n);
        let rowids: Vec<u32> = (0..data.len() as u32).collect();
        group.throughput(Throughput::Elements(data.len() as u64));
        type RowidSumsFn = fn(&mut [i64], &mut [u32], i64) -> TwoWaySums;
        let forms: [(&str, RowidSumsFn); 2] = [
            ("branchy", crack_in_two_with_rowids_sums),
            ("predicated", crack_in_two_with_rowids_sums_pred),
        ];
        for (name, kernel) in forms {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter_batched(
                    || (data.clone(), rowids.clone()),
                    |(mut d, mut r)| {
                        let mut below = 0usize;
                        for ((piece, ids), &pivot) in
                            d.chunks_mut(n).zip(r.chunks_mut(n)).zip(&pivots)
                        {
                            below += kernel(piece, ids, pivot).split;
                        }
                        black_box(below)
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_crack_in_three_and_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_three_and_sort");
    for &n in &[100_000usize, 1_000_000] {
        let data = dataset(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("three_branchy", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_three(&mut d, n as i64 / 3, 2 * n as i64 / 3)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("three_predicated", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_three_pred(&mut d, n as i64 / 3, 2 * n as i64 / 3)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("full_sort", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    d.sort_unstable();
                    black_box(d.len())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_crack_in_two_head_to_head, bench_crack_in_two_with_rowids,
        bench_crack_in_two_sums, bench_crack_in_two_with_rowids_sums,
        bench_crack_in_three_and_sort
}
criterion_main!(benches);
