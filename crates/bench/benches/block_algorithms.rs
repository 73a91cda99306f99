//! CPU wall-clock comparison of the three block algorithms (Figure 4's
//! subject, measured for real on this machine) across part counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recblock::adaptive::Selector;
use recblock::column::ColumnBlockSolver;
use recblock::recursive::RecursiveBlockSolver;
use recblock::row::RowBlockSolver;
use recblock_matrix::generate;
use std::time::Duration;

fn bench_blocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_algorithms");
    g.measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(10);
    let l = generate::layered::<f64>(30_000, 17, 2.5, generate::LayerShape::Geometric(0.85), 7);
    let b: Vec<f64> = (0..30_000).map(|i| (i % 11) as f64 - 5.0).collect();
    let sel = Selector::default();

    for parts in [4usize, 16, 64] {
        let depth = parts.trailing_zeros() as usize;
        let col = ColumnBlockSolver::new(&l, parts, &sel).unwrap();
        g.bench_with_input(BenchmarkId::new("column", parts), &col, |bench, s| {
            bench.iter(|| s.solve(&b).unwrap())
        });
        let row = RowBlockSolver::new(&l, parts, &sel).unwrap();
        g.bench_with_input(BenchmarkId::new("row", parts), &row, |bench, s| {
            bench.iter(|| s.solve(&b).unwrap())
        });
        let rec = RecursiveBlockSolver::new(&l, depth, &sel).unwrap();
        g.bench_with_input(BenchmarkId::new("recursive", parts), &rec, |bench, s| {
            bench.iter(|| s.solve(&b).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_blocks);
criterion_main!(benches);
