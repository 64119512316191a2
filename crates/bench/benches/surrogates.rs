//! Surrogate model fit/predict costs. The Centroid Learning window model is refit
//! after every observation, so its fit cost at N = 20 bounds the per-run overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ml::{BaggedTrees, GaussianProcess, KernelRidge, Regressor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| r.iter().map(|v| v * v).sum::<f64>() + ml::stats::normal(&mut rng, 0.0, 0.1))
        .collect();
    (x, y)
}

fn bench_krr(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_ridge");
    for n in [20, 100, 300] {
        let (x, y) = dataset(n, 4, 1);
        group.bench_function(&format!("fit_n{n}"), |b| {
            b.iter(|| {
                let mut m = KernelRidge::rbf(1.0, 0.1);
                m.fit(black_box(&x), black_box(&y)).unwrap();
                m
            })
        });
        let mut m = KernelRidge::rbf(1.0, 0.1);
        m.fit(&x, &y).unwrap();
        group.bench_function(&format!("predict_n{n}"), |b| {
            b.iter(|| m.predict(black_box(&[0.1, 0.2, 0.3, 0.4])))
        });
    }
    group.finish();
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_process");
    for n in [50, 200] {
        let (x, y) = dataset(n, 4, 2);
        group.bench_function(&format!("fit_n{n}"), |b| {
            b.iter(|| {
                let mut gp = GaussianProcess::default_bo();
                gp.fit(black_box(&x), black_box(&y)).unwrap();
                gp
            })
        });
        let mut gp = GaussianProcess::default_bo();
        gp.fit(&x, &y).unwrap();
        group.bench_function(&format!("posterior_n{n}"), |b| {
            b.iter(|| gp.posterior(black_box(&[0.1, 0.2, 0.3, 0.4])))
        });
    }
    group.finish();
}

fn bench_forest(c: &mut Criterion) {
    let (x, y) = dataset(500, 10, 3);
    c.bench_function("bagged_trees_fit_n500_d10", |b| {
        b.iter(|| {
            let mut f = BaggedTrees::baseline_default(1);
            f.fit(black_box(&x), black_box(&y)).unwrap();
            f
        })
    });
    let mut f = BaggedTrees::baseline_default(1);
    f.fit(&x, &y).unwrap();
    c.bench_function("bagged_trees_predict", |b| {
        b.iter(|| f.predict(black_box(&[0.0; 10])))
    });
}

criterion_group!(benches, bench_krr, bench_gp, bench_forest);
criterion_main!(benches);
