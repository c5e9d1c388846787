//! Tensor-kernel micro-benchmarks.
//!
//! Measures the hot kernels the training loop bottoms out in — the three
//! GEMM variants, convolution (fused, plus the im2col oracle), and pooled
//! elementwise/reduction loops — and writes `BENCH_tensor.json` so the
//! perf trajectory is tracked in-repo PR over PR.
//!
//! Also times a faithful reimplementation of the pre-pool seed kernel
//! (`ikj` loops with a zero-skip branch, fresh OS threads spawned per
//! call) under `matmul_seed_ikj`, so the speedup of the blocked/packed
//! kernel is part of the recorded data: divide the two `ns_per_iter`
//! values to get it.
//!
//! Usage: `bench_kernels [--smoke] [--out PATH]` (default
//! `BENCH_tensor.json` in the current directory; `--smoke` shrinks sizes
//! and sample counts for CI sanity runs).

use gandef_bench::microbench::{self, Measurement};
use gandef_tensor::accum::{with_accum, Accum};
use gandef_tensor::conv::{self, ConvSpec};
use gandef_tensor::linalg;
use gandef_tensor::rng::Prng;
use gandef_tensor::{pool, Tensor};

/// The seed repository's GEMM: naive `ikj` with a zero-skip branch, rows
/// fanned out over freshly spawned OS threads on every call (the pattern
/// this PR's persistent pool replaced). Kept verbatim as the benchmark
/// baseline.
fn seed_ikj_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(8);
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ti, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            // lint:allow(spawn) — this IS the seed's spawn-per-call GEMM,
            // kept verbatim as the baseline the pool is benchmarked against.
            scope.spawn(move || {
                for (ri, crow) in chunk.chunks_mut(n).enumerate() {
                    let i = ti * rows_per + ri;
                    for kk in 0..k {
                        let aval = a[i * k + kk];
                        if aval == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n..(kk + 1) * n];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += aval * bv;
                        }
                    }
                }
            });
        }
    });
    Tensor::from_vec(vec![m, n], out)
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_tensor.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown flag {other}; supported: --smoke --out PATH");
                std::process::exit(2);
            }
        }
    }

    let dim = if smoke { 128 } else { 256 };
    let (warmup, samples) = if smoke { (3, 21) } else { (3, 9) };
    let mut rng = Prng::new(42);

    let a = rng.uniform_tensor(&[dim, dim], -1.0, 1.0);
    let b = rng.uniform_tensor(&[dim, dim], -1.0, 1.0);
    let gemm_flops = 2 * (dim as u64).pow(3);
    let gemm_shape = format!("{dim}x{dim}x{dim}");

    let mut results: Vec<Measurement> = Vec::new();
    results.push(microbench::run(
        "matmul",
        &gemm_shape,
        gemm_flops,
        warmup,
        samples,
        || linalg::matmul(&a, &b),
    ));
    results.push(microbench::run(
        "matmul_seed_ikj",
        &gemm_shape,
        gemm_flops,
        warmup,
        samples,
        || seed_ikj_matmul(&a, &b),
    ));
    results.push(microbench::run(
        "matmul_tn",
        &gemm_shape,
        gemm_flops,
        warmup,
        samples,
        || linalg::matmul_tn(&a, &b),
    ));
    results.push(microbench::run(
        "matmul_nt",
        &gemm_shape,
        gemm_flops,
        warmup,
        samples,
        || linalg::matmul_nt(&a, &b),
    ));
    // The f64-accumulation GEMM path (GANDEF_ACCUM=f64): same packed
    // kernel, f64 tile accumulators, deliberately FMA-free. Recording it
    // alongside the f32 path keeps the cost of trustworthy numerics
    // visible PR over PR.
    results.push(microbench::run(
        "matmul_f64acc",
        &gemm_shape,
        gemm_flops,
        warmup,
        samples,
        || with_accum(Accum::F64, || linalg::matmul(&a, &b)),
    ));

    let batch = if smoke { 8 } else { 32 };
    let img = rng.uniform_tensor(&[batch, 3, 32, 32], -1.0, 1.0);
    let filt = rng.uniform_tensor(&[16, 3, 3, 3], -0.5, 0.5);
    let spec = ConvSpec { stride: 1, pad: 1 };
    // 2 · N · O · Ho · Wo · C · kh · kw multiply-adds.
    let conv_flops = 2 * (batch as u64) * 16 * 32 * 32 * 3 * 9;
    // `conv2d` is the fused implicit-GEMM path; `conv2d_im2col` is the
    // im2col oracle function, kept in the record so the fusion win stays
    // visible PR over PR.
    results.push(microbench::run(
        "conv2d",
        &format!("{batch}x3x32x32*16x3x3x3"),
        conv_flops,
        warmup,
        samples,
        || conv::conv2d(&img, &filt, spec),
    ));
    results.push(microbench::run(
        "conv2d_im2col",
        &format!("{batch}x3x32x32*16x3x3x3"),
        conv_flops,
        warmup,
        samples,
        || conv::conv2d_im2col(&img, &filt, spec),
    ));
    let gout = rng.uniform_tensor(&[batch, 16, 32, 32], -1.0, 1.0);
    // Data gradient + weight gradient are each a conv-sized contraction.
    results.push(microbench::run(
        "conv2d_backward",
        &format!("{batch}x3x32x32*16x3x3x3"),
        2 * conv_flops,
        warmup,
        samples,
        || conv::conv2d_backward(&gout, &img, &filt, spec),
    ));
    // The two backward halves separately, at LeNet's conv2 shape (batch 32,
    // 16→32 channels, 5×5 on 12×12) in smoke runs too: training pays the
    // weight half, attacks only the data half.
    let lenet_x = rng.uniform_tensor(&[32, 16, 12, 12], -1.0, 1.0);
    let lenet_w = rng.uniform_tensor(&[32, 16, 5, 5], -0.5, 0.5);
    let lenet_g = rng.uniform_tensor(&[32, 32, 8, 8], -1.0, 1.0);
    let lenet_spec = ConvSpec::default();
    let lenet_flops = 2 * 32 * 32 * 8 * 8 * 16 * 25;
    results.push(microbench::run(
        "conv2d_backward_weight",
        "32x16x12x12*32x16x5x5",
        lenet_flops,
        warmup,
        samples,
        || conv::conv2d_backward_weight(&lenet_g, &lenet_x, &lenet_w, lenet_spec),
    ));
    results.push(microbench::run(
        "conv2d_backward_data",
        "32x16x12x12*32x16x5x5",
        lenet_flops,
        warmup,
        samples,
        || conv::conv2d_backward_data(&lenet_g, &lenet_x, &lenet_w, lenet_spec),
    ));
    // The data half at LeNet's conv1 shape (1→16 channels, 5×5 on 28×28),
    // the input layer every attack step differentiates through.
    let c1_x = rng.uniform_tensor(&[32, 1, 28, 28], 0.0, 1.0);
    let c1_w = rng.uniform_tensor(&[16, 1, 5, 5], -0.5, 0.5);
    let c1_g = rng.uniform_tensor(&[32, 16, 24, 24], -1.0, 1.0);
    results.push(microbench::run(
        "conv2d_backward_data_c1",
        "32x1x28x28*16x1x5x5",
        2 * 32 * 16 * 24 * 24 * 25,
        warmup,
        samples,
        || conv::conv2d_backward_data(&c1_g, &c1_x, &c1_w, lenet_spec),
    ));
    results.push(microbench::run(
        "im2col",
        &format!("{batch}x3x32x32 k3s1p1"),
        0,
        warmup,
        samples,
        || conv::im2col(&img, 3, 3, spec),
    ));

    let big = if smoke { 1 << 20 } else { 1 << 22 };
    let x = rng.uniform_tensor(&[big], -1.0, 1.0);
    let y = rng.uniform_tensor(&[big], -1.0, 1.0);
    results.push(microbench::run(
        "elementwise_add",
        &format!("{big}"),
        big as u64,
        warmup,
        samples,
        || x.add(&y),
    ));
    results.push(microbench::run(
        "sum",
        &format!("{big}"),
        big as u64,
        warmup,
        samples,
        || x.sum(),
    ));
    // `sum` always accumulates in f64 over fixed windows (lane-parallel
    // by default, strictly sequential under GANDEF_ACCUM=f64); the axis
    // reduction has a genuine fast/oracle split — record both paths.
    let rows = big / 1024;
    let mat = rng.uniform_tensor(&[rows, 1024], -1.0, 1.0);
    results.push(microbench::run(
        "sum_axis",
        &format!("{rows}x1024 a0"),
        big as u64,
        warmup,
        samples,
        || mat.sum_axis(0),
    ));
    results.push(microbench::run(
        "sum_axis_f64acc",
        &format!("{rows}x1024 a0"),
        big as u64,
        warmup,
        samples,
        || with_accum(Accum::F64, || mat.sum_axis(0)),
    ));

    let stats = pool::stats();
    println!(
        "pool: {} threads, {} spawned, {} jobs completed",
        stats.threads, stats.threads_spawned, stats.jobs_completed
    );
    println!(
        "{:<24} {:<22} {:>14} {:>10}",
        "kernel", "shape", "ns/iter", "GFLOP/s"
    );
    for m in &results {
        println!(
            "{:<24} {:<22} {:>14.0} {:>10.2}",
            m.name, m.shape, m.ns_per_iter, m.gflops
        );
    }
    let packed = &results[0];
    let seed = &results[1];
    println!(
        "matmul speedup vs seed ikj kernel: {:.2}x",
        seed.ns_per_iter / packed.ns_per_iter
    );

    std::fs::write(&out_path, microbench::to_json(&results))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
