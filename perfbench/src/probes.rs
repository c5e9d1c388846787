//! Kernel and inference probes at the LeNet shapes the workloads run.
//!
//! FLOPs are computed from the shapes (2 per multiply-add; a convolution
//! backward computes both the weight and the input gradient, so twice the
//! forward), not counted by the kernels.

use std::collections::BTreeMap;

use gandef_nn::layer::Sequential;
use gandef_nn::Params;
use gandef_tensor::conv::{self, ConvSpec};
use gandef_tensor::linalg;
use gandef_tensor::rng::Prng;

use crate::stats::time_per_call;

/// LeNet's convolutions as `(name, in_ch, side, out_ch)`, all 5×5, stride 1.
const CONVS: [(&str, usize, usize, usize); 2] = [("conv1", 1, 28, 16), ("conv2", 16, 12, 32)];
/// LeNet's dense layers as `(name, in, out)`.
const DENSE: [(&str, usize, usize); 2] = [("fc1", 512, 128), ("fc2", 128, 10)];
const K: usize = 5;
const SAMPLE_MS: f64 = 8.0;

/// One timed kernel call: FLOPs and seconds.
struct Timed {
    flops: f64,
    secs: f64,
}

fn gflops(parts: &[Timed]) -> f64 {
    let flops: f64 = parts.iter().map(|t| t.flops).sum();
    let secs: f64 = parts.iter().map(|t| t.secs).sum();
    flops / secs / 1e9
}

/// Times `conv2d`, `conv2d_backward` and `matmul` at LeNet's layer shapes
/// at batch 32 and 1, prints one line per probe and returns the
/// `tensor.*` metrics.
pub fn kernels(metrics: &mut BTreeMap<&'static str, f64>) {
    let mut rng = Prng::new(0x9807);
    let spec = ConvSpec::default();
    let (mut fwd32, mut bwd32, mut fwd1, mut gemm32) = (vec![], vec![], vec![], vec![]);
    for batch in [32usize, 1] {
        for (name, c, side, o) in CONVS {
            let out = side - K + 1;
            let x = rng.uniform_tensor(&[batch, c, side, side], -1.0, 1.0);
            let w = rng.uniform_tensor(&[o, c, K, K], -0.2, 0.2);
            let g = rng.uniform_tensor(&[batch, o, out, out], -1.0, 1.0);
            let flops = 2.0 * (batch * o * out * out * c * K * K) as f64;
            let fwd = Timed {
                flops,
                secs: time_per_call(SAMPLE_MS, || {
                    std::hint::black_box(conv::conv2d(&x, &w, spec));
                }),
            };
            let bwd = Timed {
                flops: 2.0 * flops,
                secs: time_per_call(SAMPLE_MS, || {
                    std::hint::black_box(conv::conv2d_backward(&g, &x, &w, spec));
                }),
            };
            for (kind, t) in [("fwd", &fwd), ("bwd", &bwd)] {
                println!(
                    "probe conv2d_{kind} {name} b{batch} [{batch},{c},{side},{side}]*[{o},{c},{K},{K}]: \
                     {:.1} us, {:.2} GFLOP/s (FLOPs from shapes)",
                    t.secs * 1e6,
                    t.flops / t.secs / 1e9
                );
            }
            if batch == 32 {
                fwd32.push(fwd);
                bwd32.push(bwd);
            } else {
                fwd1.push(fwd);
            }
        }
        for (name, i, o) in DENSE {
            let a = rng.uniform_tensor(&[batch, i], -1.0, 1.0);
            let b = rng.uniform_tensor(&[i, o], -0.2, 0.2);
            let t = Timed {
                flops: 2.0 * (batch * i * o) as f64,
                secs: time_per_call(SAMPLE_MS, || {
                    std::hint::black_box(linalg::matmul(&a, &b));
                }),
            };
            println!(
                "probe matmul {name} b{batch} [{batch},{i}]x[{i},{o}]: {:.1} us, {:.2} GFLOP/s (FLOPs from shapes)",
                t.secs * 1e6,
                t.flops / t.secs / 1e9
            );
            if batch == 32 {
                gemm32.push(t);
            }
        }
    }
    metrics.insert("tensor.conv_fwd_gflops", gflops(&fwd32));
    metrics.insert("tensor.conv_bwd_gflops", gflops(&bwd32));
    metrics.insert("tensor.gemm_gflops", gflops(&gemm32));
    metrics.insert("tensor.conv_fwd_b1_gflops", gflops(&fwd1));
}

/// Microseconds per tape-free `Sequential::infer` call on a 28×28 batch.
pub fn infer_us(model: &Sequential, params: &Params, batch: usize) -> f64 {
    let x = Prng::new(0x1f).uniform_tensor(&[batch, 1, 28, 28], -1.0, 1.0);
    1e6 * time_per_call(SAMPLE_MS, || {
        std::hint::black_box(model.infer(params, x.clone()));
    })
}

/// Records `nn.infer_b1_us` and `nn.infer_b32_us` for `model`.
pub fn infer(model: &Sequential, params: &Params, metrics: &mut BTreeMap<&'static str, f64>) {
    let b1 = infer_us(model, params, 1);
    let b32 = infer_us(model, params, 32);
    println!(
        "probe infer b1: {b1:.1} us, b32: {b32:.1} us ({:.1} us/row)",
        b32 / 32.0
    );
    metrics.insert("nn.infer_b1_us", b1);
    metrics.insert("nn.infer_b32_us", b32);
}
