//! 2-D convolution and pooling kernels (NCHW layout), with explicit
//! backward passes.
//!
//! The default lowering is a **fused implicit GEMM**: input patches are
//! gathered directly into the GEMM microkernel's packed panels (see
//! [`crate::linalg`]'s `PackA` / `PackB` traits), one output-row run at a
//! time. The forward computes each example's output as
//! `W [O × C·kh·kw] × patches [C·kh·kw × Ho·Wo]`, with the patches as the
//! B operand, which lands directly in NCHW order: the `[C·kh·kw, Ho·Wo]`
//! column matrix never exists in memory, and there is no output transpose.
//! The weight gradient is the transposed GEMM `∂Wᵀ = cols · g` over all
//! `N·Ho·Wo` pixels. There the patches are the A operand, so only one
//! `MC × KC` block of the column matrix is ever packed, while the gradient
//! is packed whole as B. The data gradient is a direct transposed
//! convolution that writes `∂x` in place, with no `∂cols` matrix and no
//! scatter; it reproduces the GEMM-then-[`col2im`] order bit for bit.
//!
//! The fused path is the one production lowering. The classic
//! im2col-then-GEMM lowering survives only as plain oracle functions
//! ([`im2col`], [`conv2d_im2col`], [`conv2d_backward_im2col`]) that tests
//! and the numerics audit call by name: under [`crate::accum::Accum::F64`]
//! both lowerings compute the identical exactly-rounded `k`-ordered chain
//! per output element, so they agree bit-for-bit.

use crate::accum::{self, Accum};
use crate::linalg::{self, MatRef, PackA, PackB, MR, NR};
use crate::{pool, Shape, Tensor};

/// Geometry of a 2-D convolution: square stride and zero padding.
///
/// # Example
///
/// ```
/// use gandef_tensor::conv::ConvSpec;
///
/// let spec = ConvSpec { stride: 2, pad: 1 };
/// assert_eq!(spec.out_dim(32, 3), 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Step between adjacent filter applications, in pixels (≥ 1).
    pub stride: usize,
    /// Zero padding applied to every image border, in pixels.
    pub pad: usize,
}

impl Default for ConvSpec {
    fn default() -> Self {
        ConvSpec { stride: 1, pad: 0 }
    }
}

impl ConvSpec {
    /// Output spatial size for an input of size `in_dim` and a kernel of
    /// size `k`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (with padding) does not fit in the input.
    pub fn out_dim(&self, in_dim: usize, k: usize) -> usize {
        let padded = in_dim + 2 * self.pad;
        assert!(padded >= k, "kernel {k} larger than padded input {padded}");
        (padded - k) / self.stride + 1
    }
}

/// Per-call convolution geometry, shared by the packers, [`col2im`] and
/// the data gradient.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    stride: usize,
    pad: usize,
}

impl Geom {
    fn new(c: usize, h: usize, w: usize, kh: usize, kw: usize, spec: ConvSpec) -> Geom {
        Geom {
            c,
            h,
            w,
            kh,
            kw,
            ho: spec.out_dim(h, kh),
            wo: spec.out_dim(w, kw),
            stride: spec.stride,
            pad: spec.pad,
        }
    }

    /// Patch depth `C·kh·kw`.
    fn patch(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Output pixels per example, `Ho·Wo`.
    fn pixels(&self) -> usize {
        self.ho * self.wo
    }

    /// Decodes patch index `j` into its tap `(ch, ky, kx)`.
    fn tap(&self, j: usize) -> (usize, usize, usize) {
        let r = j % (self.kh * self.kw);
        (j / (self.kh * self.kw), r / self.kw, r % self.kw)
    }
}

/// Gathers patch element `tap = (ch, ky, kx)` of the `run` consecutive
/// output pixels `(oy, ox..ox + run)` of one example's `[C, H, W]` block
/// into `dst[t · step]`. The pixels share one output row, so they read one
/// input line at stride `g.stride`; the run is clipped to the image once
/// and the zero-padding positions are left untouched (callers zero `dst`
/// first). The forward's B panels call it with `step` 1, the weight
/// gradient's A panels with `step` `MR`; it is inlined so `step` is a
/// constant in each.
#[inline(always)]
fn gather_run(
    src: &[f32],
    g: Geom,
    (ch, ky, kx): (usize, usize, usize),
    (oy, ox): (usize, usize),
    run: usize,
    dst: &mut [f32],
    step: usize,
) {
    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
    if iy < 0 || iy as usize >= g.h {
        return;
    }
    let line = &src[(ch * g.h + iy as usize) * g.w..][..g.w];
    // Pixel t reads input column ix0 + t·stride; keep the t inside the
    // image. Stride 1, the common case, needs no division.
    let ix0 = (ox * g.stride + kx) as isize - g.pad as isize;
    let (before, inside) = ((-ix0).max(0) as usize, (g.w as isize - ix0).max(0) as usize);
    let (lo, hi) = if g.stride == 1 {
        (before, inside.min(run))
    } else {
        (
            before.div_ceil(g.stride),
            inside.div_ceil(g.stride).min(run),
        )
    };
    if lo >= hi {
        return;
    }
    let first = (ix0 + (lo * g.stride) as isize) as usize;
    if step == 1 && g.stride == 1 {
        dst[lo..hi].copy_from_slice(&line[first..first + (hi - lo)]);
    } else {
        let cols = line[first..].iter().step_by(g.stride);
        for (d, &v) in dst[lo * step..]
            .iter_mut()
            .step_by(step)
            .zip(cols)
            .take(hi - lo)
        {
            *d = v;
        }
    }
}

/// Implicit-GEMM B-panel source for the forward pass: `opB[j, p]` is patch
/// element `j = (ch, ky, kx)` of output pixel `p = (oy, ox)` of one
/// example, gathered straight from the NCHW input one output-row run at a
/// time by [`gather_run`].
struct PatchColsB<'a> {
    /// One example's `[C, H, W]` block.
    src: &'a [f32],
    g: Geom,
}

impl PackB for PatchColsB<'_> {
    fn pack_b_panel(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nr: usize) {
        let g = self.g;
        dst.fill(0.0);
        // The panel's pixels may span several output rows: split them into
        // one run per row once, as (first column, output pixel, length).
        let mut runs = [(0usize, (0usize, 0usize), 0usize); NR];
        let (mut n_runs, mut jj) = (0, 0);
        while jj < nr {
            let p = j0 + jj;
            let (oy, ox) = (p / g.wo, p % g.wo);
            let run = (nr - jj).min(g.wo - ox);
            runs[n_runs] = (jj, (oy, ox), run);
            n_runs += 1;
            jj += run;
        }
        // Rows walk the taps in order: decode the first, then step kx,
        // carrying into ky and ch.
        let (mut ch, mut ky, mut kx) = g.tap(k0);
        for kk in 0..kc {
            let row = &mut dst[kk * NR..(kk + 1) * NR];
            for &(jj, pixel, run) in &runs[..n_runs] {
                gather_run(self.src, g, (ch, ky, kx), pixel, run, &mut row[jj..], 1);
            }
            kx += 1;
            if kx == g.kw {
                kx = 0;
                ky += 1;
                if ky == g.kh {
                    ky = 0;
                    ch += 1;
                }
            }
        }
    }
}

/// Implicit-GEMM A-panel source for the weight gradient: the transposed
/// im2col matrix, `opA[j, pix]` = patch element `j` of global output pixel
/// `pix = (b, oy, ox)`, because `∂Wᵀ = cols · g` contracts over all
/// `N·Ho·Wo` pixels. Each row is gathered in output-row runs by
/// [`gather_run`], the forward's gather, at stride `MR`; only one
/// `MC × KC` block of the matrix exists at a time.
struct PatchRowsA<'a> {
    /// The full `[N, C, H, W]` input.
    src: &'a [f32],
    g: Geom,
}

impl PackA for PatchRowsA<'_> {
    fn pack_a_block(&self, pa: &mut [f32], row0: usize, mc: usize, k0: usize, kc: usize) {
        let g = self.g;
        let (pixels, image) = (g.pixels(), g.c * g.h * g.w);
        pa[..mc.div_ceil(MR) * kc * MR].fill(0.0);
        // Every row walks the same pixels k0..k0 + kc: runs end at output
        // row ends, so only the first pixel needs decoding.
        let (b0, p0) = (k0 / pixels, k0 % pixels);
        let (oy0, ox0) = (p0 / g.wo, p0 % g.wo);
        for i in 0..mc {
            let tap = g.tap(row0 + i);
            let lane = &mut pa[(i / MR) * kc * MR + i % MR..];
            let (mut b, mut oy, mut ox) = (b0, oy0, ox0);
            let mut kk = 0;
            while kk < kc {
                let run = (kc - kk).min(g.wo - ox);
                let example = &self.src[b * image..(b + 1) * image];
                gather_run(example, g, tap, (oy, ox), run, &mut lane[kk * MR..], MR);
                kk += run;
                ox = 0;
                oy += 1;
                if oy == g.ho {
                    oy = 0;
                    b += 1;
                }
            }
        }
    }
}

/// B-panel source for the weight gradient: `opB[pix, o] = grad_out[b, o,
/// oy, ox]`, the NCHW gradient read as a `[N·Ho·Wo, O]` matrix in
/// example-contiguous pixel runs, so the transpose never materializes.
struct GradPixelsB<'a> {
    /// The full `[N, O, Ho, Wo]` upstream gradient.
    grad: &'a [f32],
    o: usize,
    /// `Ho·Wo`.
    pixels: usize,
}

impl PackB for GradPixelsB<'_> {
    fn pack_b_panel(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nr: usize) {
        if nr < NR {
            dst.fill(0.0);
        }
        for jj in 0..nr {
            let och = j0 + jj;
            let (mut b, mut p) = (k0 / self.pixels, k0 % self.pixels);
            let mut kk = 0;
            while kk < kc {
                let run = (kc - kk).min(self.pixels - p);
                let src = &self.grad[(b * self.o + och) * self.pixels + p..][..run];
                for (d, &v) in dst[kk * NR + jj..].iter_mut().step_by(NR).zip(src) {
                    *d = v;
                }
                kk += run;
                p += run;
                if p == self.pixels {
                    p = 0;
                    b += 1;
                }
            }
        }
    }
}

/// Unrolls convolution patches of `input` (`[N, C, H, W]`) into a column
/// matrix `[N·Ho·Wo, C·kh·kw]`.
///
/// # Panics
///
/// Panics unless `input` is rank 4 and the geometry is valid.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, spec: ConvSpec) -> Tensor {
    assert_eq!(input.rank(), 4, "im2col expects [N, C, H, W]");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let ho = spec.out_dim(h, kh);
    let wo = spec.out_dim(w, kw);
    let cols_w = c * kh * kw;
    let mut out = vec![0.0f32; n * ho * wo * cols_w];
    let src = input.as_slice();
    // Each example's patch rows form a contiguous block of the column
    // matrix, so the unrolling parallelizes cleanly over the batch.
    pool::parallel_for_mut(&mut out, ho * wo * cols_w, 1, |b0, chunk| {
        for (bi, block) in chunk.chunks_mut(ho * wo * cols_w).enumerate() {
            let b = b0 + bi;
            for oy in 0..ho {
                for ox in 0..wo {
                    let row = (oy * wo + ox) * cols_w;
                    let iy0 = (oy * spec.stride) as isize - spec.pad as isize;
                    let ix0 = (ox * spec.stride) as isize - spec.pad as isize;
                    for ch in 0..c {
                        let chan = (b * c + ch) * h * w;
                        for ky in 0..kh {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= h as isize {
                                continue; // zero padding: leave zeros
                            }
                            let line = chan + iy as usize * w;
                            let dst = row + (ch * kh + ky) * kw;
                            for kx in 0..kw {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                block[dst + kx] = src[line + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(vec![n * ho * wo, cols_w], out)
}

/// The adjoint of [`im2col`]: scatters a column-matrix gradient
/// (`[N·Ho·Wo, C·kh·kw]`) back into an input-shaped gradient
/// (`[N, C, H, W]`), accumulating where patches overlap.
///
/// # Panics
///
/// Panics if the column matrix does not match the stated geometry.
pub fn col2im(cols: &Tensor, input_dims: &[usize], kh: usize, kw: usize, spec: ConvSpec) -> Tensor {
    assert_eq!(input_dims.len(), 4, "col2im: input_dims must be [N,C,H,W]");
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let g = Geom::new(c, h, w, kh, kw, spec);
    let cols_w = g.patch();
    assert_eq!(
        cols.shape().dims(),
        &[n * g.pixels(), cols_w],
        "col2im: column matrix shape mismatch"
    );
    let src = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    // The scatter for example `b` only ever touches `b`'s own [C, H, W]
    // block, so batches accumulate independently in parallel; within one
    // example the patch order is fixed, keeping the sums deterministic.
    // That order — output pixels in raster order, so for each input
    // element its taps with `ky` and then `kx` descending — is the one
    // [`conv2d_backward_data`] reproduces bit for bit.
    pool::parallel_for_mut(&mut out, c * h * w, 1, |b0, chunk| {
        for (bi, block) in chunk.chunks_mut(c * h * w).enumerate() {
            let b = b0 + bi;
            let rows = &src[b * g.pixels() * cols_w..(b + 1) * g.pixels() * cols_w];
            for oy in 0..g.ho {
                for ox in 0..g.wo {
                    let row = (oy * g.wo + ox) * cols_w;
                    let iy0 = (oy * g.stride) as isize - g.pad as isize;
                    let ix0 = (ox * g.stride) as isize - g.pad as isize;
                    for ch in 0..g.c {
                        let chan = ch * g.h * g.w;
                        for ky in 0..g.kh {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= g.h as isize {
                                continue;
                            }
                            let line = chan + iy as usize * g.w;
                            let srow = row + (ch * g.kh + ky) * g.kw;
                            for kx in 0..g.kw {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= g.w as isize {
                                    continue;
                                }
                                block[line + ix as usize] += rows[srow + kx];
                            }
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(input_dims.to_vec(), out)
}

/// Forward 2-D convolution: `input [N, C, H, W]` with filters
/// `weight [O, C, kh, kw]` producing `[N, O, Ho, Wo]`.
///
/// Fused implicit GEMM: one `[O, C·kh·kw] × [C·kh·kw, Ho·Wo]` GEMM per
/// example, with the patch operand gathered on the fly by [`PatchColsB`].
/// The per-example output block is `[O, Ho, Wo]` row-major — already
/// NCHW — so there is no transpose either. Under
/// [`crate::accum::Accum::F64`] it is bit-identical to [`conv2d_im2col`].
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d input must be [N, C, H, W]");
    assert_eq!(weight.rank(), 4, "conv2d weight must be [O, C, kh, kw]");
    assert_eq!(
        input.dim(1),
        weight.dim(1),
        "conv2d channel mismatch: input {} vs weight {}",
        input.shape(),
        weight.shape()
    );
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (o, kh, kw) = (weight.dim(0), weight.dim(2), weight.dim(3));
    let g = Geom::new(c, h, w, kh, kw, spec);
    let (pixels, patch) = (g.pixels(), g.patch());
    // Sampled once on the calling thread so scoped accum overrides apply
    // inside the per-example pool jobs.
    let mode = accum::accum();
    let src = input.as_slice();
    let w_mat = MatRef {
        data: weight.as_slice(),
        rs: patch,
        cs: 1,
    };
    let mut out = vec![0.0f32; n * o * pixels];
    // Examples are independent, so the batch loop threads through the
    // pool; the nested GEMM fan-out runs inline inside each job.
    pool::parallel_for_mut(&mut out, o * pixels, 1, |b0, chunk| {
        for (bi, block) in chunk.chunks_mut(o * pixels).enumerate() {
            let b = b0 + bi;
            let patches = PatchColsB {
                src: &src[b * c * h * w..(b + 1) * c * h * w],
                g,
            };
            linalg::gemm_panels(mode, o, patch, pixels, &w_mat, &patches, block);
        }
    });
    Tensor::from_vec(vec![n, o, g.ho, g.wo], out)
}

/// Reference im2col-then-GEMM forward pass (the pre-fusion lowering, and
/// the equality oracle for the fused path). Returns the output together
/// with the im2col matrix, which [`conv2d_backward_im2col`] reuses.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d_im2col(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> (Tensor, Tensor) {
    assert_eq!(input.rank(), 4, "conv2d input must be [N, C, H, W]");
    assert_eq!(weight.rank(), 4, "conv2d weight must be [O, C, kh, kw]");
    assert_eq!(
        input.dim(1),
        weight.dim(1),
        "conv2d channel mismatch: input {} vs weight {}",
        input.shape(),
        weight.shape()
    );
    let (n, _c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (o, kh, kw) = (weight.dim(0), weight.dim(2), weight.dim(3));
    let ho = spec.out_dim(h, kh);
    let wo = spec.out_dim(w, kw);
    let cols = im2col(input, kh, kw, spec);
    let w_mat = weight.reshape(&[o, weight.numel() / o]);
    // [N·Ho·Wo, O] = cols × w_matᵀ
    let out_mat = linalg::matmul_nt(&cols, &w_mat);
    let out = nhwc_rows_to_nchw(&out_mat, n, o, ho, wo);
    (out, cols)
}

/// Backward 2-D convolution. Given the upstream gradient
/// `grad_out [N, O, Ho, Wo]`, the forward `input` and the filter bank,
/// returns `(grad_input, grad_weight)`: the results of
/// [`conv2d_backward_data`] and [`conv2d_backward_weight`], which a caller
/// that needs only one of the two calls directly.
///
/// Neither half materializes the whole column matrix or its gradient: the
/// data half is a direct transposed convolution that never forms `∂cols`,
/// and the weight half packs the patches one `MC × KC` block at a time.
/// Under [`crate::accum::Accum::F64`] the pair is bit-identical to
/// [`conv2d_backward_im2col`].
///
/// # Panics
///
/// Panics on geometry mismatches.
pub fn conv2d_backward(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Tensor) {
    (
        conv2d_backward_data(grad_out, input, weight, spec),
        conv2d_backward_weight(grad_out, input, weight, spec),
    )
}

/// The data half of [`conv2d_backward`]: `∂x [N, C, H, W]` alone.
///
/// A direct transposed convolution that writes each example's `[C, H, W]`
/// gradient block in place: no `∂cols` matrix and no col2im scatter.
/// Every tap value (the contraction `Σₒ g[o, oy, ox] · W[o, ch, ky, kx]`
/// of one output pixel with one filter tap) is computed as the packed
/// GEMM microkernel would compute `∂cols = g × W`, and each `∂x` element
/// sums its taps in [`col2im`]'s order, so the result equals that
/// GEMM-then-col2im lowering bit for bit in every accumulation and FMA
/// mode. Examples parallelize like [`col2im`], one task
/// per example range with a fixed within-example order, so the result
/// does not depend on the pool size.
///
/// # Panics
///
/// Panics on geometry mismatches.
pub fn conv2d_backward_data(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
) -> Tensor {
    let g = backward_geom(grad_out, input, weight, spec);
    let (n, o) = (input.dim(0), weight.dim(0));
    let mode = accum::accum();
    let pixels = g.pixels();
    let gdat = grad_out.as_slice();
    let plane = g.c * g.h * g.w;
    let mut out = vec![0.0f32; n * plane];
    pool::parallel_for_mut(&mut out, plane, 1, |b0, chunk| {
        // Per-task tap rows of one (channel, ky) pass, reused across the
        // examples this task owns; their zero margins are never written.
        let mut taps = vec![0.0f32; g.ho * g.kw * tap_row_len(g)];
        for (bi, block) in chunk.chunks_mut(plane).enumerate() {
            let b = b0 + bi;
            let job = TapJob {
                // `backward_geom` asserted `grad_out` is `[N, O, Ho, Wo]`,
                // so each example's block is in bounds.
                grad: &gdat[b * o * pixels..(b + 1) * o * pixels],
                weight: weight.as_slice(),
                o,
                g,
            };
            transposed_conv(mode, &job, &mut taps, block);
        }
    });
    Tensor::from_vec(vec![n, g.c, g.h, g.w], out)
}

/// Lanes of one tap vector: eight adjacent output pixels of one row.
const LANES: usize = 8;

/// One example's data-gradient operands.
struct TapJob<'a> {
    /// The example's `[O, Ho, Wo]` upstream gradient.
    grad: &'a [f32],
    /// The whole `[O, C, kh, kw]` filter bank.
    weight: &'a [f32],
    o: usize,
    g: Geom,
}

/// Length of one tap row in the scratch: the `Wo` tap values of one
/// (output row, `kx`) pair between zero margins wide enough that every
/// lane [`add_taps`] reads lands inside the row — a lane whose output
/// column falls outside `0..Wo` reads `+0`.
fn tap_row_len(g: Geom) -> usize {
    2 * g.kw + g.wo + LANES
}

/// One tap's `O`-chain, `LANES` output pixels wide, in one accumulation
/// mode. Each mode is the packed GEMM microkernel's per-element chain:
/// a fresh accumulator from `+0`, one `step` per output channel in order,
/// flushed into the `f32` tap value by `tap += acc` after every `BLOCK`
/// channels, starting from `tap = +0`.
trait Chain {
    type Acc: Copy;
    /// Channels per flush: the microkernel's `KC` depth block in `f32`;
    /// the `f64` chain is rounded once, at the end.
    const BLOCK: usize;
    fn zero() -> Self::Acc;
    /// `acc += g · w`, lane by lane.
    fn step(acc: &mut Self::Acc, g: &[f32; LANES], w: f32);
    /// Adds the chain into `tap` (or starts it when `first`), lane by lane.
    fn flush(acc: &Self::Acc, tap: &mut [f32; LANES], first: bool);
}

/// `f32` with fused multiply-add, as the AVX2+FMA microkernel.
#[cfg(target_arch = "x86_64")]
struct Fused;
/// `f32` with a rounded multiply and a rounded add, as the portable
/// microkernel (`GANDEF_NO_FMA=1`, or no FMA on the CPU).
struct Unfused;
/// The `f64` chain of [`crate::accum::Accum::F64`]: exact products,
/// rounded to `f32` once.
struct Wide;

#[cfg(target_arch = "x86_64")]
impl Chain for Fused {
    type Acc = [f32; LANES];
    const BLOCK: usize = linalg::KC;
    #[inline(always)]
    fn zero() -> Self::Acc {
        [0.0; LANES]
    }
    #[inline(always)]
    fn step(acc: &mut Self::Acc, g: &[f32; LANES], w: f32) {
        for (a, &x) in acc.iter_mut().zip(g) {
            *a = x.mul_add(w, *a);
        }
    }
    #[inline(always)]
    fn flush(acc: &Self::Acc, tap: &mut [f32; LANES], first: bool) {
        flush_f32(acc, tap, first);
    }
}

impl Chain for Unfused {
    type Acc = [f32; LANES];
    const BLOCK: usize = linalg::KC;
    #[inline(always)]
    fn zero() -> Self::Acc {
        [0.0; LANES]
    }
    #[inline(always)]
    fn step(acc: &mut Self::Acc, g: &[f32; LANES], w: f32) {
        for (a, &x) in acc.iter_mut().zip(g) {
            *a += x * w;
        }
    }
    #[inline(always)]
    fn flush(acc: &Self::Acc, tap: &mut [f32; LANES], first: bool) {
        flush_f32(acc, tap, first);
    }
}

impl Chain for Wide {
    type Acc = [f64; LANES];
    const BLOCK: usize = usize::MAX;
    #[inline(always)]
    fn zero() -> Self::Acc {
        [0.0; LANES]
    }
    #[inline(always)]
    fn step(acc: &mut Self::Acc, g: &[f32; LANES], w: f32) {
        let w = w as f64;
        for (a, &x) in acc.iter_mut().zip(g) {
            *a += x as f64 * w;
        }
    }
    #[inline(always)]
    fn flush(acc: &Self::Acc, tap: &mut [f32; LANES], _first: bool) {
        for (t, &a) in tap.iter_mut().zip(acc) {
            // The f64 mode rounds each tap's chain to f32 exactly once,
            // here, as the f64 GEMM rounds its output.
            *t = a as f32;
        }
    }
}

/// The `f32` flush: the microkernel's `C += tile` into a zeroed `C`.
#[inline(always)]
fn flush_f32(acc: &[f32; LANES], tap: &mut [f32; LANES], first: bool) {
    if first {
        for (t, &a) in tap.iter_mut().zip(acc) {
            *t = 0.0 + a;
        }
    } else {
        for (t, &a) in tap.iter_mut().zip(acc) {
            *t += a;
        }
    }
}

/// Dispatches one example to the chain the GEMM microkernel would use:
/// the AVX2+FMA build when [`linalg::fma_available`] (which also runs the
/// `f64` chain, exactly as the `f64` microkernel gates its AVX2 path),
/// the portable build otherwise.
fn transposed_conv(mode: Accum, job: &TapJob<'_>, taps: &mut [f32], block: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if linalg::fma_available() {
        // SAFETY: `fma_available` verified avx2+fma support at runtime.
        unsafe {
            match mode {
                Accum::F32 => transposed_conv_avx2::<Fused>(job, taps, block),
                Accum::F64 => transposed_conv_avx2::<Wide>(job, taps, block),
            }
        }
        return;
    }
    match mode {
        Accum::F32 => transposed_conv_body::<Unfused>(job, taps, block),
        Accum::F64 => transposed_conv_body::<Wide>(job, taps, block),
    }
}

/// [`transposed_conv_body`] compiled for AVX2+FMA. Rust never contracts a
/// multiply and an add on its own, so the [`Unfused`] and [`Wide`] chains
/// keep their rounding here; only [`Fused`]'s explicit `mul_add` fuses.
///
/// # Safety
///
/// The caller must have verified AVX2+FMA support at runtime (see
/// [`linalg::fma_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn transposed_conv_avx2<L: Chain>(job: &TapJob<'_>, taps: &mut [f32], block: &mut [f32]) {
    transposed_conv_body::<L>(job, taps, block);
}

/// One example's `∂x`, in two passes per (input channel, `ky`), with `ky`
/// descending:
/// 1. [`chain_taps`] computes the tap values of every output row whose
///    tap `ky` lands inside the image, for every `kx`: `Ho'·kw·Wo` chains,
///    each useful, `LANES` output pixels at a time.
/// 2. [`add_taps`] adds them into the input rows they reach, each element
///    taking its taps with `kx` descending.
///
/// Per element that is col2im's order: its taps come from output pixels
/// in raster order, so `ky` and then `kx` descend. Out-of-range taps are
/// never formed, so a non-finite weight poisons exactly the elements
/// col2im's scatter would.
#[inline(always)]
fn transposed_conv_body<L: Chain>(job: &TapJob<'_>, taps: &mut [f32], block: &mut [f32]) {
    let g = job.g;
    let trow = tap_row_len(g);
    for (ch, chan) in block.chunks_exact_mut(g.h * g.w).enumerate() {
        for ky in (0..g.kh).rev() {
            // Output rows oy with iy = oy·stride + ky − pad inside 0..H.
            let oy0 = g.pad.saturating_sub(ky).div_ceil(g.stride);
            let oy1 = (g.h + g.pad)
                .saturating_sub(ky)
                .div_ceil(g.stride)
                .min(g.ho);
            if oy0 >= oy1 {
                continue;
            }
            chain_taps::<L>(job, (ch, ky), (oy0, oy1), taps);
            for oy in oy0..oy1 {
                let iy = oy * g.stride + ky - g.pad;
                let rows = &taps[(oy - oy0) * g.kw * trow..][..g.kw * trow];
                add_taps(&mut chan[iy * g.w..(iy + 1) * g.w], rows, g);
            }
        }
    }
}

/// Pass 1: writes the tap values of channel `ch`, row `ky`, output rows
/// `oy0..oy1` and every `kx` into `taps` (`[oy − oy0][kx]` rows of
/// [`tap_row_len`], values at offset `kw`). Taps go `K` ≤ 5 at a time and
/// full lane vectors `R` at a time, so each `g` vector load feeds `K`
/// chains and each weight `R`; `R·K` ≤ 12 accumulators, the `K` weights
/// and one `g` vector about fill the sixteen AVX2 registers.
#[inline(always)]
fn chain_taps<L: Chain>(
    job: &TapJob<'_>,
    tap: (usize, usize),
    oys: (usize, usize),
    taps: &mut [f32],
) {
    let kw = job.g.kw;
    let mut kx0 = 0;
    while kx0 < kw {
        let k = (kw - kx0).min(5);
        let at = (tap.0, tap.1, kx0);
        match k {
            1 => chain_rows::<L, 8, 1>(job, at, oys, taps),
            2 => chain_rows::<L, 6, 2>(job, at, oys, taps),
            3 => chain_rows::<L, 4, 3>(job, at, oys, taps),
            4 => chain_rows::<L, 3, 4>(job, at, oys, taps),
            _ => chain_rows::<L, 2, 5>(job, at, oys, taps),
        }
        kx0 += k;
    }
}

/// Taps `kx0..kx0 + K` of pass 1 over output rows `oy0..oy1`: full lane
/// vectors in tiles of `R`, the rest one at a time, and a row's last
/// `Wo mod LANES` pixels as a partial vector.
#[inline(always)]
fn chain_rows<L: Chain, const R: usize, const K: usize>(
    job: &TapJob<'_>,
    (ch, ky, kx0): (usize, usize, usize),
    (oy0, oy1): (usize, usize),
    taps: &mut [f32],
) {
    let g = job.g;
    let trow = tap_row_len(g);
    let weight = &job.weight[(ch * g.kh + ky) * g.kw + kx0..];
    let full = g.wo / LANES * LANES;
    // A vector's (gradient offset in one channel's plane, tap-row offset).
    let at = |row: usize, ox: usize| {
        (
            (oy0 + row) * g.wo + ox,
            (row * g.kw + kx0) * trow + g.kw + ox,
        )
    };
    let mut tile = [(0, 0); R];
    let mut filled = 0;
    for row in 0..oy1 - oy0 {
        for ox in (0..full).step_by(LANES) {
            tile[filled] = at(row, ox);
            filled += 1;
            if filled == R {
                chain_tile::<L, R, K, false>(job, weight, tile, LANES, taps);
                filled = 0;
            }
        }
    }
    for &vector in &tile[..filled] {
        chain_tile::<L, 1, K, false>(job, weight, [vector], LANES, taps);
    }
    if full < g.wo {
        for row in 0..oy1 - oy0 {
            let vector = [at(row, full)];
            chain_tile::<L, 1, K, true>(job, weight, vector, g.wo - full, taps);
        }
    }
}

/// `R` lane vectors × `K` taps of pass 1: each chain runs over all `O`
/// output channels, flushed every [`Chain::BLOCK`]. `tile[r]` is vector
/// `r`'s (gradient offset, tap-row offset); only its first `n` lanes are
/// loaded and stored (`n < LANES` only when `PARTIAL`).
#[inline(always)]
fn chain_tile<L: Chain, const R: usize, const K: usize, const PARTIAL: bool>(
    job: &TapJob<'_>,
    weight: &[f32],
    tile: [(usize, usize); R],
    n: usize,
    taps: &mut [f32],
) {
    let (g, o, pixels, patch) = (job.g, job.o, job.g.pixels(), job.g.patch());
    let trow = tap_row_len(g);
    // Every read below stays inside the operands: lanes px..px + width of
    // each gradient plane, taps kx0..kx0 + K of each weight row.
    let width = if PARTIAL { n } else { LANES };
    assert!(job.grad.len() >= o * pixels && weight.len() >= o.saturating_sub(1) * patch + K);
    assert!(tile.iter().all(|&(px, _)| px + width <= pixels));
    debug_assert!(n == LANES || PARTIAL);
    let (gp, wp) = (job.grad.as_ptr(), weight.as_ptr());
    let mut o0 = 0;
    while o0 < o {
        let o1 = o.saturating_sub(o0).min(L::BLOCK) + o0;
        let mut acc = [[L::zero(); K]; R];
        for oi in o0..o1 {
            // SAFETY: oi < o, so the asserts above put taps kx0..kx0 + K of
            // weight row oi in bounds.
            let wv = unsafe { wp.add(oi * patch).cast::<[f32; K]>().read_unaligned() };
            for (acc_r, &(px, _)) in acc.iter_mut().zip(&tile) {
                let gv: [f32; LANES] = if PARTIAL {
                    let mut v = [0.0f32; LANES];
                    v[..n].copy_from_slice(&job.grad[oi * pixels + px..][..n]);
                    v
                } else {
                    // SAFETY: oi < o and width = LANES, so the asserts above
                    // put lanes px..px + LANES of gradient plane oi in bounds.
                    unsafe {
                        gp.add(oi * pixels + px)
                            .cast::<[f32; LANES]>()
                            .read_unaligned()
                    }
                };
                for (a, &w) in acc_r.iter_mut().zip(&wv) {
                    L::step(a, &gv, w);
                }
            }
        }
        for (acc_r, &(_, dst)) in acc.iter().zip(&tile) {
            for (k, a) in acc_r.iter().enumerate() {
                let row = &mut taps[dst + k * trow..];
                if PARTIAL {
                    let mut t = [0.0f32; LANES];
                    t[..n].copy_from_slice(&row[..n]);
                    L::flush(a, &mut t, o0 == 0);
                    row[..n].copy_from_slice(&t[..n]);
                } else {
                    L::flush(a, first_n_mut(row), o0 == 0);
                }
            }
        }
        o0 = o1;
    }
}

/// The first `N` elements of `s` as an array reference.
///
/// # Panics
///
/// Panics if `s` is shorter than `N`.
#[inline(always)]
fn first_n<const N: usize>(s: &[f32]) -> &[f32; N] {
    match s[..N].try_into() {
        Ok(a) => a,
        Err(_) => unreachable!("a slice of length N converts"),
    }
}

/// The first `N` elements of `s` as a mutable array reference.
///
/// # Panics
///
/// Panics if `s` is shorter than `N`.
#[inline(always)]
fn first_n_mut<const N: usize>(s: &mut [f32]) -> &mut [f32; N] {
    match (&mut s[..N]).try_into() {
        Ok(a) => a,
        Err(_) => unreachable!("a slice of length N converts"),
    }
}

/// Pass 2: adds one output row's tap values (`rows`, its `kw` tap rows)
/// into the input row `line` they reach. Input column `ix` takes tap `kx`
/// from output column `ox = (ix + pad − kx) / stride` when that divides
/// exactly, so the columns split into `stride` classes by `ix mod stride`:
/// within a class, `LANES` consecutive columns read `LANES` consecutive
/// tap values of each `kx` that serves the class. Lanes whose `ox` falls
/// outside `0..Wo` read the rows' `+0` margins, which leave an element
/// unchanged: an element starts at `+0` and a sum is never `−0`, so adding
/// `+0` is exact.
#[inline(always)]
fn add_taps(line: &mut [f32], rows: &[f32], g: Geom) {
    let (s, trow) = (g.stride, tap_row_len(g));
    for class in 0..s.min(g.w) {
        let lanes = (g.w - class).div_ceil(s);
        // The taps serving the class are kx ≡ class + pad (mod stride);
        // the j-th of them, kx = kx0 + j·stride, reads output columns from
        // (class + pad − kx) / stride = base − j on.
        let (base, kx0) = ((class + g.pad) / s, (class + g.pad) % s);
        for l0 in (0..lanes).step_by(LANES) {
            let n = (lanes - l0).min(LANES);
            let first = class + l0 * s;
            let contiguous = s == 1 && n == LANES;
            let mut acc = [0.0f32; LANES];
            if contiguous {
                acc = *first_n(&line[first..]);
            } else {
                for (a, &v) in acc.iter_mut().zip(line[first..].iter().step_by(s)).take(n) {
                    *a = v;
                }
            }
            for (j, kx) in (kx0..g.kw).step_by(s).enumerate().rev() {
                let tv: &[f32; LANES] = first_n(&rows[kx * trow + g.kw + base - j + l0..]);
                for (a, &t) in acc.iter_mut().zip(tv) {
                    *a += t;
                }
            }
            if contiguous {
                line[first..first + LANES].copy_from_slice(&acc);
            } else {
                for (d, &a) in line[first..].iter_mut().step_by(s).zip(&acc).take(n) {
                    *d = a;
                }
            }
        }
    }
}

/// The weight half of [`conv2d_backward`]: `∂W [O, C, kh, kw]` alone.
///
/// One transposed implicit GEMM `∂Wᵀ [C·kh·kw × O] = cols [C·kh·kw ×
/// N·Ho·Wo] · g [N·Ho·Wo × O]`, contracted over all output pixels, with
/// the patches gathered as the A operand by [`PatchRowsA`] and the
/// gradient as the packed B operand by [`GradPixelsB`]; the small result
/// is then transposed into `[O, C, kh, kw]`. Only the gradient is packed
/// whole (`N·Ho·Wo × ⌈O⌉₁₆` floats); the patch matrix exists one
/// `MC × KC` block at a time. Each element's chain runs in global pixel
/// order across `KC` blocks, exactly the order `matmul_tn` uses on the
/// materialized matrices, and a product is the same whichever operand it
/// comes from, so the result is bit-identical to the im2col oracle under
/// [`crate::accum::Accum::F64`].
///
/// # Panics
///
/// Panics on geometry mismatches.
pub fn conv2d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
) -> Tensor {
    let g = backward_geom(grad_out, input, weight, spec);
    let (n, o) = (input.dim(0), weight.dim(0));
    let (pixels, patch) = (g.pixels(), g.patch());
    let a = PatchRowsA {
        src: input.as_slice(),
        g,
    };
    let b = GradPixelsB {
        grad: grad_out.as_slice(),
        o,
        pixels,
    };
    let mut grad_wt = vec![0.0f32; patch * o];
    let mode = accum::accum();
    linalg::gemm_panels(mode, patch, n * pixels, o, &a, &b, &mut grad_wt);
    // ∂Wᵀ [C·kh·kw × O] → ∂W [O, C·kh·kw]: output channel `och` is column
    // `och` of the GEMM result.
    let mut out = vec![0.0f32; o * patch];
    for (och, dst) in out.chunks_exact_mut(patch).enumerate() {
        for (d, &v) in dst.iter_mut().zip(grad_wt.iter().skip(och).step_by(o)) {
            *d = v;
        }
    }
    Tensor::from_vec(vec![o, g.c, g.kh, g.kw], out)
}

/// Checks the backward operands against each other and returns their
/// geometry.
fn backward_geom(grad_out: &Tensor, input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Geom {
    assert_eq!(
        input.rank(),
        4,
        "conv2d_backward input must be [N, C, H, W]"
    );
    assert_eq!(
        weight.rank(),
        4,
        "conv2d_backward weight must be [O, C, kh, kw]"
    );
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (o, kh, kw) = (weight.dim(0), weight.dim(2), weight.dim(3));
    assert_eq!(
        c,
        weight.dim(1),
        "conv2d_backward channel mismatch: input {} vs weight {}",
        input.shape(),
        weight.shape()
    );
    let g = Geom::new(c, h, w, kh, kw, spec);
    assert_eq!(
        grad_out.shape().dims(),
        &[n, o, g.ho, g.wo],
        "conv2d_backward gradient shape mismatch"
    );
    g
}

/// Reference im2col backward pass: given the saved `cols` from
/// [`conv2d_im2col`], computes `∂W = gᵀ·cols` and scatters
/// `∂cols = g·W` back through [`col2im`]. The equality oracle for
/// [`conv2d_backward_data`] and [`conv2d_backward_weight`].
///
/// # Panics
///
/// Panics on geometry mismatches.
pub fn conv2d_backward_im2col(
    grad_out: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: ConvSpec,
) -> (Tensor, Tensor) {
    let (n, o, ho, wo) = (
        grad_out.dim(0),
        grad_out.dim(1),
        grad_out.dim(2),
        grad_out.dim(3),
    );
    let (kh, kw) = (weight.dim(2), weight.dim(3));
    let g_mat = nchw_to_nhwc_rows(grad_out); // [N·Ho·Wo, O]
    debug_assert_eq!(g_mat.dim(0), n * ho * wo);
    let w_mat = weight.reshape(&[o, weight.numel() / o]);
    // ∂W = g_matᵀ × cols  → [O, C·kh·kw]
    let grad_w = linalg::matmul_tn(&g_mat, cols).reshape(weight.shape().dims());
    // ∂cols = g_mat × w_mat → [N·Ho·Wo, C·kh·kw]
    let grad_cols = linalg::matmul(&g_mat, &w_mat);
    let grad_input = col2im(&grad_cols, input_dims, kh, kw, spec);
    (grad_input, grad_w)
}

/// Reinterprets a `[N·Ho·Wo, O]` row matrix as an `[N, O, Ho, Wo]` tensor.
fn nhwc_rows_to_nchw(mat: &Tensor, n: usize, o: usize, ho: usize, wo: usize) -> Tensor {
    let src = mat.as_slice();
    let mut out = vec![0.0f32; n * o * ho * wo];
    for b in 0..n {
        for y in 0..ho {
            for x in 0..wo {
                let row = ((b * ho + y) * wo + x) * o;
                for ch in 0..o {
                    out[((b * o + ch) * ho + y) * wo + x] = src[row + ch];
                }
            }
        }
    }
    Tensor::from_vec(vec![n, o, ho, wo], out)
}

/// Reinterprets an `[N, O, Ho, Wo]` tensor as a `[N·Ho·Wo, O]` row matrix.
fn nchw_to_nhwc_rows(t: &Tensor) -> Tensor {
    let (n, o, ho, wo) = (t.dim(0), t.dim(1), t.dim(2), t.dim(3));
    let src = t.as_slice();
    let mut out = vec![0.0f32; n * o * ho * wo];
    for b in 0..n {
        for ch in 0..o {
            for y in 0..ho {
                for x in 0..wo {
                    out[((b * ho + y) * wo + x) * o + ch] = src[((b * o + ch) * ho + y) * wo + x];
                }
            }
        }
    }
    Tensor::from_vec(vec![n * ho * wo, o], out)
}

/// Forward max pooling with a square `k × k` window and stride `k`
/// (non-overlapping). Returns the pooled tensor and, per output element,
/// the flat index of the winning input element (for the backward pass).
///
/// Trailing rows/columns that do not fill a window are dropped, matching
/// common framework defaults.
///
/// # Panics
///
/// Panics unless `input` is rank 4 and `k ≥ 1` fits in the image.
pub fn maxpool2d(input: &Tensor, k: usize) -> (Tensor, Vec<usize>) {
    assert_eq!(input.rank(), 4, "maxpool2d expects [N, C, H, W]");
    assert!(k >= 1, "pool window must be >= 1");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (ho, wo) = (h / k, w / k);
    assert!(
        ho >= 1 && wo >= 1,
        "pool window {k} larger than image {h}x{w}"
    );
    let src = input.as_slice();
    let mut out = vec![0.0f32; n * c * ho * wo];
    let mut idx = vec![0usize; n * c * ho * wo];
    for b in 0..n {
        for ch in 0..c {
            let chan = (b * c + ch) * h * w;
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for ky in 0..k {
                        for kx in 0..k {
                            let i = chan + (oy * k + ky) * w + (ox * k + kx);
                            if src[i] > best {
                                best = src[i];
                                best_i = i;
                            }
                        }
                    }
                    let o = ((b * c + ch) * ho + oy) * wo + ox;
                    out[o] = best;
                    idx[o] = best_i;
                }
            }
        }
    }
    (Tensor::from_vec(vec![n, c, ho, wo], out), idx)
}

/// Backward max pooling: routes each upstream gradient element to the input
/// position recorded in `indices` by [`maxpool2d`].
///
/// # Panics
///
/// Panics if `grad_out` does not have `indices.len()` elements.
pub fn maxpool2d_backward(grad_out: &Tensor, indices: &[usize], input_dims: &[usize]) -> Tensor {
    assert_eq!(
        grad_out.numel(),
        indices.len(),
        "maxpool2d_backward: gradient / index count mismatch"
    );
    let mut out = vec![0.0f32; Shape::from(input_dims).numel()];
    for (g, &i) in grad_out.as_slice().iter().zip(indices) {
        out[i] += g;
    }
    Tensor::from_vec(input_dims.to_vec(), out)
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
///
/// Under [`crate::accum::Accum::F64`] each plane sum and the division run
/// in `f64` before the single rounding to `f32`.
///
/// # Panics
///
/// Panics unless `input` is rank 4.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    assert_eq!(input.rank(), 4, "global_avg_pool expects [N, C, H, W]");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let src = input.as_slice();
    let mut out = vec![0.0f32; n * c];
    match crate::accum::accum() {
        crate::accum::Accum::F32 => {
            let inv = 1.0 / (h * w) as f32;
            for (bc, o) in out.iter_mut().enumerate() {
                let plane = &src[bc * h * w..(bc + 1) * h * w];
                *o = plane.iter().sum::<f32>() * inv;
            }
        }
        crate::accum::Accum::F64 => {
            let inv = 1.0 / (h * w) as f64;
            for (bc, o) in out.iter_mut().enumerate() {
                let plane = &src[bc * h * w..(bc + 1) * h * w];
                *o = (plane.iter().map(|&v| v as f64).sum::<f64>() * inv) as f32;
            }
        }
    }
    Tensor::from_vec(vec![n, c], out)
}

/// Backward global average pooling: spreads each `[N, C]` gradient uniformly
/// over its `H × W` plane.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn global_avg_pool_backward(grad_out: &Tensor, input_dims: &[usize]) -> Tensor {
    assert_eq!(
        input_dims.len(),
        4,
        "global_avg_pool_backward: input_dims must be [N,C,H,W]"
    );
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    assert_eq!(grad_out.shape().dims(), &[n, c], "grad shape mismatch");
    let inv = 1.0 / (h * w) as f32;
    let g = grad_out.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    for bc in 0..n * c {
        let v = g[bc] * inv;
        for e in &mut out[bc * h * w..(bc + 1) * h * w] {
            *e = v;
        }
    }
    Tensor::from_vec(input_dims.to_vec(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{with_accum, Accum};

    /// Direct (definition-level) convolution for cross-checking.
    fn naive_conv(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let (o, kh, kw) = (weight.dim(0), weight.dim(2), weight.dim(3));
        let ho = spec.out_dim(h, kh);
        let wo = spec.out_dim(w, kw);
        let mut out = Tensor::zeros(&[n, o, ho, wo]);
        for b in 0..n {
            for oc in 0..o {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = 0.0;
                        for ic in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[b, ic, iy as usize, ix as usize])
                                        * weight.at(&[oc, ic, ky, kx]);
                                }
                            }
                        }
                        out.set(&[b, oc, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    fn pseudo(dims: &[usize], salt: usize) -> Tensor {
        Tensor::from_fn(dims, |i| (((i * 31 + salt * 17) % 97) as f32 - 48.0) / 97.0)
    }

    /// Geometry edge cases shared by the fused-vs-oracle tests:
    /// `(n, c, h, w, o, kh, kw, stride, pad)`.
    const GEOMETRIES: &[(
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
    )] = &[
        (2, 3, 6, 6, 4, 3, 3, 1, 0),  // plain
        (1, 2, 7, 7, 3, 3, 3, 2, 1),  // stride 2, odd image
        (2, 1, 4, 4, 2, 1, 1, 1, 0),  // 1x1 kernel
        (1, 1, 4, 4, 1, 1, 1, 2, 0),  // 1x1 kernel, strided
        (1, 2, 4, 4, 2, 3, 3, 1, 3),  // padding larger than the input margin
        (1, 1, 3, 5, 5, 3, 3, 1, 2),  // rectangular, o > MR
        (3, 2, 5, 7, 17, 2, 4, 1, 1), // o > NR, rectangular kernel
        (1, 3, 9, 9, 4, 3, 3, 3, 1),  // stride 3
        // Weight-gradient contractions (N·Ho·Wo) longer than one KC block:
        (3, 1, 28, 28, 16, 5, 5, 1, 0), // LeNet conv1: 1728 pixels, KC crossed mid-example
        (5, 16, 12, 12, 32, 5, 5, 1, 0), // LeNet conv2: C·kh·kw = 400 > MC, O = 32 > NR
        (4, 3, 21, 21, 6, 3, 3, 2, 1),  // stride 2, padded: 4 × 11 × 11 = 484 pixels
    ];

    #[test]
    fn out_dim_math() {
        let s = ConvSpec { stride: 1, pad: 0 };
        assert_eq!(s.out_dim(28, 5), 24);
        let s = ConvSpec { stride: 2, pad: 1 };
        assert_eq!(s.out_dim(32, 3), 16);
        let s = ConvSpec { stride: 1, pad: 2 };
        assert_eq!(s.out_dim(8, 5), 8);
    }

    #[test]
    fn conv_matches_naive_no_pad() {
        let input = Tensor::from_fn(&[2, 3, 6, 6], |i| ((i * 7 % 23) as f32 - 11.0) / 23.0);
        let weight = Tensor::from_fn(&[4, 3, 3, 3], |i| ((i * 5 % 17) as f32 - 8.0) / 17.0);
        let spec = ConvSpec::default();
        let fast = conv2d(&input, &weight, spec);
        let slow = naive_conv(&input, &weight, spec);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn conv_matches_naive_stride_pad() {
        let input = Tensor::from_fn(&[1, 2, 7, 7], |i| (i as f32 * 0.13).sin());
        let weight = Tensor::from_fn(&[3, 2, 3, 3], |i| (i as f32 * 0.21).cos());
        let spec = ConvSpec { stride: 2, pad: 1 };
        let fast = conv2d(&input, &weight, spec);
        let slow = naive_conv(&input, &weight, spec);
        assert_eq!(fast.shape().dims(), &[1, 3, 4, 4]);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        // A 1x1 kernel with weight 1 on a single channel is the identity.
        let input = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&input, &weight, ConvSpec::default());
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn fused_matches_im2col_oracle_across_geometries() {
        for &(n, c, h, w, o, kh, kw, stride, pad) in GEOMETRIES {
            let spec = ConvSpec { stride, pad };
            let x = pseudo(&[n, c, h, w], n + h + pad);
            let wt = pseudo(&[o, c, kh, kw], o + kw + stride);
            let fused = conv2d(&x, &wt, spec);
            let (oracle, _) = conv2d_im2col(&x, &wt, spec);
            assert_eq!(fused.shape(), oracle.shape());
            assert!(
                fused.allclose(&oracle, 1e-5),
                "forward mismatch for {:?}",
                (n, c, h, w, o, kh, kw, stride, pad)
            );
            // Under f64 accumulation both paths compute the identical
            // exactly-rounded k-ordered chain per element: bit-equal.
            let fused64 = with_accum(Accum::F64, || conv2d(&x, &wt, spec));
            let oracle64 = with_accum(Accum::F64, || conv2d_im2col(&x, &wt, spec).0);
            assert_eq!(
                fused64.as_slice(),
                oracle64.as_slice(),
                "f64 forward not bit-identical for {:?}",
                (n, c, h, w, o, kh, kw, stride, pad)
            );
        }
    }

    #[test]
    fn fused_backward_matches_im2col_oracle_across_geometries() {
        for &(n, c, h, w, o, kh, kw, stride, pad) in GEOMETRIES {
            let spec = ConvSpec { stride, pad };
            let x = pseudo(&[n, c, h, w], 3 * n + w);
            let wt = pseudo(&[o, c, kh, kw], 5 * o + kh);
            let out = conv2d(&x, &wt, spec);
            let gout = pseudo(out.shape().dims(), 7 * n + stride);
            let oracle = || {
                let cols = im2col(&x, kh, kw, spec);
                conv2d_backward_im2col(&gout, &cols, &wt, x.shape().dims(), spec)
            };
            let (fx, fw) = conv2d_backward(&gout, &x, &wt, spec);
            let (ox, ow) = oracle();
            assert!(
                fx.allclose(&ox, 1e-4) && fw.allclose(&ow, 1e-4),
                "backward mismatch for {:?}",
                (n, c, h, w, o, kh, kw, stride, pad)
            );
            let (fx64, fw64) = with_accum(Accum::F64, || conv2d_backward(&gout, &x, &wt, spec));
            let (ox64, ow64) = with_accum(Accum::F64, oracle);
            assert_eq!(
                fx64.as_slice(),
                ox64.as_slice(),
                "f64 data gradient not bit-identical for {:?}",
                (n, c, h, w, o, kh, kw, stride, pad)
            );
            assert_eq!(
                fw64.as_slice(),
                ow64.as_slice(),
                "f64 weight gradient not bit-identical for {:?}",
                (n, c, h, w, o, kh, kw, stride, pad)
            );
        }
    }

    /// The data gradient spelled out as the packed GEMM `∂cols = g × W`
    /// over the whole batch followed by [`col2im`]: per `∂x` element, one
    /// fresh `O`-chain per tap (rounded into `f32` at every `KC` block),
    /// summed in raster order of the output pixels. Unlike
    /// [`conv2d_backward_im2col`], whose `matmul` takes the unfused tiny
    /// path on small shapes, it computes each chain the way the packed
    /// microkernel does in both accumulation modes.
    fn data_grad_oracle(gout: &Tensor, x: &Tensor, wt: &Tensor, spec: ConvSpec) -> Tensor {
        let g = backward_geom(gout, x, wt, spec);
        let (n, o, patch) = (x.dim(0), wt.dim(0), g.patch());
        let rows = nchw_to_nhwc_rows(gout);
        let a = MatRef {
            data: rows.as_slice(),
            rs: o,
            cs: 1,
        };
        let b = MatRef {
            data: wt.as_slice(),
            rs: patch,
            cs: 1,
        };
        let mut cols = vec![0.0f32; n * g.pixels() * patch];
        linalg::gemm_panels(accum::accum(), n * g.pixels(), o, patch, &a, &b, &mut cols);
        let cols = Tensor::from_vec(vec![n * g.pixels(), patch], cols);
        col2im(&cols, x.shape().dims(), g.kh, g.kw, spec)
    }

    /// An upstream gradient whose entries are exact zeros with probability
    /// `zero_pct` %, alternating between `+0` and `-0`.
    fn sparse_grad(dims: &[usize], zero_pct: usize, salt: usize) -> Tensor {
        Tensor::from_fn(dims, |i| {
            let h = (i * 2_654_435_761 + salt * 40_503) % 1_000_003;
            if h % 100 < zero_pct {
                if h % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                ((h % 193) as f32 - 96.0) / 61.0
            }
        })
    }

    /// Bitwise equality, except that any NaN matches any NaN (payloads
    /// are not part of the contract; positions are).
    fn assert_same_bits(got: &Tensor, want: &Tensor, at: &dyn std::fmt::Debug) {
        assert_eq!(got.shape(), want.shape(), "shape at {at:?}");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            let same = if a.is_nan() || b.is_nan() {
                a.is_nan() && b.is_nan()
            } else {
                a.to_bits() == b.to_bits()
            };
            assert!(same, "element {i}: {a:e} vs oracle {b:e} at {at:?}");
        }
    }

    #[test]
    fn data_gradient_matches_gemm_col2im_oracle_bitwise() {
        // (n, c, h, w, o, kh, kw, stride, pad): the zoo's geometries (LeNet
        // conv1/conv2, AllCNN-style 3×3 s1 p1 and s2 p1 at C = 3, 16, 32),
        // odd widths, batches 1 and 33, and an O > KC contraction that
        // rounds each tap's chain at a block boundary.
        let cases: &[(
            usize,
            usize,
            usize,
            usize,
            usize,
            usize,
            usize,
            usize,
            usize,
        )] = &[
            (1, 1, 28, 28, 16, 5, 5, 1, 0),
            (33, 1, 28, 28, 16, 5, 5, 1, 0),
            (1, 16, 12, 12, 32, 5, 5, 1, 0),
            (33, 16, 12, 12, 32, 5, 5, 1, 0),
            (2, 3, 8, 8, 16, 3, 3, 1, 1),
            (2, 16, 8, 8, 16, 3, 3, 1, 1),
            (2, 32, 6, 6, 32, 3, 3, 1, 1),
            (2, 3, 9, 9, 16, 3, 3, 2, 1),
            (2, 16, 8, 8, 32, 3, 3, 2, 1),
            (1, 32, 7, 7, 32, 3, 3, 2, 1),
            (2, 3, 7, 11, 5, 3, 3, 1, 1),
            (1, 2, 6, 13, 3, 5, 5, 1, 0),
            (3, 2, 9, 13, 4, 3, 3, 2, 1),
            (1, 2, 5, 5, 300, 3, 3, 1, 1),
        ];
        let all = cases.iter().chain(GEOMETRIES);
        for (ci, &(n, c, h, w, o, kh, kw, stride, pad)) in all.enumerate() {
            let spec = ConvSpec { stride, pad };
            let x = pseudo(&[n, c, h, w], ci);
            let wt = pseudo(&[o, c, kh, kw], 3 * ci + 1);
            let gdims = [n, o, spec.out_dim(h, kh), spec.out_dim(w, kw)];
            for zero_pct in [0, 80, 95] {
                let gout = sparse_grad(&gdims, zero_pct, ci);
                for mode in [Accum::F32, Accum::F64] {
                    let at = (n, c, h, w, o, kh, kw, stride, pad, zero_pct, mode);
                    let got = with_accum(mode, || conv2d_backward_data(&gout, &x, &wt, spec));
                    let want = with_accum(mode, || data_grad_oracle(&gout, &x, &wt, spec));
                    assert_same_bits(&got, &want, &at);
                }
            }
        }
    }

    #[test]
    fn data_gradient_with_non_finite_weights_matches_oracle() {
        // 0·∞ = NaN: a non-finite weight must poison exactly the elements
        // whose taps reach it, even through exact-zero upstream entries,
        // and no others.
        for &(n, c, h, w, o, k, stride, pad) in &[
            (2, 1, 28, 28, 16, 5, 1, 0),
            (2, 16, 12, 12, 32, 5, 1, 0),
            (2, 3, 9, 9, 8, 3, 2, 1),
        ] {
            let spec = ConvSpec { stride, pad };
            let x = pseudo(&[n, c, h, w], 5);
            let mut wt = pseudo(&[o, c, k, k], 6);
            let last = wt.numel() - 1;
            wt.as_mut_slice()[k + 1] = f32::INFINITY;
            wt.as_mut_slice()[last] = f32::NEG_INFINITY;
            wt.as_mut_slice()[last / 2] = f32::NAN;
            let gdims = [n, o, spec.out_dim(h, k), spec.out_dim(w, k)];
            let gout = sparse_grad(&gdims, 95, 7);
            for mode in [Accum::F32, Accum::F64] {
                let got = with_accum(mode, || conv2d_backward_data(&gout, &x, &wt, spec));
                let want = with_accum(mode, || data_grad_oracle(&gout, &x, &wt, spec));
                assert!(got.as_slice().iter().any(|v| v.is_nan()));
                assert_same_bits(&got, &want, &(n, c, h, w, o, k, stride, pad, mode));
            }
        }
    }

    #[test]
    fn backward_halves_match_the_whole_backward_bitwise() {
        for &(n, c, h, w, o, kh, kw, stride, pad) in GEOMETRIES {
            let spec = ConvSpec { stride, pad };
            let x = pseudo(&[n, c, h, w], 3 * n + h);
            let wt = pseudo(&[o, c, kh, kw], 5 * o + kw);
            let gout = pseudo(&[n, o, spec.out_dim(h, kh), spec.out_dim(w, kw)], 11 * n);
            let cols = im2col(&x, kh, kw, spec);
            for mode in [Accum::F32, Accum::F64] {
                let gx = with_accum(mode, || conv2d_backward_data(&gout, &x, &wt, spec));
                let gw = with_accum(mode, || conv2d_backward_weight(&gout, &x, &wt, spec));
                let (wx, ww) = with_accum(mode, || conv2d_backward(&gout, &x, &wt, spec));
                let at = (n, c, h, w, o, kh, kw, stride, pad, mode);
                assert_eq!(gx.as_slice(), wx.as_slice(), "data half differs at {at:?}");
                assert_eq!(
                    gw.as_slice(),
                    ww.as_slice(),
                    "weight half differs at {at:?}"
                );
                let (ox, ow) = with_accum(mode, || {
                    conv2d_backward_im2col(&gout, &cols, &wt, x.shape().dims(), spec)
                });
                if mode == Accum::F64 {
                    // And both halves agree with the im2col oracle bit for bit.
                    assert_eq!(
                        gx.as_slice(),
                        ox.as_slice(),
                        "data half vs oracle at {at:?}"
                    );
                    assert_eq!(
                        gw.as_slice(),
                        ow.as_slice(),
                        "weight half vs oracle at {at:?}"
                    );
                } else {
                    assert!(
                        gx.allclose(&ox, 1e-4) && gw.allclose(&ow, 1e-4),
                        "halves vs oracle at {at:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_backward_is_adjoint_of_forward() {
        // conv2d is linear in each argument, so the backward pass is its
        // exact adjoint: ⟨conv(x, w), g⟩ = ⟨x, ∂x⟩ = ⟨w, ∂w⟩.
        let spec = ConvSpec { stride: 2, pad: 1 };
        let x = pseudo(&[2, 2, 5, 5], 31);
        let wt = pseudo(&[3, 2, 3, 3], 32);
        let out = conv2d(&x, &wt, spec);
        let gout = pseudo(out.shape().dims(), 33);
        let (gx, gw) = conv2d_backward(&gout, &x, &wt, spec);
        let dot = |a: &Tensor, b: &Tensor| {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(p, q)| *p as f64 * *q as f64)
                .sum::<f64>()
        };
        let lhs = dot(&out, &gout);
        let via_x = dot(&x, &gx);
        let via_w = dot(&wt, &gw);
        assert!((lhs - via_x).abs() < 1e-3, "⟨y,g⟩ {lhs} vs ⟨x,∂x⟩ {via_x}");
        assert!((lhs - via_w).abs() < 1e-3, "⟨y,g⟩ {lhs} vs ⟨w,∂w⟩ {via_w}");
    }

    #[test]
    fn pooled_and_serial_fused_conv_agree_bitwise() {
        let spec = ConvSpec { stride: 1, pad: 1 };
        let x = pseudo(&[8, 3, 9, 9], 41);
        let wt = pseudo(&[5, 3, 3, 3], 42);
        for mode in [Accum::F32, Accum::F64] {
            let fwd = with_accum(mode, || conv2d(&x, &wt, spec));
            let fwd_serial = pool::with_serial(|| with_accum(mode, || conv2d(&x, &wt, spec)));
            assert_eq!(fwd.as_slice(), fwd_serial.as_slice());
            let gout = pseudo(fwd.shape().dims(), 43);
            let (gx, gw) = with_accum(mode, || conv2d_backward(&gout, &x, &wt, spec));
            let (sx, sw) =
                pool::with_serial(|| with_accum(mode, || conv2d_backward(&gout, &x, &wt, spec)));
            assert_eq!(gx.as_slice(), sx.as_slice());
            assert_eq!(gw.as_slice(), sw.as_slice());
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the backward pass relies on.
        let dims = [2usize, 2, 5, 5];
        let spec = ConvSpec { stride: 2, pad: 1 };
        let (kh, kw) = (3usize, 3usize);
        let x = Tensor::from_fn(&dims, |i| ((i * 13 % 31) as f32 - 15.0) / 31.0);
        let cols = im2col(&x, kh, kw, spec);
        let y = Tensor::from_fn(cols.shape().dims(), |i| {
            ((i * 11 % 29) as f32 - 14.0) / 29.0
        });
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&y, &dims, kh, kw, spec);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs {lhs} vs rhs {rhs}");
    }

    #[test]
    fn im2col_col2im_roundtrip_on_disjoint_patches() {
        // With stride == kernel and no padding the patches tile the image
        // exactly once, so col2im(im2col(x)) reconstructs x verbatim.
        let dims = [3usize, 2, 6, 6];
        let spec = ConvSpec { stride: 2, pad: 0 };
        let x = Tensor::from_fn(&dims, |i| ((i * 7 % 41) as f32 - 20.0) / 41.0);
        let cols = im2col(&x, 2, 2, spec);
        let back = col2im(&cols, &dims, 2, 2, spec);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn pooled_and_serial_im2col_agree() {
        let dims = [8usize, 3, 9, 9];
        let spec = ConvSpec { stride: 1, pad: 1 };
        let x = Tensor::from_fn(&dims, |i| (i as f32 * 0.07).sin());
        let pooled = im2col(&x, 3, 3, spec);
        let serial = crate::pool::with_serial(|| im2col(&x, 3, 3, spec));
        assert_eq!(pooled.as_slice(), serial.as_slice());

        let g = Tensor::from_fn(pooled.shape().dims(), |i| (i as f32 * 0.05).cos());
        let pooled_b = col2im(&g, &dims, 3, 3, spec);
        let serial_b = crate::pool::with_serial(|| col2im(&g, &dims, 3, 3, spec));
        assert_eq!(pooled_b.as_slice(), serial_b.as_slice());
    }

    #[test]
    fn conv_backward_weight_matches_finite_difference() {
        let input = Tensor::from_fn(&[1, 1, 5, 5], |i| (i as f32 * 0.31).sin());
        let mut weight = Tensor::from_fn(&[2, 1, 3, 3], |i| (i as f32 * 0.17).cos());
        let spec = ConvSpec::default();
        let loss = |w: &Tensor| conv2d(&input, w, spec).square().sum() * 0.5;

        let out = conv2d(&input, &weight, spec);
        let (_, grad_w) = conv2d_backward(&out, &input, &weight, spec);

        let eps = 1e-3;
        for probe in [0usize, 5, 11, 17] {
            let orig = weight.as_slice()[probe];
            weight.as_mut_slice()[probe] = orig + eps;
            let up = loss(&weight);
            weight.as_mut_slice()[probe] = orig - eps;
            let down = loss(&weight);
            weight.as_mut_slice()[probe] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grad_w.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "probe {probe}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv_backward_input_matches_finite_difference() {
        let mut input = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.23).sin());
        let weight = Tensor::from_fn(&[2, 2, 3, 3], |i| (i as f32 * 0.19).cos());
        let spec = ConvSpec { stride: 1, pad: 1 };
        let loss = |x: &Tensor| conv2d(x, &weight, spec).square().sum() * 0.5;

        let out = conv2d(&input, &weight, spec);
        let (grad_x, _) = conv2d_backward(&out, &input, &weight, spec);

        let eps = 1e-3;
        for probe in [0usize, 7, 15, 30] {
            let orig = input.as_slice()[probe];
            input.as_mut_slice()[probe] = orig + eps;
            let up = loss(&input);
            input.as_mut_slice()[probe] = orig - eps;
            let down = loss(&input);
            input.as_mut_slice()[probe] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grad_x.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "probe {probe}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let input = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let (out, idx) = maxpool2d(&input, 2);
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[4., 8., 12., 16.]);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let back = maxpool2d_backward(&g, &idx, &[1, 1, 4, 4]);
        // Gradient lands exactly on the argmax positions.
        assert_eq!(back.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(back.at(&[0, 0, 1, 3]), 1.0);
        assert_eq!(back.at(&[0, 0, 3, 1]), 1.0);
        assert_eq!(back.at(&[0, 0, 3, 3]), 1.0);
        assert_eq!(back.sum(), 4.0);
    }

    #[test]
    fn maxpool_drops_ragged_edge() {
        let input = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let (out, _) = maxpool2d(&input, 2);
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let input = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let out = global_avg_pool(&input);
        assert_eq!(out.shape().dims(), &[2, 3]);
        assert_eq!(out.at(&[0, 0]), 1.5); // mean of 0..4
        let g = Tensor::ones(&[2, 3]);
        let back = global_avg_pool_backward(&g, &[2, 3, 2, 2]);
        assert!(back.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-7));
    }
}
