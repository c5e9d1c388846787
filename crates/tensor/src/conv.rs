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
//! is packed whole as B. The data gradient fuses the col2im adjoint into
//! a per-example tile-then-scatter.
//!
//! The fused path is the one production lowering. The classic
//! im2col-then-GEMM lowering survives only as plain oracle functions
//! ([`im2col`], [`conv2d_im2col`], [`conv2d_backward_im2col`]) that tests
//! and the numerics audit call by name: under [`crate::accum::Accum::F64`]
//! both lowerings compute the identical exactly-rounded `k`-ordered chain
//! per output element, so they agree bit-for-bit.

use crate::accum;
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

/// Per-call convolution geometry, shared by the packers and the scatter.
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
    pool::parallel_for_mut(&mut out, c * h * w, 1, |b0, chunk| {
        for (bi, block) in chunk.chunks_mut(c * h * w).enumerate() {
            let b = b0 + bi;
            let rows = &src[b * g.pixels() * cols_w..(b + 1) * g.pixels() * cols_w];
            scatter_patch_rows(rows, block, g);
        }
    });
    Tensor::from_vec(input_dims.to_vec(), out)
}

/// The per-example col2im body, shared by [`col2im`] and the fused data
/// gradient: scatters `[Ho·Wo, C·kh·kw]` patch-gradient rows into a
/// `[C, H, W]` block, accumulating where patches overlap. One fixed loop
/// order means the fused and im2col backward paths produce bit-identical
/// sums from identical rows.
fn scatter_patch_rows(rows: &[f32], block: &mut [f32], g: Geom) {
    let patch = g.patch();
    for oy in 0..g.ho {
        for ox in 0..g.wo {
            let row = (oy * g.wo + ox) * patch;
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
/// data half tiles one example's `∂cols` at a time, and the weight half
/// packs the patches one `MC × KC` block at a time. Under
/// [`crate::accum::Accum::F64`] the pair is bit-identical to
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
/// Per example, `∂cols_b = g_b × W` is tiled into a scratch buffer by the
/// packed kernel and immediately scattered col2im-style into that
/// example's `[C, H, W]` gradient block — the full `[N·Ho·Wo, C·kh·kw]`
/// gradient matrix never exists. Examples parallelize exactly like
/// [`col2im`], with a fixed within-example order.
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
    let (pixels, patch) = (g.pixels(), g.patch());
    let gdat = grad_out.as_slice();
    let w_mat = MatRef {
        data: weight.as_slice(),
        rs: patch,
        cs: 1,
    };
    let plane = g.c * g.h * g.w;
    let mut out = vec![0.0f32; n * plane];
    pool::parallel_for_mut(&mut out, plane, 1, |b0, chunk| {
        // Per-task scratch for one example's ∂cols rows, reused across the
        // examples this task owns.
        let mut rows = vec![0.0f32; pixels * patch];
        for (bi, block) in chunk.chunks_mut(plane).enumerate() {
            let b = b0 + bi;
            rows.fill(0.0);
            // The example's gradient as a strided [Ho·Wo, O] view: NCHW
            // means pixel stride 1, channel stride Ho·Wo.
            let gb = MatRef {
                // lint:allow(shape) — `backward_geom` asserted `grad_out`
                // is `[N, O, Ho, Wo]`, so each example's block is in bounds.
                data: &gdat[b * o * pixels..(b + 1) * o * pixels],
                rs: 1,
                cs: pixels,
            };
            linalg::gemm_panels(mode, pixels, o, patch, &gb, &w_mat, &mut rows);
            scatter_patch_rows(&rows, block, g);
        }
    });
    Tensor::from_vec(vec![n, g.c, g.h, g.w], out)
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
