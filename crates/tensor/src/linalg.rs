//! Matrix multiplication kernels.
//!
//! Everything in this workspace that is compute-bound — dense layers,
//! convolutions (an implicit GEMM over gathered patches; im2col survives
//! only as the test oracle) and their backward passes, and every
//! white-box attack's input-gradient steps — bottoms out in one of the
//! three GEMM variants below. All three lower onto a single cache-blocked,
//! packed kernel:
//!
//! * The B operand is packed once per call into contiguous `KC × NR`
//!   column panels; each worker packs `MC × KC` blocks of A into `MR`-row
//!   panels as it goes. Transposed variants differ only in the strides the
//!   packing routines read through, so the inner loops never see a
//!   transpose.
//! * An unrolled `MR × NR` (4×16) microkernel accumulates into registers,
//!   with edge tiles handled by zero-padding inside the packed panels —
//!   the hot loop is branch-free (the seed's `if aval == 0.0` skip is
//!   gone: it poisoned pipelining on dense data and silently miscounted
//!   FLOPs).
//! * Large problems fan out over row-blocks of C through the persistent
//!   worker pool ([`crate::pool`]) — no thread is ever spawned per call.
//!   Each output element is produced by exactly one task with a fixed
//!   reduction order, so results are bit-identical for any pool size
//!   (verified against [`crate::pool::with_serial`] in the tests).
//! * Under [`crate::accum::Accum::F64`] every kernel switches to
//!   `f32 in → f64 acc → f32 out` variants that carry one exactly-rounded
//!   `f64` chain per output element across *all* depth blocks (no
//!   intermediate `f32` rounding between `KC` blocks, no FMA in either the
//!   portable or the AVX2 path), so the result equals the naive
//!   `k`-ordered `f64` dot product bit-for-bit — independent of tiling,
//!   thread count and `GANDEF_NO_FMA`.
//! * The packing stage is abstracted behind the [`PackA`] / [`PackB`]
//!   panel-source traits: the blocked driver ([`gemm_panels`]) only ever
//!   sees packed panels, so any operand that can *gather itself* into
//!   panel layout reuses the full microkernel/blocking/pool machinery.
//!   [`MatRef`] (a strided matrix view) is the implementation the three
//!   public matmuls use; [`crate::conv`] provides implicit-GEMM packers
//!   that gather convolution patches directly into B-panels (forward) or
//!   A-panels (weight gradient), so no whole im2col matrix is ever
//!   materialized: packed B covers all of `k`, packed A one `MC × KC`
//!   block at a time.

use crate::accum::{self, Accum};
use crate::pool;
use crate::Tensor;

/// Rows per microkernel tile. 4×16 fills the AVX2 register file exactly:
/// 8 ymm accumulators + 2 B vectors + 1 broadcast A lane, with FMA issued
/// every cycle (~2.9× the seed kernel single-threaded on the reference
/// box). The portable fallback runs the same tile through autovectorized
/// scalar code.
pub(crate) const MR: usize = 4;
/// Columns per microkernel tile (two 8-wide vectors).
pub(crate) const NR: usize = 16;
/// Depth (k) blocking: one `KC × NR` B panel is 8 KiB, L1-resident.
pub(crate) const KC: usize = 256;
/// Row blocking for the packed A block (`MC × KC` ≈ 64 KiB, L2-resident).
const MC: usize = 64;

/// Problems below this many multiply-adds run single-threaded.
const PARALLEL_THRESHOLD: usize = 1 << 18;

/// Problems below this many multiply-adds skip packing entirely and run a
/// simple register-tiled loop — packing overhead dominates at this size.
const TINY_THRESHOLD: usize = 1 << 13;

/// Packed-B buffers below this many elements are packed serially; larger
/// ones parallelize over `KC` depth blocks (each block is a disjoint
/// region of the buffer, so the pack is deterministic for any pool size).
const PACK_PARALLEL_THRESHOLD: usize = 1 << 16;

/// A read-only strided view of a rank-2 operand. Transposition is a stride
/// swap, so all three public GEMM variants share one kernel.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    pub(crate) data: &'a [f32],
    /// Element distance between rows.
    pub(crate) rs: usize,
    /// Element distance between columns.
    pub(crate) cs: usize,
}

impl MatRef<'_> {
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// A panel source for the A operand: anything that can gather an
/// `mc × kc` block of `opA` into the microkernel's `MR`-row panel layout
/// (`[row-panel][kk][MR]`, ragged last panel zero-padded). Implementations
/// must be pure gathers — the same arguments always produce the same
/// panels — so the blocked driver stays deterministic under pooling.
pub(crate) trait PackA: Sync {
    /// Writes rows `row0..row0+mc` × depths `k0..k0+kc` of `opA` into `pa`.
    fn pack_a_block(&self, pa: &mut [f32], row0: usize, mc: usize, k0: usize, kc: usize);
}

/// A panel source for the B operand: anything that can gather one
/// `kc × NR` column panel of `opB` into `[kk][NR]` layout. `dst` holds
/// exactly `kc * NR` elements and may contain stale data: implementations
/// must fill all of it, zeroing the `nr..NR` padding columns.
pub(crate) trait PackB: Sync {
    /// Writes depths `k0..k0+kc` × columns `j0..j0+nr` of `opB` into `dst`.
    fn pack_b_panel(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nr: usize);
}

impl PackA for MatRef<'_> {
    fn pack_a_block(&self, pa: &mut [f32], row0: usize, mc: usize, k0: usize, kc: usize) {
        let panels = mc.div_ceil(MR);
        for ip in 0..panels {
            let i0 = ip * MR;
            let mr = MR.min(mc - i0);
            let dst = &mut pa[ip * kc * MR..(ip + 1) * kc * MR];
            for kk in 0..kc {
                let col = &mut dst[kk * MR..(kk + 1) * MR];
                for (i, v) in col.iter_mut().enumerate() {
                    *v = if i < mr {
                        self.at(row0 + i0 + i, k0 + kk)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

impl PackB for MatRef<'_> {
    fn pack_b_panel(&self, dst: &mut [f32], k0: usize, kc: usize, j0: usize, nr: usize) {
        for kk in 0..kc {
            let row = &mut dst[kk * NR..(kk + 1) * NR];
            for (j, v) in row[..nr].iter_mut().enumerate() {
                *v = self.at(k0 + kk, j0 + j);
            }
            row[nr..].fill(0.0);
        }
    }
}

/// `C = A × B` for `A: [M, K]`, `B: [K, N]`.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching inner dimensions.
///
/// # Example
///
/// ```
/// use gandef_tensor::{linalg, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
/// let i = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]);
/// assert_eq!(linalg::matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2, got {}", b.shape());
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(
        k,
        k2,
        "matmul inner dimensions disagree: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        k,
        n,
        MatRef {
            data: a.as_slice(),
            rs: k,
            cs: 1,
        },
        MatRef {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        },
        &mut out,
    );
    Tensor::from_vec(vec![m, n], out)
}

/// `C = Aᵀ × B` for `A: [K, M]`, `B: [K, N]` — the weight-gradient kernel
/// (`∂L/∂W = Xᵀ · ∂L/∂Y`).
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching leading dimensions.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be rank 2");
    let (k, m) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(
        k,
        k2,
        "matmul_tn leading dimensions disagree: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    // op(A)[i, kk] = A[kk, i]: row stride 1, column stride m.
    gemm(
        m,
        k,
        n,
        MatRef {
            data: a.as_slice(),
            rs: 1,
            cs: m,
        },
        MatRef {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        },
        &mut out,
    );
    Tensor::from_vec(vec![m, n], out)
}

/// `C = A × Bᵀ` for `A: [M, K]`, `B: [N, K]` — the input-gradient kernel
/// (`∂L/∂X = ∂L/∂Y · Wᵀ`).
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching trailing dimensions.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_nt lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_nt rhs must be rank 2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(
        k,
        k2,
        "matmul_nt trailing dimensions disagree: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    // op(B)[kk, j] = B[j, kk]: row stride 1, column stride k.
    gemm(
        m,
        k,
        n,
        MatRef {
            data: a.as_slice(),
            rs: k,
            cs: 1,
        },
        MatRef {
            data: b.as_slice(),
            rs: 1,
            cs: k,
        },
        &mut out,
    );
    Tensor::from_vec(vec![m, n], out)
}

/// Core blocked GEMM: `out[m × n] += opA[m × k] · opB[k × n]` with `out`
/// starting zeroed. Samples the accumulation mode once on the calling
/// thread (so [`crate::accum::with_accum`] covers pooled execution) and
/// dispatches to the `f32`- or `f64`-accumulating kernel set.
fn gemm(m: usize, k: usize, n: usize, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mode = accum::accum();
    if m * k * n <= TINY_THRESHOLD {
        match mode {
            Accum::F32 => gemm_tiny(m, k, n, a, b, out),
            Accum::F64 => gemm_tiny_f64(m, k, n, a, b, out),
        }
        return;
    }
    gemm_panels(mode, m, k, n, &a, &b, out);
}

/// The packed, blocked GEMM driver over arbitrary panel sources:
/// `out[m × n] += opA[m × k] · opB[k × n]` with `out` starting zeroed.
///
/// `mode` is passed in (not sampled here) so callers that fan out *before*
/// reaching the GEMM — e.g. the per-example implicit-GEMM convolution —
/// can sample [`crate::accum::accum`] once on the submitting thread and
/// have the scoped override apply inside pool workers.
pub(crate) fn gemm_panels<A: PackA, B: PackB>(
    mode: Accum,
    m: usize,
    k: usize,
    n: usize,
    a: &A,
    b: &B,
    out: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert_eq!(out.len(), m * n, "gemm_panels: C buffer shape mismatch");
    let packed_b = pack_b_panels(k, n, b);
    let np = n.div_ceil(NR);
    let body = |row0: usize, c_chunk: &mut [f32]| match mode {
        Accum::F32 => {
            for_each_tile(k, n, np, c_chunk.len() / n, a, &packed_b, row0, {
                |kc, ap, bp, r0, c0, mr, nr| microkernel(kc, ap, bp, c_chunk, r0, c0, n, mr, nr)
            });
        }
        Accum::F64 => {
            // One f64 accumulator per output element, carried across every
            // KC block — converting to f32 only once, at the very end, is
            // what makes the result equal the naive k-ordered f64 chain.
            let mut acc: Vec<f64> = c_chunk.iter().map(|&x| x as f64).collect();
            for_each_tile(k, n, np, c_chunk.len() / n, a, &packed_b, row0, {
                |kc, ap, bp, r0, c0, mr, nr| {
                    microkernel_f64(kc, ap, bp, &mut acc, r0, c0, n, mr, nr)
                }
            });
            for (o, v) in c_chunk.iter_mut().zip(acc) {
                *o = v as f32;
            }
        }
    };
    if m * k * n < PARALLEL_THRESHOLD {
        body(0, out);
    } else {
        pool::parallel_for_mut(out, n, MR, body);
    }
}

/// Shared blocking loop: walks `KC` depth blocks × `MC` row blocks × `NR`
/// column panels of one row-chunk of C, packing A as it goes, and hands
/// each `MR`-row tile to `tile(kc, ap, bp, row, col, mr, nr)`. The tile
/// visit order fixes the per-element reduction order, so both
/// accumulation modes inherit pool-size invariance from this one loop.
#[allow(clippy::too_many_arguments)]
fn for_each_tile<A: PackA>(
    k: usize,
    n: usize,
    np: usize,
    rows: usize,
    a: &A,
    packed_b: &[f32],
    row0: usize,
    mut tile: impl FnMut(usize, &[f32], &[f32], usize, usize, usize, usize),
) {
    let mut pa = vec![0.0f32; MC.div_ceil(MR) * MR * KC];
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let b_base = kb * np * NR;
        for i0 in (0..rows).step_by(MC) {
            let mc = MC.min(rows - i0);
            a.pack_a_block(&mut pa, row0 + i0, mc, kb, kc);
            for jp in 0..np {
                let j0 = jp * NR;
                let nr = NR.min(n - j0);
                let bp = &packed_b[b_base + jp * kc * NR..b_base + (jp + 1) * kc * NR];
                let mut ip = 0;
                while ip * MR < mc {
                    let mr = MR.min(mc - ip * MR);
                    let ap = &pa[ip * kc * MR..(ip + 1) * kc * MR];
                    tile(kc, ap, bp, i0 + ip * MR, j0, mr, nr);
                    ip += 1;
                }
            }
        }
    }
}

/// Packs `opB` into `[kb-block][column-panel][kk][NR]` layout: each `KC`
/// depth-block holds `ceil(n / NR)` contiguous `kc × NR` panels, with edge
/// panels zero-padded so the microkernel never branches on width. Large
/// buffers parallelize over depth blocks (each block is a disjoint region,
/// so the result is identical for any pool size). All of `opB` is packed
/// up front (`k × ⌈n⌉₁₆` floats) while A is packed one `MC × KC` block at
/// a time, so a long gathered contraction puts its wide operand on the A
/// side: the conv weight gradient packs the patches as A and only the
/// narrow gradient as B.
fn pack_b_panels<B: PackB>(k: usize, n: usize, b: &B) -> Vec<f32> {
    let np = n.div_ceil(NR);
    let mut packed = vec![0.0f32; k * np * NR];
    let nblocks = k.div_ceil(KC);
    let pack_block = |bi: usize, block: &mut [f32]| {
        let kb = bi * KC;
        let kc = KC.min(k - kb);
        for jp in 0..np {
            let j0 = jp * NR;
            let nr = NR.min(n - j0);
            let dst = &mut block[jp * kc * NR..(jp + 1) * kc * NR];
            b.pack_b_panel(dst, kb, kc, j0, nr);
        }
    };
    if nblocks > 1 && packed.len() >= PACK_PARALLEL_THRESHOLD {
        let bounds: Vec<usize> = (0..=nblocks).map(|i| (i * KC).min(k) * np * NR).collect();
        pool::parallel_for_ranges(&mut packed, &bounds, pack_block);
    } else {
        for bi in 0..nblocks {
            let base = bi * KC * np * NR;
            let kc = KC.min(k - bi * KC);
            pack_block(bi, &mut packed[base..base + kc * np * NR]);
        }
    }
    packed
}

/// The register-tiled core: accumulates an `MR × NR` tile over `kc` depth
/// steps from packed panels, then adds the valid `mr × nr` region into C.
/// Dispatches to the FMA kernel when the CPU has AVX2+FMA (checked once
/// per process), otherwise to the portable autovectorized kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` verified avx2+fma support at runtime.
        unsafe { microkernel_fma(kc, ap, bp, c, row0, col0, ldc, mr, nr) };
        return;
    }
    microkernel_generic(kc, ap, bp, c, row0, col0, ldc, mr, nr);
}

/// One-time runtime CPU-feature probe, cached in an atomic (0 = unprobed,
/// 1 = absent, 2 = present). Races are benign: every thread stores the
/// same answer. Setting `GANDEF_NO_FMA=1` forces the portable kernel —
/// FMA rounds differently, so this is the knob for bit-identical runs
/// across machines with different feature sets.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    /// Memoized CPU-feature probe: 0 unknown, 1 no-FMA, 2 FMA.
    static STATE: AtomicU8 = AtomicU8::new(0);
    // lint:allow(atomics) — idempotent once-cache: the probe result is a
    // pure function of the CPU and env, so racing writers agree.
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let yes = std::env::var_os("GANDEF_NO_FMA").is_none()
                && std::is_x86_feature_detected!("avx2")
                && std::is_x86_feature_detected!("fma");
            // lint:allow(atomics) — same idempotent cache write.
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
        v => v == 2,
    }
}

/// AVX2+FMA microkernel: 8 ymm accumulators updated with fused
/// multiply-adds; the full zero-padded tile accumulates in registers and
/// only the valid `mr × nr` region is written back.
///
/// Note: FMA rounds once per multiply-add, so results can differ from the
/// generic kernel in the last bit — kernels are deterministic per machine,
/// not across machines with different feature sets.
///
/// # Safety
///
/// The caller must have verified AVX2+FMA support at runtime (see
/// [`fma_available`]); `ap`/`bp` must hold at least `kc` packed panels
/// (checked by the `debug_assert!` contract below).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_fma(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut acc = [[_mm256_setzero_ps(); NR / 8]; MR];
    let mut app = ap.as_ptr();
    let mut bpp = bp.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bpp);
        let b1 = _mm256_loadu_ps(bpp.add(8));
        for (i, row) in acc.iter_mut().enumerate() {
            let av = _mm256_broadcast_ss(&*app.add(i));
            row[0] = _mm256_fmadd_ps(av, b0, row[0]);
            row[1] = _mm256_fmadd_ps(av, b1, row[1]);
        }
        app = app.add(MR);
        bpp = bpp.add(NR);
    }
    let mut tmp = [0.0f32; MR * NR];
    for (i, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(tmp.as_mut_ptr().add(i * NR), row[0]);
        _mm256_storeu_ps(tmp.as_mut_ptr().add(i * NR + 8), row[1]);
    }
    for i in 0..mr {
        let crow = &mut c[(row0 + i) * ldc + col0..(row0 + i) * ldc + col0 + nr];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv += tmp[i * NR + j];
        }
    }
}

/// Portable microkernel: same tile, plain `mul + add`, written so the
/// autovectorizer keeps the accumulators in whatever vector registers the
/// target has. Fully unrolled fixed-size loops; no branches in the depth
/// loop.
#[allow(clippy::too_many_arguments)]
fn microkernel_generic(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    // `chunks_exact` + fixed-size array conversions: the compiler sees
    // exact extents, hoists every bounds check, and keeps the tile in
    // vector registers (indexed slicing here measurably blocks
    // vectorization).
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        // lint:allow(panic) — `chunks_exact(MR)` yields exactly-MR slices.
        let av: [f32; MR] = av.try_into().unwrap();
        // lint:allow(panic) — `chunks_exact(NR)` yields exactly-NR slices.
        let bv: [f32; NR] = bv.try_into().unwrap();
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] += av[i] * bv[j];
            }
        }
    }
    for i in 0..mr {
        let crow = &mut c[(row0 + i) * ldc + col0..(row0 + i) * ldc + col0 + nr];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv += acc[i][j];
        }
    }
}

/// Register-tiled fallback for problems too small to amortize packing.
fn gemm_tiny(m: usize, k: usize, n: usize, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    for i in 0..m {
        let crow = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            let av = a.at(i, kk);
            for (j, cv) in crow.iter_mut().enumerate() {
                *cv += av * b.at(kk, j);
            }
        }
    }
}

/// `f64`-accumulating microkernel dispatch. Both variants compute the
/// identical exactly-rounded chain — products of two `f32`-derived `f64`s
/// are exact (≤ 48 mantissa bits), additions happen in the same `k` order,
/// and neither uses FMA — so AVX2 vs portable is bit-identical and the
/// dispatch gate (shared with the f32 path) cannot affect results.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel_f64(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [f64],
    row0: usize,
    col0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` verified avx2 support at runtime (the
        // kernel itself uses no FMA instructions).
        unsafe { microkernel_f64_avx2(kc, ap, bp, acc, row0, col0, ldc, mr, nr) };
        return;
    }
    microkernel_f64_generic(kc, ap, bp, acc, row0, col0, ldc, mr, nr);
}

/// Portable `f64` microkernel. The tile is *loaded from* the running `f64`
/// accumulator (not zeroed), updated over `kc` depth steps, and stored
/// back — so the per-element chain spans every `KC` block sequentially:
/// exactly the naive `k`-ordered `f64` dot product.
#[allow(clippy::too_many_arguments)]
fn microkernel_f64_generic(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [f64],
    row0: usize,
    col0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut tile = [[0.0f64; NR]; MR];
    for (i, row) in tile.iter_mut().enumerate().take(mr) {
        let arow = &acc[(row0 + i) * ldc + col0..(row0 + i) * ldc + col0 + nr];
        row[..nr].copy_from_slice(arow);
    }
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        // lint:allow(panic) — `chunks_exact(MR)` yields exactly-MR slices.
        let av: [f32; MR] = av.try_into().unwrap();
        // lint:allow(panic) — `chunks_exact(NR)` yields exactly-NR slices.
        let bv: [f32; NR] = bv.try_into().unwrap();
        for i in 0..MR {
            for j in 0..NR {
                tile[i][j] += av[i] as f64 * bv[j] as f64;
            }
        }
    }
    for (i, row) in tile.iter().enumerate().take(mr) {
        let arow = &mut acc[(row0 + i) * ldc + col0..(row0 + i) * ldc + col0 + nr];
        arow.copy_from_slice(&row[..nr]);
    }
}

/// AVX2 `f64` microkernel: `_mm256_cvtps_pd` widens the packed `f32`
/// panels, then plain `mul_pd + add_pd` (deliberately no `fmadd`) updates
/// four 4-wide accumulators per row in the same order as the portable
/// kernel — both ops are exactly rounded per lane, so the two kernels are
/// bit-identical and `GANDEF_NO_FMA` cannot change f64-mode results.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime (see
/// [`fma_available`]); `ap`/`bp` must hold at least `kc` packed panels
/// (checked by the `debug_assert!` contract below).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_f64_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [f64],
    row0: usize,
    col0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut tmp = [0.0f64; MR * NR];
    for i in 0..mr {
        let arow = &acc[(row0 + i) * ldc + col0..(row0 + i) * ldc + col0 + nr];
        tmp[i * NR..i * NR + nr].copy_from_slice(arow);
    }
    let mut tile = [[_mm256_setzero_pd(); NR / 4]; MR];
    for (i, row) in tile.iter_mut().enumerate() {
        for (v, vec) in row.iter_mut().enumerate() {
            *vec = _mm256_loadu_pd(tmp.as_ptr().add(i * NR + v * 4));
        }
    }
    let mut app = ap.as_ptr();
    let mut bpp = bp.as_ptr();
    for _ in 0..kc {
        let blo = _mm256_loadu_ps(bpp);
        let bhi = _mm256_loadu_ps(bpp.add(8));
        let b = [
            _mm256_cvtps_pd(_mm256_castps256_ps128(blo)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(blo, 1)),
            _mm256_cvtps_pd(_mm256_castps256_ps128(bhi)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(bhi, 1)),
        ];
        for (i, row) in tile.iter_mut().enumerate() {
            let av = _mm256_set1_pd(*app.add(i) as f64);
            for (vec, bv) in row.iter_mut().zip(b) {
                *vec = _mm256_add_pd(*vec, _mm256_mul_pd(av, bv));
            }
        }
        app = app.add(MR);
        bpp = bpp.add(NR);
    }
    for (i, row) in tile.iter().enumerate() {
        for (v, vec) in row.iter().enumerate() {
            _mm256_storeu_pd(tmp.as_mut_ptr().add(i * NR + v * 4), *vec);
        }
    }
    for i in 0..mr {
        let arow = &mut acc[(row0 + i) * ldc + col0..(row0 + i) * ldc + col0 + nr];
        arow.copy_from_slice(&tmp[i * NR..i * NR + nr]);
    }
}

/// `f64`-accumulating tiny-GEMM: one `f64` row buffer accumulated in pure
/// `k` order, matching the packed path's per-element chain exactly.
fn gemm_tiny_f64(m: usize, k: usize, n: usize, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    let mut row = vec![0.0f64; n];
    for i in 0..m {
        let crow = &mut out[i * n..(i + 1) * n];
        for (j, v) in row.iter_mut().enumerate() {
            *v = crow[j] as f64;
        }
        for kk in 0..k {
            let av = a.at(i, kk) as f64;
            for (j, cv) in row.iter_mut().enumerate() {
                *cv += av * b.at(kk, j) as f64;
            }
        }
        for (j, cv) in crow.iter_mut().enumerate() {
            // The wide dot products round to the f32 output exactly once,
            // here.
            *cv = row[j] as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        Tensor::from_fn(&[m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            (0..k).map(|kk| a.at(&[i, kk]) * b.at(&[kk, j])).sum()
        })
    }

    fn pseudo(dims: &[usize], salt: usize) -> Tensor {
        Tensor::from_fn(dims, |i| (((i * 31 + salt * 17) % 97) as f32 - 48.0) / 97.0)
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(&[4, 4], |i| i as f32);
        let id = Tensor::from_fn(&[4, 4], |i| if i / 4 == i % 4 { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_fn(&[5, 7], |i| (i as f32 * 0.37).sin());
        let b = Tensor::from_fn(&[5, 4], |i| (i as f32 * 0.11).cos());
        let tn = matmul_tn(&a, &b);
        let expect = matmul(&a.transpose2d(), &b);
        assert!(tn.allclose(&expect, 1e-5));

        let a2 = Tensor::from_fn(&[6, 5], |i| (i as f32 * 0.2).sin());
        let b2 = Tensor::from_fn(&[3, 5], |i| (i as f32 * 0.3).cos());
        let nt = matmul_nt(&a2, &b2);
        let expect2 = matmul(&a2, &b2.transpose2d());
        assert!(nt.allclose(&expect2, 1e-5));
    }

    #[test]
    fn large_parallel_path_matches_naive() {
        // Big enough to cross PARALLEL_THRESHOLD (128*128*128 = 2^21).
        let a = pseudo(&[128, 128], 0);
        let b = pseudo(&[128, 128], 1);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.allclose(&slow, 1e-3));
    }

    #[test]
    fn non_divisible_tile_sizes_match_naive_oracle() {
        // 127 × 63 × 33: every blocking parameter (MR, NR, KC, MC) is
        // exercised on a ragged edge, and the problem is large enough to
        // take the packed path.
        let a = pseudo(&[127, 63], 2);
        let b = pseudo(&[63, 33], 3);
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-3));

        // Transposed variants on the same ragged geometry.
        let at = pseudo(&[63, 127], 4); // [K, M]
        let tn = matmul_tn(&at, &b);
        assert!(tn.allclose(&matmul(&at.transpose2d(), &b), 1e-4));

        let bt = pseudo(&[33, 63], 5); // [N, K]
        let nt = matmul_nt(&a, &bt);
        assert!(nt.allclose(&matmul(&a, &bt.transpose2d()), 1e-4));
    }

    #[test]
    fn pooled_and_serial_kernels_agree_bitwise() {
        // Chunking only partitions rows of C; each element's reduction
        // order is fixed, so pooled and serial outputs must be identical
        // to the last bit, for all three variants.
        let a = pseudo(&[130, 70], 6);
        let b = pseudo(&[70, 90], 7);
        let bt = pseudo(&[90, 70], 8);
        let at = pseudo(&[70, 130], 9);

        let pooled = matmul(&a, &b);
        let serial = crate::pool::with_serial(|| matmul(&a, &b));
        assert_eq!(pooled.as_slice(), serial.as_slice());

        let pooled = matmul_nt(&a, &bt);
        let serial = crate::pool::with_serial(|| matmul_nt(&a, &bt));
        assert_eq!(pooled.as_slice(), serial.as_slice());

        let pooled = matmul_tn(&at, &b);
        let serial = crate::pool::with_serial(|| matmul_tn(&at, &b));
        assert_eq!(pooled.as_slice(), serial.as_slice());
    }

    #[test]
    fn repeated_gemm_calls_reuse_pool_threads() {
        let a = pseudo(&[128, 128], 10);
        let b = pseudo(&[128, 128], 11);
        let _warm = matmul(&a, &b);
        let spawned = crate::pool::stats().threads_spawned;
        for _ in 0..20 {
            let _ = matmul(&a, &b);
            let _ = matmul_tn(&a, &b);
            let _ = matmul_nt(&a, &b);
        }
        assert_eq!(
            crate::pool::stats().threads_spawned,
            spawned,
            "GEMM calls after warmup must not spawn threads"
        );
    }

    #[test]
    fn zero_heavy_inputs_are_handled_exactly() {
        // The seed kernel special-cased zeros; the packed kernel must get
        // the same answers without the branch.
        let a = Tensor::from_fn(
            &[96, 64],
            |i| if i % 3 == 0 { 0.0 } else { i as f32 * 1e-3 },
        );
        let b = Tensor::from_fn(&[64, 80], |i| if i % 2 == 0 { 0.0 } else { 1.0 });
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_inner_dims_panic() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// The F64-mode invariant: every element is the naive `k`-ordered
    /// `f64` dot product rounded once to `f32`, regardless of path.
    fn naive_matmul_f64(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        Tensor::from_fn(&[m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            (0..k)
                .map(|kk| a.at(&[i, kk]) as f64 * b.at(&[kk, j]) as f64)
                .sum::<f64>() as f32
        })
    }

    #[test]
    fn f64_mode_equals_naive_f64_oracle_bitwise() {
        use crate::accum::{with_accum, Accum};
        // Tiny path (2·3·4 = 24 ≤ TINY_THRESHOLD)...
        let a = pseudo(&[2, 3], 12);
        let b = pseudo(&[3, 4], 13);
        let got = with_accum(Accum::F64, || matmul(&a, &b));
        assert_eq!(got.as_slice(), naive_matmul_f64(&a, &b).as_slice());

        // ...the tiny path with a long k (2·64·4 = 512 ≤ TINY_THRESHOLD),
        // where rounding the f64 accumulator to f32 after every step, not
        // once at the end, changes the bits (at k = 3 it does not)...
        let a = pseudo(&[2, 64], 24);
        let b = pseudo(&[64, 4], 25);
        let got = with_accum(Accum::F64, || matmul(&a, &b));
        assert_eq!(got.as_slice(), naive_matmul_f64(&a, &b).as_slice());

        // ...packed serial path with ragged tiles and multiple KC blocks
        // (k = 300 > KC)...
        let a = pseudo(&[37, 300], 14);
        let b = pseudo(&[300, 45], 15);
        let got = with_accum(Accum::F64, || matmul(&a, &b));
        assert_eq!(got.as_slice(), naive_matmul_f64(&a, &b).as_slice());

        // ...and the pooled path (128³ = 2²¹ ≥ PARALLEL_THRESHOLD).
        let a = pseudo(&[128, 128], 16);
        let b = pseudo(&[128, 128], 17);
        let got = with_accum(Accum::F64, || matmul(&a, &b));
        assert_eq!(got.as_slice(), naive_matmul_f64(&a, &b).as_slice());
    }

    #[test]
    fn f64_mode_transposed_variants_match_oracle_bitwise() {
        use crate::accum::{with_accum, Accum};
        let at = pseudo(&[300, 37], 18); // [K, M]
        let b = pseudo(&[300, 45], 19); // [K, N]
        let got = with_accum(Accum::F64, || matmul_tn(&at, &b));
        assert_eq!(
            got.as_slice(),
            naive_matmul_f64(&at.transpose2d(), &b).as_slice()
        );

        let a = pseudo(&[37, 300], 20); // [M, K]
        let bt = pseudo(&[45, 300], 21); // [N, K]
        let got = with_accum(Accum::F64, || matmul_nt(&a, &bt));
        assert_eq!(
            got.as_slice(),
            naive_matmul_f64(&a, &bt.transpose2d()).as_slice()
        );
    }

    #[test]
    fn f64_mode_pooled_and_serial_agree_bitwise() {
        use crate::accum::{with_accum, Accum};
        let a = pseudo(&[130, 270], 22);
        let b = pseudo(&[270, 90], 23);
        let pooled = with_accum(Accum::F64, || matmul(&a, &b));
        let serial = crate::pool::with_serial(|| with_accum(Accum::F64, || matmul(&a, &b)));
        assert_eq!(pooled.as_slice(), serial.as_slice());
    }

    #[test]
    fn f64_microkernel_avx2_and_portable_are_bitwise_identical() {
        // Direct panel-level check, independent of the dispatch gate: pack
        // real operands, run both f64 microkernels on every tile, compare
        // the accumulators bit-for-bit.
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            let (m, k, n) = (9, 70, 21);
            let a_t = pseudo(&[m, k], 24);
            let b_t = pseudo(&[k, n], 25);
            let a = MatRef {
                data: a_t.as_slice(),
                rs: k,
                cs: 1,
            };
            let b = MatRef {
                data: b_t.as_slice(),
                rs: n,
                cs: 1,
            };
            let packed_b = pack_b_panels(k, n, &b);
            let np = n.div_ceil(NR);
            let mut acc_gen = vec![0.0f64; m * n];
            let mut acc_avx = vec![0.0f64; m * n];
            for_each_tile(
                k,
                n,
                np,
                m,
                &a,
                &packed_b,
                0,
                |kc, ap, bp, r0, c0, mr, nr| {
                    microkernel_f64_generic(kc, ap, bp, &mut acc_gen, r0, c0, n, mr, nr);
                    // SAFETY: avx2 presence checked above.
                    unsafe { microkernel_f64_avx2(kc, ap, bp, &mut acc_avx, r0, c0, n, mr, nr) };
                },
            );
            assert_eq!(acc_gen, acc_avx);
        }
    }

    #[test]
    fn f32_mode_unaffected_by_f64_additions() {
        use crate::accum::{with_accum, Accum};
        let a = pseudo(&[60, 60], 26);
        let b = pseudo(&[60, 60], 27);
        // The forced-F32 kernel still matches the f32 oracle, and the two
        // modes agree to f32 tolerance — F64 only changes rounding.
        let forced_f32 = with_accum(Accum::F32, || matmul(&a, &b));
        assert!(forced_f32.allclose(&naive_matmul(&a, &b), 1e-3));
        let f64_mode = with_accum(Accum::F64, || matmul(&a, &b));
        assert!(forced_f32.allclose(&f64_mode, 1e-4));
    }

    #[test]
    fn associativity_with_identity_chain() {
        let a = Tensor::from_fn(&[3, 3], |i| i as f32 * 0.5);
        let b = Tensor::from_fn(&[3, 3], |i| (9 - i) as f32);
        let c = Tensor::from_fn(&[3, 3], |i| ((i % 3) as f32) - 1.0);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.allclose(&right, 1e-3));
    }
}
