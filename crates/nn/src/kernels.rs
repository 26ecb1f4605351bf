//! Fused compute kernels and the dense-layer matmul, each with a fixed,
//! dispatch-independent accumulation order, plus the i8 symmetric
//! quantization used for stored embeddings.
//!
//! ## Determinism contract
//!
//! Every reducing kernel (dot, squared norm, fused cosine) accumulates
//! into **8 fixed lanes**: the input is consumed in chunks of 8, lane
//! `j` only ever sees elements `8k + j`, and a short tail is
//! zero-padded to a full chunk and pushed through the identical lane
//! step. The final reduction is the fixed tree
//! `s_j = l_j + l_{j+4}` for `j < 4`, then `(s_0 + s_2) + (s_1 + s_3)`.
//!
//! The scalar path executes this order with plain `f32` ops; the SIMD
//! paths (SSE2 always on x86_64, AVX when detected at runtime) execute
//! the *same* per-lane multiply-add sequence with packed ops — one
//! IEEE multiply and one IEEE add per element per path, no FMA
//! contraction — so scalar and SIMD results are **bitwise identical**
//! for every input, which keeps pipeline outputs stable across
//! `NGL_KERNEL` and `NGL_THREADS` settings.
//!
//! [`matmul`] reduces along `k` for each output element, so its rule is
//! the order of the plain `ikj` loop it replaced: lanes run across
//! output *columns* only, each element's sum starts at `0.0` and takes
//! its terms in `p = 0..k` order, a term whose `a` entry equals zero
//! (either sign) is skipped, and every kept term is one IEEE multiply
//! and one IEEE add, no FMA. Scalar and AVX compile the same blocked
//! body, so both return the `ikj` loop's bits for every input, signed
//! zeros and non-finite `b` entries included.
//!
//! ## Dispatch
//!
//! `NGL_KERNEL=scalar|simd` selects the path at first use (default:
//! `simd`, which falls back to scalar off x86_64);
//! [`set_kernel_mode`] overrides it at runtime for tests and benches.
//! Block scans resolve the kernel function once via [`dot_fn`] /
//! [`cosine_fn`] instead of re-dispatching per row. [`matmul`] under
//! `simd` runs its blocked body compiled for AVX when the CPU has it,
//! and the plain blocked loop otherwise.
//!
//! ## Quantized storage
//!
//! [`QuantizedVec`] stores a vector as one `f32` scale plus one `i8`
//! per element (~4× smaller at rest). The scale is constrained to a
//! **power of two**, so quantize/dequantize arithmetic is exact in
//! `f32` and the codec is *canonical*: re-encoding a dequantized
//! vector reproduces the identical `(scale, i8…)` bytes. Embeddings
//! are [`canonicalize`]d once at creation ("i8 at rest, f32 in
//! compute"), after which every storage round-trip is lossless.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lane count of the fixed accumulation order (one AVX register of
/// `f32`, or two SSE registers).
pub const LANES: usize = 8;

/// Env var selecting the kernel path (`scalar` or `simd`).
pub const KERNEL_ENV: &str = "NGL_KERNEL";

/// Which kernel implementation backs the dispatched entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Plain `f32` loops in the fixed 8-lane order.
    Scalar,
    /// `core::arch` packed ops (AVX or SSE2 on x86_64) in the same
    /// order; identical results bitwise. Falls back to scalar on
    /// non-x86_64 targets.
    Simd,
}

/// 0 = unresolved, 1 = scalar, 2 = simd.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The active kernel mode, resolving `NGL_KERNEL` on first use
/// (unknown or missing values default to [`KernelMode::Simd`]).
pub fn kernel_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Scalar,
        2 => KernelMode::Simd,
        _ => {
            let mode = match std::env::var(KERNEL_ENV).ok().as_deref() {
                Some("scalar") => KernelMode::Scalar,
                _ => KernelMode::Simd,
            };
            set_kernel_mode(mode);
            mode
        }
    }
}

/// Overrides the dispatched kernel path. Safe at any point — both
/// paths produce bitwise-identical results — so tests can flip modes
/// mid-process to compare them.
pub fn set_kernel_mode(mode: KernelMode) {
    MODE.store(
        match mode {
            KernelMode::Scalar => 1,
            KernelMode::Simd => 2,
        },
        Ordering::Relaxed,
    );
}

/// Signature of the one-vs-one reducing kernels.
pub type VecKernel = fn(&[f32], &[f32]) -> f32;

// ---- fixed-order scalar reference ------------------------------------

/// Zero-pads a short tail to one full lane chunk.
#[inline(always)]
fn tail_pad(src: &[f32]) -> [f32; LANES] {
    let mut buf = [0.0f32; LANES];
    buf[..src.len()].copy_from_slice(src);
    buf
}

/// The fixed reduction tree shared by every path.
#[inline(always)]
fn reduce8(l: [f32; LANES]) -> f32 {
    let s0 = l[0] + l[4];
    let s1 = l[1] + l[5];
    let s2 = l[2] + l[6];
    let s3 = l[3] + l[7];
    (s0 + s2) + (s1 + s3)
}

fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            lanes[j] += x[j] * y[j];
        }
    }
    if !ca.remainder().is_empty() {
        let x = tail_pad(ca.remainder());
        let y = tail_pad(cb.remainder());
        for j in 0..LANES {
            lanes[j] += x[j] * y[j];
        }
    }
    reduce8(lanes)
}

fn sq_norm_scalar(a: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    for x in &mut ca {
        for j in 0..LANES {
            lanes[j] += x[j] * x[j];
        }
    }
    if !ca.remainder().is_empty() {
        let x = tail_pad(ca.remainder());
        for j in 0..LANES {
            lanes[j] += x[j] * x[j];
        }
    }
    reduce8(lanes)
}

/// Guard against the zero vector, matching `cosine::EPS`.
const COS_EPS: f32 = 1e-12;

/// Combines the three fused accumulations into the clamped similarity.
#[inline(always)]
fn cosine_finish(dot: f32, na: f32, nb: f32) -> f32 {
    let denom = (na.sqrt() * nb.sqrt()).max(COS_EPS);
    (dot / denom).clamp(-1.0, 1.0)
}

fn cosine_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ld = [0.0f32; LANES];
    let mut la = [0.0f32; LANES];
    let mut lb = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            ld[j] += x[j] * y[j];
            la[j] += x[j] * x[j];
            lb[j] += y[j] * y[j];
        }
    }
    if !ca.remainder().is_empty() {
        let x = tail_pad(ca.remainder());
        let y = tail_pad(cb.remainder());
        for j in 0..LANES {
            ld[j] += x[j] * y[j];
            la[j] += x[j] * x[j];
            lb[j] += y[j] * y[j];
        }
    }
    cosine_finish(reduce8(ld), reduce8(la), reduce8(lb))
}

fn axpy_scalar(y: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Collects the terms of one `a` row that the sum keeps — every
/// `a_p != 0`, as `(offset of b's row p, a_p)` in `p` order — without
/// a data-dependent branch. Returns how many there are.
#[inline(always)]
fn matmul_terms(a_row: &[f32], n: usize, terms: &mut [(usize, f32)]) -> usize {
    let mut len = 0;
    for (p, &a) in a_row.iter().enumerate() {
        terms[len] = (p * n, a);
        len += usize::from(a != 0.0);
    }
    len
}

/// Output columns `j0..j0 + W` of one matmul row, summed in registers:
/// `out_j = 0 + a_p b_pj + …` over the kept terms in `p` order.
#[inline(always)]
fn matmul_cols<const W: usize>(terms: &[(usize, f32)], b: &[f32], j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for &(off, a) in terms {
        let b_cols = &b[off + j0..][..W];
        for j in 0..W {
            acc[j] += a * b_cols[j];
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

/// The matmul body both dispatch paths compile. Each output row runs
/// in column blocks of up to 64 (eight AVX registers of accumulators)
/// in steps of 8, then single columns; a row's blocks share one pass
/// where they fit, so their sums advance side by side.
#[inline(always)]
fn matmul_body(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
    terms: &mut [(usize, f32)],
) {
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let len = matmul_terms(a_row, n, terms);
        let terms = &terms[..len];
        let mut j = 0;
        while n - j >= 64 {
            matmul_cols::<64>(terms, b, j, out_row);
            j += 64;
        }
        match (n - j) / 8 {
            7 => matmul_cols::<56>(terms, b, j, out_row),
            6 => matmul_cols::<48>(terms, b, j, out_row),
            5 => matmul_cols::<40>(terms, b, j, out_row),
            4 => matmul_cols::<32>(terms, b, j, out_row),
            3 => matmul_cols::<24>(terms, b, j, out_row),
            2 => matmul_cols::<16>(terms, b, j, out_row),
            1 => matmul_cols::<8>(terms, b, j, out_row),
            _ => {}
        }
        for j in n - n % 8..n {
            matmul_cols::<1>(terms, b, j, out_row);
        }
    }
}

// ---- SIMD paths (x86_64) ---------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{cosine_finish, matmul_body, tail_pad, LANES};
    use core::arch::x86_64::*;

    /// [`matmul_body`] compiled for AVX: the column blocks become
    /// 256-bit registers, with the same multiply and add per term.
    /// Unsafe to call unless the caller guarantees AVX
    /// (`avx_available()`).
    #[target_feature(enable = "avx")]
    pub fn matmul_avx(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        out: &mut [f32],
        terms: &mut [(usize, f32)],
    ) {
        matmul_body(a, b, k, n, out, terms);
    }

    /// `(s_0 + s_2) + (s_1 + s_3)` of `s_j = l_j + l_{j+4}`, where `s`
    /// is already the packed 4-lane sum. SSE value intrinsics are part
    /// of the x86_64 baseline, so this is a safe function.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn reduce4(s: __m128) -> f32 {
        // t = (s0+s2, s1+s3, ..)
        let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
        // u0 = (s0+s2) + (s1+s3)
        let u = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0b01));
        _mm_cvtss_f32(u)
    }

    macro_rules! avx_reduce {
        ($acc:expr) => {{
            let lo = _mm256_castps256_ps128($acc);
            let hi = _mm256_extractf128_ps($acc, 1);
            // s_j = l_j + l_{j+4}
            reduce4(_mm_add_ps(lo, hi))
        }};
    }

    /// 8-lane AVX dot. `#[target_feature]` makes this unsafe to call
    /// unless the caller guarantees AVX (`avx_available()`). Lengths
    /// need not match: the reduction runs over the common prefix,
    /// exactly like the scalar `zip` path.
    #[target_feature(enable = "avx")]
    pub fn dot_avx(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let mut acc = _mm256_setzero_ps();
        for k in 0..chunks {
            // SAFETY: k < chunks = n / LANES, so [k*LANES, k*LANES + 8)
            // is in bounds of both slices (n <= a.len(), b.len()).
            let (x, y) = unsafe {
                (
                    _mm256_loadu_ps(a.as_ptr().add(k * LANES)),
                    _mm256_loadu_ps(b.as_ptr().add(k * LANES)),
                )
            };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(x, y));
        }
        if !n.is_multiple_of(LANES) {
            let x = tail_pad(&a[chunks * LANES..n]);
            let y = tail_pad(&b[chunks * LANES..n]);
            // SAFETY: tail_pad returns an owned [f32; LANES] on the
            // stack, so one 8-lane load from its start is in bounds.
            let (xv, yv) = unsafe { (_mm256_loadu_ps(x.as_ptr()), _mm256_loadu_ps(y.as_ptr())) };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, yv));
        }
        avx_reduce!(acc)
    }

    /// 8-lane AVX squared norm; unsafe to call unless the caller
    /// guarantees AVX (`avx_available()`).
    #[target_feature(enable = "avx")]
    pub fn sq_norm_avx(a: &[f32]) -> f32 {
        let chunks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        for k in 0..chunks {
            // SAFETY: k < chunks = len / LANES, so the 8-lane load at
            // k*LANES is in bounds.
            let x = unsafe { _mm256_loadu_ps(a.as_ptr().add(k * LANES)) };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(x, x));
        }
        if !a.len().is_multiple_of(LANES) {
            let x = tail_pad(&a[chunks * LANES..]);
            // SAFETY: tail_pad returns an owned [f32; LANES]; the
            // 8-lane load from its start is in bounds.
            let xv = unsafe { _mm256_loadu_ps(x.as_ptr()) };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, xv));
        }
        avx_reduce!(acc)
    }

    /// 8-lane AVX fused cosine; unsafe to call unless the caller
    /// guarantees AVX (`avx_available()`). Lengths need not match: the
    /// reduction runs over the common prefix, exactly like the scalar
    /// `zip` path.
    #[target_feature(enable = "avx")]
    pub fn cosine_avx(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let mut ad = _mm256_setzero_ps();
        let mut aa = _mm256_setzero_ps();
        let mut ab = _mm256_setzero_ps();
        for k in 0..chunks {
            // SAFETY: k < chunks = n / LANES, so [k*LANES, k*LANES + 8)
            // is in bounds of both slices (n <= a.len(), b.len()).
            let (x, y) = unsafe {
                (
                    _mm256_loadu_ps(a.as_ptr().add(k * LANES)),
                    _mm256_loadu_ps(b.as_ptr().add(k * LANES)),
                )
            };
            ad = _mm256_add_ps(ad, _mm256_mul_ps(x, y));
            aa = _mm256_add_ps(aa, _mm256_mul_ps(x, x));
            ab = _mm256_add_ps(ab, _mm256_mul_ps(y, y));
        }
        if !n.is_multiple_of(LANES) {
            let x = tail_pad(&a[chunks * LANES..n]);
            let y = tail_pad(&b[chunks * LANES..n]);
            // SAFETY: tail_pad returns owned [f32; LANES] buffers, so
            // 8-lane loads from their starts are in bounds.
            let (xv, yv) = unsafe { (_mm256_loadu_ps(x.as_ptr()), _mm256_loadu_ps(y.as_ptr())) };
            ad = _mm256_add_ps(ad, _mm256_mul_ps(xv, yv));
            aa = _mm256_add_ps(aa, _mm256_mul_ps(xv, xv));
            ab = _mm256_add_ps(ab, _mm256_mul_ps(yv, yv));
        }
        cosine_finish(avx_reduce!(ad), avx_reduce!(aa), avx_reduce!(ab))
    }

    /// 8-lane AVX in-place `y += alpha * x`; unsafe to call unless
    /// the caller guarantees AVX (`avx_available()`). Lengths need not
    /// match: the update runs over the common prefix, exactly like the
    /// scalar `zip` path.
    #[target_feature(enable = "avx")]
    pub fn axpy_avx(y: &mut [f32], alpha: f32, x: &[f32]) {
        let n = y.len().min(x.len());
        let chunks = n / LANES;
        let al = _mm256_set1_ps(alpha);
        for k in 0..chunks {
            // SAFETY: k < chunks = n / LANES, so the 8-lane load/store
            // window [k*LANES, k*LANES + 8) is in bounds of both
            // slices; x and y are distinct borrows, so no aliasing.
            unsafe {
                let xv = _mm256_loadu_ps(x.as_ptr().add(k * LANES));
                let yv = _mm256_loadu_ps(y.as_ptr().add(k * LANES));
                _mm256_storeu_ps(
                    y.as_mut_ptr().add(k * LANES),
                    _mm256_add_ps(yv, _mm256_mul_ps(al, xv)),
                );
            }
        }
        // Elementwise op: a scalar tail is bitwise identical.
        for i in chunks * LANES..n {
            y[i] += alpha * x[i];
        }
    }

    /// SSE2 versions: two 128-bit accumulators standing in for the
    /// low/high halves of the 8-lane register. `#[target_feature]`
    /// makes these unsafe to call, but the caller's obligation — SSE2
    /// support — is part of the x86_64 baseline, so every x86_64 call
    /// site discharges it trivially.
    #[target_feature(enable = "sse2")]
    pub fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let mut lo = _mm_setzero_ps();
        let mut hi = _mm_setzero_ps();
        for k in 0..chunks {
            // SAFETY: k < chunks = n / LANES, so offsets up to
            // k*LANES + 8 are in bounds of both slices.
            let (x0, y0, x1, y1) = unsafe {
                (
                    _mm_loadu_ps(a.as_ptr().add(k * LANES)),
                    _mm_loadu_ps(b.as_ptr().add(k * LANES)),
                    _mm_loadu_ps(a.as_ptr().add(k * LANES + 4)),
                    _mm_loadu_ps(b.as_ptr().add(k * LANES + 4)),
                )
            };
            lo = _mm_add_ps(lo, _mm_mul_ps(x0, y0));
            hi = _mm_add_ps(hi, _mm_mul_ps(x1, y1));
        }
        if !n.is_multiple_of(LANES) {
            let x = tail_pad(&a[chunks * LANES..n]);
            let y = tail_pad(&b[chunks * LANES..n]);
            // SAFETY: tail_pad returns owned [f32; LANES] (= 8) stack
            // buffers, so 4-lane loads at offsets 0 and 4 are in
            // bounds.
            unsafe {
                lo = _mm_add_ps(lo, _mm_mul_ps(_mm_loadu_ps(x.as_ptr()), _mm_loadu_ps(y.as_ptr())));
                hi = _mm_add_ps(
                    hi,
                    _mm_mul_ps(_mm_loadu_ps(x.as_ptr().add(4)), _mm_loadu_ps(y.as_ptr().add(4))),
                );
            }
        }
        reduce4(_mm_add_ps(lo, hi))
    }

    #[target_feature(enable = "sse2")]
    pub fn sq_norm_sse2(a: &[f32]) -> f32 {
        dot_sse2(a, a)
    }

    #[target_feature(enable = "sse2")]
    pub fn cosine_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let mut d_lo = _mm_setzero_ps();
        let mut d_hi = _mm_setzero_ps();
        let mut a_lo = _mm_setzero_ps();
        let mut a_hi = _mm_setzero_ps();
        let mut b_lo = _mm_setzero_ps();
        let mut b_hi = _mm_setzero_ps();
        let mut step = |x0: __m128, y0: __m128, x1: __m128, y1: __m128| {
            d_lo = _mm_add_ps(d_lo, _mm_mul_ps(x0, y0));
            d_hi = _mm_add_ps(d_hi, _mm_mul_ps(x1, y1));
            a_lo = _mm_add_ps(a_lo, _mm_mul_ps(x0, x0));
            a_hi = _mm_add_ps(a_hi, _mm_mul_ps(x1, x1));
            b_lo = _mm_add_ps(b_lo, _mm_mul_ps(y0, y0));
            b_hi = _mm_add_ps(b_hi, _mm_mul_ps(y1, y1));
        };
        for k in 0..chunks {
            // SAFETY: k < chunks = n / LANES, so offsets up to
            // k*LANES + 8 are in bounds of both slices.
            let (x0, y0, x1, y1) = unsafe {
                (
                    _mm_loadu_ps(a.as_ptr().add(k * LANES)),
                    _mm_loadu_ps(b.as_ptr().add(k * LANES)),
                    _mm_loadu_ps(a.as_ptr().add(k * LANES + 4)),
                    _mm_loadu_ps(b.as_ptr().add(k * LANES + 4)),
                )
            };
            step(x0, y0, x1, y1);
        }
        if !n.is_multiple_of(LANES) {
            let x = tail_pad(&a[chunks * LANES..n]);
            let y = tail_pad(&b[chunks * LANES..n]);
            // SAFETY: tail_pad returns owned [f32; LANES] (= 8) stack
            // buffers, so 4-lane loads at offsets 0 and 4 are in
            // bounds.
            let (x0, y0, x1, y1) = unsafe {
                (
                    _mm_loadu_ps(x.as_ptr()),
                    _mm_loadu_ps(y.as_ptr()),
                    _mm_loadu_ps(x.as_ptr().add(4)),
                    _mm_loadu_ps(y.as_ptr().add(4)),
                )
            };
            step(x0, y0, x1, y1);
        }
        cosine_finish(
            reduce4(_mm_add_ps(d_lo, d_hi)),
            reduce4(_mm_add_ps(a_lo, a_hi)),
            reduce4(_mm_add_ps(b_lo, b_hi)),
        )
    }

    #[target_feature(enable = "sse2")]
    pub fn axpy_sse2(y: &mut [f32], alpha: f32, x: &[f32]) {
        let n = y.len().min(x.len());
        let chunks = n / 4;
        let al = _mm_set1_ps(alpha);
        for k in 0..chunks {
            // SAFETY: k < chunks = n / 4, so the 4-lane load/store
            // window [k*4, k*4 + 4) is in bounds of both slices; x and
            // y are distinct borrows, so no aliasing.
            unsafe {
                let xv = _mm_loadu_ps(x.as_ptr().add(k * 4));
                let yv = _mm_loadu_ps(y.as_ptr().add(k * 4));
                _mm_storeu_ps(y.as_mut_ptr().add(k * 4), _mm_add_ps(yv, _mm_mul_ps(al, xv)));
            }
        }
        for i in chunks * 4..n {
            y[i] += alpha * x[i];
        }
    }
}

// ---- dispatch ---------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx_available() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// The resolved dot kernel — resolve once before a block scan instead
/// of re-dispatching per row.
pub fn dot_fn() -> VecKernel {
    match kernel_mode() {
        KernelMode::Scalar => dot_scalar,
        KernelMode::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx_available() {
                    // SAFETY: AVX presence was just checked.
                    |a, b| unsafe { x86::dot_avx(a, b) }
                } else {
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    |a, b| unsafe { x86::dot_sse2(a, b) }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            dot_scalar
        }
    }
}

/// The resolved fused-cosine kernel.
pub fn cosine_fn() -> VecKernel {
    match kernel_mode() {
        KernelMode::Scalar => cosine_scalar,
        KernelMode::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx_available() {
                    // SAFETY: AVX presence was just checked.
                    |a, b| unsafe { x86::cosine_avx(a, b) }
                } else {
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    |a, b| unsafe { x86::cosine_sse2(a, b) }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            cosine_scalar
        }
    }
}

/// Dot product in the fixed 8-lane order.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    match kernel_mode() {
        KernelMode::Scalar => dot_scalar(a, b),
        KernelMode::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx_available() {
                    // SAFETY: AVX presence was just checked.
                    unsafe { x86::dot_avx(a, b) }
                } else {
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    unsafe { x86::dot_sse2(a, b) }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            dot_scalar(a, b)
        }
    }
}

/// Squared Euclidean norm in the fixed 8-lane order.
#[inline]
pub fn sq_norm(a: &[f32]) -> f32 {
    match kernel_mode() {
        KernelMode::Scalar => sq_norm_scalar(a),
        KernelMode::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx_available() {
                    // SAFETY: AVX presence was just checked.
                    unsafe { x86::sq_norm_avx(a) }
                } else {
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    unsafe { x86::sq_norm_sse2(a) }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            sq_norm_scalar(a)
        }
    }
}

/// Fused single-pass cosine similarity in `[-1, 1]` (0 when either
/// vector is ~zero), accumulating dot and both squared norms together.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    match kernel_mode() {
        KernelMode::Scalar => cosine_scalar(a, b),
        KernelMode::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx_available() {
                    // SAFETY: AVX presence was just checked.
                    unsafe { x86::cosine_avx(a, b) }
                } else {
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    unsafe { x86::cosine_sse2(a, b) }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            cosine_scalar(a, b)
        }
    }
}

/// In-place `y += alpha * x`. Elementwise (no accumulation), so every
/// path is trivially bitwise identical.
#[inline]
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    match kernel_mode() {
        KernelMode::Scalar => axpy_scalar(y, alpha, x),
        KernelMode::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx_available() {
                    // SAFETY: AVX presence was just checked.
                    unsafe { x86::axpy_avx(y, alpha, x) }
                } else {
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    unsafe { x86::axpy_sse2(y, alpha, x) }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            axpy_scalar(y, alpha, x)
        }
    }
}

/// `out = a @ b` for row-major `a` (`m×k`), `b` (`k×n`) and `out`
/// (`m×n`, overwritten). Every output element is the sum
/// `0 + a_i0 b_0j + a_i1 b_1j + …` taken in `p` order with one IEEE
/// multiply and one IEEE add per term, skipping the terms whose
/// `a_ip == 0`; lanes run across output columns only, so every path
/// returns the bits of the plain `ikj` loop.
///
/// # Panics
/// Panics when a buffer length does not match its shape.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    assert_eq!(out.len(), m * n, "matmul output length");
    if k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    let terms = &mut vec![(0, 0.0); k];
    #[cfg(target_arch = "x86_64")]
    if kernel_mode() == KernelMode::Simd && avx_available() {
        // SAFETY: AVX presence was just checked.
        return unsafe { x86::matmul_avx(a, b, k, n, out, terms) };
    }
    matmul_body(a, b, k, n, out, terms);
}

/// One-vs-many block scan: the row with the highest cosine similarity
/// to `query` (first row wins ties — strict `>` update). Resolves the
/// kernel once for the whole scan. Returns `None` for no rows.
pub fn cosine_best_of<P: AsRef<[f32]>>(query: &[f32], rows: &[P]) -> Option<(usize, f32)> {
    let cos = cosine_fn();
    let mut best: Option<(usize, f32)> = None;
    for (i, row) in rows.iter().enumerate() {
        let s = cos(query, row.as_ref());
        if best.is_none_or(|(_, bs)| s > bs) {
            best = Some((i, s));
        }
    }
    best
}

// ---- i8 symmetric quantization ---------------------------------------

/// Largest representable quantized magnitude (symmetric — `-128` is
/// never produced, so negation is always exact).
pub const Q_MAX: i32 = 127;

/// A vector quantized to one `i8` per element with a shared
/// power-of-two scale: `x_i ≈ data[i] * scale`, `|data[i]| ≤ 127`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVec {
    /// Power-of-two dequantization step (0.0 for the all-zero vector).
    pub scale: f32,
    /// Quantized elements in `[-127, 127]`.
    pub data: Vec<i8>,
}

/// The smallest power of two `p` with `max_abs/p ≤ ~127`, clamped to
/// the normal `f32` range so multiplying / dividing by it is exact.
/// Returns 0.0 for a zero (or non-finite) magnitude.
fn quant_scale(max_abs: f32) -> f32 {
    if !max_abs.is_finite() || max_abs <= 0.0 {
        return 0.0;
    }
    let t = max_abs / 127.0;
    let bits = t.to_bits();
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x7F_FFFF;
    let mut k = if exp == 0 { -126 } else { exp - 127 };
    if mant != 0 && exp != 0 {
        k += 1; // round up to the next power of two
    }
    k = k.clamp(-126, 127);
    f32::from_bits(((k + 127) as u32) << 23)
}

impl QuantizedVec {
    /// Quantizes `xs`. The maximum absolute error is `scale / 2`, zero
    /// elements are preserved exactly, and the encoding is canonical:
    /// quantizing the dequantized vector (`data[i] * scale`) reproduces
    /// the same `(scale, data)` bit for bit.
    pub fn quantize(xs: &[f32]) -> Self {
        let max_abs = xs.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let scale = quant_scale(max_abs);
        if scale == 0.0 {
            return Self { scale, data: vec![0; xs.len()] };
        }
        let inv = 1.0 / scale; // power of two: exact
        let data: Vec<i8> = xs
            .iter()
            .map(|&x| (x * inv).round().clamp(-(Q_MAX as f32), Q_MAX as f32) as i8)
            .collect();
        // Sub-normal magnitudes can hit the 2^-126 scale clamp and
        // quantize to all zeros; collapse to the canonical zero
        // encoding so re-quantizing the round-trip stays stable.
        if data.iter().all(|&q| q == 0) {
            return Self { scale: 0.0, data };
        }
        Self { scale, data }
    }

    /// Reconstructs the `f32` vector (`data[i] * scale`, exact for a
    /// power-of-two scale).
    #[cfg(test)]
    fn dequantize(&self) -> Vec<f32> {
        self.data.iter().map(|&q| q as f32 * self.scale).collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Encoded payload size in bytes (scale + elements), for storage
    /// accounting; the `f32` equivalent is `4 * len`.
    pub fn payload_bytes(&self) -> usize {
        4 + self.data.len()
    }
}

/// Replaces `xs` with its quantize→dequantize round-trip, making the
/// values *canonical*: every later [`QuantizedVec::quantize`] of the
/// slice is bitwise lossless. The pipeline applies this exactly once,
/// where an embedding is created.
pub fn canonicalize(xs: &mut [f32]) {
    let q = QuantizedVec::quantize(xs);
    if q.scale == 0.0 {
        for x in xs.iter_mut() {
            *x = 0.0;
        }
        return;
    }
    for (x, &qi) in xs.iter_mut().zip(&q.data) {
        *x = qi as f32 * q.scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f32s covering sign, magnitude and
    /// exact-zero cases.
    fn gen(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|i| {
                s ^= s >> 27;
                s = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
                if i % 11 == 7 {
                    0.0
                } else {
                    ((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
                }
            })
            .collect()
    }

    fn scalar_kernels() -> [(&'static str, VecKernel); 3] {
        [("dot", dot_scalar), ("sq_norm", |a, _| sq_norm_scalar(a)), ("cosine", cosine_scalar)]
    }

    #[cfg(target_arch = "x86_64")]
    fn simd_kernels() -> Vec<(&'static str, VecKernel)> {
        let mut v: Vec<(&'static str, VecKernel)> = vec![
            // SAFETY: SSE2 is part of the x86_64 baseline.
            ("dot", |a, b| unsafe { x86::dot_sse2(a, b) }),
            // SAFETY: SSE2 is part of the x86_64 baseline.
            ("sq_norm", |a, _| unsafe { x86::sq_norm_sse2(a) }),
            // SAFETY: SSE2 is part of the x86_64 baseline.
            ("cosine", |a, b| unsafe { x86::cosine_sse2(a, b) }),
        ];
        if avx_available() {
            // SAFETY: AVX presence was just checked.
            v.push(("dot", |a, b| unsafe { x86::dot_avx(a, b) }));
            // SAFETY: AVX presence was just checked.
            v.push(("sq_norm", |a, _| unsafe { x86::sq_norm_avx(a) }));
            // SAFETY: AVX presence was just checked.
            v.push(("cosine", |a, b| unsafe { x86::cosine_avx(a, b) }));
        }
        v
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_matches_scalar_bitwise_across_lane_remainders() {
        // Every tail remainder 0..8 several times over, plus the empty
        // vector: lengths 0..=67.
        for n in 0..=67usize {
            let a = gen(2 * n as u64 + 1, n);
            let b = gen(3 * n as u64 + 7, n);
            for (name, simd) in simd_kernels() {
                let scalar = scalar_kernels()
                    .into_iter()
                    .find(|(s, _)| *s == name)
                    .expect("paired scalar kernel")
                    .1;
                let s = scalar(&a, &b);
                let v = simd(&a, &b);
                assert_eq!(s.to_bits(), v.to_bits(), "{name} len {n}: {s} vs {v}");
            }
            // axpy: elementwise, compare whole output vectors.
            let mut ys = gen(5 * n as u64 + 3, n);
            let mut yv = ys.clone();
            axpy_scalar(&mut ys, 0.37, &a);
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { x86::axpy_sse2(&mut yv, 0.37, &a) };
            assert_eq!(
                ys.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                yv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "axpy sse2 len {n}"
            );
            if avx_available() {
                let mut ya = gen(5 * n as u64 + 3, n);
                // SAFETY: AVX presence was just checked.
                unsafe { x86::axpy_avx(&mut ya, 0.37, &a) };
                assert_eq!(
                    ys.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    ya.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "axpy avx len {n}"
                );
            }
        }
    }

    #[test]
    fn dispatched_modes_agree_bitwise() {
        let a = gen(11, 33);
        let b = gen(13, 33);
        let prev = kernel_mode();
        set_kernel_mode(KernelMode::Scalar);
        let (d1, n1, c1) = (dot(&a, &b), sq_norm(&a), cosine(&a, &b));
        set_kernel_mode(KernelMode::Simd);
        let (d2, n2, c2) = (dot(&a, &b), sq_norm(&a), cosine(&a, &b));
        set_kernel_mode(prev);
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(n1.to_bits(), n2.to_bits());
        assert_eq!(c1.to_bits(), c2.to_bits());
    }

    /// The `ikj` loop `Matrix::matmul` ran before the blocked kernel,
    /// kept as the bitwise reference.
    fn matmul_ikj(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a[i * k..(i + 1) * k].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Seeded matmul cases: ~30% exact zeros and some `-0.0` in `a`,
    /// some `±inf` and NaN in `b`. NaN is the x86 default quiet NaN, the
    /// bit pattern `inf - inf` produces, so every NaN in a product has
    /// the same bits and the comparison does not depend on which operand
    /// an add propagates.
    /// One seeded matmul input: `a` is `m×k`, `b` is `k×n`.
    struct MatmulCase {
        m: usize,
        k: usize,
        n: usize,
        a: Vec<f32>,
        b: Vec<f32>,
    }

    fn matmul_cases() -> Vec<MatmulCase> {
        let mut rng = ngl_runtime::rng::SplitMix64::new(0x4D4D);
        let mut cases = Vec::new();
        for c in 0..120 {
            let m = rng.gen_range(1..41usize);
            let k = rng.gen_range(1..101usize);
            let n = match c % 4 {
                0 => [9, 32, 48][c / 4 % 3],
                _ => rng.gen_range(1..71usize),
            };
            let a = (0..m * k)
                .map(|_| match rng.gen_range(0..20u32) {
                    0..=5 => 0.0,
                    6 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            let b = (0..k * n)
                .map(|_| match rng.gen_range(0..200u32) {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    2 => f32::from_bits(0xFFC0_0000),
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            cases.push(MatmulCase { m, k, n, a, b });
        }
        cases
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_matches_the_ikj_loop_bitwise() {
        for MatmulCase { m, k, n, a, b } in matmul_cases() {
            let want = bits(&matmul_ikj(&a, &b, m, k, n));
            let terms = &mut vec![(0, 0.0); k];
            let mut out = vec![f32::NAN; m * n];
            matmul_body(&a, &b, k, n, &mut out, terms);
            assert_eq!(bits(&out), want, "scalar {m}x{k}x{n}");
            #[cfg(target_arch = "x86_64")]
            if avx_available() {
                let mut out = vec![f32::NAN; m * n];
                // SAFETY: AVX presence was just checked.
                unsafe { x86::matmul_avx(&a, &b, k, n, &mut out, terms) };
                assert_eq!(bits(&out), want, "avx {m}x{k}x{n}");
            }
        }
        // Degenerate shapes overwrite the output with zeros.
        let mut out = vec![f32::NAN; 6];
        matmul(&[], &[], 2, 0, 3, &mut out);
        assert_eq!(out, vec![0.0; 6]);
        matmul(&[1.0, 2.0], &[], 2, 1, 0, &mut []);
    }

    #[test]
    fn dot_matches_naive_within_tolerance() {
        for n in [1usize, 3, 8, 17, 64] {
            let a = gen(n as u64, n);
            let b = gen(n as u64 + 100, n);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let d = dot_scalar(&a, &b);
            assert!((naive - d).abs() <= 1e-4 * (1.0 + naive.abs()), "len {n}: {naive} vs {d}");
        }
    }

    #[test]
    fn cosine_best_of_first_max_wins() {
        let rows = vec![vec![1.0f32, 0.0], vec![0.0, 1.0], vec![2.0, 0.0], vec![1.0, 0.0]];
        // Rows 0, 2 and 3 all have similarity 1 with the query; the
        // first must win.
        let (i, s) = cosine_best_of(&[3.0, 0.0], &rows).expect("non-empty");
        assert_eq!(i, 0);
        assert!((s - 1.0).abs() < 1e-6);
        assert_eq!(cosine_best_of::<Vec<f32>>(&[1.0], &[]), None);
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        for seed in 0..32u64 {
            let xs = gen(seed, 40);
            let q = QuantizedVec::quantize(&xs);
            let back = q.dequantize();
            for (i, (&x, &y)) in xs.iter().zip(&back).enumerate() {
                assert!(
                    (x - y).abs() <= q.scale * 0.5,
                    "seed {seed} elem {i}: {x} -> {y}, scale {}",
                    q.scale
                );
                if x == 0.0 {
                    assert_eq!(y, 0.0, "zero must be preserved exactly");
                }
            }
        }
    }

    #[test]
    fn quantization_is_canonical() {
        for seed in 0..32u64 {
            let xs = gen(seed.wrapping_mul(77).wrapping_add(5), 24);
            let q1 = QuantizedVec::quantize(&xs);
            let mut canon = xs.clone();
            canonicalize(&mut canon);
            // Dequantize agrees with canonicalize…
            assert_eq!(q1.dequantize(), canon, "seed {seed}");
            // …and re-quantizing canonical values is bitwise stable.
            let q2 = QuantizedVec::quantize(&canon);
            assert_eq!(q1.scale.to_bits(), q2.scale.to_bits(), "seed {seed} scale");
            assert_eq!(q1.data, q2.data, "seed {seed} data");
            // Canonicalizing twice is the identity.
            let mut canon2 = canon.clone();
            canonicalize(&mut canon2);
            assert_eq!(
                canon.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                canon2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "seed {seed} idempotency"
            );
        }
    }

    #[test]
    fn quantize_edge_cases() {
        // All zeros.
        let q = QuantizedVec::quantize(&[0.0, 0.0, -0.0]);
        assert_eq!(q.scale, 0.0);
        assert_eq!(q.dequantize(), vec![0.0, 0.0, 0.0]);
        // Empty.
        let q = QuantizedVec::quantize(&[]);
        assert!(q.is_empty());
        // Tiny magnitudes stay in the normal-scale clamp.
        let xs = [1.0e-40f32, -2.0e-40, 0.0];
        let q = QuantizedVec::quantize(&xs);
        let mut canon = xs;
        canonicalize(&mut canon);
        assert_eq!(q.dequantize(), canon.to_vec());
        let q2 = QuantizedVec::quantize(&canon);
        assert_eq!(q.scale.to_bits(), q2.scale.to_bits());
        assert_eq!(q.data, q2.data);
        // Huge magnitudes.
        let xs = [3.0e38f32, -1.0e38];
        let q = QuantizedVec::quantize(&xs);
        assert!(q.scale.is_finite() && q.scale > 0.0);
        let e0 = (q.dequantize()[0] - xs[0]).abs();
        assert!(e0 <= q.scale * 0.5);
    }

    #[test]
    fn payload_bytes_ratio_is_quarter_ish() {
        let q = QuantizedVec::quantize(&gen(7, 64));
        let ratio = q.payload_bytes() as f64 / (4 * 64) as f64;
        assert!(ratio <= 0.30, "ratio {ratio}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ngl_runtime::rng::for_each_case;

    #[test]
    fn quantize_roundtrip_bounds() {
        for_each_case(0x0_0001, 256, |rng| {
            let xs: Vec<f32> =
                (0..rng.gen_range(0..48usize)).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
            let q = QuantizedVec::quantize(&xs);
            let back = q.dequantize();
            assert_eq!(back.len(), xs.len());
            for (&x, &y) in xs.iter().zip(&back) {
                assert!((x - y).abs() <= q.scale * 0.5);
                if x == 0.0 {
                    assert!(y == 0.0);
                }
            }
            // Canonicality: re-encode of the round-trip is identical.
            let q2 = QuantizedVec::quantize(&back);
            assert_eq!(q.scale.to_bits(), q2.scale.to_bits());
            assert_eq!(&q.data, &q2.data);
        });
    }

    #[test]
    fn scalar_and_simd_dot_agree() {
        for_each_case(0x0_0002, 256, |rng| {
            let pairs: Vec<(f32, f32)> = (0..rng.gen_range(0..67usize))
                .map(|_| (rng.gen_range(-8.0f32..8.0), rng.gen_range(-8.0f32..8.0)))
                .collect();
            let a: Vec<f32> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<f32> = pairs.iter().map(|p| p.1).collect();
            let s = {
                let prev = kernel_mode();
                set_kernel_mode(KernelMode::Scalar);
                let v = dot(&a, &b);
                set_kernel_mode(prev);
                v
            };
            let v = {
                let prev = kernel_mode();
                set_kernel_mode(KernelMode::Simd);
                let v = dot(&a, &b);
                set_kernel_mode(prev);
                v
            };
            assert_eq!(s.to_bits(), v.to_bits());
        });
    }
}
