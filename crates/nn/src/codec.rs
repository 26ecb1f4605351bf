//! Compact binary (de)serialization for model tensors.
//!
//! A hand-rolled little-endian codec: writers append to a `Vec<u8>`,
//! readers consume a `&mut &[u8]` cursor from the front. Trained
//! models (the encoder, phrase embedder and classifier) are persisted as
//! versioned binary blobs so a deployment can train once and ship the
//! weights. Formats are length-prefixed and checked on read — a
//! truncated or corrupted blob fails with [`CodecError`] instead of
//! producing a garbage model.

use crate::layers::Dense;
use crate::linalg::Matrix;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A length or tag field was implausible.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Sanity cap on decoded element counts (64M scalars ≈ 256 MB) so a
/// corrupted length field cannot trigger an enormous allocation.
const MAX_ELEMENTS: u64 = 64 << 20;

/// Splits the next `n` bytes off the front of the cursor.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Reads a fixed-size little-endian field.
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let mut out = [0u8; N];
    out.copy_from_slice(take(buf, N)?);
    Ok(out)
}

/// Writes a `u32` (versions, small counts).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u32`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    take_array(buf).map(u32::from_le_bytes)
}

/// Writes a `u64` (lengths, counts, seeds).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u64`.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    take_array(buf).map(u64::from_le_bytes)
}

/// Writes an `f32`.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads an `f32`.
pub fn get_f32(buf: &mut &[u8]) -> Result<f32, CodecError> {
    take_array(buf).map(f32::from_le_bytes)
}

/// Decodes `n` little-endian `f32`s; the caller has bounded `n` by
/// [`MAX_ELEMENTS`].
fn f32s(buf: &mut &[u8], n: u64) -> Result<Vec<f32>, CodecError> {
    Ok(take(buf, 4 * n as usize)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Writes a length-prefixed `f32` slice.
pub fn put_f32_slice(buf: &mut Vec<u8>, v: &[f32]) {
    put_u64(buf, v.len() as u64);
    buf.reserve(4 * v.len());
    for &x in v {
        put_f32(buf, x);
    }
}

/// Reads a length-prefixed `f32` vector.
pub fn get_f32_vec(buf: &mut &[u8]) -> Result<Vec<f32>, CodecError> {
    let n = get_u64(buf)?;
    if n > MAX_ELEMENTS {
        return Err(CodecError::Invalid("slice length"));
    }
    if (buf.len() as u64) < 4 * n {
        return Err(CodecError::UnexpectedEof);
    }
    f32s(buf, n)
}

/// Writes an `f32` slice as a length-prefixed quantized record: `u64`
/// length, `f32` power-of-two scale, then one `i8` per element (~4×
/// smaller at rest than [`put_f32_slice`]).
///
/// The elements are quantized straight into `buf`, by the rule of
/// [`crate::kernels::QuantizedVec::quantize`], and the scale is written
/// in front of them once known. On *canonicalized* vectors (see
/// [`crate::kernels::canonicalize`]) the encode→decode round-trip is
/// bitwise lossless and re-encoding is byte-identical, which durable
/// checkpoints rely on.
pub fn put_quantized_f32_slice(buf: &mut Vec<u8>, v: &[f32]) {
    put_u64(buf, v.len() as u64);
    let at = buf.len();
    put_f32(buf, 0.0);
    let scale = crate::kernels::quantize_into(v, buf);
    buf[at..][..4].copy_from_slice(&scale.to_le_bytes());
}

/// Reads a quantized `f32` record written by [`put_quantized_f32_slice`],
/// returning the dequantized vector collected into any container, e.g.
/// a `Vec<f32>` or an `Arc<[f32]>` built in one allocation.
pub fn get_quantized_f32_vec<C: FromIterator<f32>>(buf: &mut &[u8]) -> Result<C, CodecError> {
    let n = get_u64(buf)?;
    if n > MAX_ELEMENTS {
        return Err(CodecError::Invalid("quantized slice length"));
    }
    if (buf.len() as u64) < 4 + n {
        return Err(CodecError::UnexpectedEof);
    }
    let scale = get_f32(buf)?;
    if !scale.is_finite() || scale < 0.0 {
        return Err(CodecError::Invalid("quantized scale"));
    }
    Ok(take(buf, n as usize)?.iter().map(|&b| f32::from(i8::from_le_bytes([b])) * scale).collect())
}

/// Writes a matrix (rows, cols, data).
pub fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u64(buf, m.rows() as u64);
    put_u64(buf, m.cols() as u64);
    buf.reserve(4 * m.as_slice().len());
    for &x in m.as_slice() {
        put_f32(buf, x);
    }
}

/// Reads a matrix.
pub fn get_matrix(buf: &mut &[u8]) -> Result<Matrix, CodecError> {
    let rows = get_u64(buf)?;
    let cols = get_u64(buf)?;
    let n = rows.checked_mul(cols).ok_or(CodecError::Invalid("matrix shape"))?;
    if n > MAX_ELEMENTS {
        return Err(CodecError::Invalid("matrix size"));
    }
    if (buf.len() as u64) < 4 * n {
        return Err(CodecError::UnexpectedEof);
    }
    let data = f32s(buf, n)?;
    Ok(Matrix::from_vec(rows as usize, cols as usize, data))
}

/// Writes a dense layer (weights + bias).
pub fn put_dense(buf: &mut Vec<u8>, d: &Dense) {
    put_matrix(buf, d.weights());
    put_f32_slice(buf, d.bias());
}

/// Reads a dense layer.
pub fn get_dense(buf: &mut &[u8]) -> Result<Dense, CodecError> {
    let w = get_matrix(buf)?;
    let b = get_f32_vec(buf)?;
    if b.len() != w.cols() {
        return Err(CodecError::Invalid("dense bias length"));
    }
    Ok(Dense::from_parts(w, b))
}

/// Writes a batch-norm layer (γ, β, running stats).
pub fn put_batchnorm(buf: &mut Vec<u8>, bn: &crate::layers::BatchNorm1d) {
    let (gamma, beta, mean, var) = bn.parts();
    put_f32_slice(buf, gamma);
    put_f32_slice(buf, beta);
    put_f32_slice(buf, mean);
    put_f32_slice(buf, var);
}

/// Reads a batch-norm layer.
pub fn get_batchnorm(buf: &mut &[u8]) -> Result<crate::layers::BatchNorm1d, CodecError> {
    let gamma = get_f32_vec(buf)?;
    let beta = get_f32_vec(buf)?;
    let mean = get_f32_vec(buf)?;
    let var = get_f32_vec(buf)?;
    if beta.len() != gamma.len() || mean.len() != gamma.len() || var.len() != gamma.len() {
        return Err(CodecError::Invalid("batch-norm part lengths"));
    }
    Ok(crate::layers::BatchNorm1d::from_parts(gamma, beta, mean, var))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Init;
    use ngl_runtime::rng::SplitMix64;

    fn round_trip<T, W, R>(value: &T, write: W, read: R) -> T
    where
        W: Fn(&mut Vec<u8>, &T),
        R: Fn(&mut &[u8]) -> Result<T, CodecError>,
    {
        let mut buf = Vec::new();
        write(&mut buf, value);
        let mut bytes = &buf[..];
        let out = read(&mut bytes).expect("decode");
        assert!(bytes.is_empty(), "trailing bytes");
        out
    }

    #[test]
    fn matrix_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.5, 0.0, 1e-9, -7.25]);
        let back = round_trip(&m, put_matrix, get_matrix);
        assert_eq!(m, back);
    }

    #[test]
    fn dense_round_trips() {
        let mut rng = SplitMix64::new(3);
        let d = Dense::new(&mut rng, 4, 3, Init::He);
        let mut buf = Vec::new();
        put_dense(&mut buf, &d);
        let back = get_dense(&mut &buf[..]).expect("decode");
        assert_eq!(d.weights(), back.weights());
        assert_eq!(d.bias(), back.bias());
        // And it computes identically.
        let x = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(d.forward(&x), back.forward(&x));
    }

    #[test]
    fn truncated_buffer_fails_cleanly() {
        let m = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let mut buf = Vec::new();
        put_matrix(&mut buf, &m);
        for cut in 0..buf.len() {
            let mut sliced = &buf[..cut];
            assert!(get_matrix(&mut sliced).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_length_is_rejected_without_huge_allocation() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX / 2); // rows
        put_u64(&mut buf, 3); // cols
        let err = get_matrix(&mut &buf[..]).expect_err("must fail");
        assert!(matches!(err, CodecError::Invalid(_) | CodecError::UnexpectedEof));
    }

    #[test]
    fn f32_slice_round_trips_empty_and_full() {
        for v in [vec![], vec![1.5f32, -2.5, 0.0]] {
            let got = round_trip(&v, |b, x| put_f32_slice(b, x), get_f32_vec);
            assert_eq!(v, got);
        }
    }

    #[test]
    fn quantized_slice_is_lossless_on_canonical_vectors() {
        let mut v = vec![0.83f32, -1.2, 0.0, 0.004, 2.7, -0.3311];
        crate::kernels::canonicalize(&mut v);
        let got = round_trip(&v, |b, x| put_quantized_f32_slice(b, x), get_quantized_f32_vec);
        assert_eq!(v, got, "canonical vectors round-trip exactly");
        // Re-encoding the decoded vector is byte-identical.
        let mut b1 = Vec::new();
        put_quantized_f32_slice(&mut b1, &v);
        let mut b2 = Vec::new();
        put_quantized_f32_slice(&mut b2, &got);
        assert_eq!(b1, b2);
    }

    #[test]
    fn quantized_slice_bounds_error_on_raw_vectors() {
        let v = vec![0.83f32, -1.2, 0.0, 0.004, 2.7, -0.3311];
        let mut buf = Vec::new();
        put_quantized_f32_slice(&mut buf, &v);
        let got: Vec<f32> = get_quantized_f32_vec(&mut &buf[..]).expect("decode");
        let scale = crate::kernels::QuantizedVec::quantize(&v).scale;
        for (&x, &y) in v.iter().zip(&got) {
            assert!((x - y).abs() <= scale * 0.5, "{x} vs {y}");
        }
        assert_eq!(got[2], 0.0, "exact zero preserved");
    }

    /// The in-place encoder writes exactly the bytes of encoding a
    /// [`crate::kernels::QuantizedVec`] first: on signed zeros,
    /// subnormals, all-zero, max-magnitude, non-finite and ordinary
    /// vectors.
    #[test]
    fn quantized_slice_bytes_match_the_quantized_vec_encoding() {
        fn via_quantized_vec(buf: &mut Vec<u8>, v: &[f32]) {
            let q = crate::kernels::QuantizedVec::quantize(v);
            put_u64(buf, q.data.len() as u64);
            put_f32(buf, q.scale);
            buf.extend(q.data.iter().map(|x| x.to_le_bytes()[0]));
        }
        let sub = f32::from_bits(1);
        let cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.0, -0.0, 0.0],
            vec![-0.0; 5],
            vec![0.0; 7],
            vec![sub, -sub, 0.0],
            vec![f32::MIN_POSITIVE / 3.0, -f32::MIN_POSITIVE / 7.0],
            vec![f32::MIN_POSITIVE, -f32::MIN_POSITIVE * 200.0, sub],
            vec![f32::MAX, -f32::MAX, 1.0, -0.0],
            vec![f32::MAX; 3],
            vec![f32::INFINITY, 1.0, f32::NAN, -2.0],
            vec![0.83, -1.2, 0.0, 0.004, 2.7, -0.3311],
            vec![1e-30, 127.0, -126.5, 0.5],
        ];
        for v in &cases {
            let (mut want, mut got) = (vec![0xAA], vec![0xAA]);
            via_quantized_vec(&mut want, v);
            put_quantized_f32_slice(&mut got, v);
            assert_eq!(got, want, "{v:?}");
        }
    }

    #[test]
    fn quantized_slice_truncation_fails_cleanly() {
        let v = vec![1.0f32, -0.5, 0.25];
        let mut buf = Vec::new();
        put_quantized_f32_slice(&mut buf, &v);
        for cut in 0..buf.len() {
            let mut sliced = &buf[..cut];
            let got: Result<Vec<f32>, _> = get_quantized_f32_vec(&mut sliced);
            assert!(got.is_err(), "truncation at {cut} must fail");
        }
    }
}
