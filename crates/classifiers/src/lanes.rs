//! Fixed-width chunked accumulation kernels for the compiled plane.
//!
//! The compiled plane's linear kernel is "accumulate one weight row into
//! one accumulator row" (`acc[k] += x * row[k]`) and the sharded MaxEnt
//! reduce is "fold one partial into one total" (`acc[k] += row[k]`).
//! Both are embarrassingly lane-parallel: every `k` is its own
//! independent IEEE chain, so processing the slices in fixed-width
//! chunks performs **bit-identical** arithmetic to the scalar loop, in
//! any order. The kernels here exploit that:
//!
//! * they walk `chunks_exact(LANES)` with a fixed-count inner loop over
//!   `[f64; LANES]` arrays, the shape rustc reliably unrolls and
//!   autovectorizes on stable Rust;
//! * the remainder (lengths not divisible by `LANES` — vocabulary
//!   dimensions and lane strides rarely are) runs the scalar tail.
//!
//! The proptests at the bottom pin the contract: for every remainder
//! length, chunked output is bitwise equal to the scalar reference.

/// Chunk width of the fast-path accumulators. Four `f64` lanes fill one
/// AVX2 register (two SSE2 registers); wider chunks showed no gain on
/// the short rows the plane produces.
pub const LANES: usize = 4;

/// Scalar reference kernel: `acc[k] += x * row[k]` for every lane `k`.
/// The chunked [`axpy`] must match this bitwise (proptested below).
#[inline]
pub fn axpy_scalar(acc: &mut [f64], x: f64, row: &[f64]) {
    debug_assert_eq!(acc.len(), row.len());
    for (a, w) in acc.iter_mut().zip(row) {
        *a += x * w;
    }
}

/// Chunked `acc[k] += x * row[k]`: fixed-width `[f64; LANES]` chunks
/// with a scalar tail, bit-identical to [`axpy_scalar`].
#[inline]
pub fn axpy(acc: &mut [f64], x: f64, row: &[f64]) {
    debug_assert_eq!(acc.len(), row.len());
    let mut acc_chunks = acc.chunks_exact_mut(LANES);
    let mut row_chunks = row.chunks_exact(LANES);
    for (a, w) in acc_chunks.by_ref().zip(row_chunks.by_ref()) {
        let a: &mut [f64; LANES] = a.try_into().expect("exact chunk");
        let w: &[f64; LANES] = w.try_into().expect("exact chunk");
        for k in 0..LANES {
            a[k] += x * w[k];
        }
    }
    for (a, w) in acc_chunks
        .into_remainder()
        .iter_mut()
        .zip(row_chunks.remainder())
    {
        *a += x * w;
    }
}

/// Scalar reference kernel: `acc[k] += addend[k]` (the sharded-reduce
/// fold). The chunked [`add_assign`] must match this bitwise.
#[inline]
pub fn add_assign_scalar(acc: &mut [f64], addend: &[f64]) {
    debug_assert_eq!(acc.len(), addend.len());
    for (a, b) in acc.iter_mut().zip(addend) {
        *a += b;
    }
}

/// Chunked `acc[k] += addend[k]`, bit-identical to
/// [`add_assign_scalar`]. Used to fold MaxEnt expectation partials over
/// vocabulary-sized vectors (whose lengths are rarely `LANES`-aligned).
#[inline]
pub fn add_assign(acc: &mut [f64], addend: &[f64]) {
    debug_assert_eq!(acc.len(), addend.len());
    let mut acc_chunks = acc.chunks_exact_mut(LANES);
    let mut add_chunks = addend.chunks_exact(LANES);
    for (a, b) in acc_chunks.by_ref().zip(add_chunks.by_ref()) {
        let a: &mut [f64; LANES] = a.try_into().expect("exact chunk");
        let b: &[f64; LANES] = b.try_into().expect("exact chunk");
        for k in 0..LANES {
            a[k] += b[k];
        }
    }
    for (a, b) in acc_chunks
        .into_remainder()
        .iter_mut()
        .zip(add_chunks.remainder())
    {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn axpy_handles_every_remainder_length() {
        // Deterministic sweep over every length around multiples of
        // LANES (0..=3·LANES+1 covers remainders 0..LANES at several
        // chunk counts) with irrational-ish values.
        for len in 0..=(3 * LANES + 1) {
            let row: Vec<f64> = (0..len).map(|k| (k as f64 + 0.1).sqrt()).collect();
            let mut chunked: Vec<f64> = (0..len).map(|k| k as f64 * 0.25 - 1.0).collect();
            let mut scalar = chunked.clone();
            axpy(&mut chunked, std::f64::consts::PI, &row);
            axpy_scalar(&mut scalar, std::f64::consts::PI, &row);
            assert_eq!(
                chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len={len}"
            );
        }
    }

    proptest! {
        #[test]
        fn axpy_is_bitwise_equal_to_scalar(
            row in proptest::collection::vec(-1e6f64..1e6, 0..40),
            init in -1e3f64..1e3,
            x in -1e3f64..1e3,
        ) {
            let mut chunked = vec![init; row.len()];
            let mut scalar = vec![init; row.len()];
            axpy(&mut chunked, x, &row);
            axpy_scalar(&mut scalar, x, &row);
            prop_assert_eq!(
                chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        #[test]
        fn add_assign_is_bitwise_equal_to_scalar(
            addend in proptest::collection::vec(-1e9f64..1e9, 0..70),
            init in -1e3f64..1e3,
        ) {
            let mut chunked = vec![init; addend.len()];
            let mut scalar = vec![init; addend.len()];
            add_assign(&mut chunked, &addend);
            add_assign_scalar(&mut scalar, &addend);
            prop_assert_eq!(
                chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
