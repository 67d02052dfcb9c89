//! Portable per-lane kernels.
//!
//! These are the scalar loops of the emulation layer at slice granularity.
//! They are always compiled: they are the only tier of a build without the
//! `simd` feature (where `dispatch!` calls them directly), they handle the
//! non-multiple-of-width tails of the SSE2/AVX2 kernels, and they are the
//! oracle the vector tiers are proptested against
//! (`tests/simd_equivalence.rs`).
//!
//! Each loop is written so the compiler can vectorise it: every lane-wise
//! input is re-sliced to the loop's length first, which takes the bounds
//! checks out of the loop (a short input still panics, before the loop
//! instead of inside it), and `i16 × i16` products are formed in `i32`
//! before they widen into the `i64` accumulator, which is exact because
//! `|i16::MIN · i16::MIN| = 2³⁰`. Gathers (`permute_f32`'s `src`) and the
//! interleaved input of `cmag_sq_c16` keep their own lengths, and the
//! complex kernels keep `i64` products, since a sum of two `i16 × i16`
//! products can reach 2³¹. The per-lane loops these replaced are kept under
//! `cfg(test)` as the oracle every kernel here is proptested against.
//!
//! Semantics are part of the emulation contract and must not drift:
//! integers wrap in two's complement, floats follow IEEE with per-step
//! rounding (no FMA, no reassociation), min/max resolve ties and NaNs by
//! keeping the first operand, and accumulator readout goes through
//! [`crate::fixed`].

#![allow(clippy::needless_range_loop)]

macro_rules! wrapping_binops {
    ($($add:ident, $sub:ident => $t:ty;)*) => {
        $(
            /// Lane-wise wrapping add.
            #[inline]
            pub fn $add(a: &[$t], b: &[$t], out: &mut [$t]) {
                let (a, b) = (&a[..out.len()], &b[..out.len()]);
                for i in 0..out.len() {
                    out[i] = a[i].wrapping_add(b[i]);
                }
            }

            /// Lane-wise wrapping subtract.
            #[inline]
            pub fn $sub(a: &[$t], b: &[$t], out: &mut [$t]) {
                let (a, b) = (&a[..out.len()], &b[..out.len()]);
                for i in 0..out.len() {
                    out[i] = a[i].wrapping_sub(b[i]);
                }
            }
        )*
    };
}

wrapping_binops! {
    add_i16, sub_i16 => i16;
    add_i32, sub_i32 => i32;
}

macro_rules! minmax_ops {
    ($($min:ident, $max:ident => $t:ty;)*) => {
        $(
            /// Lane-wise minimum: `b` when `b < a`, else `a`.
            #[inline]
            pub fn $min(a: &[$t], b: &[$t], out: &mut [$t]) {
                let (a, b) = (&a[..out.len()], &b[..out.len()]);
                for i in 0..out.len() {
                    out[i] = if b[i] < a[i] { b[i] } else { a[i] };
                }
            }

            /// Lane-wise maximum: `b` when `b > a`, else `a`.
            #[inline]
            pub fn $max(a: &[$t], b: &[$t], out: &mut [$t]) {
                let (a, b) = (&a[..out.len()], &b[..out.len()]);
                for i in 0..out.len() {
                    out[i] = if b[i] > a[i] { b[i] } else { a[i] };
                }
            }
        )*
    };
}

minmax_ops! {
    min_i16, max_i16 => i16;
    min_i32, max_i32 => i32;
    min_f32, max_f32 => f32;
}

macro_rules! select_ops {
    ($($name:ident => $t:ty;)*) => {
        $(
            /// Lane-wise select: `mask ? a : b`.
            #[inline]
            pub fn $name(a: &[$t], b: &[$t], mask: &[bool], out: &mut [$t]) {
                let n = out.len();
                let (a, b, mask) = (&a[..n], &b[..n], &mask[..n]);
                for i in 0..n {
                    out[i] = if mask[i] { a[i] } else { b[i] };
                }
            }
        )*
    };
}

select_ops! {
    select_i16 => i16;
    select_i32 => i32;
    select_f32 => f32;
}

/// Lane-wise IEEE add.
#[inline]
pub fn add_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = a[i] + b[i];
    }
}

/// Lane-wise IEEE subtract.
#[inline]
pub fn sub_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = a[i] - b[i];
    }
}

/// Lane-wise IEEE multiply.
#[inline]
pub fn mul_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = a[i] * b[i];
    }
}

/// Lane-wise IEEE negation.
#[inline]
pub fn neg_f32(a: &[f32], out: &mut [f32]) {
    let a = &a[..out.len()];
    for i in 0..out.len() {
        out[i] = -a[i];
    }
}

/// Gather permute: `out[i] = src[pattern[i]]`.
#[inline]
pub fn permute_f32(src: &[f32], pattern: &[usize], out: &mut [f32]) {
    let pattern = &pattern[..out.len()];
    for i in 0..out.len() {
        out[i] = src[pattern[i]];
    }
}

/// `acc[i] += a[i] as i64 * b[i] as i64`.
#[inline]
pub fn mac_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] += (a[i] as i32 * b[i] as i32) as i64;
    }
}

/// `acc[i] -= a[i] as i64 * b[i] as i64`.
#[inline]
pub fn msc_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] -= (a[i] as i32 * b[i] as i32) as i64;
    }
}

/// `acc[i] += data[i] as i64 * coeff as i64` (`data.len() >= acc.len()`).
#[inline]
pub fn mac_coeff_i48(acc: &mut [i64], data: &[i16], coeff: i16) {
    let data = &data[..acc.len()];
    for i in 0..acc.len() {
        acc[i] += (data[i] as i32 * coeff as i32) as i64;
    }
}

/// `acc[i] += other[i]`.
#[inline]
pub fn add_i64(acc: &mut [i64], other: &[i64]) {
    let other = &other[..acc.len()];
    for i in 0..acc.len() {
        acc[i] += other[i];
    }
}

/// `acc[i] += a[i] * b[i]` (two IEEE roundings per lane).
#[inline]
pub fn fpmac_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] += a[i] * b[i];
    }
}

/// `acc[i] -= a[i] * b[i]` (two IEEE roundings per lane).
#[inline]
pub fn fpmsc_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] -= a[i] * b[i];
    }
}

/// `acc[i] += data[i] * coeff` (`data.len() >= acc.len()`).
#[inline]
pub fn fpmac_coeff_f32(acc: &mut [f32], data: &[f32], coeff: f32) {
    let data = &data[..acc.len()];
    for i in 0..acc.len() {
        acc[i] += data[i] * coeff;
    }
}

/// Shift-round-saturate each lane to `i16` via [`crate::fixed::srs`].
#[inline]
pub fn srs_i48_to_i16(acc: &[i64], shift: u32, out: &mut [i16]) {
    let acc = &acc[..out.len()];
    for i in 0..out.len() {
        out[i] = crate::fixed::srs(acc[i], shift);
    }
}

/// Shift-round-saturate each lane to `i32` via [`crate::fixed::srs32`].
#[inline]
pub fn srs_i48_to_i32(acc: &[i64], shift: u32, out: &mut [i32]) {
    let acc = &acc[..out.len()];
    for i in 0..out.len() {
        out[i] = crate::fixed::srs32(acc[i], shift);
    }
}

/// Upshift each lane via [`crate::fixed::ups`].
#[inline]
pub fn ups_i16_to_i48(v: &[i16], shift: u32, out: &mut [i64]) {
    let v = &v[..out.len()];
    for i in 0..out.len() {
        out[i] = crate::fixed::ups(v[i], shift);
    }
}

/// Complex MAC over interleaved `re,im` pairs (`acc`/`a`/`b` all hold
/// `acc.len() / 2` complex lanes).
#[inline]
pub fn cmac_c16(acc: &mut [i64], a: &[i16], b: &[i16]) {
    let n = acc.len() / 2;
    let (acc, a, b) = (&mut acc[..2 * n], &a[..2 * n], &b[..2 * n]);
    for i in 0..n {
        let (ar, ai) = (a[2 * i] as i64, a[2 * i + 1] as i64);
        let (br, bi) = (b[2 * i] as i64, b[2 * i + 1] as i64);
        acc[2 * i] += ar * br - ai * bi;
        acc[2 * i + 1] += ar * bi + ai * br;
    }
}

/// Conjugate complex MAC over interleaved `re,im` pairs.
#[inline]
pub fn cmac_conj_c16(acc: &mut [i64], a: &[i16], b: &[i16]) {
    let n = acc.len() / 2;
    let (acc, a, b) = (&mut acc[..2 * n], &a[..2 * n], &b[..2 * n]);
    for i in 0..n {
        let (ar, ai) = (a[2 * i] as i64, a[2 * i + 1] as i64);
        let (br, bi) = (b[2 * i] as i64, b[2 * i + 1] as i64);
        acc[2 * i] += ar * br + ai * bi;
        acc[2 * i + 1] += ai * br - ar * bi;
    }
}

/// Complex magnitude-squared over interleaved `re,im` input lanes
/// (`v.len() == 2 * out.len()`).
#[inline]
pub fn cmag_sq_c16(v: &[i16], out: &mut [i64]) {
    for i in 0..out.len() {
        let (re, im) = (v[2 * i] as i64, v[2 * i + 1] as i64);
        out[i] = re * re + im * im;
    }
}

/// The per-lane loops the kernels above replaced, verbatim: indexed
/// without re-slicing, products formed in `i64`.
#[cfg(test)]
mod reference {
    pub fn add_i16(a: &[i16], b: &[i16], out: &mut [i16]) {
        for i in 0..out.len() {
            out[i] = a[i].wrapping_add(b[i]);
        }
    }

    pub fn sub_i16(a: &[i16], b: &[i16], out: &mut [i16]) {
        for i in 0..out.len() {
            out[i] = a[i].wrapping_sub(b[i]);
        }
    }

    pub fn add_i32(a: &[i32], b: &[i32], out: &mut [i32]) {
        for i in 0..out.len() {
            out[i] = a[i].wrapping_add(b[i]);
        }
    }

    pub fn sub_i32(a: &[i32], b: &[i32], out: &mut [i32]) {
        for i in 0..out.len() {
            out[i] = a[i].wrapping_sub(b[i]);
        }
    }

    pub fn min<T: Copy + PartialOrd>(a: &[T], b: &[T], out: &mut [T]) {
        for i in 0..out.len() {
            out[i] = if b[i] < a[i] { b[i] } else { a[i] };
        }
    }

    pub fn max<T: Copy + PartialOrd>(a: &[T], b: &[T], out: &mut [T]) {
        for i in 0..out.len() {
            out[i] = if b[i] > a[i] { b[i] } else { a[i] };
        }
    }

    pub fn select<T: Copy>(a: &[T], b: &[T], mask: &[bool], out: &mut [T]) {
        for i in 0..out.len() {
            out[i] = if mask[i] { a[i] } else { b[i] };
        }
    }

    pub fn add_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..out.len() {
            out[i] = a[i] + b[i];
        }
    }

    pub fn sub_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..out.len() {
            out[i] = a[i] - b[i];
        }
    }

    pub fn mul_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..out.len() {
            out[i] = a[i] * b[i];
        }
    }

    pub fn neg_f32(a: &[f32], out: &mut [f32]) {
        for i in 0..out.len() {
            out[i] = -a[i];
        }
    }

    pub fn permute_f32(src: &[f32], pattern: &[usize], out: &mut [f32]) {
        for i in 0..out.len() {
            out[i] = src[pattern[i]];
        }
    }

    pub fn mac_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
        for i in 0..acc.len() {
            acc[i] += (a[i] as i64) * (b[i] as i64);
        }
    }

    pub fn msc_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
        for i in 0..acc.len() {
            acc[i] -= (a[i] as i64) * (b[i] as i64);
        }
    }

    pub fn mac_coeff_i48(acc: &mut [i64], data: &[i16], coeff: i16) {
        for i in 0..acc.len() {
            acc[i] += (data[i] as i64) * (coeff as i64);
        }
    }

    pub fn add_i64(acc: &mut [i64], other: &[i64]) {
        for i in 0..acc.len() {
            acc[i] += other[i];
        }
    }

    pub fn fpmac_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
        for i in 0..acc.len() {
            acc[i] += a[i] * b[i];
        }
    }

    pub fn fpmsc_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
        for i in 0..acc.len() {
            acc[i] -= a[i] * b[i];
        }
    }

    pub fn fpmac_coeff_f32(acc: &mut [f32], data: &[f32], coeff: f32) {
        for i in 0..acc.len() {
            acc[i] += data[i] * coeff;
        }
    }

    pub fn srs_i48_to_i16(acc: &[i64], shift: u32, out: &mut [i16]) {
        for i in 0..out.len() {
            out[i] = crate::fixed::srs(acc[i], shift);
        }
    }

    pub fn srs_i48_to_i32(acc: &[i64], shift: u32, out: &mut [i32]) {
        for i in 0..out.len() {
            out[i] = crate::fixed::srs32(acc[i], shift);
        }
    }

    pub fn ups_i16_to_i48(v: &[i16], shift: u32, out: &mut [i64]) {
        for i in 0..out.len() {
            out[i] = crate::fixed::ups(v[i], shift);
        }
    }

    pub fn cmac_c16(acc: &mut [i64], a: &[i16], b: &[i16]) {
        let n = acc.len() / 2;
        for i in 0..n {
            let (ar, ai) = (a[2 * i] as i64, a[2 * i + 1] as i64);
            let (br, bi) = (b[2 * i] as i64, b[2 * i + 1] as i64);
            acc[2 * i] += ar * br - ai * bi;
            acc[2 * i + 1] += ar * bi + ai * br;
        }
    }

    pub fn cmac_conj_c16(acc: &mut [i64], a: &[i16], b: &[i16]) {
        let n = acc.len() / 2;
        for i in 0..n {
            let (ar, ai) = (a[2 * i] as i64, a[2 * i + 1] as i64);
            let (br, bi) = (b[2 * i] as i64, b[2 * i + 1] as i64);
            acc[2 * i] += ar * br + ai * bi;
            acc[2 * i + 1] += ai * br - ar * bi;
        }
    }

    pub fn cmag_sq_c16(v: &[i16], out: &mut [i64]) {
        for i in 0..out.len() {
            let (re, im) = (v[2 * i] as i64, v[2 * i + 1] as i64);
            out[i] = re * re + im * im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference;
    use proptest::collection::vec;
    use proptest::prelude::*;

    type Binary<T> = fn(&[T], &[T], &mut [T]);
    type Mac<A, T> = fn(&mut [A], &[T], &[T]);

    /// Lane counts up to 40: every `Vector` width plus tails.
    const LANES: std::ops::Range<usize> = 0..41;

    /// f32 bit patterns with arithmetic NaNs collapsed to one (the payload a
    /// two-NaN `fadd`/`fmul` keeps is not fixed even between scalar builds;
    /// see the `simd` module's contract).
    fn canon(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run a kernel and its reference, each into a fresh `n`-lane output.
    fn both<T: Copy + Default>(
        n: usize,
        new: impl Fn(&mut [T]),
        old: impl Fn(&mut [T]),
    ) -> (Vec<T>, Vec<T>) {
        let (mut got, mut want) = (vec![T::default(); n], vec![T::default(); n]);
        new(&mut got);
        old(&mut want);
        (got, want)
    }

    /// Run an accumulating kernel and its reference on copies of `acc`.
    fn both_acc<A: Clone>(
        acc: &[A],
        new: impl Fn(&mut [A]),
        old: impl Fn(&mut [A]),
    ) -> (Vec<A>, Vec<A>) {
        let (mut got, mut want) = (acc.to_vec(), acc.to_vec());
        new(&mut got);
        old(&mut want);
        (got, want)
    }

    /// Accumulators far from the i64 edge: the MAC adds must not overflow
    /// (a debug build would panic in both loops alike).
    fn acc_lanes() -> impl Strategy<Value = Vec<i64>> {
        vec(-(1i64 << 50)..(1i64 << 50), LANES)
    }

    proptest! {
        #[test]
        fn integer_lane_ops_match(items in vec((any::<i32>(), any::<i32>(), any::<bool>()), LANES)) {
            let n = items.len();
            let a32: Vec<i32> = items.iter().map(|p| p.0).collect();
            let b32: Vec<i32> = items.iter().map(|p| p.1).collect();
            let mask: Vec<bool> = items.iter().map(|p| p.2).collect();
            let a16: Vec<i16> = a32.iter().map(|&v| v as i16).collect();
            let b16: Vec<i16> = b32.iter().map(|&v| v as i16).collect();
            let ops16: [(Binary<i16>, Binary<i16>); 4] = [
                (super::add_i16, reference::add_i16),
                (super::sub_i16, reference::sub_i16),
                (super::min_i16, reference::min),
                (super::max_i16, reference::max),
            ];
            for (new, old) in ops16 {
                let (got, want) = both(n, |o| new(&a16, &b16, o), |o| old(&a16, &b16, o));
                prop_assert_eq!(got, want);
            }
            let ops32: [(Binary<i32>, Binary<i32>); 4] = [
                (super::add_i32, reference::add_i32),
                (super::sub_i32, reference::sub_i32),
                (super::min_i32, reference::min),
                (super::max_i32, reference::max),
            ];
            for (new, old) in ops32 {
                let (got, want) = both(n, |o| new(&a32, &b32, o), |o| old(&a32, &b32, o));
                prop_assert_eq!(got, want);
            }
            let (got, want) = both(
                n,
                |o| super::select_i16(&a16, &b16, &mask, o),
                |o| reference::select(&a16, &b16, &mask, o),
            );
            prop_assert_eq!(got, want);
            let (got, want) = both(
                n,
                |o| super::select_i32(&a32, &b32, &mask, o),
                |o| reference::select(&a32, &b32, &mask, o),
            );
            prop_assert_eq!(got, want);
        }

        /// Raw f32 bit patterns: NaNs, infinities, subnormals, signed zeros.
        #[test]
        fn float_lane_ops_match(
            items in vec((any::<f32>(), any::<f32>(), any::<f32>(), any::<bool>()), LANES),
        ) {
            let n = items.len();
            let a: Vec<f32> = items.iter().map(|p| p.0).collect();
            let b: Vec<f32> = items.iter().map(|p| p.1).collect();
            let c: Vec<f32> = items.iter().map(|p| p.2).collect();
            let mask: Vec<bool> = items.iter().map(|p| p.3).collect();
            let arithmetic: [(Binary<f32>, Binary<f32>); 3] = [
                (super::add_f32, reference::add_f32),
                (super::sub_f32, reference::sub_f32),
                (super::mul_f32, reference::mul_f32),
            ];
            for (new, old) in arithmetic {
                let (got, want) = both(n, |o| new(&a, &b, o), |o| old(&a, &b, o));
                prop_assert_eq!(canon(&got), canon(&want));
            }
            let macs: [(Mac<f32, f32>, Mac<f32, f32>); 2] = [
                (super::fpmac_f32, reference::fpmac_f32),
                (super::fpmsc_f32, reference::fpmsc_f32),
            ];
            for (new, old) in macs {
                let (got, want) = both_acc(&c, |acc| new(acc, &a, &b), |acc| old(acc, &a, &b));
                prop_assert_eq!(canon(&got), canon(&want));
            }
            // Selection and sign ops move bits and never launder a payload.
            let selections: [(Binary<f32>, Binary<f32>); 2] = [
                (super::min_f32, reference::min),
                (super::max_f32, reference::max),
            ];
            for (new, old) in selections {
                let (got, want) = both(n, |o| new(&a, &b, o), |o| old(&a, &b, o));
                prop_assert_eq!(bits(&got), bits(&want));
            }
            let (got, want) = both(
                n,
                |o| super::select_f32(&a, &b, &mask, o),
                |o| reference::select(&a, &b, &mask, o),
            );
            prop_assert_eq!(bits(&got), bits(&want));
            let (got, want) = both(n, |o| super::neg_f32(&a, o), |o| reference::neg_f32(&a, o));
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// The gather reads `src` at its own length, longer or shorter
        /// than the output.
        #[test]
        fn permute_matches(src in vec(any::<f32>(), 1..41), picks in vec(any::<usize>(), LANES)) {
            let pattern: Vec<usize> = picks.iter().map(|p| p % src.len()).collect();
            let (got, want) = both(
                pattern.len(),
                |o| super::permute_f32(&src, &pattern, o),
                |o| reference::permute_f32(&src, &pattern, o),
            );
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// Full-range i16 operands with the `i16::MIN · i16::MIN = 2³⁰`
        /// corner in lane 0, and operands longer than `acc`.
        #[test]
        fn integer_macs_match(acc in acc_lanes(), ab in vec((any::<i16>(), any::<i16>()), 41)) {
            let mut a: Vec<i16> = ab.iter().map(|p| p.0).collect();
            let mut b: Vec<i16> = ab.iter().map(|p| p.1).collect();
            (a[0], b[0]) = (i16::MIN, i16::MIN);
            let macs: [(Mac<i64, i16>, Mac<i64, i16>); 2] = [
                (super::mac_i48, reference::mac_i48),
                (super::msc_i48, reference::msc_i48),
            ];
            for (new, old) in macs {
                let (got, want) = both_acc(&acc, |acc| new(acc, &a, &b), |acc| old(acc, &a, &b));
                prop_assert_eq!(got, want);
            }
            let other: Vec<i64> = acc.iter().rev().copied().collect();
            let (got, want) = both_acc(
                &acc,
                |acc| super::add_i64(acc, &other),
                |acc| reference::add_i64(acc, &other),
            );
            prop_assert_eq!(got, want);
        }

        /// The sliding forms read a window of `data` longer than `acc`.
        #[test]
        fn sliding_macs_match(
            acc in acc_lanes(),
            data in vec(any::<i16>(), 41..60),
            coeff in any::<i16>(),
            fdata in vec(any::<f32>(), 41..60),
            fcoeff in any::<f32>(),
        ) {
            let mut data = data;
            data[0] = i16::MIN;
            for coeff in [coeff, i16::MIN] {
                let (got, want) = both_acc(
                    &acc,
                    |acc| super::mac_coeff_i48(acc, &data, coeff),
                    |acc| reference::mac_coeff_i48(acc, &data, coeff),
                );
                prop_assert_eq!(got, want);
            }
            let facc: Vec<f32> = acc.iter().map(|&v| v as f32).collect();
            let (got, want) = both_acc(
                &facc,
                |acc| super::fpmac_coeff_f32(acc, &fdata, fcoeff),
                |acc| reference::fpmac_coeff_f32(acc, &fdata, fcoeff),
            );
            prop_assert_eq!(canon(&got), canon(&want));
        }

        #[test]
        fn readouts_match(
            acc in vec(any::<i64>(), LANES),
            v in vec(any::<i16>(), 41),
            shift in 0u32..48,
        ) {
            let n = acc.len();
            let (got, want) = both(
                n,
                |o| super::srs_i48_to_i16(&acc, shift, o),
                |o| reference::srs_i48_to_i16(&acc, shift, o),
            );
            prop_assert_eq!(got, want);
            let (got, want) = both(
                n,
                |o| super::srs_i48_to_i32(&acc, shift, o),
                |o| reference::srs_i48_to_i32(&acc, shift, o),
            );
            prop_assert_eq!(got, want);
            let (got, want) = both(
                n,
                |o| super::ups_i16_to_i48(&v, shift, o),
                |o| reference::ups_i16_to_i48(&v, shift, o),
            );
            prop_assert_eq!(got, want);
        }

        #[test]
        fn complex_kernels_match(acc in acc_lanes(), ab in vec((any::<i16>(), any::<i16>()), 82)) {
            let a: Vec<i16> = ab.iter().map(|p| p.0).collect();
            let b: Vec<i16> = ab.iter().map(|p| p.1).collect();
            let macs: [(Mac<i64, i16>, Mac<i64, i16>); 2] = [
                (super::cmac_c16, reference::cmac_c16),
                (super::cmac_conj_c16, reference::cmac_conj_c16),
            ];
            for (new, old) in macs {
                let (got, want) = both_acc(&acc, |acc| new(acc, &a, &b), |acc| old(acc, &a, &b));
                prop_assert_eq!(got, want);
            }
            let (got, want) = both(
                acc.len(),
                |o| super::cmag_sq_c16(&a, o),
                |o| reference::cmag_sq_c16(&a, o),
            );
            prop_assert_eq!(got, want);
        }
    }
}
