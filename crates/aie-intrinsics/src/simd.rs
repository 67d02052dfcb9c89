//! Slice kernels: the lane loops every emulated intrinsic lowers onto.
//!
//! [`crate::vector`], [`crate::acc`] and [`crate::complex`] call these
//! loops directly; each exists once. They are written so the compiler can
//! vectorise them: every lane-wise input is re-sliced to the loop's length
//! first, which takes the bounds checks out of the loop (a short input still
//! panics, before the loop instead of inside it), and `i16 × i16` products
//! are formed in `i32` before they widen into the `i64` accumulator, which
//! is exact because `|i16::MIN · i16::MIN| = 2³⁰`. The gather source of
//! [`permute_lanes`] and the interleaved input of [`cmag_sq_c16`] keep their
//! own lengths, and the complex kernels keep `i64` products, since a sum of
//! two `i16 × i16` products can reach 2³¹. The width of the vectors is the
//! compiler's choice: a build for a wider target (`-Ctarget-cpu=native`)
//! gets wider ones from the same loops. The per-lane loops these replaced
//! are kept under `cfg(test)` as the oracle every kernel here is proptested
//! against.
//!
//! # Contract
//!
//! Semantics are part of the emulation contract and must not drift:
//! integers wrap in two's complement, floats follow IEEE with per-step
//! rounding (no FMA contraction, no reassociation), `min`/`max` resolve
//! ties and NaNs by keeping the first operand (so `0.0` vs `-0.0` and NaN
//! payloads come out bit-exact), `select` and `permute` are pure lane moves,
//! and accumulator readout goes through [`crate::fixed`].
//!
//! One carve-out, forced by the language: when float *arithmetic*
//! (`add`/`sub`/`mul`/`fpmac`) produces a NaN, the payload is unspecified.
//! Which operand's payload survives a two-NaN `fadd`/`fmul` depends on
//! operand order, and LLVM freely commutes them. Selection ops and `neg`
//! never launder payloads.
//!
//! Operation *accounting* is not done here: callers record with
//! [`crate::counter`] before calling a kernel.

macro_rules! wrapping_binops {
    ($($add:ident, $sub:ident => $t:ty;)*) => {
        $(
            /// Lane-wise wrapping `a + b`.
            #[inline]
            pub fn $add(a: &[$t], b: &[$t], out: &mut [$t]) {
                let (a, b) = (&a[..out.len()], &b[..out.len()]);
                for i in 0..out.len() {
                    out[i] = a[i].wrapping_add(b[i]);
                }
            }

            /// Lane-wise wrapping `a - b`.
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

/// Lane-wise minimum: `b` when `b < a`, else `a` (ties and NaNs keep `a`).
#[inline]
pub fn min_lanes<T: Copy + PartialOrd>(a: &[T], b: &[T], out: &mut [T]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = if b[i] < a[i] { b[i] } else { a[i] };
    }
}

/// Lane-wise maximum: `b` when `b > a`, else `a` (ties and NaNs keep `a`).
#[inline]
pub fn max_lanes<T: Copy + PartialOrd>(a: &[T], b: &[T], out: &mut [T]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = if b[i] > a[i] { b[i] } else { a[i] };
    }
}

/// Lane-wise select: `mask ? a : b`.
#[inline]
pub fn select_lanes<T: Copy>(a: &[T], b: &[T], mask: &[bool], out: &mut [T]) {
    let n = out.len();
    let (a, b, mask) = (&a[..n], &b[..n], &mask[..n]);
    for i in 0..n {
        out[i] = if mask[i] { a[i] } else { b[i] };
    }
}

/// Gather permute: `out[i] = src[pattern[i]]`. `src` keeps its own length;
/// an index past it panics (`Vector::shuffle` asserts the pattern first).
#[inline]
pub fn permute_lanes<T: Copy>(src: &[T], pattern: &[usize], out: &mut [T]) {
    let pattern = &pattern[..out.len()];
    for i in 0..out.len() {
        out[i] = src[pattern[i]];
    }
}

/// Lane-wise IEEE `a + b`.
#[inline]
pub fn add_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = a[i] + b[i];
    }
}

/// Lane-wise IEEE `a - b`.
#[inline]
pub fn sub_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = a[i] - b[i];
    }
}

/// Lane-wise IEEE `a * b` (single rounding per lane).
#[inline]
pub fn mul_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for i in 0..out.len() {
        out[i] = a[i] * b[i];
    }
}

/// Lane-wise IEEE negation (sign-bit flip; exact for NaN and ±0).
#[inline]
pub fn neg_f32(a: &[f32], out: &mut [f32]) {
    let a = &a[..out.len()];
    for i in 0..out.len() {
        out[i] = -a[i];
    }
}

/// 48-bit accumulator MAC: `acc[i] += a[i] as i64 * b[i] as i64`.
#[inline]
pub fn mac_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] += (a[i] as i32 * b[i] as i32) as i64;
    }
}

/// 48-bit accumulator MSC: `acc[i] -= a[i] as i64 * b[i] as i64`.
#[inline]
pub fn msc_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] -= (a[i] as i32 * b[i] as i32) as i64;
    }
}

/// Sliding/broadcast MAC: `acc[i] += data[i] as i64 * coeff as i64`
/// (`data` may be longer than `acc`; the window starts at `data[0]`).
#[inline]
pub fn mac_coeff_i48(acc: &mut [i64], data: &[i16], coeff: i16) {
    let data = &data[..acc.len()];
    for i in 0..acc.len() {
        acc[i] += (data[i] as i32 * coeff as i32) as i64;
    }
}

/// Lane-wise accumulator add: `acc[i] += other[i]`.
#[inline]
pub fn add_i64(acc: &mut [i64], other: &[i64]) {
    let other = &other[..acc.len()];
    for i in 0..acc.len() {
        acc[i] += other[i];
    }
}

/// Float MAC with per-step rounding: `acc[i] += a[i] * b[i]` as two IEEE
/// roundings (multiply then add — never fused).
#[inline]
pub fn fpmac_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] += a[i] * b[i];
    }
}

/// Float MSC: `acc[i] -= a[i] * b[i]` (two roundings, never fused).
#[inline]
pub fn fpmsc_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
    let (a, b) = (&a[..acc.len()], &b[..acc.len()]);
    for i in 0..acc.len() {
        acc[i] -= a[i] * b[i];
    }
}

/// Sliding/broadcast float MAC: `acc[i] += data[i] * coeff`
/// (`data.len() >= acc.len()`).
#[inline]
pub fn fpmac_coeff_f32(acc: &mut [f32], data: &[f32], coeff: f32) {
    let data = &data[..acc.len()];
    for i in 0..acc.len() {
        acc[i] += data[i] * coeff;
    }
}

/// Shift-round-saturate accumulator lanes to `i16`
/// ([`crate::fixed::srs`] per lane).
#[inline]
pub fn srs_i48_to_i16(acc: &[i64], shift: u32, out: &mut [i16]) {
    let acc = &acc[..out.len()];
    for i in 0..out.len() {
        out[i] = crate::fixed::srs(acc[i], shift);
    }
}

/// Shift-round-saturate accumulator lanes to `i32`
/// ([`crate::fixed::srs32`] per lane).
#[inline]
pub fn srs_i48_to_i32(acc: &[i64], shift: u32, out: &mut [i32]) {
    let acc = &acc[..out.len()];
    for i in 0..out.len() {
        out[i] = crate::fixed::srs32(acc[i], shift);
    }
}

/// Upshift: widen `i16` lanes into accumulator precision scaled by
/// `2^shift` ([`crate::fixed::ups`] per lane).
#[inline]
pub fn ups_i16_to_i48(v: &[i16], shift: u32, out: &mut [i64]) {
    let v = &v[..out.len()];
    for i in 0..out.len() {
        out[i] = crate::fixed::ups(v[i], shift);
    }
}

/// Complex MAC over interleaved `re,im` lanes:
/// `acc.re += ar·br − ai·bi`, `acc.im += ar·bi + ai·br` in full precision
/// (`acc`/`a`/`b` all hold `acc.len() / 2` complex lanes).
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

/// Conjugate complex MAC: `acc.re += ar·br + ai·bi`,
/// `acc.im += ai·br − ar·bi`.
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

/// Complex magnitude-squared: `out[i] = re² + im²` over interleaved
/// `re,im` input lanes (`v.len() == 2 * out.len()`).
#[inline]
pub fn cmag_sq_c16(v: &[i16], out: &mut [i64]) {
    for i in 0..out.len() {
        let (re, im) = (v[2 * i] as i64, v[2 * i + 1] as i64);
        out[i] = re * re + im * im;
    }
}

/// The kernel tier. There is one: the loops above.
///
/// This type and [`active_tier`] exist only because the benchmark runner
/// (`perfbench/src/suite/host.rs`), which is frozen between benchmark
/// changes, prints `active_tier().name()` in its host fingerprint. No crate
/// of the workspace uses them; a runner that stops printing the field can
/// delete both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The loops of this module.
    Scalar,
}

impl Tier {
    /// Stable lower-case name: `scalar`.
    #[inline]
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The tier every kernel runs on: always [`Tier::Scalar`].
#[inline]
pub fn active_tier() -> Tier {
    Tier::Scalar
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

    pub fn permute<T: Copy>(src: &[T], pattern: &[usize], out: &mut [T]) {
        for i in 0..out.len() {
            out[i] = src[pattern[i]];
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
    use proptest::TestCaseError;
    use std::fmt::Debug;

    type Binary<T> = fn(&[T], &[T], &mut [T]);
    type Mac<A, T> = fn(&mut [A], &[T], &[T]);

    /// Lane counts up to 40: every `Vector` width plus tails.
    const LANES: std::ops::Range<usize> = 0..41;

    /// f32 bit patterns with arithmetic NaNs collapsed to one (the payload a
    /// two-NaN `fadd`/`fmul` keeps is not fixed even between two builds; see
    /// the module's contract).
    fn canon(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An f32 lane that often lands on a selection corner: `±0` (equal
    /// under `<` but not bitwise), NaNs with distinct payloads and signs,
    /// infinities, a repeated value; otherwise raw bits.
    fn f32_lane() -> impl Strategy<Value = f32> {
        (0u32..16, any::<f32>()).prop_map(|(k, raw)| match k {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(0x7fc0_0001),
            3 => f32::from_bits(0xffc0_0002),
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            6 => 1.0,
            _ => raw,
        })
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

    /// The generic `min`/`max`/`select` kernels against their references on
    /// one element type, outputs compared through `key` (bit patterns for
    /// `f32`).
    fn selections_match<T, K>(
        a: &[T],
        b: &[T],
        mask: &[bool],
        key: impl Fn(&[T]) -> K,
    ) -> Result<(), TestCaseError>
    where
        T: Copy + Default + PartialOrd,
        K: PartialEq + Debug,
    {
        let n = a.len();
        let ops: [(Binary<T>, Binary<T>); 2] = [
            (super::min_lanes, reference::min),
            (super::max_lanes, reference::max),
        ];
        for (new, old) in ops {
            let (got, want) = both(n, |o| new(a, b, o), |o| old(a, b, o));
            prop_assert_eq!(key(&got), key(&want));
        }
        let (got, want) = both(
            n,
            |o| super::select_lanes(a, b, mask, o),
            |o| reference::select(a, b, mask, o),
        );
        prop_assert_eq!(key(&got), key(&want));
        Ok(())
    }

    /// The generic gather against its reference: `src` keeps its own
    /// length, longer or shorter than the output.
    fn permute_matches<T, K>(
        src: &[T],
        picks: &[usize],
        key: impl Fn(&[T]) -> K,
    ) -> Result<(), TestCaseError>
    where
        T: Copy + Default,
        K: PartialEq + Debug,
    {
        let pattern: Vec<usize> = picks.iter().map(|p| p % src.len()).collect();
        let (got, want) = both(
            pattern.len(),
            |o| super::permute_lanes(src, &pattern, o),
            |o| reference::permute(src, &pattern, o),
        );
        prop_assert_eq!(key(&got), key(&want));
        Ok(())
    }

    /// Ties and NaNs keep the first operand, bit for bit.
    #[test]
    fn min_max_ties_keep_first_operand() {
        let a = [0.0f32, -0.0, f32::from_bits(0x7fc0_0001), 1.0];
        let b = [-0.0f32, 0.0, f32::from_bits(0xffc0_0002), f32::NAN];
        let mut out = [0.0f32; 4];
        for op in [super::min_lanes::<f32>, super::max_lanes::<f32>] {
            op(&a, &b, &mut out);
            assert_eq!(bits(&out), bits(&a));
        }
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
            let ops16: [(Binary<i16>, Binary<i16>); 2] = [
                (super::add_i16, reference::add_i16),
                (super::sub_i16, reference::sub_i16),
            ];
            for (new, old) in ops16 {
                let (got, want) = both(n, |o| new(&a16, &b16, o), |o| old(&a16, &b16, o));
                prop_assert_eq!(got, want);
            }
            let ops32: [(Binary<i32>, Binary<i32>); 2] = [
                (super::add_i32, reference::add_i32),
                (super::sub_i32, reference::sub_i32),
            ];
            for (new, old) in ops32 {
                let (got, want) = both(n, |o| new(&a32, &b32, o), |o| old(&a32, &b32, o));
                prop_assert_eq!(got, want);
            }
            selections_match(&a16, &b16, &mask, <[i16]>::to_vec)?;
            selections_match(&a32, &b32, &mask, <[i32]>::to_vec)?;
        }

        /// Raw f32 bit patterns plus the selection corners of [`f32_lane`].
        #[test]
        fn float_lane_ops_match(
            items in vec((f32_lane(), f32_lane(), any::<f32>(), any::<bool>()), LANES),
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
            selections_match(&a, &b, &mask, bits)?;
            let (got, want) = both(n, |o| super::neg_f32(&a, o), |o| reference::neg_f32(&a, o));
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn permute_lanes_match(
            src in vec((any::<i32>(), f32_lane()), 1..41),
            picks in vec(any::<usize>(), LANES),
        ) {
            let s32: Vec<i32> = src.iter().map(|p| p.0).collect();
            let s16: Vec<i16> = s32.iter().map(|&v| v as i16).collect();
            let sf: Vec<f32> = src.iter().map(|p| p.1).collect();
            permute_matches(&s16, &picks, <[i16]>::to_vec)?;
            permute_matches(&s32, &picks, <[i32]>::to_vec)?;
            permute_matches(&sf, &picks, bits)?;
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
