//! Complex fixed-point and floating-point vector support.
//!
//! AIE1's DSP identity is built around complex arithmetic: `cint16` /
//! `cfloat` vectors with complex MACs (including conjugate variants) are
//! the workhorses of FIR/FFT/beamforming kernels. AMD's emulation headers
//! cover these types; this module is the reproduction's equivalent —
//! functionally exact wide-accumulator complex arithmetic, instrumented for
//! the cycle model like the rest of the crate.

use crate::counter::{record, OpKind};
use crate::vector::Vector;

/// A complex number with `i16` components (`cint16`).
///
/// `repr(C)` pins the in-memory layout to the hardware's interleaved
/// `re, im` pair so the slice kernels can operate on flattened lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct CInt16 {
    /// Real part.
    pub re: i16,
    /// Imaginary part.
    pub im: i16,
}

impl CInt16 {
    /// Construct from parts.
    #[inline]
    pub const fn new(re: i16, im: i16) -> Self {
        CInt16 { re, im }
    }

    /// Complex conjugate.
    #[inline]
    pub const fn conj(self) -> Self {
        CInt16 {
            re: self.re,
            im: self.im.wrapping_neg(),
        }
    }
}

/// A complex number with wide (`i64`) components — one accumulator lane of
/// the AIE `cacc48` register. `repr(C)` pins the interleaved `re, im`
/// layout for the slice kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
pub struct CAcc {
    /// Real accumulator.
    pub re: i64,
    /// Imaginary accumulator.
    pub im: i64,
}

/// An `N`-lane complex 48-bit accumulator (AIE `cacc48`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CAccI48<const N: usize> {
    lanes: [CAcc; N],
}

impl<const N: usize> Default for CAccI48<N> {
    #[inline]
    fn default() -> Self {
        Self::zero()
    }
}

impl<const N: usize> CAccI48<N> {
    /// The zero accumulator.
    #[inline]
    pub const fn zero() -> Self {
        CAccI48 {
            lanes: [CAcc { re: 0, im: 0 }; N],
        }
    }

    /// Raw lanes.
    #[inline]
    pub fn to_array(self) -> [CAcc; N] {
        self.lanes
    }

    /// `acc += a * b` lane-wise complex multiply-accumulate (AIE `cmac`):
    /// `(ar·br − ai·bi) + j(ar·bi + ai·br)` in full precision.
    #[inline]
    pub fn cmac(mut self, a: Vector<CInt16, N>, b: Vector<CInt16, N>) -> Self {
        record(OpKind::VMac);
        crate::simd::cmac_c16(
            flat_acc(&mut self.lanes),
            flat_c16(a.lanes_ref()),
            flat_c16(b.lanes_ref()),
        );
        self
    }

    /// `acc += a * conj(b)` (AIE `cmac_conf` / conjugate MAC) — the
    /// correlation primitive.
    #[inline]
    pub fn cmac_conj(mut self, a: Vector<CInt16, N>, b: Vector<CInt16, N>) -> Self {
        record(OpKind::VMac);
        crate::simd::cmac_conj_c16(
            flat_acc(&mut self.lanes),
            flat_c16(a.lanes_ref()),
            flat_c16(b.lanes_ref()),
        );
        self
    }

    /// Shift-round-saturate both components back to `cint16` lanes.
    #[inline]
    pub fn srs(self, shift: u32) -> Vector<CInt16, N> {
        record(OpKind::VSrs);
        let mut out = [CInt16::default(); N];
        // Both components go through the same per-lane srs, so the flat
        // interleaved view reuses the real-valued readout kernel.
        let acc = self.lanes;
        crate::simd::srs_i48_to_i16(flat_acc_ref(&acc), shift, flat_c16_mut(&mut out));
        Vector::from_array(out)
    }
}

/// Lane-wise complex magnitude-squared into wide lanes (|z|² = re² + im²) —
/// the power-detector primitive; counted as one MAC issue.
#[inline]
pub fn cmag_sq<const N: usize>(v: &Vector<CInt16, N>) -> [i64; N] {
    record(OpKind::VMac);
    let mut out = [0i64; N];
    crate::simd::cmag_sq_c16(flat_c16(v.lanes_ref()), &mut out);
    out
}

/// View complex `i16` lanes as interleaved scalar lanes (`repr(C)` makes
/// this a pure reinterpretation).
#[inline]
fn flat_c16<const N: usize>(lanes: &[CInt16; N]) -> &[i16] {
    // SAFETY: CInt16 is repr(C) { re: i16, im: i16 } — no padding; N pairs
    // occupy exactly 2N contiguous i16s.
    unsafe { std::slice::from_raw_parts(lanes.as_ptr() as *const i16, 2 * N) }
}

/// Mutable variant of [`flat_c16`].
#[inline]
fn flat_c16_mut<const N: usize>(lanes: &mut [CInt16; N]) -> &mut [i16] {
    // SAFETY: as in `flat_c16`.
    unsafe { std::slice::from_raw_parts_mut(lanes.as_mut_ptr() as *mut i16, 2 * N) }
}

/// View complex accumulator lanes as interleaved `i64` lanes.
#[inline]
fn flat_acc_ref<const N: usize>(lanes: &[CAcc; N]) -> &[i64] {
    // SAFETY: CAcc is repr(C) { re: i64, im: i64 } — no padding.
    unsafe { std::slice::from_raw_parts(lanes.as_ptr() as *const i64, 2 * N) }
}

/// Mutable variant of [`flat_acc_ref`].
#[inline]
fn flat_acc<const N: usize>(lanes: &mut [CAcc; N]) -> &mut [i64] {
    // SAFETY: as in `flat_acc_ref`.
    unsafe { std::slice::from_raw_parts_mut(lanes.as_mut_ptr() as *mut i64, 2 * N) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cv<const N: usize>(vals: [(i16, i16); N]) -> Vector<CInt16, N> {
        Vector::from_array(vals.map(|(re, im)| CInt16::new(re, im)))
    }

    #[test]
    fn cmac_multiplies_complex() {
        // (1+2j)(3+4j) = 3+4j+6j+8j² = -5 + 10j
        let a = cv([(1, 2); 4]);
        let b = cv([(3, 4); 4]);
        let acc = CAccI48::zero().cmac(a, b);
        for lane in acc.to_array() {
            assert_eq!((lane.re, lane.im), (-5, 10));
        }
    }

    #[test]
    fn cmac_conj_correlates() {
        // a·conj(a) = |a|² purely real.
        let a = cv([(300, -400); 8]);
        let acc = CAccI48::zero().cmac_conj(a, a);
        for lane in acc.to_array() {
            assert_eq!(lane.re, 300 * 300 + 400 * 400);
            assert_eq!(lane.im, 0);
        }
    }

    #[test]
    fn srs_rescales_both_components() {
        let a = cv([(100, -100); 4]);
        let b = cv([(1 << 8, 0); 4]); // ×256 real scale
        let out = CAccI48::zero().cmac(a, b).srs(8);
        for i in 0..4 {
            assert_eq!((out[i].re, out[i].im), (100, -100));
        }
    }

    #[test]
    fn magnitude_squared() {
        let v = cv([(3, 4), (0, 0), (-5, 12), (1, -1)]);
        assert_eq!(cmag_sq(&v), [25, 0, 169, 2]);
    }

    #[test]
    fn conj_negates_imaginary() {
        assert_eq!(CInt16::new(7, -9).conj(), CInt16::new(7, 9));
        // Wrapping at the i16 boundary.
        assert_eq!(CInt16::new(0, i16::MIN).conj().im, i16::MIN);
    }

    proptest! {
        /// cmac matches exact complex arithmetic over random inputs.
        #[test]
        fn cmac_matches_reference(
            ar in any::<i16>(), ai in any::<i16>(),
            br in any::<i16>(), bi in any::<i16>(),
        ) {
            let a = cv([(ar, ai); 2]);
            let b = cv([(br, bi); 2]);
            let acc = CAccI48::zero().cmac(a, b);
            let expect_re = (ar as i64) * (br as i64) - (ai as i64) * (bi as i64);
            let expect_im = (ar as i64) * (bi as i64) + (ai as i64) * (br as i64);
            prop_assert_eq!(acc.to_array()[0], CAcc { re: expect_re, im: expect_im });
        }

        /// Conjugate MAC of z with itself is |z|² (real, non-negative).
        #[test]
        fn self_correlation_is_power(re in any::<i16>(), im in any::<i16>()) {
            let z = cv([(re, im); 2]);
            let acc = CAccI48::zero().cmac_conj(z, z);
            let lane = acc.to_array()[0];
            prop_assert!(lane.re >= 0);
            prop_assert_eq!(lane.im, 0);
            prop_assert_eq!(lane.re, cmag_sq(&z)[0]);
        }
    }
}
