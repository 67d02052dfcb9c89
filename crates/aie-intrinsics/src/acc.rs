//! Wide accumulators and multiply-accumulate intrinsics.
//!
//! AIE1 fixed-point MACs accumulate `int16 × int16` products into 48-bit
//! accumulator lanes; floating-point MACs (`fpmac`) use ordinary f32
//! accumulation. [`AccI48`] emulates the 48-bit lane exactly (stored in
//! `i64`, saturated to 48 bits on readout via [`crate::fixed::srs`]), so
//! overflow behaviour of heavily-accumulating kernels (FIR/Farrow) matches
//! hardware.

use crate::counter::{record, OpKind};
use crate::vector::Vector;

/// Saturation bounds of a 48-bit accumulator lane.
pub const ACC48_MAX: i64 = (1 << 47) - 1;
/// Negative bound of a 48-bit accumulator lane.
pub const ACC48_MIN: i64 = -(1 << 47);

/// An `N`-lane 48-bit fixed-point accumulator (AIE `acc48`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccI48<const N: usize> {
    lanes: [i64; N],
}

impl<const N: usize> Default for AccI48<N> {
    #[inline]
    fn default() -> Self {
        Self::zero()
    }
}

impl<const N: usize> AccI48<N> {
    /// The zero accumulator (AIE `null_v*acc48`).
    #[inline]
    pub const fn zero() -> Self {
        AccI48 { lanes: [0; N] }
    }

    /// Raw lane values (full `i64` precision, pre-saturation).
    #[inline]
    pub fn to_array(self) -> [i64; N] {
        self.lanes
    }

    /// Construct from raw lane values (e.g. when restoring state).
    #[inline]
    pub const fn from_array(lanes: [i64; N]) -> Self {
        AccI48 { lanes }
    }

    /// Widen a narrow vector into accumulator precision scaled by
    /// `2^shift` — the vector form of the AIE `ups` intrinsic (the inverse
    /// of [`AccI48::srs`]).
    #[inline]
    pub fn ups(v: Vector<i16, N>, shift: u32) -> Self {
        record(OpKind::VSrs); // ups shares the srs datapath
        let mut lanes = [0i64; N];
        crate::simd::ups_i16_to_i48(v.lanes_ref(), shift, &mut lanes);
        AccI48 { lanes }
    }

    /// `acc += a * b` lane-wise (AIE `mac16`-family). One VMAC issue.
    #[inline]
    pub fn mac(mut self, a: Vector<i16, N>, b: Vector<i16, N>) -> Self {
        record(OpKind::VMac);
        crate::simd::mac_i48(&mut self.lanes, a.lanes_ref(), b.lanes_ref());
        self
    }

    /// `acc -= a * b` lane-wise (AIE `msc16`).
    #[inline]
    pub fn msc(mut self, a: Vector<i16, N>, b: Vector<i16, N>) -> Self {
        record(OpKind::VMac);
        crate::simd::msc_i48(&mut self.lanes, a.lanes_ref(), b.lanes_ref());
        self
    }

    /// `acc = a * b` (AIE `mul16`): multiply overwriting the accumulator.
    #[inline]
    pub fn mul(a: Vector<i16, N>, b: Vector<i16, N>) -> Self {
        record(OpKind::VMac);
        // MAC into a zero accumulator — identical to a plain product.
        let mut lanes = [0i64; N];
        crate::simd::mac_i48(&mut lanes, a.lanes_ref(), b.lanes_ref());
        AccI48 { lanes }
    }

    /// Sliding multiply-accumulate (the AIE `sliding_mul` / `mac` with
    /// shifted data register selection used by FIR kernels): output lane `i`
    /// accumulates `data[i + tap] * coeff`, i.e. one scalar coefficient
    /// against a sliding window of data lanes.
    ///
    /// `data` must provide `N + tap` valid lanes.
    #[inline]
    pub fn sliding_mac(mut self, data: &[i16], tap: usize, coeff: i16) -> Self {
        record(OpKind::VMac);
        assert!(
            data.len() >= N + tap,
            "sliding_mac needs {} data lanes, got {}",
            N + tap,
            data.len()
        );
        crate::simd::mac_coeff_i48(&mut self.lanes, &data[tap..], coeff);
        self
    }

    /// Lane-wise add of two accumulators (named after the AIE intrinsic,
    /// deliberately not `std::ops::Add`: it issues a vector-ALU op).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(mut self, other: Self) -> Self {
        record(OpKind::VAlu);
        crate::simd::add_i64(&mut self.lanes, &other.lanes);
        self
    }

    /// Shift-round-saturate the accumulator down to `i16` lanes — the AIE
    /// `srs` datapath op. `shift` is the Q-format scaling (result =
    /// `round(acc / 2^shift)` saturated to i16).
    #[inline]
    pub fn srs(self, shift: u32) -> Vector<i16, N> {
        record(OpKind::VSrs);
        let mut out = [0i16; N];
        crate::simd::srs_i48_to_i16(&self.lanes, shift, &mut out);
        Vector::from_array(out)
    }

    /// Shift-round-saturate to `i32` lanes (AIE `lsrs`).
    #[inline]
    pub fn srs32(self, shift: u32) -> Vector<i32, N> {
        record(OpKind::VSrs);
        let mut out = [0i32; N];
        crate::simd::srs_i48_to_i32(&self.lanes, shift, &mut out);
        Vector::from_array(out)
    }
}

/// An `N`-lane f32 accumulator (the AIE floating-point datapath has no extra
/// accumulator width; `fpmac` rounds per step like hardware).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccF32<const N: usize> {
    lanes: [f32; N],
}

impl<const N: usize> Default for AccF32<N> {
    #[inline]
    fn default() -> Self {
        Self::zero()
    }
}

impl<const N: usize> AccF32<N> {
    /// The zero accumulator.
    #[inline]
    pub const fn zero() -> Self {
        AccF32 { lanes: [0.0; N] }
    }

    /// `acc += a * b` lane-wise (AIE `fpmac`). One VMAC issue.
    #[inline]
    pub fn fpmac(mut self, a: Vector<f32, N>, b: Vector<f32, N>) -> Self {
        record(OpKind::VMac);
        crate::simd::fpmac_f32(&mut self.lanes, a.lanes_ref(), b.lanes_ref());
        self
    }

    /// `acc -= a * b` lane-wise (AIE `fpmsc`).
    #[inline]
    pub fn fpmsc(mut self, a: Vector<f32, N>, b: Vector<f32, N>) -> Self {
        record(OpKind::VMac);
        crate::simd::fpmsc_f32(&mut self.lanes, a.lanes_ref(), b.lanes_ref());
        self
    }

    /// `acc += data[i+tap] * coeff` — float sliding MAC (vectorised FIR).
    #[inline]
    pub fn sliding_fpmac(mut self, data: &[f32], tap: usize, coeff: f32) -> Self {
        record(OpKind::VMac);
        assert!(
            data.len() >= N + tap,
            "sliding_fpmac needs {} data lanes, got {}",
            N + tap,
            data.len()
        );
        crate::simd::fpmac_coeff_f32(&mut self.lanes, &data[tap..], coeff);
        self
    }

    /// Read out the accumulator as a plain vector (register move).
    #[inline]
    pub fn to_vector(self) -> Vector<f32, N> {
        Vector::from_array(self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mac_accumulates_products() {
        let a = Vector::<i16, 4>::from_array([1, 2, 3, 4]);
        let b = Vector::<i16, 4>::from_array([10, 10, 10, 10]);
        let acc = AccI48::zero().mac(a, b).mac(a, b);
        assert_eq!(acc.to_array(), [20, 40, 60, 80]);
    }

    #[test]
    fn msc_subtracts_products() {
        let a = Vector::<i16, 4>::splat(3);
        let b = Vector::<i16, 4>::splat(5);
        let acc = AccI48::mul(a, b).msc(a, b);
        assert_eq!(acc.to_array(), [0; 4]);
    }

    #[test]
    fn accumulator_holds_beyond_16_bits() {
        // i16::MAX^2 ≈ 2^30 per step; 2^17 steps would saturate 48 bits, but
        // a few thousand must be exact.
        let a = Vector::<i16, 2>::splat(i16::MAX);
        let mut acc = AccI48::<2>::zero();
        for _ in 0..1000 {
            acc = acc.mac(a, a);
        }
        let expect = (i16::MAX as i64) * (i16::MAX as i64) * 1000;
        assert_eq!(acc.to_array(), [expect; 2]);
        assert!(expect > i32::MAX as i64);
    }

    #[test]
    fn sliding_mac_windows_data() {
        let data: Vec<i16> = (0..12).collect();
        let acc = AccI48::<8>::zero().sliding_mac(&data, 2, 3);
        let expect: Vec<i64> = (0..8).map(|i| (i as i64 + 2) * 3).collect();
        assert_eq!(acc.to_array().to_vec(), expect);
    }

    #[test]
    #[should_panic(expected = "sliding_mac needs")]
    fn sliding_mac_checks_window() {
        let data = [0i16; 8];
        let _ = AccI48::<8>::zero().sliding_mac(&data, 2, 1);
    }

    #[test]
    fn ups_then_srs_roundtrips_vectors() {
        let v = Vector::<i16, 8>::from_array([-32768, -1, 0, 1, 2, 100, 30000, 32767]);
        let acc = AccI48::ups(v, 12);
        assert_eq!(acc.srs(12).to_array(), v.to_array());
        // The widened lanes really are scaled.
        assert_eq!(acc.to_array()[5], 100 << 12);
    }

    #[test]
    fn srs_readout_matches_fixed_point() {
        let a = Vector::<i16, 4>::from_array([100, -100, 1, 0]);
        let b = Vector::<i16, 4>::splat(1 << 8); // ×256
        let acc = AccI48::mul(a, b);
        let out = acc.srs(8); // /256 → back to original
        assert_eq!(out.to_array(), [100, -100, 1, 0]);
    }

    #[test]
    fn fpmac_matches_scalar() {
        let a = Vector::<f32, 8>::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = Vector::<f32, 8>::splat(0.5);
        let acc = AccF32::zero().fpmac(a, b).fpmac(a, b);
        let expect: [f32; 8] = std::array::from_fn(|i| i as f32 + 1.0);
        assert_eq!(acc.to_vector().to_array(), expect);
    }

    #[test]
    fn fpmsc_inverts_fpmac() {
        let a = Vector::<f32, 4>::from_array([1.5, -2.5, 3.25, 0.0]);
        let b = Vector::<f32, 4>::from_array([2.0, 4.0, -1.0, 9.0]);
        let acc = AccF32::zero().fpmac(a, b).fpmsc(a, b);
        assert_eq!(acc.to_vector().to_array(), [0.0; 4]);
    }

    proptest! {
        /// Integer MAC matches the scalar wide computation exactly.
        #[test]
        fn mac_matches_scalar(
            a in proptest::array::uniform8(any::<i16>()),
            b in proptest::array::uniform8(any::<i16>()),
            c in proptest::array::uniform8(any::<i16>()),
            d in proptest::array::uniform8(any::<i16>()),
        ) {
            let acc = AccI48::<8>::zero()
                .mac(Vector::from_array(a), Vector::from_array(b))
                .mac(Vector::from_array(c), Vector::from_array(d));
            for i in 0..8 {
                let expect = (a[i] as i64) * (b[i] as i64) + (c[i] as i64) * (d[i] as i64);
                prop_assert_eq!(acc.to_array()[i], expect);
            }
        }

        /// sliding_mac over all taps equals a scalar dot product.
        #[test]
        fn sliding_mac_is_convolution(
            data in proptest::collection::vec(-1000i16..1000, 16),
            coeffs in proptest::collection::vec(-100i16..100, 4),
        ) {
            let mut acc = AccI48::<8>::zero();
            for (tap, &c) in coeffs.iter().enumerate() {
                acc = acc.sliding_mac(&data, tap, c);
            }
            for lane in 0..8 {
                let expect: i64 = coeffs
                    .iter()
                    .enumerate()
                    .map(|(tap, &c)| (data[lane + tap] as i64) * (c as i64))
                    .sum();
                prop_assert_eq!(acc.to_array()[lane], expect);
            }
        }
    }
}
