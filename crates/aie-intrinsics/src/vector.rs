//! Fixed-width SIMD vector registers.
//!
//! [`Vector<T, N>`] emulates the AIE vector register file: `v8float`,
//! `v16int16`, … are type aliases in the crate root. Lane arithmetic is
//! exact (two's-complement wrapping for integers, IEEE for floats) and every
//! operation records itself with the [`crate::counter`].

use crate::counter::{record, record_n, OpKind};
use std::fmt;
use std::ops::{Add, Index, Mul, Neg, Sub};

/// A SIMD vector of `N` lanes of element type `T`.
#[derive(Clone, Copy, PartialEq)]
pub struct Vector<T, const N: usize> {
    lanes: [T; N],
}

impl<T: Copy + Default, const N: usize> Default for Vector<T, N> {
    #[inline]
    fn default() -> Self {
        Vector {
            lanes: [T::default(); N],
        }
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for Vector<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{N}{:?}", self.lanes)
    }
}

impl<T: Copy, const N: usize> Vector<T, N> {
    /// Construct from a lane array (register move; not counted).
    #[inline]
    pub const fn from_array(lanes: [T; N]) -> Self {
        Vector { lanes }
    }

    /// All lanes set to `value` (broadcast).
    #[inline]
    pub fn splat(value: T) -> Self {
        record(OpKind::Scalar);
        Vector { lanes: [value; N] }
    }

    /// Load a vector register from memory (counted as one vector load,
    /// matching the AIE's 128/256-bit load units).
    #[inline]
    pub fn load(slice: &[T]) -> Self {
        assert!(
            slice.len() >= N,
            "vector load of {N} lanes from slice of {}",
            slice.len()
        );
        record(OpKind::VLoad);
        let lanes: [T; N] = slice[..N].try_into().expect("length asserted above");
        Vector { lanes }
    }

    /// Store the register to memory (one vector store).
    #[inline]
    pub fn store(&self, out: &mut [T]) {
        assert!(
            out.len() >= N,
            "vector store of {N} lanes into slice of {}",
            out.len()
        );
        record(OpKind::VStore);
        out[..N].copy_from_slice(&self.lanes);
    }

    /// The lane array.
    #[inline]
    pub fn to_array(self) -> [T; N] {
        self.lanes
    }

    /// Read lane `i` (scalar extract).
    #[inline]
    pub fn extract(&self, i: usize) -> T {
        record(OpKind::Scalar);
        self.lanes[i]
    }

    /// Return a copy with lane `i` replaced (scalar insert).
    #[inline]
    pub fn insert(mut self, i: usize, value: T) -> Self {
        record(OpKind::Scalar);
        self.lanes[i] = value;
        self
    }

    /// Permute lanes: output lane `i` takes input lane `pattern[i]`
    /// (the AIE `shuffle`/`select` permute network).
    #[inline]
    pub fn shuffle(&self, pattern: &[usize; N]) -> Self {
        record(OpKind::VShuffle);
        for &p in pattern {
            assert!(p < N, "shuffle index {p} out of range for {N} lanes");
        }
        let mut lanes = self.lanes;
        crate::simd::permute_lanes(&self.lanes, pattern, &mut lanes);
        Vector { lanes }
    }

    /// Lane-wise selection: where `mask` is true take `self`, else `other`
    /// (the AIE `select` intrinsic with an immediate mask).
    #[inline]
    pub fn select(&self, other: &Self, mask: &[bool; N]) -> Self {
        record(OpKind::VAlu);
        let mut lanes = self.lanes;
        crate::simd::select_lanes(&self.lanes, &other.lanes, mask, &mut lanes);
        Vector { lanes }
    }

    /// Two-source permute: indices `< N` pick from `self`, indices in
    /// `N..2N` pick from `other` (AIE two-input shuffle).
    #[inline]
    pub fn shuffle2(&self, other: &Self, pattern: &[usize; N]) -> Self {
        record(OpKind::VShuffle);
        let mut lanes = self.lanes;
        for (o, &p) in lanes.iter_mut().zip(pattern.iter()) {
            assert!(p < 2 * N, "shuffle2 index {p} out of range");
            *o = if p < N {
                self.lanes[p]
            } else {
                other.lanes[p - N]
            };
        }
        Vector { lanes }
    }

    /// Apply `f` lane-wise (helper for building derived intrinsics; counted
    /// as a vector ALU op).
    #[inline]
    pub fn map(self, f: impl Fn(T) -> T) -> Self {
        record(OpKind::VAlu);
        let mut lanes = self.lanes;
        for l in &mut lanes {
            *l = f(*l);
        }
        Vector { lanes }
    }

    /// Number of lanes.
    #[inline]
    pub const fn lanes() -> usize {
        N
    }

    /// Borrow the lane array (crate-internal zero-copy view for the slice
    /// kernels).
    #[inline]
    pub(crate) fn lanes_ref(&self) -> &[T; N] {
        &self.lanes
    }
}

impl<T: Copy + PartialOrd, const N: usize> Vector<T, N> {
    /// Lane-wise minimum (AIE `min` — one vector ALU op).
    #[inline]
    pub fn min(&self, other: &Self) -> Self {
        record(OpKind::VAlu);
        let mut lanes = self.lanes;
        crate::simd::min_lanes(&self.lanes, &other.lanes, &mut lanes);
        Vector { lanes }
    }

    /// Lane-wise maximum (AIE `max`).
    #[inline]
    pub fn max(&self, other: &Self) -> Self {
        record(OpKind::VAlu);
        let mut lanes = self.lanes;
        crate::simd::max_lanes(&self.lanes, &other.lanes, &mut lanes);
        Vector { lanes }
    }

    /// Lane-wise `<` comparison mask (AIE `lt`).
    #[inline]
    pub fn lt(&self, other: &Self) -> [bool; N] {
        record(OpKind::VAlu);
        let mut mask = [false; N];
        for i in 0..N {
            mask[i] = self.lanes[i] < other.lanes[i];
        }
        mask
    }
}

impl<T, const N: usize> Index<usize> for Vector<T, N> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.lanes[i]
    }
}

macro_rules! float_vector_ops {
    ($t:ty, $add:ident, $sub:ident, $mul:ident, $neg:ident) => {
        impl<const N: usize> Add for Vector<$t, N> {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                record(OpKind::VAlu);
                let mut lanes = self.lanes;
                crate::simd::$add(&self.lanes, &rhs.lanes, &mut lanes);
                Vector { lanes }
            }
        }
        impl<const N: usize> Sub for Vector<$t, N> {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                record(OpKind::VAlu);
                let mut lanes = self.lanes;
                crate::simd::$sub(&self.lanes, &rhs.lanes, &mut lanes);
                Vector { lanes }
            }
        }
        impl<const N: usize> Neg for Vector<$t, N> {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                record(OpKind::VAlu);
                let mut lanes = self.lanes;
                crate::simd::$neg(&self.lanes, &mut lanes);
                Vector { lanes }
            }
        }
        impl<const N: usize> Mul for Vector<$t, N> {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                record(OpKind::VMac); // multiplies use the MAC datapath
                let mut lanes = self.lanes;
                crate::simd::$mul(&self.lanes, &rhs.lanes, &mut lanes);
                Vector { lanes }
            }
        }

        impl<const N: usize> Vector<$t, N> {
            /// Horizontal sum of all lanes (reduction tree on the vector
            /// unit: counted as one ALU op per tree level). The summation
            /// order is sequential — part of the bit-exactness contract.
            #[inline]
            pub fn reduce_add(self) -> $t {
                let mut width = N;
                let mut levels = 0u64;
                while width > 1 {
                    levels += 1;
                    width /= 2;
                }
                record_n(OpKind::VAlu, levels);
                self.lanes.iter().copied().sum()
            }
        }
    };
}

float_vector_ops!(f32, add_f32, sub_f32, mul_f32, neg_f32);

macro_rules! int_vector_ops {
    ($t:ty, $add:ident, $sub:ident) => {
        impl<const N: usize> Add for Vector<$t, N> {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                record(OpKind::VAlu);
                let mut lanes = self.lanes;
                crate::simd::$add(&self.lanes, &rhs.lanes, &mut lanes);
                Vector { lanes }
            }
        }
        impl<const N: usize> Sub for Vector<$t, N> {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                record(OpKind::VAlu);
                let mut lanes = self.lanes;
                crate::simd::$sub(&self.lanes, &rhs.lanes, &mut lanes);
                Vector { lanes }
            }
        }
    };
}

int_vector_ops!(i16, add_i16, sub_i16);
int_vector_ops!(i32, add_i32, sub_i32);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{reset_counts, snapshot_counts, OpKind};
    use proptest::prelude::*;

    #[test]
    fn load_store_roundtrip() {
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v = Vector::<f32, 8>::load(&data);
        let mut out = [0.0f32; 8];
        v.store(&mut out);
        assert_eq!(out.to_vec(), data);
    }

    #[test]
    #[should_panic(expected = "vector load")]
    fn short_load_panics() {
        let _ = Vector::<f32, 8>::load(&[1.0, 2.0]);
    }

    #[test]
    fn splat_and_extract() {
        let v = Vector::<i16, 16>::splat(7);
        assert_eq!(v.extract(0), 7);
        assert_eq!(v.extract(15), 7);
        let v2 = v.insert(3, -1);
        assert_eq!(v2.extract(3), -1);
        assert_eq!(v2.extract(4), 7);
    }

    #[test]
    fn shuffle_reverses() {
        let v = Vector::<i32, 4>::from_array([10, 20, 30, 40]);
        let r = v.shuffle(&[3, 2, 1, 0]);
        assert_eq!(r.to_array(), [40, 30, 20, 10]);
    }

    #[test]
    fn shuffle2_interleaves_sources() {
        let a = Vector::<i32, 4>::from_array([0, 1, 2, 3]);
        let b = Vector::<i32, 4>::from_array([100, 101, 102, 103]);
        let r = a.shuffle2(&b, &[0, 4, 1, 5]);
        assert_eq!(r.to_array(), [0, 100, 1, 101]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shuffle_rejects_bad_index() {
        let v = Vector::<i32, 4>::from_array([0; 4]);
        let _ = v.shuffle(&[0, 1, 2, 4]);
    }

    #[test]
    fn min_max_select() {
        let a = Vector::<f32, 4>::from_array([1.0, 5.0, 3.0, 7.0]);
        let b = Vector::<f32, 4>::from_array([2.0, 4.0, 3.0, 6.0]);
        assert_eq!(a.min(&b).to_array(), [1.0, 4.0, 3.0, 6.0]);
        assert_eq!(a.max(&b).to_array(), [2.0, 5.0, 3.0, 7.0]);
        let mask = a.lt(&b);
        assert_eq!(mask, [true, false, false, false]);
        assert_eq!(a.select(&b, &mask).to_array(), [1.0, 4.0, 3.0, 6.0]);
    }

    #[test]
    fn float_arithmetic() {
        let a = Vector::<f32, 4>::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = Vector::<f32, 4>::splat(2.0);
        assert_eq!((a + b).to_array(), [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a - b).to_array(), [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a * b).to_array(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(a.reduce_add(), 10.0);
    }

    #[test]
    fn integer_arithmetic_wraps() {
        let a = Vector::<i16, 4>::from_array([i16::MAX, 0, -1, 5]);
        let b = Vector::<i16, 4>::from_array([1, 0, -1, 5]);
        assert_eq!((a + b).to_array(), [i16::MIN, 0, -2, 10]);
        assert_eq!((a - b).to_array(), [i16::MAX - 1, 0, 0, 0]);
    }

    #[test]
    fn ops_are_counted() {
        reset_counts();
        let a = Vector::<f32, 8>::load(&[1.0; 8]);
        let b = Vector::<f32, 8>::splat(2.0);
        let _ = a * b;
        let _ = a + b;
        let _ = a.shuffle(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut out = [0.0; 8];
        a.store(&mut out);
        let c = snapshot_counts();
        assert_eq!(c.get(OpKind::VLoad), 1);
        assert_eq!(c.get(OpKind::VMac), 1);
        assert_eq!(c.get(OpKind::VAlu), 1);
        assert_eq!(c.get(OpKind::VShuffle), 1);
        assert_eq!(c.get(OpKind::VStore), 1);
    }

    proptest! {
        /// Shuffling with the identity pattern is a no-op.
        #[test]
        fn identity_shuffle(vals in proptest::array::uniform8(any::<i32>())) {
            let v = Vector::<i32, 8>::from_array(vals);
            let id = [0usize, 1, 2, 3, 4, 5, 6, 7];
            prop_assert_eq!(v.shuffle(&id).to_array(), vals);
        }

        /// min and max partition each lane pair: {min, max} = {a, b}.
        #[test]
        fn min_max_partition(a in proptest::array::uniform4(any::<i32>()),
                             b in proptest::array::uniform4(any::<i32>())) {
            let va = Vector::<i32, 4>::from_array(a);
            let vb = Vector::<i32, 4>::from_array(b);
            let mn = va.min(&vb).to_array();
            let mx = va.max(&vb).to_array();
            for i in 0..4 {
                let mut expect = [a[i], b[i]];
                expect.sort_unstable();
                prop_assert_eq!([mn[i], mx[i]], expect);
            }
        }

        /// reduce_add matches a scalar sum.
        #[test]
        fn reduce_add_matches_scalar(vals in proptest::array::uniform8(-1000i32..1000)) {
            let f: [f32; 8] = vals.map(|v| v as f32);
            let v = Vector::<f32, 8>::from_array(f);
            let scalar: f32 = f.iter().sum();
            prop_assert_eq!(v.reduce_add(), scalar);
        }
    }
}
