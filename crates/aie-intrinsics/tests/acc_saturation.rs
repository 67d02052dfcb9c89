//! 48-bit accumulator saturation boundaries.
//!
//! The AIE `acc48` register holds 48 signed bits; the emulation stores the
//! lanes in `i64` and only clamps at `srs` readout. These tests pin the
//! behaviour at the ±2^47 boundary — MAC chains that cross it, the
//! round-then-saturate interplay where rounding alone pushes a value over
//! the edge — lane for lane against the exact expected values and the
//! per-lane [`fixed`] readout.

use aie_intrinsics::fixed;
use aie_intrinsics::{AccI48, Vector};

/// The largest/smallest values representable in 48 signed bits.
const ACC48_MAX: i64 = (1i64 << 47) - 1;
const ACC48_MIN: i64 = -(1i64 << 47);

/// `32767²`, the largest positive `i16 × i16` product short of `(−32768)²`.
const TOP_SQ: i64 = i16::MAX as i64 * i16::MAX as i64;

/// A MAC chain that walks the accumulator past +2^47: each step adds
/// 32767·32767 ≈ 2^30, so ~2^17 steps cross the boundary. The emulation
/// (like a chain of AIE MACs with lazy saturation) keeps full i64
/// precision in flight; readout is where the clamp happens.
#[test]
fn mac_chain_crossing_pos_2_47() {
    let top = Vector::<i16, 16>::from_array([i16::MAX; 16]);
    // Start one MAC short of the boundary.
    let start = ACC48_MAX - TOP_SQ / 2;
    let mut acc = AccI48::<16>::from_array([start; 16]);
    for _ in 0..4 {
        acc = acc.mac(top, top);
    }
    let lanes = acc.to_array();
    // In-flight value really is past the 48-bit range...
    assert_eq!(lanes, [start + 4 * TOP_SQ; 16]);
    assert!(lanes[0] > ACC48_MAX);
    // ...and every readout shift still saturates at the narrow type's
    // positive rail.
    assert_eq!(acc.srs(0).to_array(), [i16::MAX; 16]);
    assert_eq!(acc.srs(16).to_array(), [i16::MAX; 16]);
    assert_eq!(acc.srs32(15).to_array(), [i32::MAX; 16]);
}

#[test]
fn mac_chain_crossing_neg_2_47() {
    let top = Vector::<i16, 16>::from_array([i16::MAX; 16]);
    let bottom = Vector::<i16, 16>::from_array([i16::MIN; 16]);
    let start = ACC48_MIN + TOP_SQ / 2;
    let mut acc = AccI48::<16>::from_array([start; 16]);
    for _ in 0..4 {
        // (+32767)·(−32768) per lane: the most negative i16×i16 product.
        acc = acc.mac(top, bottom);
    }
    let lanes = acc.to_array();
    assert_eq!(lanes, [start + 4 * (i16::MAX as i64 * i16::MIN as i64); 16]);
    assert!(lanes[0] < ACC48_MIN);
    assert_eq!(acc.srs(0).to_array(), [i16::MIN; 16]);
    assert_eq!(acc.srs(16).to_array(), [i16::MIN; 16]);
    assert_eq!(acc.srs32(15).to_array(), [i32::MIN; 16]);
}

/// msc walking down across −2^47 mirrors the mac chain up.
#[test]
fn msc_chain_crossing_neg_2_47() {
    let top = Vector::<i16, 16>::from_array([i16::MAX; 16]);
    let start = ACC48_MIN + TOP_SQ / 2;
    let mut acc = AccI48::<16>::from_array([start; 16]);
    for _ in 0..4 {
        acc = acc.msc(top, top);
    }
    assert_eq!(acc.to_array(), [start - 4 * TOP_SQ; 16]);
    assert_eq!(acc.srs(14).to_array(), [i16::MIN; 16]);
    assert_eq!(acc.srs32(14).to_array(), [i32::MIN; 16]);
}

/// Round/saturate interplay: values just below the saturation edge where
/// the round-half-up *bias alone* pushes them across. `32767.5` must round
/// to 32768 and then clamp back to 32767; `−32768.5` rounds to −32768
/// (round-half-up, not half-away-from-zero) and must NOT clamp.
#[test]
fn srs_rounding_pushes_across_saturation_edge() {
    for shift in [1u32, 4, 15, 31, 40] {
        let half = 1i64 << (shift - 1);
        let lanes: [i64; 16] = [
            // +edge: exactly 32767.5 → rounds up → saturates.
            (32767i64 << shift) + half,
            // one below the tipping point: stays 32767.
            (32767i64 << shift) + half - 1,
            // −edge: −32768.5 rounds *up* to −32768 → in range.
            (-32768i64 << shift) - half,
            // one further: −32768.5 − ε rounds to −32769 → saturates.
            (-32768i64 << shift) - half - 1,
            // i32 rails for srs32.
            ((i32::MAX as i64) << shift.min(15)) + half,
            ((i32::MIN as i64) << shift.min(15)) - half - 1,
            // deep past both rails.
            ACC48_MAX,
            ACC48_MIN,
            // around zero: ±0.5 rounding.
            half,
            half - 1,
            -half,
            -half - 1,
            // arbitrary mid-range values.
            0x1234_5678_9abc,
            -0x1234_5678_9abc,
            1,
            -1,
        ];
        let acc = AccI48::<16>::from_array(lanes);
        let (out, out32) = (acc.srs(shift).to_array(), acc.srs32(shift).to_array());
        assert_eq!(out[..4], [32767, 32767, -32768, -32768], "shift {shift}");
        for (i, &lane) in lanes.iter().enumerate() {
            assert_eq!(out[i], fixed::srs(lane, shift), "shift {shift} lane {i}");
            assert_eq!(
                out32[i],
                fixed::srs32(lane, shift),
                "shift {shift} lane {i}"
            );
        }
    }
}

/// Pin the tipping-point lanes to their exact expected values: the
/// emulation must round half *up* then clamp.
#[test]
fn srs_edge_values_are_exact() {
    let shift = 4u32;
    let half = 1i64 << (shift - 1);
    let acc = AccI48::<4>::from_array([
        (32767i64 << shift) + half,      // 32767.5 → 32768 → clamp 32767
        (32767i64 << shift) + half - 1,  // 32767.4375 → 32767
        (-32768i64 << shift) - half,     // −32768.5 → −32768 (no clamp)
        (-32768i64 << shift) - half - 1, // −32768.5625 → −32769 → clamp −32768
    ]);
    assert_eq!(acc.srs(shift).to_array(), [32767, 32767, -32768, -32768]);
}

/// srs with shift 0 is a pure saturation pass; the boundary lanes clamp
/// and everything in range passes through untouched.
#[test]
fn srs_shift_zero_is_pure_saturation() {
    let acc = AccI48::<8>::from_array([
        ACC48_MAX,
        ACC48_MIN,
        i16::MAX as i64,
        i16::MIN as i64,
        i16::MAX as i64 + 1,
        i16::MIN as i64 - 1,
        0,
        -1,
    ]);
    assert_eq!(
        acc.srs(0).to_array(),
        [32767, -32768, 32767, -32768, 32767, -32768, 0, -1]
    );
}

/// ups at the maximum kernel shift parks ±full-scale exactly at the
/// 48-bit boundary neighbourhood, and a following srs round-trips.
#[test]
fn ups_to_boundary_round_trips_through_srs() {
    let v = Vector::<i16, 16>::from_array([
        i16::MAX,
        i16::MIN,
        1,
        -1,
        0,
        255,
        -256,
        12345,
        -12345,
        i16::MAX,
        i16::MIN,
        2,
        -2,
        100,
        -100,
        0,
    ]);
    for shift in [0u32, 1, 15, 31, 32] {
        let acc = AccI48::ups(v, shift);
        assert_eq!(acc.to_array(), v.to_array().map(|x| (x as i64) << shift));
        // ups then srs by the same shift is the identity on every lane
        // (round bias < 2^shift cannot move an exact multiple).
        assert_eq!(acc.srs(shift).to_array(), v.to_array(), "shift {shift}");
    }
    // i16::MIN << 32 = −2^47: ups can reach exactly the 48-bit rail.
    let acc = AccI48::<1>::ups(Vector::from_array([i16::MIN]), 32);
    assert_eq!(acc.to_array()[0], ACC48_MIN);
}

/// The complex accumulator saturates its re/im components independently.
#[test]
fn complex_srs_saturates_components_independently() {
    use aie_intrinsics::{CAccI48, CInt16, Vector as V};
    let big = V::<CInt16, 4>::from_array([CInt16::new(i16::MIN, i16::MIN); 4]);
    // (min,min)·conj(min,min): re = min²+min² = 2^31 (crosses i16 after
    // srs), im = min·min − min·min = 0.
    let mut acc = CAccI48::zero();
    for _ in 0..4 {
        acc = acc.cmac_conj(big, big);
    }
    let lanes = acc.to_array().map(|l| (l.re, l.im));
    assert_eq!(lanes, [(1i64 << 33, 0); 4]);
    let out = acc.srs(2).to_array().map(|c| (c.re, c.im));
    assert_eq!(out, [(i16::MAX, 0); 4]);
}
