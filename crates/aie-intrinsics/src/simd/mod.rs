//! SIMD-accelerated slice kernels behind a per-thread dispatch tier.
//!
//! The emulated intrinsics ([`crate::vector`], [`crate::acc`],
//! [`crate::complex`]) lower their lane loops onto the slice-level kernels
//! in this module. Every kernel exists in up to three implementations:
//!
//! * **scalar** ([`scalar`]) — the portable per-lane loops, always
//!   compiled, and the reference the other tiers are proptested against;
//! * **SSE2** — 128-bit `core::arch` paths, baseline on `x86_64`
//!   (compiled only with the `simd` cargo feature);
//! * **AVX2** — 256-bit paths selected by runtime feature detection.
//!
//! # Contract
//!
//! Every tier is **bit-exact**: integer ops wrap in two's complement,
//! float ops follow IEEE per-lane ordering with no FMA contraction or
//! reassociation, `min`/`max`/`select` preserve NaN payloads and signed
//! zeros exactly as the scalar loops do, and 48-bit accumulator readout
//! saturates identically. `tests/simd_equivalence.rs` proptests every
//! kernel across all available tiers over full-range inputs.
//!
//! One carve-out, forced by the language rather than by SIMD: when float
//! *arithmetic* (`add`/`sub`/`mul`/`fpmac`) produces a NaN, all tiers
//! produce a NaN for that lane but the payload is unspecified. Which
//! operand's payload survives a two-NaN `addss`/`mulss` depends on operand
//! order, and LLVM freely commutes scalar `fadd`/`fmul` — so payload
//! identity there is unattainable even between two scalar builds.
//! Selection ops (`min`/`max`/`select`/`permute`) and sign ops (`neg`)
//! never launder payloads and remain bit-identical including NaNs.
//!
//! Operation *accounting* is not done here: callers record with
//! [`crate::counter`] before dispatching, so profiles are identical no
//! matter which tier executes.
//!
//! # Tier selection
//!
//! The active tier is thread-local (like the [`crate::counter`]): it
//! defaults to the best tier the build and CPU support, clamped by the
//! `CGSIM_SIMD` environment variable (`scalar`, `sse2` or `avx2`), and can
//! be overridden per thread with [`set_tier`]/[`with_tier`] — that is how
//! the equivalence tests and the scalar-vs-SIMD benches run both paths in
//! one process. Without the `simd` cargo feature (or off `x86_64`) only
//! [`Tier::Scalar`] exists, and `dispatch!` is defined under `cfg` as a
//! direct call into [`scalar`]: an op neither reads the tier thread-local
//! nor calls [`default_tier`], and the scalar loop inlines into the
//! intrinsic that called it.

pub mod scalar;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod sse2;

use std::cell::Cell;
use std::sync::OnceLock;

/// A SIMD implementation tier, ordered from portable to widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable per-lane loops (always available).
    Scalar,
    /// 128-bit SSE2 kernels (x86_64 baseline; needs the `simd` feature).
    Sse2,
    /// 256-bit AVX2 kernels (runtime-detected; needs the `simd` feature).
    Avx2,
}

impl Tier {
    /// Stable lower-case name (`scalar` / `sse2` / `avx2`), as accepted by
    /// the `CGSIM_SIMD` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Sse2 => "sse2",
            Tier::Avx2 => "avx2",
        }
    }

    /// Parse a tier name (case-sensitive, as produced by [`Tier::name`]).
    pub fn from_name(name: &str) -> Option<Tier> {
        match name {
            "scalar" => Some(Tier::Scalar),
            "sse2" => Some(Tier::Sse2),
            "avx2" => Some(Tier::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Requested tier is not supported by this build/CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsupportedTier {
    /// The tier that was requested.
    pub requested: Tier,
    /// The best tier this build and CPU support.
    pub capability: Tier,
}

impl std::fmt::Display for UnsupportedTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SIMD tier {} unavailable (capability: {})",
            self.requested, self.capability
        )
    }
}

impl std::error::Error for UnsupportedTier {}

/// Best tier the compiled feature set and the running CPU support,
/// ignoring the `CGSIM_SIMD` clamp.
pub fn capability() -> Tier {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        return Tier::Sse2;
    }
    #[allow(unreachable_code)]
    Tier::Scalar
}

/// The process-wide default tier: [`capability`] clamped by `CGSIM_SIMD`.
/// Cached after the first call.
pub fn default_tier() -> Tier {
    static DEFAULT: OnceLock<Tier> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let cap = capability();
        match std::env::var("CGSIM_SIMD") {
            Ok(name) => match Tier::from_name(name.trim()) {
                Some(req) => req.min(cap),
                None => {
                    eprintln!("CGSIM_SIMD={name:?} not one of scalar/sse2/avx2; using {cap}");
                    cap
                }
            },
            Err(_) => cap,
        }
    })
}

thread_local! {
    // Per-thread override so tests/benches can pin a tier without racing
    // other threads (mirrors the thread-local op counter).
    static TIER: Cell<Option<Tier>> = const { Cell::new(None) };
}

/// The tier ops dispatch to on this thread right now.
#[inline]
pub fn active_tier() -> Tier {
    TIER.with(|t| t.get()).unwrap_or_else(default_tier)
}

/// Tiers this build/CPU/environment can execute, lowest first — the set
/// the equivalence tests sweep.
pub fn available_tiers() -> Vec<Tier> {
    [Tier::Scalar, Tier::Sse2, Tier::Avx2]
        .into_iter()
        .filter(|&t| t <= default_tier())
        .collect()
}

/// Pin this thread's dispatch tier. Fails (leaving the tier unchanged) if
/// the build or CPU cannot execute `tier`.
pub fn set_tier(tier: Tier) -> Result<(), UnsupportedTier> {
    let cap = capability();
    if tier > cap {
        return Err(UnsupportedTier {
            requested: tier,
            capability: cap,
        });
    }
    TIER.with(|t| t.set(Some(tier)));
    Ok(())
}

/// Drop this thread's tier override, reverting to [`default_tier`].
pub fn clear_tier() {
    TIER.with(|t| t.set(None));
}

/// Run `f` with this thread pinned to `tier`, restoring the previous
/// override afterwards.
pub fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> Result<R, UnsupportedTier> {
    let cap = capability();
    if tier > cap {
        return Err(UnsupportedTier {
            requested: tier,
            capability: cap,
        });
    }
    let prev = TIER.with(|t| t.replace(Some(tier)));
    let result = f();
    TIER.with(|t| t.set(prev));
    Ok(result)
}

/// Reinterpret a slice as another element type when `T` and `U` are the
/// same type (zero-cost monomorphised type test; `None` otherwise).
#[inline]
pub(crate) fn cast_slice<T: 'static, U: 'static>(s: &[T]) -> Option<&[U]> {
    if std::any::TypeId::of::<T>() == std::any::TypeId::of::<U>() {
        // SAFETY: TypeId equality proves T and U are the same type.
        Some(unsafe { &*(s as *const [T] as *const [U]) })
    } else {
        None
    }
}

/// Mutable variant of [`cast_slice`].
#[inline]
pub(crate) fn cast_slice_mut<T: 'static, U: 'static>(s: &mut [T]) -> Option<&mut [U]> {
    if std::any::TypeId::of::<T>() == std::any::TypeId::of::<U>() {
        // SAFETY: TypeId equality proves T and U are the same type.
        Some(unsafe { &mut *(s as *mut [T] as *mut [U]) })
    } else {
        None
    }
}

/// Below this many lanes (length of the first slice argument) the AVX2
/// tier routes to the 128-bit kernels instead. `#[target_feature]`
/// functions cannot inline into baseline callers, so a 256-bit call on an
/// 8–16 lane `Vector` op pays call + `vzeroupper` overhead that outweighs
/// the wider datapath; the SSE2 kernels are baseline-target safe functions
/// that inline fully. Every tier is bit-exact, so this routing is a pure
/// performance heuristic — unobservable except in wall-clock.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const AVX2_MIN_LANES: usize = 32;

/// Route one slice kernel through the active tier. The first argument of
/// every kernel is the slice whose length counts lanes for the
/// [`AVX2_MIN_LANES`] short-slice heuristic. The AVX2 arm is `unsafe`
/// because those functions carry `#[target_feature]`; reaching it
/// requires [`capability`] to have detected AVX2 at startup.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
macro_rules! dispatch {
    // `@all`: no short-slice heuristic — for kernels whose AVX2 form is a
    // single wide instruction even at `Vector` widths (8/16 lanes), where
    // routing down would leave the 256-bit path unreachable.
    (@all $name:ident($($arg:expr),*)) => {
        match active_tier() {
            // SAFETY: Tier::Avx2 is only selectable when AVX2 was detected.
            Tier::Avx2 => unsafe { avx2::$name($($arg),*) },
            Tier::Sse2 => sse2::$name($($arg),*),
            Tier::Scalar => scalar::$name($($arg),*),
        }
    };
    ($name:ident($first:expr $(, $arg:expr)*)) => {
        match active_tier() {
            // SAFETY: Tier::Avx2 is only selectable when AVX2 was detected.
            Tier::Avx2 if $first.len() >= AVX2_MIN_LANES => {
                unsafe { avx2::$name($first $(, $arg)*) }
            }
            Tier::Avx2 | Tier::Sse2 => sse2::$name($first $(, $arg)*),
            Tier::Scalar => scalar::$name($first $(, $arg)*),
        }
    };
}

/// Without the vector tiers there is nothing to choose: every kernel is a
/// direct scalar call, and no op reads the tier thread-local.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
macro_rules! dispatch {
    ($(@all)? $name:ident($($arg:expr),*)) => {
        scalar::$name($($arg),*)
    };
}

macro_rules! binary_ops {
    ($($(#[$doc:meta])* $name:ident($t:ty);)*) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $name(a: &[$t], b: &[$t], out: &mut [$t]) {
                dispatch!($name(a, b, out))
            }
        )*
    };
}

binary_ops! {
    /// Lane-wise wrapping `a + b`.
    add_i16(i16);
    /// Lane-wise wrapping `a - b`.
    sub_i16(i16);
    /// Lane-wise minimum (`if b < a { b } else { a }`).
    min_i16(i16);
    /// Lane-wise maximum (`if b > a { b } else { a }`).
    max_i16(i16);
    /// Lane-wise wrapping `a + b`.
    add_i32(i32);
    /// Lane-wise wrapping `a - b`.
    sub_i32(i32);
    /// Lane-wise minimum (`if b < a { b } else { a }`).
    min_i32(i32);
    /// Lane-wise maximum (`if b > a { b } else { a }`).
    max_i32(i32);
    /// Lane-wise IEEE `a + b`.
    add_f32(f32);
    /// Lane-wise IEEE `a - b`.
    sub_f32(f32);
    /// Lane-wise IEEE `a * b` (single rounding per lane, no reassociation).
    mul_f32(f32);
    /// Lane-wise minimum with scalar tie/NaN semantics: `b` when `b < a`,
    /// else `a` (so NaN/equal lanes take `a`, preserving bit patterns).
    min_f32(f32);
    /// Lane-wise maximum with scalar tie/NaN semantics: `b` when `b > a`,
    /// else `a`.
    max_f32(f32);
}

/// Lane-wise IEEE negation (sign-bit flip; exact for NaN and ±0).
#[inline]
pub fn neg_f32(a: &[f32], out: &mut [f32]) {
    dispatch!(neg_f32(a, out))
}

macro_rules! select_ops {
    ($($(#[$doc:meta])* $name:ident($t:ty);)*) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $name(a: &[$t], b: &[$t], mask: &[bool], out: &mut [$t]) {
                dispatch!($name(a, b, mask, out))
            }
        )*
    };
}

select_ops! {
    /// Lane-wise select: `mask ? a : b`.
    select_i16(i16);
    /// Lane-wise select: `mask ? a : b`.
    select_i32(i32);
    /// Lane-wise select: `mask ? a : b` (pure lane move — NaN-safe).
    select_f32(f32);
}

/// Gather `out[i] = src[pattern[i]]`. Callers validate `pattern` bounds
/// (the `Vector::shuffle` assert) before dispatching.
#[inline]
pub fn permute_f32(src: &[f32], pattern: &[usize], out: &mut [f32]) {
    dispatch!(@all permute_f32(src, pattern, out))
}

/// 48-bit accumulator MAC: `acc[i] += a[i] as i64 * b[i] as i64`.
#[inline]
pub fn mac_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
    dispatch!(mac_i48(acc, a, b))
}

/// 48-bit accumulator MSC: `acc[i] -= a[i] as i64 * b[i] as i64`.
#[inline]
pub fn msc_i48(acc: &mut [i64], a: &[i16], b: &[i16]) {
    dispatch!(msc_i48(acc, a, b))
}

/// Sliding/broadcast MAC: `acc[i] += data[i] as i64 * coeff as i64`
/// (`data` may be longer than `acc`; the window starts at `data[0]`).
#[inline]
pub fn mac_coeff_i48(acc: &mut [i64], data: &[i16], coeff: i16) {
    dispatch!(mac_coeff_i48(acc, data, coeff))
}

/// Lane-wise accumulator add: `acc[i] += other[i]` (wrapping on the SIMD
/// tiers; real accumulator chains never approach the i64 boundary).
#[inline]
pub fn add_i64(acc: &mut [i64], other: &[i64]) {
    dispatch!(add_i64(acc, other))
}

/// Float MAC with per-step rounding: `acc[i] += a[i] * b[i]` as two IEEE
/// roundings (multiply then add — never fused).
#[inline]
pub fn fpmac_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
    dispatch!(fpmac_f32(acc, a, b))
}

/// Float MSC: `acc[i] -= a[i] * b[i]` (two roundings, never fused).
#[inline]
pub fn fpmsc_f32(acc: &mut [f32], a: &[f32], b: &[f32]) {
    dispatch!(fpmsc_f32(acc, a, b))
}

/// Sliding/broadcast float MAC: `acc[i] += data[i] * coeff`.
#[inline]
pub fn fpmac_coeff_f32(acc: &mut [f32], data: &[f32], coeff: f32) {
    dispatch!(fpmac_coeff_f32(acc, data, coeff))
}

/// Shift-round-saturate accumulator lanes to `i16`
/// ([`crate::fixed::srs`] per lane).
#[inline]
pub fn srs_i48_to_i16(acc: &[i64], shift: u32, out: &mut [i16]) {
    dispatch!(srs_i48_to_i16(acc, shift, out))
}

/// Shift-round-saturate accumulator lanes to `i32`
/// ([`crate::fixed::srs32`] per lane).
#[inline]
pub fn srs_i48_to_i32(acc: &[i64], shift: u32, out: &mut [i32]) {
    dispatch!(srs_i48_to_i32(acc, shift, out))
}

/// Upshift: widen `i16` lanes into accumulator precision scaled by
/// `2^shift` ([`crate::fixed::ups`] per lane).
#[inline]
pub fn ups_i16_to_i48(v: &[i16], shift: u32, out: &mut [i64]) {
    dispatch!(ups_i16_to_i48(v, shift, out))
}

/// Complex MAC over interleaved `re,im` lanes:
/// `acc.re += ar·br − ai·bi`, `acc.im += ar·bi + ai·br` in full precision.
/// Slices are `i16` pairs (`a`/`b`) and `i64` pairs (`acc`).
#[inline]
pub fn cmac_c16(acc: &mut [i64], a: &[i16], b: &[i16]) {
    dispatch!(cmac_c16(acc, a, b))
}

/// Conjugate complex MAC: `acc.re += ar·br + ai·bi`,
/// `acc.im += ai·br − ar·bi`.
#[inline]
pub fn cmac_conj_c16(acc: &mut [i64], a: &[i16], b: &[i16]) {
    dispatch!(cmac_conj_c16(acc, a, b))
}

/// Complex magnitude-squared: `out[i] = re²  + im²` over interleaved
/// `re,im` input lanes (`v.len() == 2 * out.len()`).
#[inline]
pub fn cmag_sq_c16(v: &[i16], out: &mut [i64]) {
    dispatch!(cmag_sq_c16(v, out))
}

/// Lane-wise min on any ordered element type; SIMD-accelerated for
/// `f32`/`i16`/`i32`, scalar otherwise.
#[inline]
pub fn min_lanes<T: Copy + PartialOrd + 'static>(a: &[T], b: &[T], out: &mut [T]) {
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return min_f32(a, b, out);
    }
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return min_i16(a, b, out);
    }
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return min_i32(a, b, out);
    }
    for i in 0..out.len() {
        out[i] = if b[i] < a[i] { b[i] } else { a[i] };
    }
}

/// Lane-wise max on any ordered element type; SIMD-accelerated for
/// `f32`/`i16`/`i32`, scalar otherwise.
#[inline]
pub fn max_lanes<T: Copy + PartialOrd + 'static>(a: &[T], b: &[T], out: &mut [T]) {
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return max_f32(a, b, out);
    }
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return max_i16(a, b, out);
    }
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return max_i32(a, b, out);
    }
    for i in 0..out.len() {
        out[i] = if b[i] > a[i] { b[i] } else { a[i] };
    }
}

/// Lane-wise select (`mask ? a : b`) on any element type;
/// SIMD-accelerated for `f32`/`i16`/`i32`, scalar otherwise.
#[inline]
pub fn select_lanes<T: Copy + 'static>(a: &[T], b: &[T], mask: &[bool], out: &mut [T]) {
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return select_f32(a, b, mask, out);
    }
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return select_i16(a, b, mask, out);
    }
    if let (Some(a), Some(b), Some(out)) = (cast_slice(a), cast_slice(b), cast_slice_mut(out)) {
        return select_i32(a, b, mask, out);
    }
    for i in 0..out.len() {
        out[i] = if mask[i] { a[i] } else { b[i] };
    }
}

/// Gather permute (`out[i] = src[pattern[i]]`) on any element type;
/// SIMD-accelerated for `f32`, scalar otherwise. Bounds are the caller's
/// responsibility (asserted by `Vector::shuffle` before dispatch).
#[inline]
pub fn permute_lanes<T: Copy + 'static>(src: &[T], pattern: &[usize], out: &mut [T]) {
    if let (Some(src), Some(out)) = (cast_slice(src), cast_slice_mut(out)) {
        return permute_f32(src, pattern, out);
    }
    for i in 0..out.len() {
        out[i] = src[pattern[i]];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_roundtrip() {
        for t in [Tier::Scalar, Tier::Sse2, Tier::Avx2] {
            assert_eq!(Tier::from_name(t.name()), Some(t));
        }
        assert_eq!(Tier::from_name("neon"), None);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(available_tiers().contains(&Tier::Scalar));
        assert!(capability() >= Tier::Scalar);
        set_tier(Tier::Scalar).unwrap();
        assert_eq!(active_tier(), Tier::Scalar);
        clear_tier();
        assert_eq!(active_tier(), default_tier());
    }

    #[test]
    fn with_tier_restores_override() {
        set_tier(Tier::Scalar).unwrap();
        let r = with_tier(Tier::Scalar, || 42).unwrap();
        assert_eq!(r, 42);
        assert_eq!(active_tier(), Tier::Scalar);
        clear_tier();
    }

    #[cfg(not(feature = "simd"))]
    #[test]
    fn non_simd_build_rejects_vector_tiers() {
        assert_eq!(capability(), Tier::Scalar);
        assert!(set_tier(Tier::Sse2).is_err());
        assert!(set_tier(Tier::Avx2).is_err());
    }

    #[test]
    fn cast_slice_is_type_keyed() {
        let a = [1i16, 2, 3];
        assert!(cast_slice::<i16, i16>(&a).is_some());
        assert!(cast_slice::<i16, f32>(&a).is_none());
        assert!(cast_slice::<i16, u16>(&a).is_none());
    }
}
