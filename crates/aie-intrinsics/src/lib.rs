//! # aie-intrinsics — AIE vector API emulation
//!
//! The paper's cgsim does not emulate the AMD AIE intrinsics itself — it
//! imports AMD's x86 emulation headers from the Vitis `aietools` tree
//! (§3.9), which cannot be redistributed. This crate is the reproduction's
//! substitute: a functional emulation of the subset of the AIE vector API
//! and intrinsics used by the four evaluation graphs (bitonic sort, Farrow
//! filter, IIR filter, bilinear interpolation):
//!
//! * fixed-width SIMD [`vector::Vector`] types (`v8float`, `v16int16`, …),
//! * multiply-accumulate into wide [`acc`]umulators (`fpmac`, `mac16`,
//!   sliding FIR multiplies) with 48-bit saturation semantics,
//! * [`fixed`]-point conversion: `srs` (shift-round-saturate) and `ups`
//!   (upshift) in Q-format,
//! * lane [`ops`]: shuffle/select/min/max/compare as used by the bitonic
//!   network.
//!
//! Unlike AMD's headers, every operation also records itself in a
//! thread-local [`counter`]: the cycle-approximate simulator (`aie-sim`)
//! derives kernel compute cycles by packing these op counts into VLIW issue
//! slots, instead of hard-coding per-kernel cycle numbers.
//!
//! Every lane op lowers onto one slice kernel in [`simd`]: a plain loop the
//! compiler vectorises for whatever target it builds for.
//!
//! # Inlining rule
//!
//! Every function in [`acc`], [`vector`] and [`complex`] is `#[inline]`,
//! and so is every slice kernel in [`simd`]. A kernel body is a chain of
//! these calls, each moving a register of up to 128 bytes by value; out of
//! line, the moves and the call cost more than the lane arithmetic. Without
//! the attribute a generic method inlines only when its instance lands in
//! the caller's codegen unit, which any edit to the calling crate can
//! change (PR 16 doubled `aie-intrinsics.kernel_us.iir` that way). CI fails
//! the `bench` job if the benchmark runner keeps any of them out of line.

#![warn(missing_docs)]
// Lane loops index multiple arrays in lockstep; iterator rewrites obscure
// the lane semantics of the emulated SIMD ops.
#![allow(clippy::needless_range_loop)]

pub mod acc;
pub mod complex;
pub mod counter;
pub mod fixed;
pub mod ops;
pub mod simd;
pub mod vector;

pub use acc::{AccF32, AccI48};
pub use complex::{CAccI48, CInt16};
pub use counter::{reset_counts, snapshot_counts, OpCounts, OpKind};
pub use vector::Vector;

/// `v16float` — 16 × f32, the widest float vector on AIE1.
pub type V16f32 = Vector<f32, 16>;
/// `v8float` — 8 × f32, the native float MAC width on AIE1.
pub type V8f32 = Vector<f32, 8>;
/// `v4float` — 4 × f32.
pub type V4f32 = Vector<f32, 4>;
/// `v32int16` — 32 × i16.
pub type V32i16 = Vector<i16, 32>;
/// `v16int16` — 16 × i16, the native fixed-point MAC width.
pub type V16i16 = Vector<i16, 16>;
/// `v8int16` — 8 × i16.
pub type V8i16 = Vector<i16, 8>;
/// `v8cint16` — 8 × complex i16.
pub type V8c16 = Vector<complex::CInt16, 8>;
/// `v8int32` — 8 × i32.
pub type V8i32 = Vector<i32, 8>;
/// `v4int32` — 4 × i32.
pub type V4i32 = Vector<i32, 4>;
