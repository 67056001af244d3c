//! Structured-grid foundations for the AWP-ODC reproduction.
//!
//! AWP-ODC (Cui et al., SC 2010) solves the 3-D velocity–stress wave
//! equations on a uniform Cartesian mesh with an explicit staggered-grid
//! finite-difference scheme, partitioned across ranks by 3-D domain
//! decomposition with a two-cell ghost (halo) padding layer. This crate
//! provides the building blocks every other crate leans on:
//!
//! * [`Dims3`]/[`Idx3`] — grid extents and indices;
//! * [`Array3`] — a halo-padded, x-fastest 3-D field array;
//! * [`Decomp3`]/[`Subdomain`] — balanced PX×PY×PZ decomposition with
//!   neighbour lookup, matching the paper's Fig. 5;
//! * [`Face`] halo extraction/injection used by the ghost-cell exchange;
//! * cache-blocked loop driving (paper §IV.B, the kblock/jblock scheme);
//! * effective-media averaging (harmonic Lamé means, arithmetic density);
//! * [`storage::CellBuf`] — the recycled, page-staggered buffer behind
//!   every per-cell `f32` array of a rank state;
//! * [`fpmode::FlushGuard`] — the flush-subnormals floating-point mode all
//!   wavefield arithmetic runs under.

pub mod array3;
pub mod blocking;
pub mod decomp;
pub mod dims;
pub mod face;
pub mod fpmode;
pub mod media;
pub mod stagger;
pub mod storage;

pub use array3::Array3;
pub use blocking::{blocked_tiles, BlockSpec};
pub use decomp::{Decomp3, Subdomain};
pub use dims::{Dims3, Idx3};
pub use face::{Axis, Face};
pub use stagger::StaggerLoc;

/// Halo width required by the fourth-order staggered-grid stencil.
///
/// The D4 operator reaches ±3/2 grid spacings around the update point, so a
/// two-cell padding layer per side is exactly what the paper's ghost-cell
/// exchange maintains (§III.A: "Ghost cells, which occupy a two-cell padding
/// layer").
pub const HALO: usize = 2;

/// Fourth-order staggered-grid difference coefficients (paper Eq. 3).
pub const C1: f32 = 9.0 / 8.0;
/// Fourth-order staggered-grid difference coefficients (paper Eq. 3).
pub const C2: f32 = -1.0 / 24.0;
