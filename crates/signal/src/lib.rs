//! Signal-processing substrate for the AWP-ODC reproduction.
//!
//! The paper's workflow needs several classical DSP pieces that we implement
//! from scratch (no external DSP crates):
//!
//! * a radix-2 complex [FFT](mod@fft) — spectral analysis of synthetic
//!   seismograms (§VII.C) and random-field synthesis;
//! * [Butterworth low-pass filtering](filter) — the M8 source was inserted
//!   "after applying temporal interpolation and a 4th-order low-pass filter
//!   with a cut-off frequency of 2 Hz" (§VII.B);
//! * [cosine tapers](taper) — the slip-weakening distance and initial shear
//!   stress are tapered near the free surface (§VII.A);
//! * [von Kármán random fields](vonkarman) — the M8 initial stress used "a
//!   Van Karman autocorrelation function with lateral and vertical
//!   correlation lengths of 50 km and 10 km" (§VII.A);
//! * [time-series utilities](series) — resampling, integration,
//!   differentiation, L2 misfit (the aVal acceptance metric, §III.H).

pub mod fft;
pub mod filter;
pub mod series;
pub mod spectrum;
pub mod taper;
pub mod vonkarman;

pub use fft::{fft, ifft, next_pow2, Complex};
pub use filter::Butterworth;
pub use vonkarman::VonKarman2D;
