//! Sample-level software-radio substrate — the GNU-Radio/USRP replacement.
//!
//! The paper's prototype runs on 2-antenna USRP boards: BPSK modulation, a
//! 32-bit preamble, 1500-byte payloads, and flat-fading channels narrow
//! enough that each antenna pair is one complex coefficient (§10). This crate
//! implements that radio pipeline in full, so the §6 practicality claims
//! (alignment survives carrier frequency offsets, sits below any modulation
//! and FEC, needs no symbol synchronisation on flat channels) can be checked
//! against actual samples rather than matrix algebra:
//!
//! * [`modulation`] — BPSK (the paper's choice), QPSK and 16-QAM.
//! * [`frame`] — CRC-32 framing: preamble + header + payload + checksum.
//! * [`preamble`] — PN-sequence generation for training.
//! * [`precode`] — encoding-vector application: one packet stream in, one
//!   stream per antenna out (§4b's `v·p` product).
//! * [`medium`] — the single-collision-domain air: every concurrent
//!   transmission passes through its own flat-fading channel and carrier
//!   frequency offset, sums at each receive antenna, plus AWGN.
//! * [`project`] — decoding-vector projection (the receive side of §4).
//! * [`cancel`] — interference cancellation: re-modulate decoded bits, apply
//!   the estimated channel, subtract (§6, footnote 5).
//! * [`training`] — sample-level least-squares channel estimation using
//!   per-antenna time-orthogonal preambles (§8a).
//! * [`dsp`] — the [`FftPlan`] planner and [`Scratch`] buffer arena behind
//!   the zero-allocation `_into` sample-plane operations (see
//!   `docs/PERFORMANCE.md`).
//! * [`fft`], [`ofdm`] — radix-2 FFT and the per-subcarrier MIMO model of a
//!   multi-tap channel, used to test the §6c per-subcarrier alignment
//!   conjecture on frequency-selective channels.
//! * [`fec`] — Hamming(7,4) and a K=3 convolutional code with Viterbi
//!   decoding, demonstrating that IAC is FEC-agnostic.

pub mod cancel;
pub mod dsp;
pub mod fec;
pub mod fft;
pub mod frame;
pub mod medium;
pub mod modulation;
pub mod ofdm;
pub mod preamble;
pub mod precode;
pub mod project;
pub mod training;

pub use dsp::{FftPlan, Scratch, ScratchStats};
pub use frame::{crc32, Frame};
pub use medium::{AirTransmission, Medium};
pub use modulation::{Bpsk, Modulation, Qam16, Qpsk};
pub use preamble::Preamble;
