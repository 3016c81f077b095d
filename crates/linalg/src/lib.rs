//! Complex linear algebra substrate for the IAC reproduction.
//!
//! Interference alignment is, computationally, small dense complex linear
//! algebra: channel matrices are `M×M` with `M` between 2 and ~8, encoding and
//! decoding vectors live in `C^M`, and the alignment equations of the paper
//! reduce to inversions and eigenproblems of such matrices
//! (e.g. footnote 4 of the paper: `v4 = eig(H32⁻¹ H22 H21⁻¹ H31)`).
//!
//! This crate provides exactly that toolbox, self-contained and deterministic:
//!
//! * [`C64`] — complex `f64` scalar.
//! * [`CVec`] — dense complex vector with Hermitian inner product.
//! * [`CMat`] — dense complex matrix (row-major).
//! * [`lu`] — LU factorisation with partial pivoting (solve/inverse/det).
//! * [`qr`] — Householder QR (least squares).
//! * [`eig`] — eigendecomposition: closed form 2×2 and Jacobi for Hermitian
//!   matrices.
//! * [`svd`] — one-sided Jacobi SVD (used by the 802.11n eigenmode baseline).
//! * [`rng`] — xoshiro256++ PRNG with Gaussian and complex-Gaussian draws, so
//!   every experiment in the workspace is bit-reproducible from a `u64` seed.
//!
//! Design notes: matrices here are tiny, so the implementations favour
//! numerical robustness and clarity over blocking/SIMD tricks, and
//! `CVec`/`CMat` store up to four entries inline (a 2×2 channel never
//! touches the heap). All fallible operations return [`LinAlgError`] rather
//! than panicking on singular input (a singular channel matrix is a
//! legitimate physical event the caller must handle — see footnote 3 of the
//! paper).

pub mod approx;
pub mod c64;
pub mod eig;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod rng;
mod small;
pub mod svd;
pub mod vector;

pub use approx::{approx_eq, approx_eq_c};
pub use c64::C64;
pub use eig::{eig2, eigh};
pub use lu::Lu;
pub use matrix::CMat;
pub use qr::Qr;
pub use rng::Rng64;
pub use svd::Svd;
pub use vector::CVec;

/// Errors produced by factorisations and solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinAlgError {
    /// The matrix is singular (or numerically singular) to working precision.
    Singular,
    /// Operand shapes are incompatible (`expected` vs `got`, row×col).
    ShapeMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence { iterations: usize },
    /// The input is empty or otherwise degenerate.
    Degenerate(&'static str),
}

impl std::fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinAlgError::Singular => write!(f, "matrix is singular to working precision"),
            LinAlgError::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            LinAlgError::NoConvergence { iterations } => {
                write!(f, "iteration failed to converge after {iterations} steps")
            }
            LinAlgError::Degenerate(what) => write!(f, "degenerate input: {what}"),
        }
    }
}

impl std::error::Error for LinAlgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinAlgError>;
