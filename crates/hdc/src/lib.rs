//! Holographic hyperdimensional vector substrate.
//!
//! This crate implements the vector-symbolic-architecture (VSA) primitives
//! that the H3DFact paper (DATE 2024) builds on: dense bipolar hypervectors
//! `x ∈ {-1,+1}^D`, the binding/bundling/permutation algebra, codebooks of
//! random item vectors, and the composition of *product vectors* whose
//! factorization is the workload accelerated by H3DFact.
//!
//! # Representation
//!
//! Bipolar elements are bit-packed: a set bit encodes `+1`, a cleared bit
//! encodes `-1`. Binding (element-wise multiplication) becomes XNOR, and the
//! dot product between two vectors reduces to popcounts, which is what the
//! in-memory hardware model in the `cim` crate exploits as well.
//!
//! # Example
//!
//! ```
//! use hdc::{Codebook, rng::rng_from_seed};
//!
//! let mut rng = rng_from_seed(7);
//! let shape = Codebook::random(8, 1024, &mut rng);
//! let color = Codebook::random(8, 1024, &mut rng);
//!
//! // Compose an object vector: s = shape_3 ⊙ color_5
//! let s = shape.vector(3).bind(color.vector(5));
//!
//! // Unbind with the correct color recovers something similar to shape_3.
//! let recovered = s.bind(color.vector(5));
//! assert_eq!(shape.cleanup(&recovered).index, 3);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bipolar;
pub mod codebook;
// The one module allowed `unsafe`: `#[target_feature]`-gated SIMD kernel
// bodies behind bounds-asserting safe wrappers (see its module docs for
// the safety argument). Everything else in the crate stays forbidden.
#[allow(unsafe_code)]
pub mod dispatch;
pub mod error;
pub mod ops;
pub mod packed;
pub mod problem;
pub mod rng;
pub mod sequence;
pub mod stats;

pub use bipolar::BipolarVector;
pub use codebook::{CleanupHit, Codebook};
pub use dispatch::{Detection, SimdArm, CSA_BLOCK_WORDS};
pub use error::DimensionMismatch;
pub use ops::{bind_all, bundle, TieBreak};
pub use packed::PackedCodebook;
pub use problem::{FactorizationProblem, ProblemSpec};
pub use sequence::{decode_position, encode_sequence};
