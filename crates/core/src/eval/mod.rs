//! Qualification-probability evaluators.
//!
//! * [`basic`] — Section 3.3: direct numerical integration over the
//!   issuer region `U0` (Eq. 2 / Eq. 4). The expensive baseline of
//!   Figure 8.
//! * [`duality`] — Section 4.2: the query–data duality theorem
//!   (Lemmas 2–4) that the enhanced evaluators are built on.
//! * [`constrained`] — Section 5.2: the three object-level pruning
//!   strategies for constrained queries.
//! * [`oracle`] — a Monte-Carlo simulation of the probability model
//!   itself, independent of all evaluation machinery; the differential
//!   reference the oracle test layer checks every pipeline against.

pub mod basic;
pub mod constrained;
pub mod duality;
pub mod oracle;
