//! # iloc-core
//!
//! The primary contribution of *Chen & Cheng, "Efficient Evaluation of
//! Imprecise Location-Dependent Queries" (ICDE 2007)*: evaluating range
//! queries whose **issuer's own location is uncertain**, returning
//! **qualification probabilities** for the objects in range.
//!
//! ## Query taxonomy (paper Definitions 3–6)
//!
//! | Query | Data | Result |
//! |-------|------|--------|
//! | IPQ   | point objects | `(Si, pi)`, `pi > 0` |
//! | IUQ   | uncertain objects | `(Oi, pi)`, `pi > 0` |
//! | C-IPQ | point objects | `Si` with `pi ≥ Qp` |
//! | C-IUQ | uncertain objects | `Oi` with `pi ≥ Qp` |
//!
//! ## Evaluation machinery
//!
//! * [`eval::basic`] — the paper's Section-3.3 baseline: numerical
//!   integration over the issuer region (Eq. 2 / Eq. 4).
//! * [`expand`] — query expansion: the Minkowski sum `R ⊕ U0`
//!   (Lemma 1) and the `p`-expanded-query (Definition 7 + Lemma 5).
//! * the query–data duality theorem (Lemmas 2–4, [`eval::duality`]),
//!   which collapses IPQ to one rectangle-mass lookup and IUQ to a
//!   single integral over `Ui ∩ (R ⊕ U0)` — exactly separable for
//!   uniform pdfs (Eq. 6 / Eq. 8) — evaluated by the [`integrate`]
//!   back-ends.
//! * [`eval::constrained`] — the three C-IUQ pruning strategies of
//!   Section 5.2 built on p-bounds and U-catalogs.
//! * [`pipeline`] — the **unified query-execution pipeline**: every
//!   query type runs the same explicit filter → prune → refine plan.
//! * [`engine`] — [`engine::PointEngine`] and
//!   [`engine::UncertainEngine`], thin facades that tie the pipeline to
//!   the spatial indexes (R-tree, PTI) of `iloc-index`, maintained
//!   incrementally under inserts and removes.
//! * [`serve`] — the **sharded serving layer**: dynamic catalogs
//!   (arrive / depart / move) behind epoch-style snapshots,
//!   hash-partitioned across per-shard engines with id-ordered fan-in
//!   merging.
//! * [`durable`] — the **durability subsystem**: a write-ahead log on
//!   the serving layer's commit path plus periodic binary checkpoints,
//!   with crash recovery that replays through the normal commit path
//!   and therefore answers bit-identically after a restart.
//! * [`subscribe`] — the **subscription subsystem**: standing
//!   continuous queries over serving snapshots, each caching a safe
//!   envelope of candidates, re-evaluated incrementally only when a
//!   commit's dirty region stabs their envelope, and answering with
//!   deltas instead of full results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod engine;
pub mod eval;
pub mod expand;
pub mod integrate;
pub mod pipeline;
pub mod quality;
pub mod query;
pub mod result;
pub mod serve;
pub mod stats;
pub mod subscribe;

pub use durable::{
    CatalogRecovery, DurableCatalog, DurableObject, FsyncPolicy, StoreConfig, StoreError,
};
pub use engine::{PointEngine, UncertainEngine};
pub use expand::{minkowski_query, p_expanded_query};
pub use integrate::Integrator;
pub use pipeline::{BatchEngine, ExecutionContext, PointRequest, QueryPipeline, UncertainRequest};
pub use quality::{assess, QualityReport};
pub use query::{CipqStrategy, CiuqStrategy, Issuer, RangeSpec};
pub use result::{merge_partials_into, sort_matches_into, Match, QueryAnswer};
pub use serve::{ServeEngine, ShardServer, ShardedEngine, Snapshot, Update};
pub use stats::QueryStats;
pub use subscribe::{AnswerDelta, SubId, SubscriptionRegistry};

/// Glob-import surface for applications.
pub mod prelude {
    pub use crate::durable::{DurableCatalog, FsyncPolicy, StoreConfig};
    pub use crate::engine::{PointEngine, UncertainEngine};
    pub use crate::integrate::Integrator;
    pub use crate::pipeline::{BatchEngine, ExecutionContext, PointRequest, UncertainRequest};
    pub use crate::quality::{assess, QualityReport};
    pub use crate::query::{CipqStrategy, CiuqStrategy, Issuer, RangeSpec};
    pub use crate::result::{Match, QueryAnswer};
    pub use crate::serve::{ServeEngine, ShardServer, ShardedEngine, Snapshot, Update};
    pub use crate::stats::QueryStats;
    pub use crate::subscribe::{AnswerDelta, SubId, SubscriptionRegistry};
}
