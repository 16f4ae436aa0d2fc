//! Per-query cost accounting.
//!
//! The paper reports average response time `T`; we additionally expose
//! deterministic counters so the reproduced curves can be explained
//! (and asserted on) independently of machine speed.

use std::time::Duration;

use iloc_index::AccessStats;

/// Number of buckets in the refine-batch-size histogram.
pub const REFINE_BATCH_BUCKETS: usize = 8;

/// Histogram bucket for a refine batch of `n` surviving candidates.
///
/// Buckets are powers of four — `0`, `1..=3`, `4..=15`, `16..=63`,
/// `64..=255`, `256..=1023`, `1024..=4095`, `≥4096` — deterministic,
/// so the histogram participates in [`QueryStats::same_counters`].
#[inline]
pub fn refine_batch_bucket(n: usize) -> usize {
    match n {
        0 => 0,
        1..=3 => 1,
        4..=15 => 2,
        16..=63 => 3,
        64..=255 => 4,
        256..=1023 => 5,
        1024..=4095 => 6,
        _ => 7,
    }
}

/// Cost counters for one query execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Index-level accesses performed by the filter step.
    pub access: AccessStats,
    /// Number of per-object probability evaluations (refinement step).
    pub prob_evals: u64,
    /// Monte-Carlo samples drawn across all refinements.
    pub mc_samples: u64,
    /// Midpoint-grid cells evaluated across all refinements (the
    /// basic method's, and the quadrature reference's).
    pub grid_cells: u64,
    /// Candidates discarded by pruning Strategy 1 (object-level
    /// p-bound tail test).
    pub pruned_s1: u64,
    /// Candidates discarded by pruning Strategy 2 (p-expanded-query
    /// containment test).
    pub pruned_s2: u64,
    /// Candidates discarded by pruning Strategy 3 (`qmin · dmin < Qp`
    /// product rule).
    pub pruned_s3: u64,
    /// Results dropped in refinement because `pi` fell below the
    /// threshold (or was zero for unconstrained queries).
    pub refined_out: u64,
    /// Wall-clock nanos of the filter stage (index probe + candidate
    /// sort). Like `elapsed`, timing is machine-dependent and excluded
    /// from [`QueryStats::same_counters`].
    pub filter_nanos: u64,
    /// Wall-clock nanos of the prune stage.
    pub prune_nanos: u64,
    /// Wall-clock nanos of the (batched) refine stage.
    pub refine_nanos: u64,
    /// Refine batch sizes (surviving candidates per execution) as a
    /// [`refine_batch_bucket`] histogram; deterministic, so included
    /// in [`QueryStats::same_counters`].
    pub refine_batches: [u64; REFINE_BATCH_BUCKETS],
    /// Wall-clock time of the whole query.
    pub elapsed: Duration,
}

impl QueryStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        QueryStats::default()
    }

    /// `true` when every deterministic counter equals `other`'s
    /// (wall-clock `elapsed` is excluded). The scratch-reuse property
    /// tests use this to pin reused-context executions to the exact
    /// cost accounting of fresh-context ones.
    pub fn same_counters(&self, other: &QueryStats) -> bool {
        self.access == other.access
            && self.prob_evals == other.prob_evals
            && self.mc_samples == other.mc_samples
            && self.grid_cells == other.grid_cells
            && self.pruned_s1 == other.pruned_s1
            && self.pruned_s2 == other.pruned_s2
            && self.pruned_s3 == other.pruned_s3
            && self.refined_out == other.refined_out
            && self.refine_batches == other.refine_batches
    }

    /// Merges counters from another query (used when averaging over a
    /// workload).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.access.absorb(other.access);
        self.prob_evals += other.prob_evals;
        self.mc_samples += other.mc_samples;
        self.grid_cells += other.grid_cells;
        self.pruned_s1 += other.pruned_s1;
        self.pruned_s2 += other.pruned_s2;
        self.pruned_s3 += other.pruned_s3;
        self.refined_out += other.refined_out;
        self.filter_nanos += other.filter_nanos;
        self.prune_nanos += other.prune_nanos;
        self.refine_nanos += other.refine_nanos;
        for (mine, theirs) in self.refine_batches.iter_mut().zip(&other.refine_batches) {
            *mine += theirs;
        }
        self.elapsed += other.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = QueryStats::new();
        let mut b = QueryStats::new();
        b.prob_evals = 5;
        b.mc_samples = 100;
        b.pruned_s3 = 2;
        b.elapsed = Duration::from_millis(3);
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.prob_evals, 10);
        assert_eq!(a.mc_samples, 200);
        assert_eq!(a.pruned_s3, 4);
        assert_eq!(a.elapsed, Duration::from_millis(6));
    }
}
