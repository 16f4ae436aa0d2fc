//! Machine-independent access counters.
//!
//! The paper reports wall-clock response time on 2007 hardware; we
//! additionally count logical accesses so the reproduced experiments
//! have a deterministic, machine-independent I/O metric.

/// Counters accumulated while answering one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// R-tree / PTI nodes visited (each visit models one page read).
    pub nodes_visited: u64,
    /// Leaf entries / items whose MBR was tested against the query.
    pub items_tested: u64,
    /// Items that passed the geometric filter and were returned as
    /// candidates.
    pub candidates: u64,
}

impl AccessStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Merges another counter set into `self` (used when one query
    /// issues several index probes).
    pub fn absorb(&mut self, other: AccessStats) {
        self.nodes_visited += other.nodes_visited;
        self.items_tested += other.items_tested;
        self.candidates += other.candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fields() {
        let mut a = AccessStats {
            nodes_visited: 1,
            items_tested: 3,
            candidates: 4,
        };
        a.absorb(AccessStats {
            nodes_visited: 10,
            items_tested: 30,
            candidates: 40,
        });
        assert_eq!(
            a,
            AccessStats {
                nodes_visited: 11,
                items_tested: 33,
                candidates: 44,
            }
        );
    }
}
