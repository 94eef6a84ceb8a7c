//! Delta-debugging shrinker: reduces a failing campaign to a minimal
//! reproducer.
//!
//! Minimality is a lattice walked in a fixed pass order (DESIGN.md §12):
//!
//! 1. **Fewest vectors** — greedy one-at-a-time removal to fixpoint; a
//!    vector survives only if the failure needs it.
//! 2. **Smallest intensity** — per surviving vector, binary-search each
//!    intensity dimension ([`Dim::is_intensity`]: count, factor, links)
//!    down to the smallest value that still fails.
//! 3. **Latest onset** — per surviving vector, binary-search the onset
//!    *up* toward the end of the run, so the reproducer shows the shortest
//!    prefix that matters. This is pass 2's search reflected about the run's
//!    horizon (`Shrinker::bisect`).
//!
//! The three passes repeat until a full round changes nothing, so the
//! output is a fixpoint: shrinking a shrunk program returns it unchanged —
//! the property `campaign fuzz --smoke` checks on every committed
//! reproducer. The shrinker uses no randomness and the underlying runs are
//! deterministic, so the same failing program always reduces to the same
//! reproducer.

use crate::fuzz::{run_isolated, Finding};
use crate::program::{CampaignProgram, Expectation};
use crate::vector::Dim;
use riot_harness::HarnessConfig;

/// Bookkeeping from one shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShrinkStats {
    /// Candidate executions performed.
    pub evals: usize,
    /// Vectors removed by pass 1 (across all rounds).
    pub removed_vectors: usize,
    /// Full rounds until fixpoint.
    pub rounds: usize,
}

/// The result of shrinking: a minimal program whose `expect` block pins
/// the preserved finding.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized, self-contained reproducer.
    pub program: CampaignProgram,
    /// What the shrink cost.
    pub stats: ShrinkStats,
}

/// One shrink session against a fixed target finding.
struct Shrinker<'a> {
    base: &'a CampaignProgram,
    target: Expectation,
    config: HarnessConfig,
    stats: ShrinkStats,
}

impl Shrinker<'_> {
    /// Runs `candidate`'s campaign in the base program's scenario and
    /// reports whether the target finding is still produced.
    fn still_fails(&mut self, candidate: &CampaignProgram) -> bool {
        self.stats.evals += 1;
        run_isolated(candidate, &self.config)
            .iter()
            .any(|f| f.matches(&self.target))
    }

    /// Pass 1: greedy vector removal to fixpoint.
    fn remove_vectors(&mut self, program: &mut CampaignProgram) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < program.campaign.len() {
            let mut candidate = program.clone();
            let _ = candidate.campaign.remove(i);
            if self.still_fails(&candidate) {
                *program = candidate;
                self.stats.removed_vectors += 1;
                changed = true;
                // Re-test from the same index: the next vector slid down.
            } else {
                i += 1;
            }
        }
        changed
    }

    /// Bisects dimension `dim` of vector `index` of failing `program` down to
    /// its smallest still-failing value or, reflected about the run's
    /// `horizon` when given one, up to the latest still-failing value below.
    fn bisect(
        &mut self,
        program: &mut CampaignProgram,
        index: usize,
        dim: Dim,
        horizon: Option<u64>,
    ) -> bool {
        let Some(current) = program
            .campaign
            .vectors()
            .get(index)
            .and_then(|v| v.get(dim))
        else {
            return false;
        };
        // The search runs over `x`; the dimension holds `value(x)`.
        let value = |x: u64| horizon.map_or(x, |h| h - x);
        let (mut lo, mut hi) = match horizon {
            None => (dim.floor(), current),
            Some(h) if current < h => (0, h - current),
            Some(_) => return false,
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut candidate = program.clone();
            if let Some(v) = candidate.campaign.vectors_mut().get_mut(index) {
                v.set(dim, value(mid));
            }
            if self.still_fails(&candidate) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // `lo` is known-failing: either the original value or a tested mid.
        if let Some(v) = program.campaign.vectors_mut().get_mut(index) {
            v.set(dim, value(lo));
        }
        value(lo) != current
    }

    fn run(mut self) -> ShrinkOutcome {
        let mut program = self.base.clone();
        program.expect.clear();
        program.expect.push(self.target.clone());
        loop {
            self.stats.rounds += 1;
            let mut changed = self.remove_vectors(&mut program);
            for index in 0..program.campaign.len() {
                let Some(dims) = program.campaign.vectors().get(index).map(|v| v.kind().dims)
                else {
                    continue;
                };
                for &dim in dims {
                    if dim.is_intensity() {
                        changed |= self.bisect(&mut program, index, dim, None);
                    }
                }
            }
            let horizon = program.scenario.duration_s.saturating_sub(1);
            for index in 0..program.campaign.len() {
                changed |= self.bisect(&mut program, index, Dim::Onset, Some(horizon));
            }
            if !changed {
                break;
            }
        }
        ShrinkOutcome {
            program,
            stats: self.stats,
        }
    }
}

/// Shrinks `program` while it keeps producing `target`. The input must
/// currently produce the target finding; if it does not, the program is
/// returned unchanged (with the target recorded in `expect`) so callers
/// can detect the no-op via `stats.evals == 1`.
pub fn shrink_to(
    program: &CampaignProgram,
    target: &Expectation,
    config: &HarnessConfig,
) -> ShrinkOutcome {
    let mut shrinker = Shrinker {
        base: program,
        target: target.clone(),
        config: config.clone().quiet(),
        stats: ShrinkStats::default(),
    };
    if !shrinker.still_fails(program) {
        let mut unchanged = program.clone();
        unchanged.expect.clear();
        unchanged.expect.push(target.clone());
        return ShrinkOutcome {
            program: unchanged,
            stats: shrinker.stats,
        };
    }
    shrinker.run()
}

/// Shrinks a failing program against its first finding: runs it once to
/// discover the findings, picks the first as the target, then delegates to
/// [`shrink_to`]. Returns `None` when the program does not fail at all.
pub fn shrink(program: &CampaignProgram, config: &HarnessConfig) -> Option<ShrinkOutcome> {
    let findings = run_isolated(program, config);
    let first: &Finding = findings.first()?;
    Some(shrink_to(program, &first.expectation(), config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Campaign;
    use crate::fuzz::weakened_space;
    use crate::vector::CampaignVector;

    /// A noisy failing program: a fault storm dense enough to violate
    /// `G coverage` on its own (two devices dark within one repair
    /// window), padded with three vectors the failure does not need.
    fn noisy() -> CampaignProgram {
        let space = weakened_space();
        let mut p = CampaignProgram::new("noisy");
        p.scenario = space.scenario;
        p.oracles = space.oracles.clone();
        p.campaign = Campaign::new();
        p.campaign.push(CampaignVector::MobilityBurst {
            onset: 13,
            roamers: 4,
            spacing: 2,
        });
        p.campaign
            .push(CampaignVector::CloudBlackout { onset: 14, heal: 0 });
        p.campaign.push(CampaignVector::FaultStorm {
            onset: 20,
            spacing: 1,
            per_edge: 3,
            stride: 1,
            offset: 0,
        });
        p.campaign
            .push(CampaignVector::JurisdictionFlip { onset: 25, edge: 1 });
        p
    }

    fn config() -> HarnessConfig {
        HarnessConfig::with_threads(1).quiet()
    }

    #[test]
    fn shrinks_to_the_failure_kernel() {
        let outcome = shrink(&noisy(), &config()).expect("noisy program fails");
        let p = &outcome.program;
        assert_eq!(
            p.expect,
            vec![Expectation::Violated {
                monitor: "coverage_safe".to_owned()
            }]
        );
        // The padding vectors are gone: the kernel is the storm itself.
        assert!(
            outcome.stats.removed_vectors >= 2,
            "padding removed: {:?}",
            outcome.stats
        );
        assert!(p.campaign.len() <= 2, "kernel only: {:?}", p.campaign);
        let kinds: Vec<&str> = p.campaign.vectors().iter().map(|v| v.kind().name).collect();
        assert!(kinds.contains(&"fault-storm"), "{kinds:?}");
        // The reproducer and the probe count pin both bisections' search
        // order: per-edge 3 → 1 down, onset 20 → 46 up.
        assert_eq!(
            p.campaign.vectors(),
            [CampaignVector::FaultStorm {
                onset: 46,
                spacing: 1,
                per_edge: 1,
                stride: 1,
                offset: 0,
            }]
        );
        assert_eq!(
            outcome.stats,
            ShrinkStats {
                evals: 14,
                removed_vectors: 3,
                rounds: 2
            }
        );
        // The minimal program still produces the target.
        let replay = crate::fuzz::run_isolated(p, &config());
        assert!(replay.iter().any(|f| f.matches(&p.expect[0])));
    }

    #[test]
    fn shrinking_is_deterministic_and_a_fixpoint() {
        let a = shrink(&noisy(), &config()).expect("fails");
        let b = shrink(&noisy(), &config()).expect("fails");
        assert_eq!(a.program, b.program, "same input, same reproducer");
        assert_eq!(a.program.render(), b.program.render());
        assert_eq!(a.stats, b.stats);
        // Re-shrinking the minimal program changes nothing.
        let again = shrink_to(&a.program, &a.program.expect[0], &config());
        assert_eq!(again.program, a.program, "shrink is a fixpoint");
        assert_eq!(again.stats.removed_vectors, 0);
    }

    #[test]
    fn non_failing_programs_are_returned_unchanged() {
        let space = weakened_space();
        let mut p = CampaignProgram::new("calm");
        p.scenario = space.scenario;
        p.oracles = space.oracles.clone();
        assert!(shrink(&p, &config()).is_none(), "nothing to shrink");
        let target = Expectation::Violated {
            monitor: "coverage_safe".to_owned(),
        };
        let outcome = shrink_to(&p, &target, &config());
        assert_eq!(outcome.stats.evals, 1, "bailed after the probe run");
        assert_eq!(outcome.program.campaign, p.campaign);
        assert_eq!(outcome.program.expect, vec![target]);
    }
}
