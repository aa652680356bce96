//! The *follows* and *depends* relations of Definitions 3–5, plus the
//! pair-order counting shared by the miners.
//!
//! Definition 3: activity `B` *follows* `A` if `B` starts after `A`
//! terminates in each execution where both appear, or some `C` exists
//! with `C` follows `A` and `B` follows `C` (i.e. the relation is the
//! transitive closure of the direct-following relation).
//!
//! Definition 4: `B` *depends on* `A` if `B` follows `A` but `A` does not
//! follow `B`; `A` and `B` are *independent* if they follow each other
//! both ways or neither way.
//!
//! These relations define what a conformal graph must (dependency
//! completeness) and must not (irredundancy) connect, so the
//! [`conformance`](crate::conformance) checker is built on this module.

use crate::general_dag::{count_one_execution, OrderObservations};
use procmine_graph::{reach, scc, AdjMatrix};
use procmine_log::{EventColumns, ExecColumns, LogView};

/// Per-ordered-pair observation counts over a log, at activity level.
///
/// `ordered(u, v)` counts the executions in which every instance of `u`
/// terminates before every instance of `v` starts; `cooccur(u, v)`
/// counts executions containing both. Each execution contributes at most
/// 1 to each counter.
///
/// The counts come from the miners' own step-2 kernel
/// (`count_one_execution`): each execution is lowered to one
/// whole-activity interval per activity (its first start, its latest
/// end), and then every co-occurring pair is either ordered one way or
/// overlapping, so `cooccur = ordered + orderedᵀ + overlap`.
#[derive(Debug, Clone)]
pub struct OrderCounts {
    n: usize,
    ordered: Vec<u32>,
    cooccur: Vec<u32>,
}

impl OrderCounts {
    /// Scans the log once and tallies the counters. O(Σ k²) over
    /// execution lengths `k`. Takes a [`WorkflowLog`] or a
    /// [`CompactLog`](procmine_log::CompactLog).
    ///
    /// [`WorkflowLog`]: procmine_log::WorkflowLog
    pub fn from_log<'a>(log: impl Into<LogView<'a>>) -> Self {
        let log = log.into();
        Self::of_columns(log.activities().len(), &log.columns())
    }

    /// [`OrderCounts::from_log`] over a log's columns, whose activity
    /// ids are below `n`.
    pub(crate) fn of_columns(n: usize, cols: &EventColumns) -> Self {
        const ABSENT: usize = usize::MAX;
        let mut obs = OrderObservations::new(n);
        // One execution's whole-activity intervals, in first-occurrence
        // order. Instances are start-sorted, so that order is start
        // order and the first occurrence carries the earliest start.
        let mut slot = vec![ABSENT; n];
        let mut activities: Vec<u32> = Vec::new();
        let mut starts: Vec<u64> = Vec::new();
        let mut ends: Vec<u64> = Vec::new();
        for x in 0..cols.exec_count() {
            let exec = cols.exec(x);
            for j in 0..exec.len() {
                let a = exec.activities[j] as usize;
                match slot[a] {
                    ABSENT => {
                        slot[a] = activities.len();
                        activities.push(a as u32);
                        starts.push(exec.starts[j]);
                        ends.push(exec.ends[j]);
                    }
                    p => ends[p] = ends[p].max(exec.ends[j]),
                }
            }
            let lowered = ExecColumns {
                activities: &activities,
                starts: &starts,
                ends: &ends,
            };
            count_one_execution(n, lowered, &mut obs);
            for &a in &activities {
                slot[a as usize] = ABSENT;
            }
            activities.clear();
            starts.clear();
            ends.clear();
        }
        let OrderObservations {
            ordered,
            overlap: mut cooccur,
        } = obs;
        for u in 0..n {
            for v in 0..n {
                cooccur[u * n + v] += ordered[u * n + v] + ordered[v * n + u];
            }
        }
        OrderCounts {
            n,
            ordered,
            cooccur,
        }
    }

    /// Number of activities.
    pub fn activity_count(&self) -> usize {
        self.n
    }

    /// Executions in which `u` wholly precedes `v`.
    pub fn ordered(&self, u: usize, v: usize) -> u32 {
        self.ordered[u * self.n + v]
    }

    /// Executions containing both `u` and `v`.
    pub fn cooccur(&self, u: usize, v: usize) -> u32 {
        self.cooccur[u * self.n + v]
    }

    /// `v` directly follows `u` (Definition 3, base case): they co-occur
    /// at least once and `v` starts after `u` terminates in *every*
    /// co-occurrence.
    pub fn directly_follows(&self, u: usize, v: usize) -> bool {
        let c = self.cooccur(u, v);
        c > 0 && self.ordered(u, v) == c
    }
}

/// The computed follows/depends relations of a log.
///
/// Two closures are maintained:
///
/// * the literal Definition-3 *follows* closure of the direct-following
///   relation, and
/// * the *dependency* closure used by [`depends`](Self::depends): the
///   same graph with all edges inside a strongly connected component
///   removed first. §4 of the paper is explicit that "activity pairs
///   A, B that have a path of followings from A to B as well as from B
///   to A … are independent", and Algorithm 2's step 4 removes exactly
///   those edges — so a path of followings that *passes through* such a
///   component does not constitute a dependency. This is what makes
///   mined graphs check out as dependency-complete and irredundant.
#[derive(Debug, Clone)]
pub struct FollowsAnalysis {
    n: usize,
    direct: AdjMatrix,
    closure: AdjMatrix,
    dep_closure: AdjMatrix,
}

impl FollowsAnalysis {
    /// Analyzes a log (a [`WorkflowLog`](procmine_log::WorkflowLog) or a
    /// [`CompactLog`](procmine_log::CompactLog)): builds the
    /// direct-following relation and closes it transitively.
    pub fn analyze<'a>(log: impl Into<LogView<'a>>) -> Self {
        let counts = OrderCounts::from_log(log);
        Self::from_counts(&counts)
    }

    /// Builds the relations from precomputed counts.
    pub fn from_counts(counts: &OrderCounts) -> Self {
        let n = counts.activity_count();
        let mut direct = AdjMatrix::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && counts.directly_follows(u, v) {
                    direct.add_edge(u, v);
                }
            }
        }
        let mut closure = direct.clone();
        reach::closure_in_place(&mut closure);

        // Dependency closure: dissolve cycles of followings first
        // (they mark mutually independent activities), then close.
        let digraph = direct.to_digraph(|_| ());
        let sccs = scc::tarjan_scc(&digraph);
        let mut pruned = direct.clone();
        for comp in sccs.nontrivial() {
            for &u in comp {
                for &v in comp {
                    if u != v {
                        pruned.remove_edge(u.index(), v.index());
                    }
                }
            }
        }
        let mut dep_closure = pruned;
        reach::closure_in_place(&mut dep_closure);

        FollowsAnalysis {
            n,
            direct,
            closure,
            dep_closure,
        }
    }

    /// Number of activities.
    pub fn activity_count(&self) -> usize {
        self.n
    }

    /// `v` directly follows `u` (base case of Definition 3).
    pub fn directly_follows(&self, u: usize, v: usize) -> bool {
        self.direct.has_edge(u, v)
    }

    /// `v` follows `u` (Definition 3, including transitivity).
    pub fn follows(&self, u: usize, v: usize) -> bool {
        self.closure.has_edge(u, v)
    }

    /// `v` depends on `u` (Definition 4, with the §4 refinement): there
    /// is a path of followings from `u` to `v` that does not rely on
    /// edges inside a cycle of followings, and no such path back.
    pub fn depends(&self, u: usize, v: usize) -> bool {
        self.dep_closure.has_edge(u, v) && !self.dep_closure.has_edge(v, u)
    }

    /// `u` and `v` are independent (Definition 4): neither depends on
    /// the other.
    pub fn independent(&self, u: usize, v: usize) -> bool {
        !self.depends(u, v) && !self.depends(v, u)
    }

    /// All dependencies as `(u, v)` pairs meaning "`v` depends on `u`".
    pub fn dependencies(&self) -> Vec<(usize, usize)> {
        let mut deps = Vec::new();
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v && self.depends(u, v) {
                    deps.push((u, v));
                }
            }
        }
        deps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_log::WorkflowLog;

    fn idx(log: &WorkflowLog, name: &str) -> usize {
        log.activities().id(name).unwrap().index()
    }

    #[test]
    fn paper_example_3_first_log() {
        // Log {ABCE, ACDE, ADBE}: B depends on A; B and D independent
        // (B follows D directly, D follows B via C).
        let log = WorkflowLog::from_strings(["ABCE", "ACDE", "ADBE"]).unwrap();
        let f = FollowsAnalysis::analyze(&log);
        let (a, b, c, d) = (
            idx(&log, "A"),
            idx(&log, "B"),
            idx(&log, "C"),
            idx(&log, "D"),
        );

        assert!(f.follows(a, b) && !f.follows(b, a), "B depends on A");
        assert!(f.depends(a, b));

        // B follows D directly; D follows B via C (B→C direct in ABCE &
        // ADBE? B,C co-occur only in ABCE where B<C; C→D direct in ACDE).
        assert!(f.directly_follows(d, b));
        assert!(f.directly_follows(b, c) && f.directly_follows(c, d));
        assert!(f.follows(b, d), "D follows B through C");
        assert!(f.independent(b, d));
        assert!(!f.depends(d, b) && !f.depends(b, d));
    }

    #[test]
    fn paper_example_3_extended_log() {
        // Adding ADCE: C and D appear in both orders, so D no longer
        // directly follows C; the D-follows-B-via-C chain breaks and B
        // now depends on D (the paper's prose for Example 3).
        let log = WorkflowLog::from_strings(["ABCE", "ACDE", "ADBE", "ADCE"]).unwrap();
        let f = FollowsAnalysis::analyze(&log);
        let (b, c, d) = (idx(&log, "B"), idx(&log, "C"), idx(&log, "D"));

        assert!(!f.directly_follows(c, d) && !f.directly_follows(d, c));
        assert!(f.depends(d, b), "B depends on D after the extension");
        assert!(!f.follows(b, d));
        // The chain D→B→C still encodes "when B runs, it runs between D
        // and C", so C transitively depends on D.
        assert!(f.depends(d, c));
    }

    #[test]
    fn order_counts_basics() {
        let log = WorkflowLog::from_strings(["AB", "AB", "BA"]).unwrap();
        let counts = OrderCounts::from_log(&log);
        let (a, b) = (idx(&log, "A"), idx(&log, "B"));
        assert_eq!(counts.cooccur(a, b), 3);
        assert_eq!(counts.ordered(a, b), 2);
        assert_eq!(counts.ordered(b, a), 1);
        assert!(
            !counts.directly_follows(a, b),
            "one reversal breaks direct following"
        );
    }

    #[test]
    fn non_cooccurring_activities_do_not_follow() {
        let log = WorkflowLog::from_strings(["AB", "AC"]).unwrap();
        let f = FollowsAnalysis::analyze(&log);
        let (b, c) = (idx(&log, "B"), idx(&log, "C"));
        assert!(!f.follows(b, c) && !f.follows(c, b));
        assert!(f.independent(b, c));
    }

    #[test]
    fn repeated_activity_uses_extreme_instances() {
        // In ABAB, A's last instance ends after B's first starts, so
        // neither wholly precedes the other.
        let log = WorkflowLog::from_strings(["ABAB"]).unwrap();
        let counts = OrderCounts::from_log(&log);
        let (a, b) = (idx(&log, "A"), idx(&log, "B"));
        assert_eq!(counts.cooccur(a, b), 1);
        assert_eq!(counts.ordered(a, b), 0);
        assert_eq!(counts.ordered(b, a), 0);
    }

    #[test]
    fn dependencies_listing() {
        let log = WorkflowLog::from_strings(["ABC", "ABC"]).unwrap();
        let f = FollowsAnalysis::analyze(&log);
        let (a, b, c) = (idx(&log, "A"), idx(&log, "B"), idx(&log, "C"));
        let deps = f.dependencies();
        assert!(deps.contains(&(a, b)) && deps.contains(&(b, c)) && deps.contains(&(a, c)));
        assert_eq!(deps.len(), 3);
    }
}
