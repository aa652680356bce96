//! One execution of a process: a time-ordered list of activity instances.
//!
//! The paper simplifies executions to "a list of activities" by assuming
//! instantaneous activities; the justification given is that overlapping
//! activities are necessarily independent. We keep the general interval
//! form — each instance has a start and end time — and expose the
//! *terminates-before-starts* relation the algorithms actually consume.
//! The instantaneous list form is the special case `start == end` with
//! strictly increasing times.

use crate::{ActivityId, ActivityTable, LogError};
use serde::{Deserialize, Serialize};

/// One occurrence of an activity within an execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityInstance {
    /// Which activity ran.
    pub activity: ActivityId,
    /// Start timestamp.
    pub start: u64,
    /// End timestamp (`>= start`).
    pub end: u64,
    /// Output vector recorded on the END event, if any.
    pub output: Option<Vec<i64>>,
}

/// One recorded execution of the process: activity instances sorted by
/// start time (ties broken by end time, then activity id).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Execution {
    /// The process-execution (case) name from the log.
    pub id: String,
    instances: Vec<ActivityInstance>,
}

impl Execution {
    /// Builds an execution from instances, sorting them by start time.
    ///
    /// Returns [`LogError::EmptyExecution`] if `instances` is empty and
    /// [`LogError::NegativeInterval`] if any instance ends before it
    /// starts.
    pub fn new(
        id: impl Into<String>,
        mut instances: Vec<ActivityInstance>,
    ) -> Result<Self, LogError> {
        let id = id.into();
        if instances.is_empty() {
            return Err(LogError::EmptyExecution { execution: id });
        }
        if let Some(bad) = instances.iter().find(|i| i.end < i.start) {
            return Err(LogError::NegativeInterval {
                execution: id,
                activity: bad.activity.index(),
                start: bad.start,
                end: bad.end,
            });
        }
        // A stable sort leaves sorted instances as they are, so sorted
        // input skips it.
        let key = |i: &ActivityInstance| (i.start, i.end, i.activity);
        if instances.windows(2).any(|w| key(&w[0]) > key(&w[1])) {
            instances.sort_by_key(key);
        }
        Ok(Execution { id, instances })
    }

    /// An execution from instances that already hold [`Execution::new`]'s
    /// invariants: at least one, each with `start <= end`, sorted by
    /// `(start, end, activity)`. The columns of a
    /// [`CompactLog`](crate::CompactLog) hold them.
    pub(crate) fn from_sorted(id: String, instances: Vec<ActivityInstance>) -> Self {
        debug_assert!(!instances.is_empty());
        debug_assert!(instances.iter().all(|i| i.start <= i.end));
        debug_assert!(instances.windows(2).all(
            |w| (w[0].start, w[0].end, w[0].activity) <= (w[1].start, w[1].end, w[1].activity)
        ));
        Execution { id, instances }
    }

    /// The case name and the instances, for a caller that reuses their
    /// buffers.
    pub(crate) fn into_parts(self) -> (String, Vec<ActivityInstance>) {
        (self.id, self.instances)
    }

    /// Builds an instantaneous execution from an ordered activity-id
    /// sequence: the `i`-th activity gets `start == end == i`.
    pub fn from_ids(id: impl Into<String>, seq: &[ActivityId]) -> Result<Self, LogError> {
        Self::new(
            id,
            seq.iter()
                .enumerate()
                .map(|(i, &a)| ActivityInstance {
                    activity: a,
                    start: i as u64,
                    end: i as u64,
                    output: None,
                })
                .collect(),
        )
    }

    /// The instances in start-time order.
    pub fn instances(&self) -> &[ActivityInstance] {
        &self.instances
    }

    /// Number of activity instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` if the execution has no instances (never true for values
    /// built through the constructors).
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The activity sequence in start-time order (repeats preserved).
    pub fn sequence(&self) -> Vec<ActivityId> {
        self.instances.iter().map(|i| i.activity).collect()
    }

    /// `true` if any activity occurs more than once (a cycle signature —
    /// such executions need Algorithm 3).
    pub fn has_repeats(&self) -> bool {
        // Sorting a copy of the ids hashes nothing: cheaper than a hash
        // set at the lengths executions have.
        let mut ids = self.sequence();
        ids.sort_unstable();
        ids.windows(2).any(|w| w[0] == w[1])
    }

    /// How many times `a` occurs.
    pub fn count_of(&self, a: ActivityId) -> usize {
        self.instances.iter().filter(|i| i.activity == a).count()
    }

    /// `true` if `a` occurs at least once.
    pub fn contains(&self, a: ActivityId) -> bool {
        self.instances.iter().any(|i| i.activity == a)
    }

    /// The output of the first instance of `a` that recorded one.
    pub fn output_of(&self, a: ActivityId) -> Option<&[i64]> {
        self.instances
            .iter()
            .find(|i| i.activity == a && i.output.is_some())
            .and_then(|i| i.output.as_deref())
    }

    /// The first and last activities by time — Definition 6 requires
    /// these to be the process' initiating and terminating activities.
    // Non-emptiness is a constructor invariant: Execution::new rejects
    // empty instance lists.
    #[allow(clippy::expect_used)]
    pub fn endpoints(&self) -> (ActivityId, ActivityId) {
        (
            self.instances
                .first()
                .expect("executions are non-empty")
                .activity,
            self.instances
                .last()
                .expect("executions are non-empty")
                .activity,
        )
    }

    /// Iterates instance-index pairs `(i, j)` such that instance `i`
    /// *terminates before* instance `j` *starts* — the observed-order
    /// relation of step 2 of all three mining algorithms. Pairs where the
    /// intervals overlap (including equal instantaneous timestamps) are
    /// not emitted: overlapping activities are independent.
    pub fn precedence_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let inst = &self.instances;
        (0..inst.len()).flat_map(move |i| {
            (0..inst.len())
                .filter(move |&j| i != j && inst[i].end < inst[j].start)
                .map(move |j| (i, j))
        })
    }

    /// Labels each instance with its occurrence number (0-based) among
    /// instances of the same activity, in time order — the "artificially
    /// differentiate appearances" device of Algorithm 3 (the paper's
    /// `B1`, `B2`, …).
    pub fn labeled_sequence(&self) -> Vec<(ActivityId, u32)> {
        let mut counts: std::collections::HashMap<ActivityId, u32> =
            std::collections::HashMap::new();
        self.instances
            .iter()
            .map(|i| {
                let c = counts.entry(i.activity).or_insert(0);
                let occ = *c;
                *c += 1;
                (i.activity, occ)
            })
            .collect()
    }

    /// Renders the activity sequence as names, e.g. `"A B C E"`.
    pub fn display(&self, table: &ActivityTable) -> String {
        self.sequence()
            .iter()
            .map(|&a| table.name(a))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ActivityTable {
        ActivityTable::from_names(["A", "B", "C", "D"])
    }

    fn aid(t: &ActivityTable, n: &str) -> ActivityId {
        t.id(n).unwrap()
    }

    #[test]
    fn from_ids_is_instantaneous_and_ordered() {
        let t = table();
        let seq = [aid(&t, "A"), aid(&t, "C"), aid(&t, "B")];
        let e = Execution::from_ids("p1", &seq).unwrap();
        assert_eq!(e.sequence(), seq);
        assert_eq!(e.len(), 3);
        assert_eq!(e.endpoints(), (aid(&t, "A"), aid(&t, "B")));
        assert_eq!(e.display(&t), "A C B");
    }

    #[test]
    fn empty_execution_rejected() {
        assert!(matches!(
            Execution::new("p", vec![]),
            Err(LogError::EmptyExecution { .. })
        ));
    }

    #[test]
    fn negative_interval_rejected() {
        let t = table();
        let inst = ActivityInstance {
            activity: aid(&t, "A"),
            start: 5,
            end: 3,
            output: None,
        };
        assert!(matches!(
            Execution::new("p", vec![inst]),
            Err(LogError::NegativeInterval { .. })
        ));
    }

    #[test]
    fn precedence_respects_intervals() {
        let t = table();
        // A: [0,2], B: [1,3] (overlaps A), C: [4,5] (after both).
        let e = Execution::new(
            "p",
            vec![
                ActivityInstance {
                    activity: aid(&t, "A"),
                    start: 0,
                    end: 2,
                    output: None,
                },
                ActivityInstance {
                    activity: aid(&t, "B"),
                    start: 1,
                    end: 3,
                    output: None,
                },
                ActivityInstance {
                    activity: aid(&t, "C"),
                    start: 4,
                    end: 5,
                    output: None,
                },
            ],
        )
        .unwrap();
        let pairs: Vec<_> = e.precedence_pairs().collect();
        // A⊄B (overlap), A<C, B<C.
        assert_eq!(pairs, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn instantaneous_equal_times_do_not_precede() {
        let t = table();
        let e = Execution::new(
            "p",
            vec![
                ActivityInstance {
                    activity: aid(&t, "A"),
                    start: 0,
                    end: 0,
                    output: None,
                },
                ActivityInstance {
                    activity: aid(&t, "B"),
                    start: 0,
                    end: 0,
                    output: None,
                },
            ],
        )
        .unwrap();
        assert_eq!(e.precedence_pairs().count(), 0);
    }

    #[test]
    fn repeats_and_labeling() {
        let t = table();
        let seq = [
            aid(&t, "A"),
            aid(&t, "B"),
            aid(&t, "C"),
            aid(&t, "B"),
            aid(&t, "C"),
        ];
        let e = Execution::from_ids("p", &seq).unwrap();
        assert!(e.has_repeats());
        assert_eq!(e.count_of(aid(&t, "B")), 2);
        assert_eq!(e.count_of(aid(&t, "D")), 0);
        let labeled = e.labeled_sequence();
        assert_eq!(labeled[1], (aid(&t, "B"), 0));
        assert_eq!(labeled[3], (aid(&t, "B"), 1));
        assert_eq!(labeled[4], (aid(&t, "C"), 1));
    }

    #[test]
    fn output_lookup() {
        let t = table();
        let e = Execution::new(
            "p",
            vec![
                ActivityInstance {
                    activity: aid(&t, "A"),
                    start: 0,
                    end: 1,
                    output: Some(vec![7]),
                },
                ActivityInstance {
                    activity: aid(&t, "B"),
                    start: 2,
                    end: 3,
                    output: None,
                },
            ],
        )
        .unwrap();
        assert_eq!(e.output_of(aid(&t, "A")), Some(&[7i64][..]));
        assert_eq!(e.output_of(aid(&t, "B")), None);
    }

    #[test]
    fn instances_sorted_by_start() {
        let t = table();
        let e = Execution::new(
            "p",
            vec![
                ActivityInstance {
                    activity: aid(&t, "B"),
                    start: 5,
                    end: 6,
                    output: None,
                },
                ActivityInstance {
                    activity: aid(&t, "A"),
                    start: 0,
                    end: 1,
                    output: None,
                },
            ],
        )
        .unwrap();
        assert_eq!(e.sequence(), vec![aid(&t, "A"), aid(&t, "B")]);
    }
}
