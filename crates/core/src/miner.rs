//! Miner configuration and automatic algorithm selection.

use crate::cyclic::mine_cyclic_in;
use crate::general_dag::mine_general_dag_in;
use crate::session::MineSession;
use crate::special_dag::mine_special_dag_in;
use crate::telemetry::MetricsSink;
use crate::{MineError, MinedModel};
use procmine_log::LogView;

/// Options shared by all miners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinerOptions {
    /// Minimum number of executions that must exhibit an ordered pair
    /// before it becomes an edge in step 2 — the §6 noise threshold `T`.
    /// The default of 1 keeps every observed ordering (the noise-free
    /// setting of §3–§5). Use [`crate::noise::optimal_threshold`] to
    /// derive a value from an error-rate estimate.
    pub noise_threshold: u32,
    /// Resource guards (size and wall-clock bounds). Defaults to
    /// unlimited; see [`crate::Limits`].
    pub limits: crate::Limits,
}

impl Default for MinerOptions {
    fn default() -> Self {
        MinerOptions {
            noise_threshold: 1,
            limits: crate::Limits::default(),
        }
    }
}

impl MinerOptions {
    /// Options with a specific noise threshold.
    pub fn with_threshold(noise_threshold: u32) -> Self {
        MinerOptions {
            noise_threshold,
            ..MinerOptions::default()
        }
    }

    /// Replaces the resource guards, builder-style.
    pub fn with_limits(mut self, limits: crate::Limits) -> Self {
        self.limits = limits;
        self
    }
}

/// Which of the paper's algorithms a mining run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1 — acyclic, every activity in every execution.
    SpecialDag,
    /// Algorithm 2 — acyclic, activities may be skipped.
    GeneralDag,
    /// Algorithm 3 — general graphs with cycles.
    Cyclic,
}

/// Inspects the log and runs the most specific applicable algorithm:
///
/// * any repeated activity within an execution → [`mine_cyclic`]
///   (Algorithm 3);
/// * every activity present in every execution → [`mine_special_dag`]
///   (Algorithm 1), which guarantees the unique minimal conformal graph;
/// * otherwise → [`mine_general_dag`] (Algorithm 2).
///
/// Returns the model together with the algorithm chosen. Takes a
/// [`WorkflowLog`](procmine_log::WorkflowLog) or a
/// [`CompactLog`](procmine_log::CompactLog).
///
/// [`mine_cyclic`]: crate::mine_cyclic
/// [`mine_special_dag`]: crate::mine_special_dag
/// [`mine_general_dag`]: crate::mine_general_dag
pub fn mine_auto<'a>(
    log: impl Into<LogView<'a>>,
    options: &MinerOptions,
) -> Result<(MinedModel, Algorithm), MineError> {
    mine_auto_in(&mut MineSession::new(), log, options)
}

/// [`mine_auto`] inside a [`MineSession`]: the chosen algorithm's stage
/// timings and counters are recorded into the session's sink, its spans
/// into the session's tracer, and its heavy stages honor the session's
/// thread count.
///
/// The choice takes one pass over the log's activity ids with one
/// stamp per activity, which allocates nothing per execution and does
/// not lower a nested log: the chosen miner lowers it, once.
pub fn mine_auto_in<'a, S: MetricsSink>(
    session: &mut MineSession<S>,
    log: impl Into<LogView<'a>>,
    options: &MinerOptions,
) -> Result<(MinedModel, Algorithm), MineError> {
    let log = log.into();
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    let n = log.activities().len();
    let (mut repeats, mut every_activity) = (false, true);
    for (x, repeated) in log.repeats().enumerate() {
        if repeated {
            repeats = true;
            break;
        }
        // Without repeats, an execution of n instances holds every one
        // of the table's n activities.
        every_activity &= log.exec_len(x) == n;
    }
    if repeats {
        Ok((mine_cyclic_in(session, log, options)?, Algorithm::Cyclic))
    } else if every_activity {
        Ok((
            mine_special_dag_in(session, log, options)?,
            Algorithm::SpecialDag,
        ))
    } else {
        Ok((
            mine_general_dag_in(session, log, options)?,
            Algorithm::GeneralDag,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_log::WorkflowLog;

    #[test]
    fn dispatches_to_special() {
        let log = WorkflowLog::from_strings(["ABCDE", "ACDBE", "ACBDE"]).unwrap();
        let (_, alg) = mine_auto(&log, &MinerOptions::default()).unwrap();
        assert_eq!(alg, Algorithm::SpecialDag);
    }

    #[test]
    fn dispatches_to_general() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let (_, alg) = mine_auto(&log, &MinerOptions::default()).unwrap();
        assert_eq!(alg, Algorithm::GeneralDag);
    }

    #[test]
    fn dispatches_to_cyclic() {
        let log = WorkflowLog::from_strings(["ABDCE", "ABDCBCE"]).unwrap();
        let (_, alg) = mine_auto(&log, &MinerOptions::default()).unwrap();
        assert_eq!(alg, Algorithm::Cyclic);
    }

    #[test]
    fn threaded_session_dispatches_identically() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let (serial, alg) = mine_auto(&log, &MinerOptions::default()).unwrap();
        let mut session = MineSession::new().with_threads(4);
        let (threaded, alg2) = mine_auto_in(&mut session, &log, &MinerOptions::default()).unwrap();
        assert_eq!(alg, alg2);
        assert_eq!(serial.edges_named(), threaded.edges_named());
    }

    #[test]
    fn empty_log_is_an_error() {
        let log = WorkflowLog::new();
        assert_eq!(
            mine_auto(&log, &MinerOptions::default()).unwrap_err(),
            MineError::EmptyLog
        );
    }
}
