//! The four workloads: how their inputs are generated from the seed,
//! how `procmine` is invoked on them, and the reference result every
//! invocation is checked against.
//!
//! Each log comes from a process model generated from a fixed seed, so
//! every `--seed` samples executions of the same process and the
//! workload's cost stays comparable across seeds. `--seed` drives the
//! executions and the interleaving.

use crate::interleave::interleave;
use crate::pipeline::sorted_edges;
use procmine_core::{conformance, reference, MinerOptions};
use procmine_log::{codec, WorkflowLog};
use procmine_sim::engine::{self, DurationSpec, EngineConfig};
use procmine_sim::randdag::{random_dag, RandomDagConfig};
use procmine_sim::walk;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::error::Error;
use std::ffi::OsString;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Seed of the process models (the paper's year); `--seed` varies only
/// the executions drawn from them.
const MODEL_SEED: u64 = 1998;
/// Salt separating the interleaving stream from the execution stream.
const INTERLEAVE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// §8.1 random walks on a 25-activity DAG at the edge density of the
/// paper's Table 2.
const NARROW_VERTICES: usize = 25;
const NARROW_EDGES: usize = 224;
const NARROW_EXECUTIONS: usize = 80_000;

/// Condition-engine runs on a wide DAG: every activity runs in every
/// execution, and 16 agents with durations 1..=20 make instances overlap.
const WIDE_VERTICES: usize = 300;
const WIDE_EDGES: usize = 2_250;
const WIDE_EXECUTIONS: usize = 200;
const WIDE_AGENTS: usize = 16;
const WIDE_DURATION: (u64, u64) = (1, 20);

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchNarrow,
    BatchWide,
    FollowNarrow,
    FollowWide,
}

/// Which generated log a workload reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Narrow,
    Wide,
}

/// How a workload runs `procmine mine`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `mine LOG`: decode, mine, route and gateway report, and with
    /// `check` the conformance replay.
    Batch {
        xes: bool,
        general: bool,
        check: bool,
    },
    /// `mine --follow`: stream source, case assembler, online miner.
    Follow {
        stdin: bool,
        snapshot_every: u64,
        checkpoint_every: Option<u64>,
    },
}

impl Shape {
    /// Executions in the benchmark's log of this shape.
    pub fn executions(self) -> usize {
        match self {
            Shape::Narrow => NARROW_EXECUTIONS,
            Shape::Wide => WIDE_EXECUTIONS,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchNarrow,
        Workload::BatchWide,
        Workload::FollowNarrow,
        Workload::FollowWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchNarrow => "batch-narrow",
            Workload::BatchWide => "batch-wide",
            Workload::FollowNarrow => "follow-narrow",
            Workload::FollowWide => "follow-wide",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::BatchNarrow | Workload::FollowNarrow => Shape::Narrow,
            Workload::BatchWide | Workload::FollowWide => Shape::Wide,
        }
    }

    pub fn mode(self) -> Mode {
        match self {
            Workload::BatchNarrow => Mode::Batch {
                xes: false,
                general: false,
                check: false,
            },
            Workload::BatchWide => Mode::Batch {
                xes: true,
                general: true,
                check: true,
            },
            Workload::FollowNarrow => Mode::Follow {
                stdin: false,
                snapshot_every: 40_000,
                checkpoint_every: Some(250_000),
            },
            Workload::FollowWide => Mode::Follow {
                stdin: true,
                snapshot_every: 6_000,
                checkpoint_every: None,
            },
        }
    }

    /// Cases open at once in the input: 1 for the contiguous batch
    /// files, the interleaving width for the follow streams.
    pub fn width(self) -> usize {
        match self {
            Workload::BatchNarrow | Workload::BatchWide => 1,
            Workload::FollowNarrow => 64,
            Workload::FollowWide => 8,
        }
    }

    /// Expected wall time of one invocation on the reference machine;
    /// sets how many invocations fit in `--seconds`, identically for
    /// every commit measured with the same settings.
    pub fn nominal_s(self) -> f64 {
        match self {
            Workload::BatchNarrow => 0.6,
            Workload::BatchWide => 0.7,
            Workload::FollowNarrow => 0.9,
            Workload::FollowWide => 0.7,
        }
    }

    fn input_name(self) -> &'static str {
        match self {
            Workload::BatchNarrow => "narrow.fm",
            Workload::BatchWide => "wide.xes",
            Workload::FollowNarrow => "narrow-il.fm",
            Workload::FollowWide => "wide-il.fm",
        }
    }

    /// The `procmine` arguments of one invocation. `ck` is the
    /// checkpoint path, used only by workloads that checkpoint.
    pub fn cli_args(self, input: &Path, ck: &Path) -> Vec<OsString> {
        let mut args: Vec<OsString> = vec!["mine".into()];
        match self.mode() {
            Mode::Batch {
                xes,
                general,
                check,
            } => {
                args.push(input.into());
                if xes {
                    args.extend(["--format".into(), "xes".into()]);
                }
                if general {
                    args.extend(["--algorithm".into(), "general".into()]);
                }
                if check {
                    args.push("--check".into());
                }
            }
            Mode::Follow {
                stdin,
                snapshot_every,
                checkpoint_every,
            } => {
                args.push("--follow".into());
                args.push(if stdin { "-".into() } else { input.into() });
                args.extend(["--snapshot-every".into(), snapshot_every.to_string().into()]);
                if let Some(every) = checkpoint_every {
                    args.extend([
                        "--checkpoint".into(),
                        ck.into(),
                        "--checkpoint-every".into(),
                        every.to_string().into(),
                    ]);
                }
            }
        }
        args
    }
}

/// A workload's generated input and its reference result.
pub struct Prepared {
    pub input: PathBuf,
    pub bytes: u64,
    /// START and END records in the input.
    pub records: u64,
    /// The reference miner's edges, by activity name, sorted. Every
    /// invocation must print exactly these.
    pub edges: Vec<(String, String)>,
}

/// Generates the workload's log from `seed`, writes its input file into
/// `dir`, and computes the reference result. Returns the in-memory log
/// too, for the descriptors.
pub fn prepare(
    w: Workload,
    seed: u64,
    dir: &Path,
) -> Result<(Prepared, WorkflowLog), Box<dyn Error>> {
    let log = generate(w.shape(), w.shape().executions(), seed)?;
    let input = dir.join(w.input_name());
    let bytes = encode(w, seed, &log)?;
    fs::write(&input, &bytes)?;

    let (model, _) = reference::mine_general_reference(&log, &MinerOptions::default())?;
    let edges = sorted_edges(&model);
    // Workloads that run `--check` expect `conformance: OK`, which must
    // agree with the in-process verdict on the reference model.
    if matches!(w.mode(), Mode::Batch { check: true, .. })
        && !conformance::check_conformance(&model, &log).is_conformal()
    {
        return Err(format!("{}: the reference model is not conformal", w.name()).into());
    }
    let instances: usize = log.executions().iter().map(|e| e.len()).sum();
    Ok((
        Prepared {
            input,
            bytes: bytes.len() as u64,
            records: 2 * instances as u64,
            edges,
        },
        log,
    ))
}

/// `executions` executions of a shape's process, drawn from `seed`.
pub fn generate(shape: Shape, executions: usize, seed: u64) -> Result<WorkflowLog, Box<dyn Error>> {
    let mut model_rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(match shape {
        Shape::Narrow => {
            let cfg = RandomDagConfig::with_target_edges(NARROW_VERTICES, NARROW_EDGES);
            let model = random_dag(&cfg, &mut model_rng)?;
            walk::random_walk_log(&model, executions, &mut rng)?
        }
        Shape::Wide => {
            let cfg = RandomDagConfig::with_target_edges(WIDE_VERTICES, WIDE_EDGES);
            let model = random_dag(&cfg, &mut model_rng)?;
            let engine = EngineConfig {
                duration: DurationSpec::Uniform(WIDE_DURATION.0, WIDE_DURATION.1),
                agents: WIDE_AGENTS,
            };
            engine::generate_log_with(&model, executions, &engine, &mut rng)?
        }
    })
}

/// The input file's bytes: XES for `batch-wide`, flowmark otherwise,
/// interleaved for the follow workloads.
pub fn encode(w: Workload, seed: u64, log: &WorkflowLog) -> Result<Vec<u8>, Box<dyn Error>> {
    let mut out = BufWriter::new(Vec::new());
    if matches!(w.mode(), Mode::Batch { xes: true, .. }) {
        codec::xes::write_log(log, &mut out)?;
    } else {
        codec::flowmark::write_log(log, &mut out)?;
    }
    out.flush()?;
    let encoded = out.into_inner().map_err(|e| e.into_error())?;
    Ok(match w.width() {
        1 => encoded,
        width => interleave(
            &encoded,
            width,
            &mut StdRng::seed_from_u64(seed ^ INTERLEAVE_SALT),
        ),
    })
}

/// The input properties the optimisations on the ROADMAP depend on.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptors {
    /// Distinct variants ÷ executions, where a variant is an activity
    /// sequence plus its ordered/overlap pattern (executions of one
    /// variant contribute identically to both heavy passes of
    /// Algorithm 2).
    pub distinct_variant_share: f64,
    pub mean_execution_length: f64,
    /// Overlapping instance pairs ÷ instance pairs, within executions.
    pub overlapping_pair_share: f64,
    pub open_case_width: usize,
    pub input_bytes: u64,
    pub records: u64,
}

impl Descriptors {
    pub fn of(w: Workload, log: &WorkflowLog, prepared: &Prepared) -> Descriptors {
        let mut variants = HashSet::new();
        let (mut instances, mut pairs, mut overlapping) = (0u64, 0u64, 0u64);
        for exec in log.executions() {
            let inst = exec.instances();
            instances += inst.len() as u64;
            // Instances are sorted by start, so only `i` can precede `j`
            // for i < j; one bit per pair encodes the whole pattern.
            let mut key: Vec<u64> = inst.iter().map(|i| i.activity.index() as u64).collect();
            let mut bits = 0u64;
            let mut filled = 0;
            for (i, a) in inst.iter().enumerate() {
                for b in &inst[i + 1..] {
                    let ordered = a.end < b.start;
                    pairs += 1;
                    overlapping += u64::from(!ordered);
                    bits |= u64::from(ordered) << filled;
                    filled += 1;
                    if filled == 64 {
                        key.push(bits);
                        (bits, filled) = (0, 0);
                    }
                }
            }
            key.push(bits);
            variants.insert(key);
        }
        let execs = log.len().max(1) as f64;
        Descriptors {
            distinct_variant_share: variants.len() as f64 / execs,
            mean_execution_length: instances as f64 / execs,
            overlapping_pair_share: overlapping as f64 / pairs.max(1) as f64,
            open_case_width: w.width(),
            input_bytes: prepared.bytes,
            records: prepared.records,
        }
    }

    /// `(name, value)` pairs in reporting order.
    pub fn fields(&self) -> [(&'static str, f64); 6] {
        [
            ("distinct_variant_share", self.distinct_variant_share),
            ("mean_execution_length", self.mean_execution_length),
            ("overlapping_pair_share", self.overlapping_pair_share),
            ("open_case_width", self.open_case_width as f64),
            ("input_bytes", self.input_bytes as f64),
            ("records", self.records as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        // Fewer executions than the benchmark's, through the same
        // generators and encoders.
        let input = |w: Workload, seed| encode(w, seed, &generate(w.shape(), 40, seed).unwrap());
        for w in Workload::ALL {
            let a = input(w, 7).unwrap();
            assert!(
                a == input(w, 7).unwrap(),
                "{}: seed 7 is not reproducible",
                w.name()
            );
            assert!(
                a != input(w, 8).unwrap(),
                "{}: seeds 7 and 8 gave the same input",
                w.name()
            );
        }
    }

    #[test]
    fn descriptors_tell_the_shapes_apart() {
        let log = WorkflowLog::from_strings(["ABC", "ABC", "ACB", "AB"]).unwrap();
        let prepared = Prepared {
            input: PathBuf::new(),
            bytes: 1,
            records: 22,
            edges: Vec::new(),
        };
        let d = Descriptors::of(Workload::BatchNarrow, &log, &prepared);
        assert_eq!(d.distinct_variant_share, 3.0 / 4.0);
        assert_eq!(d.mean_execution_length, 11.0 / 4.0);
        // Instantaneous sequences never overlap.
        assert_eq!(d.overlapping_pair_share, 0.0);
        assert_eq!(d.open_case_width, 1);
    }
}
