//! Differential pinning of the zero-copy XES parser against the
//! retained character-based reference parser
//! (`codec::xes_reference`), across the corruption fuzz corpus and
//! every recovery policy: the rewrite must produce the *same*
//! `WorkflowLog` (activity table, execution ids, sequences, outputs,
//! timestamps), the *same* `IngestReport` (error offsets, line:column
//! positions, skip counts), and the *same* rendered error — or it is
//! not a rewrite but a behavior change. The parser is the one XES
//! decode path, so this reference is its judge under all three
//! policies.
//!
//! Two document sources feed the corpus: logs the XES writer encodes
//! (instantaneous activities only), and documents rendered by hand with
//! what real XES and the benchmark's wide log carry: overlapping
//! START/complete intervals, outputs, escaped and non-ASCII names,
//! foreign attribute syntax, markup between events, CRLF, tab and
//! U+00A0 whitespace, unnamed traces and events outside any trace.
//!
//! Every decode through the parser under test also reads the document
//! into columns (`xes::read_compact_with`), which must give the same
//! log, error, stats and report.

use procmine::log::codec::{xes, xes_reference, CodecStats};
use procmine::log::fault::{corrupt_bytes, FaultConfig};
use procmine::log::{CompactLog, Execution, IngestReport, RecoveryPolicy, WorkflowLog};
use proptest::prelude::*;

/// Strategy: a random log over activities `B`..`I` framed by `A`/`J`
/// (the corruption suite's shape, so both suites fuzz the same space).
fn arb_log(max_execs: usize) -> impl Strategy<Value = WorkflowLog> {
    let activity_pool: Vec<String> = (b'B'..=b'I').map(|c| (c as char).to_string()).collect();
    let exec = proptest::sample::subsequence(activity_pool, 0..=8).prop_shuffle();
    proptest::collection::vec(exec, 1..=max_execs).prop_map(|execs| {
        let mut log = WorkflowLog::new();
        for middle in execs {
            let mut seq = vec!["A".to_string()];
            seq.extend(middle);
            seq.push("J".to_string());
            log.push_sequence(&seq).unwrap();
        }
        log
    })
}

/// Everything observable about one decode: the salvaged log flattened
/// to comparable pieces (or the rendered error), plus telemetry.
type Observed = (
    Result<(Vec<String>, Vec<Execution>), String>,
    CodecStats,
    IngestReport,
);

fn observe(
    result: Result<WorkflowLog, procmine::log::LogError>,
    stats: CodecStats,
    report: IngestReport,
) -> Observed {
    let flat = result
        .map(|log| (log.activities().names().to_vec(), log.executions().to_vec()))
        .map_err(|e| e.to_string());
    (flat, stats, report)
}

/// Decodes with the parser under test. Its columns read must give the
/// same log in columns, the same error, stats and report.
fn decode_new(data: &[u8], policy: RecoveryPolicy) -> Observed {
    let mut stats = CodecStats::default();
    let mut report = IngestReport::default();
    let result = xes::read_log_with(data, policy, &mut stats, &mut report);
    let mut compact_stats = CodecStats::default();
    let mut compact_report = IngestReport::default();
    let compact = xes::read_compact_with(data, policy, &mut compact_stats, &mut compact_report);
    assert_eq!(
        compact.map_err(|e| e.to_string()),
        result
            .as_ref()
            .map(CompactLog::from_log)
            .map_err(|e| e.to_string()),
        "{policy:?}: columns read"
    );
    assert_eq!(compact_stats, stats, "{policy:?}: columns read stats");
    assert_eq!(compact_report, report, "{policy:?}: columns read report");
    observe(result, stats, report)
}

fn decode_reference(data: &[u8], policy: RecoveryPolicy) -> Observed {
    let mut stats = CodecStats::default();
    let mut report = IngestReport::default();
    let result = xes_reference::read_log_with(data, policy, &mut stats, &mut report);
    observe(result, stats, report)
}

fn encode(log: &WorkflowLog) -> Vec<u8> {
    let mut clean = Vec::new();
    xes::write_log(log, &mut clean).unwrap();
    clean
}

/// The corruption corpus of `tests/corruption.rs`: clean, truncated,
/// bit-rotted, and garbage-burst variants of one document.
fn corpus(clean: Vec<u8>, cut: usize, flip_rate: f64, seed: u64) -> Vec<Vec<u8>> {
    let truncated = corrupt_bytes(&clean, &FaultConfig::truncated(cut.min(clean.len()) as u64));
    let flipped = corrupt_bytes(&clean, &FaultConfig::bit_flips(flip_rate, seed));
    let garbled = corrupt_bytes(
        &clean,
        &FaultConfig {
            seed,
            garbage_rate: 0.2,
            ..FaultConfig::default()
        },
    );
    vec![clean, truncated, flipped, garbled]
}

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Strict,
    RecoveryPolicy::Skip { max_errors: 4 },
    RecoveryPolicy::BestEffort,
];

/// A stream of random choices that a document is rendered from:
/// `pick(n)` takes the next number modulo `n`, and 0 once the stream
/// is spent.
struct Choices(std::vec::IntoIter<u32>);

impl Choices {
    fn pick(&mut self, n: usize) -> usize {
        self.0.next().map_or(0, |c| c as usize % n)
    }

    fn one_of<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.pick(pool.len())]
    }
}

/// Activity names as they appear in attribute values: escaped ones,
/// non-ASCII ones, and one with an inner space.
const NAMES: [&str; 8] = [
    "A",
    "B",
    "review &amp; approve",
    "x &lt; y",
    "Prüfung",
    "審査",
    "Ω-step",
    "ship order",
];
/// `procmine:output` values: empty and blank ones included.
const OUTPUTS: [&str; 5] = ["", "3", "1;2;3", " -4 ; 5 ", "  "];
const START_SPELLINGS: [&str; 3] = ["start", "START", "Start"];
/// Closing transitions; `None` leaves the attribute out.
const END_SPELLINGS: [Option<&str>; 4] =
    [Some("complete"), Some("COMPLETE"), Some("ate_abort"), None];
/// Whitespace inside tags and between them.
const SPACES: [&str; 5] = [" ", "\t", "\r\n", "\u{A0}", "\r\n\t\u{A0}"];
/// What may sit between two events besides whitespace: markup the
/// reader skips, and an element and attribute with non-ASCII names.
const BETWEEN: [&str; 7] = [
    "",
    "",
    "<!-- exported -->",
    "<?pi data?>",
    "<!DOCTYPE log>",
    "text &amp; more",
    "<métadonnée\u{A0}résumé2=\"1\"/>",
];
/// First stamps of a trace: the epoch, a 2024 date, and ten seconds
/// before year 10000 (so stamps cross into five-digit years).
const BASES: [u64; 3] = [0, 1_710_028_800_000, 253_402_300_790_000];

/// One attribute element `<elem key=… value=…>` in one of several
/// spellings: double or single quotes, `value` before `key`, an extra
/// attribute with a non-ASCII name, a child element, and odd
/// whitespace around `=`.
fn attribute(c: &mut Choices, elem: &str, key: &str, value: &str) -> String {
    let sp = c.one_of(&SPACES);
    match c.pick(6) {
        0 => format!("<{elem} key=\"{key}\" value=\"{value}\"/>"),
        1 => format!("<{elem} key='{key}' value='{value}'/>"),
        2 => format!("<{elem} value=\"{value}\"{sp}key=\"{key}\"/>"),
        3 => format!("<{elem} key=\"{key}\" prüfung2=\"x1\" value=\"{value}\"/>"),
        4 => format!(
            "<{elem} key=\"{key}\" value=\"{value}\">{sp}<string key=\"meta\" value=\"nested\"/>{sp}</{elem}>"
        ),
        _ => format!("<{elem}{sp}key{sp}={sp}\"{key}\"{sp}value='{value}'{sp}/>"),
    }
}

/// A stamp for `millis` in one of the accepted spellings; the `+01:00`
/// one writes the local time of the same instant.
fn stamp(c: &mut Choices, millis: u64) -> String {
    let canonical = xes::millis_to_iso8601(millis);
    match c.pick(5) {
        0 => canonical,
        1 => canonical.replace("+00:00", "Z"),
        2 => canonical.replace('T', "t").replace("+00:00", "z"),
        3 => canonical.replace('T', " ").replace("+00:00", ""),
        _ => xes::millis_to_iso8601(millis + 3_600_000).replace("+00:00", "+01:00"),
    }
}

/// One `<event>`: its attributes in a random order, sometimes with an
/// extra attribute the reader ignores.
fn event(
    c: &mut Choices,
    name: &str,
    transition: Option<&str>,
    time: Option<String>,
    output: Option<&str>,
) -> String {
    let mut attrs = vec![attribute(c, "string", "concept:name", name)];
    if let Some(t) = transition {
        attrs.push(attribute(c, "string", "lifecycle:transition", t));
    }
    if let Some(t) = time {
        attrs.push(attribute(c, "date", "time:timestamp", &t));
    }
    if let Some(o) = output {
        let elem = c.one_of(&["string", "int", "float", "boolean"]);
        attrs.push(attribute(c, elem, "procmine:output", o));
    }
    if c.pick(4) == 0 {
        attrs.push(attribute(c, "int", "cost", "12"));
    }
    let rotate = c.pick(attrs.len());
    attrs.rotate_left(rotate);
    let sp = c.one_of(&SPACES);
    format!("<event>{sp}{}{sp}</event>", attrs.join(sp))
}

/// One trace's events: up to five distinct activities as intervals
/// that may overlap (duration 0 is a lone `complete`), written in time
/// order with STARTs first at equal stamps, markup between them.
fn trace_events(c: &mut Choices, nl: &str) -> String {
    let base = BASES[c.pick(BASES.len())];
    let first = c.pick(NAMES.len());
    let mut events: Vec<(u64, bool, usize)> = Vec::new();
    let mut start = base;
    for k in 0..c.pick(6) {
        let activity = (first + k) % NAMES.len();
        let duration = [0u64, 0, 16, 1_000, 61_000][c.pick(5)];
        if duration > 0 {
            events.push((start, false, activity));
        }
        events.push((start + duration, true, activity));
        start += [0u64, 1, 500, 7_000][c.pick(4)];
    }
    events.sort_by_key(|&(t, is_end, _)| (t, is_end));
    let mut out = String::new();
    for (time, is_end, activity) in events {
        let transition = if is_end {
            END_SPELLINGS[c.pick(END_SPELLINGS.len())]
        } else {
            Some(c.one_of(&START_SPELLINGS))
        };
        // A lone `complete` may go untimed and take its row ordinal.
        let timed = !is_end || c.pick(16) != 0;
        let time = timed.then(|| stamp(c, time));
        let output = (is_end && c.pick(3) == 0).then(|| c.one_of(&OUTPUTS));
        out += &event(c, NAMES[activity], transition, time, output);
        out += c.one_of(&BETWEEN);
        out += nl;
    }
    out
}

/// A whole document: a prolog, then traces (named or not, with extra
/// trace attributes) and events outside any trace.
fn render_document(choices: Vec<u32>) -> Vec<u8> {
    let c = &mut Choices(choices.into_iter());
    let nl = c.one_of(&["\n", "\r\n"]);
    let mut doc = String::from(c.one_of(&[
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
        "<?xml version='1.0'?>",
        "",
    ]));
    doc += nl;
    doc += c.one_of(&["", "<!DOCTYPE log>", "<!-- generated -->"]);
    doc += "<log xes.version=\"1849.2016\">";
    doc += nl;
    doc += &attribute(c, "string", "source", "generator");
    for i in 0..1 + c.pick(6) {
        doc += c.one_of(&SPACES);
        if c.pick(6) == 0 {
            let name = NAMES[c.pick(NAMES.len())];
            let time = stamp(c, BASES[1] + i as u64);
            doc += &event(c, name, None, Some(time), None);
            continue;
        }
        doc += "<trace>";
        doc += nl;
        if c.pick(4) != 0 {
            let name = if c.pick(2) == 0 {
                format!("case-{i}")
            } else {
                format!("Fall-{i}-ä")
            };
            doc += &attribute(c, "string", "concept:name", &name);
        }
        if c.pick(3) == 0 {
            doc += &attribute(c, "string", "customer", "ACME &amp; sons");
        }
        doc += nl;
        doc += &trace_events(c, nl);
        doc += "</trace>";
        doc += nl;
    }
    doc += "</log>";
    doc += nl;
    doc.into_bytes()
}

/// Strategy: a rendered document (see [`render_document`]).
fn arb_document() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u32..1 << 16, 40..400).prop_map(render_document)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central pinning property: on every corpus variant and under
    /// every policy, the zero-copy parser is observationally identical
    /// to the reference parser — same log, same stats, same report
    /// (error byte offsets and line:column included via
    /// `IngestReport`'s `PartialEq`), same rendered error.
    #[test]
    fn new_parser_matches_reference_on_corrupt_corpus(
        log in arb_log(8),
        seed in 0u64..1_000,
        flips_per_mille in 0u64..50,
        cut in 0usize..2_048,
    ) {
        for corrupted in corpus(encode(&log), cut, flips_per_mille as f64 / 1_000.0, seed) {
            for policy in POLICIES {
                prop_assert_eq!(
                    decode_new(&corrupted, policy),
                    decode_reference(&corrupted, policy),
                    "policy {:?}",
                    policy
                );
            }
        }
    }

    /// The same pinning on rendered documents: the corpus of each, under
    /// every policy, decodes alike in both parsers.
    #[test]
    fn new_parser_matches_reference_on_rendered_documents(
        doc in arb_document(),
        seed in 0u64..1_000,
        flips_per_mille in 0u64..50,
        cut in 0usize..4_096,
    ) {
        for corrupted in corpus(doc, cut, flips_per_mille as f64 / 1_000.0, seed) {
            for policy in POLICIES {
                prop_assert_eq!(
                    decode_new(&corrupted, policy),
                    decode_reference(&corrupted, policy),
                    "policy {:?}",
                    policy
                );
            }
        }
    }
}

/// The rendered documents are mostly valid logs with what they are
/// meant to carry: of 64 documents, most read under `Strict`, and the
/// logs read hold overlapping intervals, outputs, non-ASCII and
/// escaped names, and unnamed traces.
#[test]
fn rendered_documents_carry_what_they_test() {
    let mut rng = proptest::test_runner::TestRng::for_test("rendered_documents");
    let (mut strict_ok, mut intervals, mut outputs, mut names, mut unnamed) = (0, 0, 0, 0, 0);
    for _ in 0..64 {
        let doc = render_document((0..300).map(|_| rng.below(1 << 16) as u32).collect());
        let Ok(log) = xes::read_log(doc.as_slice()) else {
            continue;
        };
        strict_ok += 1;
        for exec in log.executions() {
            unnamed += usize::from(exec.id.starts_with("trace-"));
            for inst in exec.instances() {
                intervals += usize::from(inst.start < inst.end);
                outputs += usize::from(inst.output.is_some());
            }
        }
        names += log
            .activities()
            .names()
            .iter()
            .filter(|n| !n.is_ascii() || n.contains(['&', '<']))
            .count();
    }
    assert!(strict_ok >= 32, "{strict_ok} of 64 read under Strict");
    for (what, count) in [
        ("intervals", intervals),
        ("outputs", outputs),
        ("non-ASCII or escaped names", names),
        ("unnamed traces", unnamed),
    ] {
        assert!(count > 0, "no {what} in the rendered documents");
    }
}

/// Deterministic anchor for `ci.sh`-style quick runs: a hand-cut
/// truncation on a fixed log, checked against the reference under all
/// three policies.
#[test]
fn smoke_new_parser_matches_reference_on_truncated_log() {
    let log = WorkflowLog::from_strings([
        "ABCF", "ACDF", "ADEF", "AECF", "ABDF", "ACEF", "ABEF", "ADCF", "AEBF", "ABCF",
    ])
    .unwrap();
    let clean = encode(&log);
    for cut in [clean.len() / 3, clean.len() / 2, clean.len() - 3] {
        let truncated = &clean[..cut];
        for policy in POLICIES {
            assert_eq!(
                decode_new(truncated, policy),
                decode_reference(truncated, policy),
                "cut {cut}, policy {policy:?}"
            );
        }
    }
}
