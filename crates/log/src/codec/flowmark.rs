//! Flowmark-style CSV event format.
//!
//! One event per line:
//!
//! ```text
//! process,activity,START|END,timestamp[,o1;o2;...]
//! ```
//!
//! The output field is present only on END events that recorded an
//! output vector (semicolon-separated integers). Blank lines and lines
//! starting with `#` are ignored. Field values may not contain commas;
//! this mirrors the flat audit-trail files the paper's implementation
//! consumed ("lists of event records consisting of the process name, the
//! activity name, the event type, and the timestamp", §8).
//!
//! Lines are decoded by [`FlowmarkSource`], the one Flowmark decoder.
//! [`read_log_with`] takes each line's fields borrowed from the line,
//! interns their names into a table of events as lines decode, and
//! groups and pairs the cases over ids; no string is owned per event.

use super::{assemble, CodecStats, IngestReport, RecoveryPolicy};
use crate::stream::FlowmarkSource;
use crate::validate::EventTable;
use crate::{EventKind, LogError, WorkflowLog};
use std::io::{BufRead, Write};

/// Parses a Flowmark-style event stream and assembles it into a
/// [`WorkflowLog`] (strict START/END pairing).
pub fn read_log<R: BufRead>(reader: R) -> Result<WorkflowLog, LogError> {
    read_log_with(
        reader,
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut IngestReport::default(),
    )
}

/// [`read_log`] with telemetry and a [`RecoveryPolicy`]: bytes
/// consumed, event lines parsed, and executions assembled accumulate
/// into `stats`. Under `Strict` the first bad line aborts (it is still
/// recorded in `report`, with its byte offset); under `Skip`/`BestEffort`
/// bad lines are counted and skipped and START/END pairing falls back
/// to lenient assembly.
/// An unparsable final line with no trailing newline is reported as
/// [`LogError::UnexpectedEof`] — a truncated file, not a garbage line.
/// An I/O error is fatal under every policy and is recorded in
/// `report` too.
pub fn read_log_with<R: BufRead>(
    reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let mut source = FlowmarkSource::new(reader, policy);
    let mut events = EventTable::default();
    let drained = loop {
        let next = source.next_fields(|fields, _| {
            let case = events.case_id(fields.process);
            let activity = events.activity_id(fields.activity);
            events.push(case, activity, fields.kind, fields.time, fields.output);
        });
        match next {
            Ok(Some(())) => {}
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let decoded = source.stats();
    stats.bytes_read += decoded.bytes_read;
    report.merge(source.report());
    drained?;
    stats.events_parsed += decoded.events_parsed;
    assemble(events, policy, decoded.bytes_read, stats, report)
}

/// Writes a log as a Flowmark-style event stream. Instances are emitted
/// per execution in start-time order: a START line, then an END line.
/// Instantaneous instances (`start == end`) still emit both events, so
/// the format round-trips. A case or activity name the reader would
/// read back differently is refused: one holding a comma or newline,
/// one with leading or trailing whitespace, and a case name starting
/// with `#`.
pub fn write_log<W: Write>(log: &WorkflowLog, mut writer: W) -> Result<(), LogError> {
    let activities = log.activities();
    let mut checked = vec![false; activities.len()];
    // Each execution's events as (time, is_end, instance): START before
    // END at equal timestamps so strict re-assembly succeeds, instance
    // order among equal events.
    let mut keys: Vec<(u64, bool, usize)> = Vec::new();
    let mut lines: Vec<u8> = Vec::new();
    for exec in log.executions() {
        keys.clear();
        for (i, inst) in exec.instances().iter().enumerate() {
            keys.push((inst.start, false, i));
            keys.push((inst.end, true, i));
        }
        keys.sort_unstable();
        if !keys.is_empty() {
            check_field(&exec.id, Field::Process)?;
        }
        lines.clear();
        for &(time, is_end, i) in &keys {
            let inst = &exec.instances()[i];
            let name = activities.name(inst.activity);
            if !checked[inst.activity.index()] {
                if let Err(e) = check_field(name, Field::Activity) {
                    writer.write_all(&lines)?;
                    return Err(e);
                }
                checked[inst.activity.index()] = true;
            }
            lines.extend_from_slice(exec.id.as_bytes());
            lines.push(b',');
            lines.extend_from_slice(name.as_bytes());
            lines.extend_from_slice(if is_end { b",END," } else { b",START," });
            push_decimal(&mut lines, time);
            match inst.output.as_deref() {
                Some(output) if is_end => {
                    for (k, v) in output.iter().enumerate() {
                        write!(lines, "{}{v}", if k == 0 { ',' } else { ';' })?;
                    }
                    if output.is_empty() {
                        lines.push(b',');
                    }
                }
                _ => {}
            }
            lines.push(b'\n');
        }
        writer.write_all(&lines)?;
    }
    Ok(())
}

/// Appends `n` in decimal (a third of `write!`'s cost per line).
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Which field of an event line a name is written to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Field {
    Process,
    Activity,
}

/// Refuses a name the reader would not read back as written: a comma
/// or newline splits the line, surrounding whitespace is trimmed away
/// (so ` p1` would come back as `p1`), and a line whose process field
/// starts with `#` reads as a comment.
fn check_field(s: &str, field: Field) -> Result<(), LogError> {
    let problem = if s.contains(',') || s.contains('\n') {
        "contains a comma or newline"
    } else if s.trim().len() != s.len() {
        "has leading or trailing whitespace, which the reader trims,"
    } else if field == Field::Process && s.starts_with('#') {
        "starts with `#`, which the reader takes for a comment line,"
    } else {
        return Ok(());
    };
    Err(LogError::Parse {
        line: 0,
        message: format!("field `{s}` {problem} and cannot be written"),
    })
}

/// The fields of one Flowmark event line, names borrowed from the line:
/// what [`FlowmarkSource`] hands a
/// [`StreamSink`](crate::stream::StreamSink) through
/// [`StreamSink::on_fields`](crate::stream::StreamSink::on_fields).
#[derive(Debug)]
pub struct EventFields<'a> {
    /// Process-execution (case) name.
    pub process: &'a str,
    /// Activity name.
    pub activity: &'a str,
    /// START or END.
    pub kind: EventKind,
    /// Event timestamp.
    pub time: u64,
    /// Output vector (END lines only).
    pub output: Option<Vec<i64>>,
}

/// Parses one trimmed Flowmark-style event line (1-based `lineno` for
/// error reporting) into fields borrowed from `line`.
/// [`FlowmarkSource`] is its one caller.
pub(crate) fn parse_event_line(line: &str, lineno: usize) -> Result<EventFields<'_>, LogError> {
    let mut parts = [""; 5];
    let mut count = 0;
    let mut start = 0;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == b',' {
            if let Some(slot) = parts.get_mut(count) {
                *slot = &line[start..i];
            }
            count += 1;
            start = i + 1;
        }
    }
    if let Some(slot) = parts.get_mut(count) {
        *slot = &line[start..];
    }
    count += 1;
    if !(4..=5).contains(&count) {
        return Err(LogError::Parse {
            line: lineno,
            message: format!("expected 4 or 5 comma-separated fields, got {count}"),
        });
    }
    let [process, activity, kind, time, output] = parts;
    let kind: EventKind = kind.trim().parse().map_err(|()| LogError::Parse {
        line: lineno,
        message: format!("unknown event type `{kind}`"),
    })?;
    let time: u64 = time.trim().parse().map_err(|_| LogError::Parse {
        line: lineno,
        message: format!("invalid timestamp `{time}`"),
    })?;
    let output = if count == 5 {
        if kind == EventKind::Start {
            return Err(LogError::Parse {
                line: lineno,
                message: "START events cannot carry an output vector".to_string(),
            });
        }
        let vec: Result<Vec<i64>, _> = output.split(';').map(|v| v.trim().parse::<i64>()).collect();
        Some(vec.map_err(|_| LogError::Parse {
            line: lineno,
            message: format!("invalid output vector `{output}`"),
        })?)
    } else {
        None
    };
    Ok(EventFields {
        process: process.trim(),
        activity: activity.trim(),
        kind,
        time,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt_bytes, corrupt_whole_lines, FaultConfig};
    use crate::validate::reference::reference_assemble;
    use crate::validate::AssemblyPolicy;
    use crate::{ActivityInstance, ActivityTable, EventRecord, Execution};
    use proptest::prelude::*;

    const SAMPLE: &str = "\
# a comment
p1,A,START,0
p1,A,END,1,3;4

p1,B,START,2
p1,B,END,3
p2,A,START,0
p2,A,END,2
";

    #[test]
    fn parses_sample() {
        let log = read_log(SAMPLE.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.executions()[0].len(), 2);
        let a = log.activities().id("A").unwrap();
        assert_eq!(log.executions()[0].output_of(a), Some(&[3i64, 4][..]));
    }

    #[test]
    fn round_trip() {
        let log = read_log(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(back.display_sequences(), log.display_sequences());
        let a = back.activities().id("A").unwrap();
        assert_eq!(back.executions()[0].output_of(a), Some(&[3i64, 4][..]));
    }

    #[test]
    fn instantaneous_sequences_round_trip() {
        let log = WorkflowLog::from_strings(["ABCE", "ACDE"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.display_sequences(), log.display_sequences());
    }

    #[test]
    fn rejects_malformed_lines() {
        for (line, why) in [
            ("p1,A,START", "too few fields"),
            ("p1,A,BEGIN,0", "unknown event type"),
            ("p1,A,START,abc", "bad timestamp"),
            ("p1,A,START,0,1;2", "output on a START"),
            ("p1,A,END,0,1;x", "bad output vector"),
        ] {
            assert!(
                matches!(
                    parse_event_line(line, 7),
                    Err(LogError::Parse { line: 7, .. })
                ),
                "{why}: {line:?}"
            );
        }
    }

    /// Names the reader would read back differently are refused: a
    /// comma or newline splits the line, a case starting with `#` would
    /// read as comment lines, and surrounding whitespace would be
    /// trimmed away. Everything the writer accepts reads back as
    /// written.
    #[test]
    fn written_names_read_back_unchanged() {
        let cases = [
            ("p1", "bad,name", false),
            ("p,1", "A", false),
            ("p1", "A\nB", false),
            ("#7", "A", false),
            (" p1", "A", false),
            ("p1 ", "A", false),
            ("p1", " B", false),
            ("p1", "B\t", false),
            ("p1", "B\r", false),
            ("p#1", "#B", true),
            ("p 1", "B C", true),
        ];
        for (case, activity, writable) in cases {
            let mut log = WorkflowLog::new();
            let a = log.intern_activity(activity);
            log.push(Execution::from_ids(case, &[a]).unwrap());
            let mut buf = Vec::new();
            let written = write_log(&log, &mut buf);
            assert_eq!(
                written.is_ok(),
                writable,
                "{case:?}/{activity:?}: {written:?}"
            );
            if let Err(LogError::Parse { message, .. }) = written {
                assert!(message.contains("cannot be written"), "{message}");
                continue;
            }
            let back = read_log(buf.as_slice()).unwrap();
            assert_eq!(back.executions(), log.executions(), "{case:?}/{activity:?}");
            assert_eq!(back.activities().names(), log.activities().names());
        }
    }

    /// The writer before it sorted keys and checked each name once:
    /// two owned records per instance, sorted, every field checked on
    /// every line.
    fn reference_write_log<W: Write>(log: &WorkflowLog, mut writer: W) -> Result<(), LogError> {
        for exec in log.executions() {
            let mut events: Vec<EventRecord> = Vec::with_capacity(exec.len() * 2);
            for inst in exec.instances() {
                let name = log.activities().name(inst.activity);
                events.push(EventRecord::start(exec.id.clone(), name, inst.start));
                events.push(EventRecord::end(
                    exec.id.clone(),
                    name,
                    inst.end,
                    inst.output.clone(),
                ));
            }
            events.sort_by_key(|e| (e.time, matches!(e.kind, EventKind::End)));
            for e in events {
                check_field(&e.process, Field::Process)?;
                check_field(&e.activity, Field::Activity)?;
                match &e.output {
                    Some(o) => {
                        let joined = o.iter().map(i64::to_string).collect::<Vec<_>>().join(";");
                        writeln!(
                            writer,
                            "{},{},{},{},{}",
                            e.process, e.activity, e.kind, e.time, joined
                        )?;
                    }
                    None => writeln!(writer, "{},{},{},{}", e.process, e.activity, e.kind, e.time)?,
                }
            }
        }
        Ok(())
    }

    /// Random executions over five activities — equal timestamps,
    /// instantaneous and overlapping instances, outputs (empty and
    /// negative ones too) — with an occasional unwritable case or
    /// activity name.
    fn arb_write_log() -> impl Strategy<Value = WorkflowLog> {
        let instance = (0u8..5, 0u64..6, 0u64..3, 0u8..6, -2i64..3);
        let exec = proptest::collection::vec(instance, 1..7);
        (proptest::collection::vec(exec, 0..6), 0u8..12, 0u8..12).prop_map(
            |(execs, bad_case, bad_activity)| {
                let mut names = ["A", "B", "C", "D", "E"];
                if let Some(name) = names.get_mut(usize::from(bad_activity)) {
                    *name = [" B", "C,D", "E\n", "F ", "#G"][usize::from(bad_activity)];
                }
                let mut log = WorkflowLog::new();
                let ids: Vec<_> = names.iter().map(|n| log.intern_activity(n)).collect();
                for (k, instances) in execs.into_iter().enumerate() {
                    let id = match (k, bad_case) {
                        (1, 0) => "#1".to_string(),
                        (2, 1) => "p,2".to_string(),
                        (3, 2) => " p3".to_string(),
                        _ => format!("p{k}"),
                    };
                    let instances = instances
                        .into_iter()
                        .map(|(a, start, len, out, v)| ActivityInstance {
                            activity: ids[usize::from(a)],
                            start,
                            end: start + len,
                            output: match out {
                                0 => Some(vec![v]),
                                1 => Some(vec![v, -v, 7]),
                                2 => Some(Vec::new()),
                                _ => None,
                            },
                        })
                        .collect();
                    log.push(Execution::new(id, instances).unwrap());
                }
                log
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The writer writes the reference writer's bytes, and refuses
        /// the same field with the same error after the same prefix.
        #[test]
        fn write_log_matches_reference_writer(log in arb_write_log()) {
            let mut got = Vec::new();
            let got_result = write_log(&log, &mut got);
            let mut want = Vec::new();
            let want_result = reference_write_log(&log, &mut want);
            prop_assert_eq!(format!("{got_result:?}"), format!("{want_result:?}"));
            prop_assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
        }
    }

    const POLICIES: [RecoveryPolicy; 4] = [
        RecoveryPolicy::Strict,
        RecoveryPolicy::Skip { max_errors: 0 },
        RecoveryPolicy::Skip { max_errors: 2 },
        RecoveryPolicy::BestEffort,
    ];

    type Read = (Result<WorkflowLog, LogError>, CodecStats, IngestReport);

    /// The record path the reader replaced, kept as its reference:
    /// drain the source into records, group them by case name and pair
    /// each case (`reference_assemble`), with the same accounting.
    fn reference_read_log(input: &[u8], policy: RecoveryPolicy) -> Read {
        let mut stats = CodecStats::default();
        let mut report = IngestReport::default();
        let mut source = FlowmarkSource::new(input, policy);
        let mut records = Vec::new();
        let drained = loop {
            match source.next_event() {
                Ok(Some((record, _))) => records.push(record),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let bytes = source.stats().bytes_read;
        stats.bytes_read += bytes;
        report.merge(source.report());
        let log = drained.and_then(|()| {
            stats.events_parsed += records.len() as u64;
            let assembly = if policy.is_strict() {
                AssemblyPolicy::Strict
            } else {
                AssemblyPolicy::Lenient
            };
            let mut table = ActivityTable::new();
            let (executions, diagnostics) = reference_assemble(&records, &mut table, assembly)
                .map_err(|e| {
                    report.record_error(bytes, 0, e.to_string());
                    e
                })?;
            report.records_skipped += diagnostics.len() as u64;
            let mut log = WorkflowLog::with_activities(table);
            for exec in executions {
                log.push(exec);
            }
            stats.executions_parsed += log.len() as u64;
            Ok(log)
        });
        (log, stats, report)
    }

    /// `read_log_with` equals the reference read under every policy:
    /// the log (executions, ids, outputs, activity-table order), the
    /// codec stats and the ingest report.
    fn assert_reads_like_reference(input: &[u8]) {
        for policy in POLICIES {
            let mut stats = CodecStats::default();
            let mut report = IngestReport::default();
            let got = read_log_with(input, policy, &mut stats, &mut report);
            let (want, want_stats, want_report) = reference_read_log(input, policy);
            let context = format!("{policy:?} on {:?}", String::from_utf8_lossy(input));
            assert_eq!(stats, want_stats, "{context}");
            assert_eq!(report, want_report, "{context}");
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.executions(), want.executions(), "{context}");
                    assert_eq!(
                        got.activities().names(),
                        want.activities().names(),
                        "{context}"
                    );
                }
                (Err(got), Err(want)) => {
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{context}")
                }
                (got, want) => panic!("{context}: read {got:?}, the reference {want:?}"),
            }
        }
    }

    /// The line parser before it borrowed its fields: a `Vec` of the
    /// split fields, owned strings out.
    fn reference_parse_event_line(line: &str, lineno: usize) -> Result<EventRecord, LogError> {
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() < 4 || parts.len() > 5 {
            return Err(LogError::Parse {
                line: lineno,
                message: format!(
                    "expected 4 or 5 comma-separated fields, got {}",
                    parts.len()
                ),
            });
        }
        let kind: EventKind = parts[2].trim().parse().map_err(|()| LogError::Parse {
            line: lineno,
            message: format!("unknown event type `{}`", parts[2]),
        })?;
        let time: u64 = parts[3].trim().parse().map_err(|_| LogError::Parse {
            line: lineno,
            message: format!("invalid timestamp `{}`", parts[3]),
        })?;
        let output = if parts.len() == 5 {
            if kind == EventKind::Start {
                return Err(LogError::Parse {
                    line: lineno,
                    message: "START events cannot carry an output vector".to_string(),
                });
            }
            let vec: Result<Vec<i64>, _> = parts[4]
                .split(';')
                .map(|v| v.trim().parse::<i64>())
                .collect();
            Some(vec.map_err(|_| LogError::Parse {
                line: lineno,
                message: format!("invalid output vector `{}`", parts[4]),
            })?)
        } else {
            None
        };
        Ok(EventRecord {
            process: parts[0].trim().to_string(),
            activity: parts[1].trim().to_string(),
            kind,
            time,
            output,
        })
    }

    /// One random line: mostly events of four interleaved cases with
    /// out-of-order times, duplicate STARTs, dangling STARTs and ENDs,
    /// padded fields and outputs; some comments, blank, malformed and
    /// non-UTF-8 lines. The flag picks a CRLF line end.
    fn arb_line() -> impl Strategy<Value = (Vec<u8>, bool)> {
        (0u8..20, 0u8..4, 0u8..4, 0u64..8, 0i64..4, 0u8..4).prop_map(
            |(shape, case, activity, time, out, crlf)| {
                let act = char::from(b'A' + activity);
                let line = match shape {
                    0..=6 => format!("p{case},{act},START,{time}"),
                    7..=12 => match out {
                        0 | 1 => format!("p{case},{act},END,{time}"),
                        2 => format!("p{case},{act},END,{time},{out};-{time}"),
                        _ => format!("p{case},{act},END,{time},{out}"),
                    },
                    13 => format!(" p{case} , {act} ,end, {time} "),
                    14 => format!("  p{case},{act},start,{time}\t"),
                    15 => "# comment".to_string(),
                    16 => " ".repeat(usize::from(activity)),
                    17 => [
                        "garbage",
                        "p1,A,BEGIN,0",
                        "p1,A,START,x",
                        "p0,B,START,1,2",
                        "p2,C,END,3,1;x",
                        "a,b,c,d,e,f",
                        "p1,A",
                        "p1,A,END,-1",
                    ][time as usize]
                        .to_string(),
                    _ => return (vec![b'p', b'0', 0xff, b',', b'A', b',', b'S'], crlf == 0),
                };
                (line.into_bytes(), crlf == 0)
            },
        )
    }

    /// The same corpora the codec corruption tests decode: a random log
    /// of `A`, a shuffled subset of `B`..`I` and `J` per execution.
    fn arb_corruptible_log() -> impl Strategy<Value = WorkflowLog> {
        let pool: Vec<String> = (b'B'..=b'I').map(|c| char::from(c).to_string()).collect();
        let exec = proptest::sample::subsequence(pool, 0..=8).prop_shuffle();
        proptest::collection::vec(exec, 1..=8).prop_map(|execs| {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random lines, CRLF or LF ended, whole, missing the final
        /// newline, or cut at a random byte.
        #[test]
        fn reader_matches_record_path_on_random_lines(
            lines in proptest::collection::vec(arb_line(), 0..28),
            ending in 0u8..3,
            cut in 0usize..600,
        ) {
            let mut input = Vec::new();
            for (line, crlf) in &lines {
                if let Ok(text) = std::str::from_utf8(line) {
                    let text = text.trim();
                    if !text.is_empty() && !text.starts_with('#') {
                        let got = parse_event_line(text, 3).map(|fields| {
                            EventRecord {
                                process: fields.process.to_string(),
                                activity: fields.activity.to_string(),
                                kind: fields.kind,
                                time: fields.time,
                                output: fields.output,
                            }
                        });
                        let want = reference_parse_event_line(text, 3);
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    }
                }
                input.extend_from_slice(line);
                input.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
            match ending {
                0 => {}
                1 => {
                    input.pop();
                }
                _ => input.truncate(cut),
            }
            assert_reads_like_reference(&input);
        }

        /// The corruption corpora: truncation, bit flips, garbage
        /// bursts and whole-line corruption of a written log.
        #[test]
        fn reader_matches_record_path_on_corrupted_logs(
            log in arb_corruptible_log(),
            seed in 0u64..1_000,
            flips_per_mille in 0u64..50,
            cut in 0usize..2_048,
        ) {
            let mut clean = Vec::new();
            write_log(&log, &mut clean).unwrap();
            assert_reads_like_reference(&clean);
            let corpora = [
                corrupt_bytes(&clean, &FaultConfig::truncated(cut.min(clean.len()) as u64)),
                corrupt_bytes(&clean, &FaultConfig::bit_flips(flips_per_mille as f64 / 1_000.0, seed)),
                corrupt_bytes(&clean, &FaultConfig { seed, garbage_rate: 0.2, ..FaultConfig::default() }),
                corrupt_whole_lines(&clean, 3, seed).0,
            ];
            for corrupted in &corpora {
                assert_reads_like_reference(corrupted);
            }
        }
    }
}
