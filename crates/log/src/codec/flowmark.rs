//! Flowmark-style CSV event format.
//!
//! One event per line:
//!
//! ```text
//! process,activity,START|END,timestamp[,o1;o2;...]
//! ```
//!
//! The output field is present only on END events that recorded an
//! output vector (semicolon-separated integers). An END whose fifth
//! field is empty carries an empty output vector: [`write_log`] writes
//! `Some(vec![])` as a trailing comma. Blank lines and lines starting
//! with `#` are ignored. Field values may not contain commas; this
//! mirrors the flat audit-trail files the paper's implementation
//! consumed ("lists of event records consisting of the process name, the
//! activity name, the event type, and the timestamp", §8).
//!
//! Lines are decoded by [`FlowmarkSource`], the one Flowmark decoder,
//! with one byte-level line parser. The readers take each line's fields
//! borrowed from the line and intern their names as lines decode; no
//! string is owned per event.
//!
//! [`read_log_with`] (and [`read_compact_with`] over a reader that
//! cannot rewind) keeps a table of every event and groups and pairs the
//! cases over ids once the input ends; cases whose lines arrive grouped
//! are paired without a sort. [`read_compact_with`] over a reader that
//! can rewind, such as a file, pairs each case as soon as the next case
//! starts, as long as every line belongs to the open case or to a case
//! not seen before, so its table holds one case at a time. Where the
//! whole table could decide differently it rewinds and reads the input
//! again through the whole table, whose result, [`CodecStats`] and
//! [`IngestReport`] it returns: when a closed case reappears (an
//! interleaved log does so at its second line), when a case fails
//! strict pairing (a decode error further on would be reported
//! instead), and when lenient pairing drops an event.

use super::{assemble, assembly_policy, CodecStats, IngestReport, RecoveryPolicy};
use crate::stream::FlowmarkSource;
use crate::validate::{EventTable, GroupedCases};
use crate::{CompactLog, EventKind, LogError, WorkflowLog};
use std::io::{BufRead, Seek, SeekFrom, Write};

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
    read_table(reader, policy, stats, report).map(CompactLog::into_log)
}

/// [`read_log_with`] into columns: the same log, stats, report and
/// errors, as a [`CompactLog`]. A reader whose position can be read
/// (`Seek::stream_position`) before the first line is rewound to it if
/// the read must go through the whole table; one whose position cannot
/// be read, such as a pipe, goes through the whole table from the start.
/// See the module docs.
pub fn read_compact_with<R: BufRead + Seek>(
    mut reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<CompactLog, LogError> {
    let Ok(origin) = reader.stream_position() else {
        return read_table(reader, policy, stats, report);
    };
    let mut source = FlowmarkSource::new(reader, policy);
    let mut cases = GroupedCases::new(assembly_policy(policy));
    // `None` once a case hands the read over to the whole table.
    let drained = loop {
        let next = source.next_fields(|fields, _| {
            let (case, activity) = (fields.process, fields.activity);
            cases.push(case, activity, fields.kind, fields.time, fields.output)
        });
        match next {
            Ok(Some(Ok(()))) => {}
            Ok(Some(Err(_))) => break None,
            Ok(None) => break Some(Ok(())),
            Err(e) => break Some(Err(e)),
        }
    };
    let log = match drained {
        Some(Ok(())) => cases.finish().ok(),
        Some(Err(e)) => {
            stats.bytes_read += source.stats().bytes_read;
            report.merge(source.report());
            return Err(e);
        }
        None => None,
    };
    let Some(log) = log else {
        let mut reader = source.into_inner();
        if let Err(e) = reader.seek(SeekFrom::Start(origin)) {
            let e = LogError::from(e);
            report.record_error(origin, 0, e.to_string());
            return Err(e);
        }
        return read_table(reader, policy, stats, report);
    };
    let decoded = source.stats();
    stats.bytes_read += decoded.bytes_read;
    report.merge(source.report());
    stats.events_parsed += decoded.events_parsed;
    stats.executions_parsed += log.len() as u64;
    Ok(log)
}

/// The whole-table read: every event into one table, then grouped and
/// paired.
fn read_table<R: BufRead>(
    reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<CompactLog, LogError> {
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

/// Parses one Flowmark line, its terminator stripped (1-based `lineno`
/// for error reporting), into fields borrowed from `line`; `Ok(None)`
/// for a blank or `#` comment line. [`FlowmarkSource`] is its one
/// caller.
///
/// A line that is not UTF-8 is an error, whatever else is wrong with
/// it; a line already known to be text goes to [`parse_event_text`]
/// directly.
pub(crate) fn parse_event_line(
    line: &[u8],
    lineno: usize,
) -> Result<Option<EventFields<'_>>, LogError> {
    match std::str::from_utf8(line) {
        Ok(line) => parse_event_text(line, lineno),
        Err(_) => Err(super::not_utf8(lineno)),
    }
}

/// [`parse_event_line`] for a line that is text. One pass over the
/// line's bytes finds the commas; the line and each field are trimmed
/// by testing their boundary bytes ([`trim`]), the kind is matched as
/// bytes and the timestamp is parsed with checked decimal arithmetic
/// ([`parse_u64`]). What is accepted, and every error's text, are
/// those of `str::trim`, `EventKind::from_str` and `str::parse`. An END
/// whose fifth field is empty carries an empty output vector.
pub(crate) fn parse_event_text(
    line: &str,
    lineno: usize,
) -> Result<Option<EventFields<'_>>, LogError> {
    let error = |message: String| LogError::Parse {
        line: lineno,
        message,
    };
    let line = trim(line);
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
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
        return Err(error(format!(
            "expected 4 or 5 comma-separated fields, got {count}"
        )));
    }
    let [process, activity, kind, time, output] = parts;
    let kind = match trim(kind).as_bytes() {
        b"START" | b"start" | b"Start" => EventKind::Start,
        b"END" | b"end" | b"End" => EventKind::End,
        _ => return Err(error(format!("unknown event type `{kind}`"))),
    };
    let Some(time) = parse_u64(trim(time)) else {
        return Err(error(format!("invalid timestamp `{time}`")));
    };
    let output = if count == 5 {
        if kind == EventKind::Start {
            return Err(error(
                "START events cannot carry an output vector".to_string(),
            ));
        }
        let Some(vec) = parse_output_vector(output) else {
            return Err(error(format!("invalid output vector `{output}`")));
        };
        Some(vec)
    } else {
        None
    };
    Ok(Some(EventFields {
        process: trim(process),
        activity: trim(activity),
        kind,
        time,
        output,
    }))
}

/// An output vector: integers separated by `;`, each trimmed. A field
/// that is empty or only whitespace is the empty vector, which is what
/// [`write_log`] writes for one; `None` if any entry is not an `i64`.
/// Flowmark's fifth field and XES's `procmine:output` both read
/// through it.
pub(crate) fn parse_output_vector(field: &str) -> Option<Vec<i64>> {
    let values = trim(field);
    if values.is_empty() {
        return Some(Vec::new());
    }
    values.split(';').map(|v| trim(v).parse().ok()).collect()
}

/// `s` without its leading and trailing whitespace: what `str::trim`
/// returns, found by testing boundary bytes. A field that starts and
/// ends with a printable, non-space ASCII byte, as nearly every field
/// does, comes back at once; otherwise [`trim_edges`] strips it.
#[inline]
fn trim(s: &str) -> &str {
    let printable = |b: &u8| (0x21..=0x7E).contains(b);
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(first), Some(last)) if printable(first) && printable(last) => s,
        _ => trim_edges(s),
    }
}

/// [`trim`] byte by byte: an ASCII boundary byte is tested against
/// [`is_ascii_space`]; only a non-ASCII boundary is decoded to a `char`
/// and tested with [`char::is_whitespace`].
fn trim_edges(mut s: &str) -> &str {
    while let Some(&b) = s.as_bytes().first() {
        let width = if b.is_ascii() {
            if !is_ascii_space(b) {
                break;
            }
            1
        } else {
            match s.chars().next() {
                Some(c) if c.is_whitespace() => c.len_utf8(),
                _ => break,
            }
        };
        s = &s[width..];
    }
    while let Some(&b) = s.as_bytes().last() {
        let width = if b.is_ascii() {
            if !is_ascii_space(b) {
                break;
            }
            1
        } else {
            match s.chars().next_back() {
                Some(c) if c.is_whitespace() => c.len_utf8(),
                _ => break,
            }
        };
        s = &s[..s.len() - width];
    }
    s
}

/// The ASCII bytes [`char::is_whitespace`] accepts: tab, line feed,
/// vertical tab, form feed, carriage return and space.
/// `u8::is_ascii_whitespace` leaves out the vertical tab.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

/// `s` as a decimal `u64` under `str::parse`'s rules: at most one
/// leading `+`, then one or more ASCII digits, refused on overflow.
fn parse_u64(s: &str) -> Option<u64> {
    let digits = s.as_bytes();
    let digits = digits.strip_prefix(b"+").unwrap_or(digits);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
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
            ("p1,A,START,0,", "an empty output on a START"),
            ("p1,A,END,0,1;x", "bad output vector"),
            ("p1,A,END,0,;", "a lone `;`"),
        ] {
            assert!(
                matches!(
                    parse_event_line(line.as_bytes(), 7),
                    Err(LogError::Parse { line: 7, .. })
                ),
                "{why}: {line:?}"
            );
        }
    }

    /// An END whose fifth field is empty, or only whitespace, carries
    /// an empty output vector: what `write_log` writes for one.
    #[test]
    fn empty_output_field_is_an_empty_vector() {
        for line in [
            "p1,A,END,1,",
            "p1,A,END,1, \t",
            " p1 , A , END , 1 ,\u{3000}",
        ] {
            let fields = parse_event_line(line.as_bytes(), 1).unwrap().unwrap();
            assert_eq!((fields.process, fields.activity), ("p1", "A"));
            assert_eq!(fields.output, Some(Vec::new()), "{line:?}");
        }
    }

    /// The byte tests agree with the `str` functions they stand in for.
    #[test]
    fn byte_tests_match_the_str_functions() {
        for b in 0..=127u8 {
            assert_eq!(is_ascii_space(b), char::from(b).is_whitespace(), "{b:#x}");
        }
        for s in [
            "",
            " ",
            "a",
            " a ",
            "\x0Ba\x0C",
            "\u{85}a\u{A0}",
            "\u{2003}\u{3000}",
            "\u{3000}活动\u{2003}",
            "é",
            " é ",
            "a\u{1F600}",
            "\u{1F600} ",
            "\x01a\x7F",
            "~ ",
            "\t!",
        ] {
            assert_eq!(trim(s), s.trim(), "{s:?}");
            assert_eq!(trim_edges(s), s.trim(), "{s:?}");
        }
        for s in [
            "",
            "+",
            "-",
            "0",
            "+7",
            "-7",
            "++7",
            "+-7",
            "007",
            "7a",
            " 7",
            "1_0",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "+18446744073709551615",
            "٣",
        ] {
            assert_eq!(parse_u64(s), s.parse::<u64>().ok(), "{s:?}");
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

    /// An instance as Flowmark carries it: activity name, start, end,
    /// output.
    type Carried = (String, u64, u64, Option<Vec<i64>>);

    /// Each execution as Flowmark carries it: its id and its instances,
    /// sorted. Lines do not name instances, so the reader closes an
    /// activity's earliest open START with each of its ENDs: per
    /// activity, the k-th START in written order pairs with the k-th
    /// END, whose output it takes.
    fn carried(log: &WorkflowLog) -> Vec<(String, Vec<Carried>)> {
        let names = log.activities();
        log.executions()
            .iter()
            .map(|exec| {
                let instances = exec.instances();
                let mut activities: Vec<_> = instances.iter().map(|i| i.activity).collect();
                activities.sort_unstable();
                activities.dedup();
                let mut paired = Vec::new();
                for a in activities {
                    let of_a = || (0..instances.len()).filter(move |&k| instances[k].activity == a);
                    let mut starts: Vec<(u64, usize)> =
                        of_a().map(|k| (instances[k].start, k)).collect();
                    let mut ends: Vec<(u64, usize)> =
                        of_a().map(|k| (instances[k].end, k)).collect();
                    starts.sort_unstable();
                    ends.sort_unstable();
                    for (&(start, _), &(end, k)) in starts.iter().zip(&ends) {
                        let output = instances[k].output.clone();
                        paired.push((names.name(a).to_string(), start, end, output));
                    }
                }
                paired.sort();
                (exec.id.clone(), paired)
            })
            .collect()
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

        /// What `write_log` writes, `read_log` reads back as the log
        /// says, as far as Flowmark carries it (see `carried`): the
        /// executions in order with their ids, intervals and outputs,
        /// empty output vectors included, and an activity table in the
        /// order the written STARTs name activities. Logs the writer
        /// refuses are skipped.
        #[test]
        fn written_logs_read_back(log in arb_write_log()) {
            let mut buf = Vec::new();
            if write_log(&log, &mut buf).is_err() {
                return;
            }
            let back = read_log(buf.as_slice()).unwrap();
            prop_assert_eq!(carried(&back), carried(&log));
            let mut first_started: Vec<&str> = Vec::new();
            for inst in log.executions().iter().flat_map(|e| e.instances()) {
                let name = log.activities().name(inst.activity);
                if !first_started.contains(&name) {
                    first_started.push(name);
                }
            }
            prop_assert_eq!(back.activities().names(), first_started);
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

    /// A reader whose position cannot be read, as a pipe's cannot.
    struct Unseekable<'a>(&'a [u8]);

    impl std::io::Read for Unseekable<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl BufRead for Unseekable<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            Ok(self.0)
        }

        fn consume(&mut self, amt: usize) {
            self.0 = &self.0[amt..];
        }
    }

    impl Seek for Unseekable<'_> {
        fn seek(&mut self, _: SeekFrom) -> std::io::Result<u64> {
            Err(std::io::ErrorKind::Unsupported.into())
        }
    }

    /// A read's log in columns (or its error, rendered), stats and
    /// report.
    type CompactRead = (Result<CompactLog, String>, CodecStats, IngestReport);

    /// `read_compact_with` over a reader that can rewind and over one
    /// that cannot, each against `read_log_with` converted to columns:
    /// the same log, errors, stats and report under every policy.
    fn assert_columns_read_like_nested(input: &[u8]) {
        for policy in POLICIES {
            let mut stats = CodecStats::default();
            let mut report = IngestReport::default();
            let nested = read_log_with(input, policy, &mut stats, &mut report);
            let want: CompactRead = (
                nested
                    .map(|log| CompactLog::from_log(&log))
                    .map_err(|e| format!("{e:?}")),
                stats,
                report,
            );
            let read = |reader: &mut dyn FnMut(
                &mut CodecStats,
                &mut IngestReport,
            ) -> Result<CompactLog, LogError>| {
                let mut stats = CodecStats::default();
                let mut report = IngestReport::default();
                let log = reader(&mut stats, &mut report).map_err(|e| format!("{e:?}"));
                (log, stats, report)
            };
            let seekable = read(&mut |stats, report| {
                read_compact_with(std::io::Cursor::new(input), policy, stats, report)
            });
            let pipe = read(&mut |stats, report| {
                read_compact_with(Unseekable(input), policy, stats, report)
            });
            let context = format!("{policy:?} on {:?}", String::from_utf8_lossy(input));
            assert_eq!(seekable, want, "rewindable: {context}");
            assert_eq!(pipe, want, "pipe: {context}");
        }
    }

    /// `read_log_with` equals the reference read under every policy:
    /// the log (executions, ids, outputs, activity-table order), the
    /// codec stats and the ingest report. So does the columns read.
    fn assert_reads_like_reference(input: &[u8]) {
        assert_columns_read_like_nested(input);
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

    /// The line parser before it borrowed its fields and worked on
    /// bytes: a `Vec` of the split fields, `str::trim` and `str::parse`,
    /// owned strings out. It takes the line already trimmed and known
    /// to be neither blank nor a comment.
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
            // An empty fifth field is the empty vector `write_log`
            // writes; the parser once refused it.
            let vec: Result<Vec<i64>, _> = if parts[4].trim().is_empty() {
                Ok(Vec::new())
            } else {
                parts[4]
                    .split(';')
                    .map(|v| v.trim().parse::<i64>())
                    .collect()
            };
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

    /// Whitespace at field and line edges: what `str::trim` strips,
    /// ASCII and not (`\x0B`, which `u8::is_ascii_whitespace` leaves
    /// out, included).
    const EDGE_SPACES: [&str; 8] = [
        "", "\u{85}", "\u{A0}", "\u{2003}", "\u{3000}", "\x0B", "\x0C", " \t",
    ];
    /// Activity names: non-ASCII ones, and whitespace inside a name.
    const EDGE_NAMES: [&str; 6] = ["é", "活动", "a\u{A0}b", "a\x0Bb", "x\u{3000}y", "B"];
    /// Kinds: accepted spellings, padded ones and a refused mixed case.
    const EDGE_KINDS: [&str; 6] = ["start", "Start", "sTART", " END ", "END", "\u{A0}End\x0C"];
    /// Timestamps at the edges of `str::parse::<u64>`.
    const EDGE_STAMPS: [&str; 8] = [
        "+7",
        "-7",
        "007",
        "+",
        "",
        "18446744073709551615",
        "18446744073709551616",
        "\u{2003}5\x0B",
    ];
    /// Output fields: padded values, an empty value, an empty field and
    /// a lone `;`.
    const EDGE_OUTPUTS: [&str; 5] = [" 1 ; -2 ", "1;;2", "", ";", "\u{85}3\u{3000}"];

    /// One random line: mostly events of four interleaved cases with
    /// out-of-order times, duplicate STARTs, dangling STARTs and ENDs,
    /// padded fields and outputs; some comments, blank, malformed and
    /// non-UTF-8 lines, and lines built from the `EDGE_*` fields with
    /// 3 to 6 fields. The flag picks a CRLF line end.
    fn arb_line() -> impl Strategy<Value = (Vec<u8>, bool)> {
        let edges = (0usize..8, 0usize..6, 0usize..6, 0usize..8, 0usize..5);
        ((0u8..26, 0u8..4, 0u8..4, 0u64..8, 0i64..4, 0u8..4), edges).prop_map(
            |((shape, case, activity, time, out, crlf), (space, name, kind, stamp, output))| {
                let act = char::from(b'A' + activity);
                let sp = EDGE_SPACES[space];
                let (name, kind) = (EDGE_NAMES[name], EDGE_KINDS[kind]);
                let (stamp, output) = (EDGE_STAMPS[stamp], EDGE_OUTPUTS[output]);
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
                    18 | 19 => format!("{sp}p{case}{sp},{sp}{name}{sp},{kind},{sp}{stamp}"),
                    20 | 21 => format!("p{case},{name}{sp},{kind},{stamp},{sp}{output}{sp}"),
                    22 => format!("{sp}p{case},{name},{kind}{sp}"),
                    23 => format!("p{case},{name},{kind},{stamp},{output},{sp}"),
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
                let got = parse_event_line(line, 3).map(|fields| fields.map(EventRecord::from));
                let want = match std::str::from_utf8(line).map(str::trim) {
                    Err(_) => Err(LogError::Parse {
                        line: 3,
                        message: "line is not valid UTF-8".to_string(),
                    }),
                    Ok(text) if text.is_empty() || text.starts_with('#') => Ok(None),
                    Ok(text) => reference_parse_event_line(text, 3).map(Some),
                };
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
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

        /// Texts that exercise the grouped pairing and each hand-over:
        /// see [`arb_case_layout`].
        #[test]
        fn columns_read_pairs_grouped_cases_like_the_whole_table(
            text in arb_case_layout(),
        ) {
            assert_reads_like_reference(&text);
        }
    }

    /// One case's event lines: instances of `A`..`D` over a few
    /// timestamps, so starts and ends often tie, with an END's output
    /// now and then; `dangling` drops one instance's END (1) or START
    /// (2).
    fn case_lines(case: usize, instances: &[(u8, u64, u64, bool)], dangling: u8) -> Vec<String> {
        let mut events = Vec::new();
        for (i, &(activity, start, length, output)) in instances.iter().enumerate() {
            let act = char::from(b'A' + activity);
            let (keep_start, keep_end) = match dangling {
                1 if i == 0 => (true, false),
                2 if i == 0 => (false, true),
                _ => (true, true),
            };
            if keep_start {
                events.push((start, 0, format!("c{case},{act},START,{start}")));
            }
            if keep_end {
                let end = start + length;
                let line = if output {
                    format!("c{case},{act},END,{end},{case};{end}")
                } else {
                    format!("c{case},{act},END,{end}")
                };
                events.push((end, 1, line));
            }
        }
        // Time order, START before END at one instant, and log order
        // among equals: most logs are written so.
        events.sort_by_key(|&(time, is_end, _)| (time, is_end));
        events.into_iter().map(|(_, _, line)| line).collect()
    }

    /// Flowmark texts of up to six cases whose lines arrive grouped by
    /// case, possibly with one closed case reappearing (right after the
    /// next case starts, in the middle, or on the last line), or fully
    /// interleaved; cases may hold dangling STARTs or ENDs and equal
    /// timestamps; a garbage line may follow them, so a decode error
    /// can come after an early case's pairing error.
    fn arb_case_layout() -> impl Strategy<Value = Vec<u8>> {
        let output = (0u8..5).prop_map(|o| o == 0);
        let instance = (0u8..4, 0u64..4, 0u64..3, output);
        // Mostly clean cases; one in eight drops an END, one a START.
        let dangling = (0u8..8).prop_map(|d| d.saturating_sub(5));
        let case = (proptest::collection::vec(instance, 1..5), dangling);
        // A garbage line in one text of four.
        let garbage = (0usize..4_000).prop_map(|g| (g < 1_000).then_some(g));
        (
            proptest::collection::vec(case, 1..7),
            0u8..4,
            0usize..1_000,
            0usize..1_000,
            garbage,
        )
            .prop_map(|(cases, layout, at, pick, garbage)| {
                let per_case: Vec<Vec<String>> = cases
                    .iter()
                    .enumerate()
                    .map(|(c, (instances, dangling))| case_lines(c, instances, *dangling))
                    .collect();
                let mut lines: Vec<String> = per_case.concat();
                match layout {
                    // Grouped.
                    0 => {}
                    // One closed case reappears with one more instance,
                    // right after the next case's first line, in the
                    // middle of what follows, or on the last lines.
                    1 if per_case.len() > 1 => {
                        let case = pick % (per_case.len() - 1);
                        let next_start: usize = per_case[..=case].iter().map(Vec::len).sum();
                        let to = match at % 3 {
                            0 => next_start + 1,
                            1 => next_start + 1 + (lines.len() - next_start - 1) / 2,
                            _ => lines.len(),
                        };
                        let time = (pick / 8 % 5) as u64;
                        lines.insert(to, format!("c{case},D,END,{}", time + 1));
                        lines.insert(to, format!("c{case},D,START,{time}"));
                    }
                    // Fully interleaved: one line of each case in turn.
                    2 => {
                        let mut queues: Vec<std::collections::VecDeque<String>> =
                            per_case.iter().cloned().map(Into::into).collect();
                        lines.clear();
                        while queues.iter().any(|q| !q.is_empty()) {
                            for q in &mut queues {
                                lines.extend(q.pop_front());
                            }
                        }
                    }
                    // Grouped, with a blank line and a comment.
                    _ => {
                        let k = at % (lines.len() + 1);
                        lines.insert(k, String::new());
                        lines.insert(k, "# between".to_string());
                    }
                }
                if let Some(g) = garbage {
                    let k = g % (lines.len() + 1);
                    lines.insert(k, "garbage".to_string());
                }
                let mut text = lines.join("\n");
                text.push('\n');
                text.into_bytes()
            })
    }
}
