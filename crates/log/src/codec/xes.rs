//! XES codec — the IEEE 1849 XML interchange format used by the
//! process-mining ecosystem (ProM, PM4Py, Disco, …).
//!
//! Writing `procmine` logs as XES lets downstream users cross-check
//! mined models against other tools; reading XES lets real-world event
//! logs flow into these miners. The implementation is self-contained: a
//! minimal XML pull parser (elements, attributes, comments,
//! declarations, entity escapes) and civil-date conversion, covering the
//! XES subset the log model needs:
//!
//! * one `<trace>` per execution, named by `concept:name`;
//! * one `<event>` per START/END, with `concept:name` (activity),
//!   `lifecycle:transition` (`start` / `complete`) and `time:timestamp`
//!   (ISO 8601; the log's integer ticks are interpreted as milliseconds
//!   since the Unix epoch);
//! * instantaneous instances are written as a single `complete` event
//!   and read back as `start == end`, matching the paper's list-form
//!   simplification;
//! * output vectors ride on `complete` events as a `procmine:output`
//!   string attribute (`"1;2;3"`), a documented extension.
//!
//! # Fast path
//!
//! The parser is zero-copy: the whole document is validated as UTF-8
//! once up front, then a byte-offset `Scanner` slices names and
//! attribute values straight out of the input. All XML delimiters are
//! ASCII, so byte search never lands inside a multi-byte character;
//! values are borrowed (`Cow::Borrowed`) unless they contain an entity
//! (`&…;`), which is the only case that allocates. Errors keep the
//! historical contract — byte offsets, 1-based line:column (column in
//! characters), [`LogError::UnexpectedEof`] at clean truncation — by
//! computing positions lazily on the error paths only.
//!
//! Each `<event>` is interned into the same table of events the
//! Flowmark reader fills, as the event closes and only once it has
//! validated: its case and activity names become ids, START/END balance
//! is kept per (case id, activity id), and no string is owned per
//! event. The previous character-based implementation is preserved as
//! [`xes_reference`](super::xes_reference) and pinned to this one by
//! differential tests.

use super::{assemble, CodecStats, IngestReport, RecoveryPolicy};
use crate::validate::EventTable;
use crate::{EventKind, LogError, WorkflowLog};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{BufRead, Write};

// ---------------------------------------------------------------------------
// Civil-date conversion (proleptic Gregorian, no leap seconds).
// ---------------------------------------------------------------------------

/// Days from civil date to days since 1970-01-01 (Howard Hinnant's
/// `days_from_civil` algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = y - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (m + 9) % 12; // Mar=0 … Feb=11
    let doy = (153 * mp as u64 + 2) / 5 + d as u64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe as i64 - 719468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = (z - era * 146097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (y + i64::from(m <= 2), m, d)
}

/// Appends `millis` since the Unix epoch to `out` as
/// `YYYY-MM-DDThh:mm:ss.mmm+00:00`.
fn push_iso8601(out: &mut String, millis: u64) {
    use std::fmt::Write as _;
    let total_secs = millis / 1000;
    let ms = millis % 1000;
    let days = (total_secs / 86_400) as i64;
    let secs_of_day = total_secs % 86_400;
    let (y, mo, d) = civil_from_days(days);
    let (h, mi, s) = (
        secs_of_day / 3600,
        (secs_of_day % 3600) / 60,
        secs_of_day % 60,
    );
    let _ = write!(
        out,
        "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}.{ms:03}+00:00"
    );
}

/// Formats milliseconds since the Unix epoch as
/// `YYYY-MM-DDThh:mm:ss.mmm+00:00`.
pub fn millis_to_iso8601(millis: u64) -> String {
    let mut out = String::with_capacity(29);
    push_iso8601(&mut out, millis);
    out
}

/// Parses an ISO 8601 timestamp to milliseconds since the Unix epoch.
/// Accepts `YYYY-MM-DDThh:mm:ss[.fff][Z|±hh:mm]`; the `T` separator may
/// also be lowercase `t` or a space, and the zone designator may be
/// lowercase `z`. The year may have more than four digits, but then no
/// leading zero (the `xs:dateTime` expanded year), so every tick of the
/// log clock that [`millis_to_iso8601`] formats parses back. Offsets are
/// applied. Timestamps before the epoch or after the clock's last tick
/// (`u64::MAX` ms) are rejected.
///
/// The leap-second spelling `:60` is **clamped to `:59`** (fractional
/// part preserved): the log clock is POSIX-like and has no leap
/// seconds, and [`millis_to_iso8601`] never emits `:60`, so
/// `parse ∘ format` is the identity and `format ∘ parse` is idempotent
/// — XES round-trips are byte-stable.
pub fn iso8601_to_millis(text: &str) -> Result<u64, String> {
    let fail = || format!("invalid ISO 8601 timestamp `{text}`");
    let year_len = text.find('-').ok_or_else(fail)?;
    let year = &text[..year_len];
    if year_len < 4
        || (year_len > 4 && year.starts_with('0'))
        || !year.bytes().all(|b| b.is_ascii_digit())
    {
        return Err(fail());
    }
    // Nine digits already reach past the clock's last tick (year
    // 584556019); longer years would overflow the day count.
    if year_len > 9 {
        return Err(format!(
            "timestamp `{text}` is past the end of the log clock"
        ));
    }
    let y: i64 = year.parse().map_err(|_| fail())?;
    // The fixed-width rest, indexed as if the year had four digits.
    let rest = &text[year_len - 4..];
    let bytes = rest.as_bytes();
    if bytes.len() < 19 || bytes[7] != b'-' || !matches!(bytes[10], b'T' | b't' | b' ') {
        return Err(fail());
    }
    let num = |range: std::ops::Range<usize>| -> Result<i64, String> {
        rest.get(range)
            .and_then(|s| s.parse().ok())
            .ok_or_else(fail)
    };
    let (mo, d) = (num(5..7)? as u32, num(8..10)? as u32);
    if !(1..=12).contains(&mo) {
        return Err(fail());
    }
    let leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
    let days_in_month = match mo {
        4 | 6 | 9 | 11 => 30,
        2 if leap => 29,
        2 => 28,
        _ => 31,
    };
    if d == 0 || d > days_in_month {
        return Err(format!(
            "invalid ISO 8601 timestamp `{text}`: day {d} out of range for {y:04}-{mo:02}"
        ));
    }
    let (h, mi, s) = (num(11..13)?, num(14..16)?, num(17..19)?);
    if bytes[13] != b':' || bytes[16] != b':' || h > 23 || mi > 59 || s > 60 {
        return Err(fail());
    }
    // Leap second: fold into the last ordinary second of the minute.
    let s = s.min(59);

    let mut pos = 19;
    let mut ms: i64 = 0;
    if bytes.get(pos) == Some(&b'.') {
        let start = pos + 1;
        let mut end = start;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end == start {
            return Err(fail());
        }
        // Truncate or pad fractional seconds to milliseconds.
        let frac = &rest[start..end.min(start + 3)];
        ms = frac.parse::<i64>().map_err(|_| fail())?;
        for _ in frac.len()..3 {
            ms *= 10;
        }
        pos = end;
    }

    let mut offset_minutes: i64 = 0;
    match bytes.get(pos) {
        None => {}
        Some(b'Z' | b'z') if pos + 1 == bytes.len() => {}
        Some(sign @ (b'+' | b'-')) => {
            if bytes.len() != pos + 6 || bytes[pos + 3] != b':' {
                return Err(fail());
            }
            let oh = num(pos + 1..pos + 3)?;
            let om = num(pos + 4..pos + 6)?;
            offset_minutes = oh * 60 + om;
            if *sign == b'+' {
                offset_minutes = -offset_minutes; // ahead of UTC → subtract
            }
        }
        Some(_) => return Err(fail()),
    }

    // Past `i64::MAX` ms the total needs more than 64 signed bits.
    let days = i128::from(days_from_civil(y, mo, d));
    let secs = days * 86_400 + i128::from(h * 3600 + mi * 60 + s + offset_minutes * 60);
    let total = secs * 1000 + i128::from(ms);
    u64::try_from(total).map_err(|_| {
        if total < 0 {
            format!("timestamp `{text}` is before the Unix epoch")
        } else {
            format!("timestamp `{text}` is past the end of the log clock")
        }
    })
}

// ---------------------------------------------------------------------------
// Zero-copy XML pull scanner.
// ---------------------------------------------------------------------------

/// First position of `needle` in `hay`. `Iterator::position` over bytes
/// compiles to a vectorized scan, which is all the memchr this needs.
#[inline]
fn find_byte(needle: u8, hay: &[u8]) -> Option<usize> {
    hay.iter().position(|&b| b == needle)
}

/// An XML tag event. Borrowed from the document text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag<'a> {
    Open { name: &'a str, self_closing: bool },
    Close(&'a str),
}

/// The only two attributes the XES subset reads (`key="…"`/`value="…"`
/// on `<string>`-family elements). Captured during tag parsing so
/// uninteresting attributes are scanned but never stored.
#[derive(Default)]
struct KeyValue<'a> {
    key: Option<Cow<'a, str>>,
    value: Option<Cow<'a, str>>,
}

/// Byte-offset scanner over a UTF-8 document. `pos` always sits on a
/// character boundary: every delimiter searched for is ASCII, and the
/// Unicode-aware paths (names, whitespace) advance by whole `char`s.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0 }
    }

    /// 1-based line, 1-based column (in characters), and byte offset of
    /// the current position. O(pos), but only paid on the error paths.
    fn position(&self) -> (usize, usize, u64) {
        let end = self.pos.min(self.text.len());
        let mut line = 1usize;
        let mut line_start = 0usize;
        for (i, &b) in self.text.as_bytes()[..end].iter().enumerate() {
            if b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        let column = 1 + self.text[line_start..end].chars().count();
        (line, column, end as u64)
    }

    /// An error at the current position: [`LogError::UnexpectedEof`]
    /// when input ran out (truncation), [`LogError::Xml`] with
    /// line/column otherwise.
    fn error(&self, message: impl Into<String>) -> LogError {
        let (line, column, byte_offset) = self.position();
        if self.pos >= self.text.len() {
            LogError::UnexpectedEof {
                byte_offset,
                message: message.into(),
            }
        } else {
            LogError::Xml {
                line,
                column,
                message: message.into(),
            }
        }
    }

    /// After a syntax error in a recovering read: step past the
    /// offending character so the pull loop re-syncs at the next `<`.
    /// Always advances, so a corrupt document cannot loop forever.
    fn resync(&mut self) {
        let step = self.text[self.pos.min(self.text.len())..]
            .chars()
            .next()
            .map_or(1, char::len_utf8);
        self.pos += step;
    }

    fn starts_with(&self, pat: &[u8]) -> bool {
        self.text.as_bytes()[self.pos.min(self.text.len())..].starts_with(pat)
    }

    fn consume(&mut self, b: u8) -> bool {
        if self.pos < self.text.len() && self.text.as_bytes()[self.pos] == b {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), LogError> {
        let bytes = self.text.as_bytes();
        let pat = end.as_bytes();
        let mut i = self.pos.min(bytes.len());
        while i < bytes.len() {
            match find_byte(pat[0], &bytes[i..]) {
                Some(k) => {
                    i += k;
                    if bytes[i..].starts_with(pat) {
                        self.pos = i + pat.len();
                        return Ok(());
                    }
                    i += 1;
                }
                None => break,
            }
        }
        self.pos = bytes.len();
        Err(self.error(format!("unterminated construct (expected `{end}`)")))
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b.is_ascii() {
                if matches!(b, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ') {
                    self.pos += 1;
                } else {
                    break;
                }
            } else {
                // Unicode whitespace: match `char::is_whitespace`.
                match self.text[self.pos..].chars().next() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
    }

    fn read_name(&mut self) -> Result<&'a str, LogError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b.is_ascii() {
                if b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.') {
                    self.pos += 1;
                } else {
                    break;
                }
            } else {
                // Unicode name characters: match `char::is_alphanumeric`.
                match self.text[self.pos..].chars().next() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// Next element-open or element-close event, skipping text,
    /// comments, declarations and processing instructions. `key`/`value`
    /// attributes of an opening tag are captured into `kv`; all other
    /// attributes are scanned (and validated) but dropped.
    fn next(&mut self, kv: &mut KeyValue<'a>) -> Result<Option<Tag<'a>>, LogError> {
        let bytes = self.text.as_bytes();
        self.pos = self.pos.min(bytes.len());
        loop {
            // Skip character data.
            match find_byte(b'<', &bytes[self.pos..]) {
                Some(i) => self.pos += i,
                None => {
                    self.pos = bytes.len();
                    return Ok(None);
                }
            }
            // Comment / declaration / PI?
            if self.starts_with(b"<!--") {
                self.skip_until("-->")?;
                continue;
            }
            if self.starts_with(b"<?") {
                self.skip_until("?>")?;
                continue;
            }
            if self.starts_with(b"<!") {
                self.skip_until(">")?;
                continue;
            }
            if self.starts_with(b"</") {
                self.pos += 2;
                let name = self.read_name()?;
                self.skip_ws();
                if !self.consume(b'>') {
                    return Err(self.error("malformed closing tag"));
                }
                return Ok(Some(Tag::Close(name)));
            }
            // Opening tag.
            self.pos += 1;
            let name = self.read_name()?;
            kv.key = None;
            kv.value = None;
            loop {
                self.skip_ws();
                if self.consume(b'>') {
                    return Ok(Some(Tag::Open {
                        name,
                        self_closing: false,
                    }));
                }
                if self.starts_with(b"/>") {
                    self.pos += 2;
                    return Ok(Some(Tag::Open {
                        name,
                        self_closing: true,
                    }));
                }
                let key = self.read_name()?;
                self.skip_ws();
                if !self.consume(b'=') {
                    return Err(self.error(format!("attribute `{key}` missing `=`")));
                }
                self.skip_ws();
                let quote = if self.consume(b'"') {
                    b'"'
                } else if self.consume(b'\'') {
                    b'\''
                } else {
                    return Err(self.error(format!("attribute `{key}` missing quote")));
                };
                let start = self.pos;
                match find_byte(quote, &bytes[self.pos..]) {
                    Some(i) => self.pos += i,
                    None => {
                        self.pos = bytes.len();
                        return Err(self.error("unterminated attribute value"));
                    }
                }
                let raw = &self.text[start..self.pos];
                self.pos += 1; // closing quote
                let value = if raw.as_bytes().contains(&b'&') {
                    Cow::Owned(unescape(raw).map_err(|m| self.error(m))?)
                } else {
                    Cow::Borrowed(raw)
                };
                match key {
                    "key" => kv.key = Some(value),
                    "value" => kv.value = Some(value),
                    _ => {}
                }
            }
        }
    }
}

/// Appends `s` to `out` with XML entity escaping. The escape-free case
/// (overwhelmingly common) is a single bulk copy.
fn push_escaped(out: &mut String, s: &str) {
    if !s
        .bytes()
        .any(|b| matches!(b, b'&' | b'<' | b'>' | b'"' | b'\''))
    {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

/// Resolves entity escapes; the `Err` message is positioned by the
/// caller (via [`Scanner::error`]).
pub(crate) fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i..];
        let semi = rest
            .find(';')
            .ok_or_else(|| format!("unterminated entity in `{s}`"))?;
        let entity = &rest[1..semi];
        out.push(match entity {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            other => return Err(format!("unsupported entity `&{other};`")),
        });
        // Skip the entity body.
        for _ in 0..semi {
            chars.next();
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// XES writing.
// ---------------------------------------------------------------------------

const XES_HEADER: &str = concat!(
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
    "<log xes.version=\"1.0\" xes.features=\"nested-attributes\" openxes.version=\"procmine\">\n",
    "  <extension name=\"Concept\" prefix=\"concept\" uri=\"http://www.xes-standard.org/concept.xesext\"/>\n",
    "  <extension name=\"Lifecycle\" prefix=\"lifecycle\" uri=\"http://www.xes-standard.org/lifecycle.xesext\"/>\n",
    "  <extension name=\"Time\" prefix=\"time\" uri=\"http://www.xes-standard.org/time.xesext\"/>\n",
);

/// Writes a log as XES. The document is built in memory and written
/// with a single `write_all`, so `w` needs no buffering of its own.
pub fn write_log<W: Write>(log: &WorkflowLog, mut w: W) -> Result<(), LogError> {
    use std::fmt::Write as _;
    let instances: usize = log.executions().iter().map(|e| e.instances().len()).sum();
    let mut out = String::with_capacity(XES_HEADER.len() + 16 + log.len() * 64 + instances * 300);
    out.push_str(XES_HEADER);
    let mut events: Vec<(u64, bool, usize)> = Vec::new(); // (time, is_end, instance)
    for exec in log.executions() {
        out.push_str("  <trace>\n    <string key=\"concept:name\" value=\"");
        push_escaped(&mut out, &exec.id);
        out.push_str("\"/>\n");
        // Emit events in time order (START before END at equal stamps).
        events.clear();
        for (i, inst) in exec.instances().iter().enumerate() {
            if inst.start == inst.end {
                events.push((inst.end, true, i)); // single complete event
            } else {
                events.push((inst.start, false, i));
                events.push((inst.end, true, i));
            }
        }
        events.sort_by_key(|&(t, is_end, _)| (t, is_end));
        for &(time, is_end, i) in &events {
            let inst = &exec.instances()[i];
            let name = log.activities().name(inst.activity);
            out.push_str("    <event>\n      <string key=\"concept:name\" value=\"");
            push_escaped(&mut out, name);
            out.push_str("\"/>\n      <string key=\"lifecycle:transition\" value=\"");
            out.push_str(if is_end { "complete" } else { "start" });
            out.push_str("\"/>\n      <date key=\"time:timestamp\" value=\"");
            push_iso8601(&mut out, time);
            out.push_str("\"/>\n");
            if is_end {
                if let Some(output) = &inst.output {
                    out.push_str("      <string key=\"procmine:output\" value=\"");
                    for (k, v) in output.iter().enumerate() {
                        if k > 0 {
                            out.push(';');
                        }
                        let _ = write!(out, "{v}");
                    }
                    out.push_str("\"/>\n");
                }
            }
            out.push_str("    </event>\n");
        }
        out.push_str("  </trace>\n");
    }
    out.push_str("</log>\n");
    w.write_all(out.as_bytes())?;
    Ok(())
}

// ---------------------------------------------------------------------------
// XES reading.
// ---------------------------------------------------------------------------

/// Reads an XES log. Events missing a `lifecycle:transition` are treated
/// as `complete`; a lone `complete` without a preceding `start` becomes
/// an instantaneous instance.
pub fn read_log<R: BufRead>(reader: R) -> Result<WorkflowLog, LogError> {
    read_log_with(
        reader,
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut IngestReport::default(),
    )
}

/// [`read_log`] with telemetry and a [`RecoveryPolicy`]: bytes
/// consumed, `<event>` elements parsed, and executions assembled
/// accumulate into `stats`. Under `Strict` the first XML syntax error,
/// undecodable event, or invalid timestamp aborts (recorded in `report`
/// with its byte offset; truncation surfaces as
/// [`LogError::UnexpectedEof`]). Under `Skip`/`BestEffort` bad events
/// are dropped, XML syntax errors re-sync at the next tag, and
/// START/END pairing falls back to lenient assembly.
pub fn read_log_with<R: BufRead>(
    mut reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let mut raw = Vec::new();
    let read_result = reader.read_to_end(&mut raw);
    stats.bytes_read += raw.len() as u64;
    read_result?;
    let text = decode_utf8(&raw, policy, report)?;
    let events = parse_events(&mut Scanner::new(&text), policy, stats, report)?;
    assemble(events, policy, raw.len() as u64, stats, report)
}

/// Validates `raw` as UTF-8 without copying; under a recovery policy an
/// invalid input is decoded lossily (recorded in `report`), matching
/// the historical behaviour.
fn decode_utf8<'a>(
    raw: &'a [u8],
    policy: RecoveryPolicy,
    report: &mut IngestReport,
) -> Result<Cow<'a, str>, LogError> {
    match std::str::from_utf8(raw) {
        Ok(text) => Ok(Cow::Borrowed(text)),
        Err(e) => {
            let offset = e.valid_up_to() as u64;
            if policy.is_strict() {
                let err = LogError::Parse {
                    line: 0,
                    message: format!("input is not valid UTF-8 (first bad byte at {offset})"),
                };
                report.record_error(offset, 0, err.to_string());
                return Err(err);
            }
            report.record_error(offset, 0, "input is not valid UTF-8; decoding lossily");
            report.over_budget(policy)?;
            Ok(String::from_utf8_lossy(raw))
        }
    }
}

/// Per (case id, activity id) of an [`EventTable`]: the STARTs not yet
/// closed by an END.
type Balance = HashMap<(u32, u32), usize>;

/// The pull loop: tags in, rows of an [`EventTable`] out, one closed
/// `<event>` at a time. An element still open at EOF is reported as
/// [`LogError::UnexpectedEof`]: the document was cut off.
fn parse_events(
    scanner: &mut Scanner<'_>,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<EventTable, LogError> {
    let mut events = EventTable::default();
    let mut balance = Balance::new();
    // Parse state.
    let mut trace_name: Option<Cow<'_, str>> = None;
    let mut trace_counter = 0usize;
    let mut in_event = false;
    let mut attrs = EventAttrs::default();
    let mut kv = KeyValue::default();
    // Open (non-self-closing) elements, innermost last. A non-empty
    // stack at EOF means the document was cut off between records —
    // truncation that clean XML-level parsing would otherwise miss.
    let mut open_elements: Vec<&str> = Vec::new();
    loop {
        let tag = match scanner.next(&mut kv) {
            Ok(None) => {
                if let Some(innermost) = open_elements.last() {
                    let (line, _, byte_offset) = scanner.position();
                    let err = LogError::UnexpectedEof {
                        byte_offset,
                        message: format!("input ends inside an open <{innermost}> element"),
                    };
                    report.record_error(byte_offset, line, err.to_string());
                    if policy.is_strict() {
                        return Err(err);
                    }
                    report.over_budget(policy)?;
                }
                break;
            }
            Ok(Some(tag)) => tag,
            Err(e) => {
                let (line, _, byte_offset) = scanner.position();
                report.record_error(byte_offset, line, e.to_string());
                if policy.is_strict() {
                    return Err(e);
                }
                report.over_budget(policy)?;
                // Attribute state is suspect after a syntax error.
                in_event = false;
                scanner.resync();
                continue;
            }
        };
        match tag {
            Tag::Open {
                name,
                self_closing: false,
            } => open_elements.push(name),
            Tag::Close(name) => {
                // Pop to the innermost matching element; mismatches are
                // tolerated (recovery resync can drop close tags).
                if let Some(i) = open_elements.iter().rposition(|n| *n == name) {
                    open_elements.truncate(i);
                }
            }
            _ => {}
        }
        match tag {
            Tag::Open { name: "trace", .. } => {
                trace_counter += 1;
                trace_name = Some(Cow::Owned(format!("trace-{trace_counter}")));
            }
            Tag::Open { name: "event", .. } => {
                in_event = true;
                attrs.clear();
            }
            Tag::Open {
                name: "string" | "date" | "int" | "float" | "boolean",
                ..
            } => {
                // Nested attributes are allowed by XES; we only need the
                // top-level key/value, children are skipped naturally.
                let key = kv.key.take().unwrap_or(Cow::Borrowed(""));
                let value = kv.value.take().unwrap_or(Cow::Borrowed(""));
                if in_event {
                    attrs.set(&key, value);
                } else if key == "concept:name" && trace_name.is_some() {
                    trace_name = Some(value);
                }
            }
            Tag::Close("event") => {
                in_event = false;
                let case = trace_name.as_deref().unwrap_or("trace-0");
                match close_event(&attrs, case, &mut events, &mut balance, scanner) {
                    Ok(()) => {
                        stats.events_parsed += 1;
                        report.records_parsed += 1;
                    }
                    Err(e) => {
                        let (line, _, byte_offset) = scanner.position();
                        report.record_error(byte_offset, line, e.to_string());
                        if policy.is_strict() {
                            return Err(e);
                        }
                        report.records_skipped += 1;
                        report.over_budget(policy)?;
                    }
                }
            }
            Tag::Close("trace") => {
                trace_name = None;
            }
            _ => {}
        }
    }
    Ok(events)
}

/// The four event attributes the log model reads. Last write wins,
/// like the reference parser's attribute map.
#[derive(Default)]
struct EventAttrs<'a> {
    name: Option<Cow<'a, str>>,
    transition: Option<Cow<'a, str>>,
    timestamp: Option<Cow<'a, str>>,
    output: Option<Cow<'a, str>>,
}

impl<'a> EventAttrs<'a> {
    fn clear(&mut self) {
        *self = EventAttrs::default();
    }

    fn set(&mut self, key: &str, value: Cow<'a, str>) {
        match key {
            "concept:name" => self.name = Some(value),
            "lifecycle:transition" => self.transition = Some(value),
            "time:timestamp" => self.timestamp = Some(value),
            "procmine:output" => self.output = Some(value),
            _ => {}
        }
    }
}

/// Turns one closed `<event>` of case `case` into rows of `events`: a
/// START, or an END after an instantaneous START when none is open.
/// Validates before interning, so a refused event leaves `events`
/// untouched.
fn close_event(
    attrs: &EventAttrs<'_>,
    case: &str,
    events: &mut EventTable,
    balance: &mut Balance,
    scanner: &Scanner<'_>,
) -> Result<(), LogError> {
    let activity = attrs
        .name
        .as_deref()
        .ok_or_else(|| scanner.error("event without concept:name"))?;
    let stamp = match attrs.timestamp.as_deref() {
        Some(ts) => iso8601_to_millis(ts).map_err(|message| scanner.error(message))?,
        None => events.len() as u64, // ordinal fallback
    };
    let case = events.case_id(case);
    let activity = events.activity_id(activity);
    let is_start = attrs
        .transition
        .as_deref()
        .is_some_and(|t| t.eq_ignore_ascii_case("start"));
    if is_start {
        *balance.entry((case, activity)).or_insert(0) += 1;
        events.push(case, activity, EventKind::Start, stamp, None);
        return Ok(());
    }
    // Everything else — complete, a missing transition, and coarse
    // lifecycles like "ate_abort" — closes the instance. If no START is
    // open for this activity in this case, synthesize an instantaneous
    // one.
    match balance.get_mut(&(case, activity)) {
        Some(open) if *open > 0 => *open -= 1,
        _ => events.push(case, activity, EventKind::Start, stamp, None),
    }
    let output = attrs.output.as_deref().map(|v| {
        v.split(';')
            .filter_map(|x| x.trim().parse::<i64>().ok())
            .collect::<Vec<i64>>()
    });
    events.push(case, activity, EventKind::End, stamp, output);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivityInstance, Execution};

    #[test]
    fn civil_date_round_trip() {
        for days in [-719468i64, -1, 0, 1, 365, 10957, 18993, 2932896] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days, "{y}-{m}-{d}");
        }
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(10957), (2000, 1, 1));
        assert_eq!(days_from_civil(2026, 7, 5), 20639);
    }

    #[test]
    fn iso8601_round_trip() {
        for millis in [
            0u64,
            1,
            999,
            1000,
            86_400_000,
            1_700_000_000_123,
            // The last millisecond of year 9999, the first of 10000, and
            // the ends of the signed and unsigned 64-bit ranges.
            253_402_300_799_999,
            253_402_300_800_000,
            i64::MAX as u64,
            u64::MAX,
        ] {
            let iso = millis_to_iso8601(millis);
            assert_eq!(iso8601_to_millis(&iso).unwrap(), millis, "{iso}");
        }
        assert_eq!(millis_to_iso8601(0), "1970-01-01T00:00:00.000+00:00");
    }

    #[test]
    fn iso8601_variants() {
        assert_eq!(iso8601_to_millis("1970-01-01T00:00:01Z").unwrap(), 1000);
        assert_eq!(iso8601_to_millis("1970-01-01T00:00:00.5Z").unwrap(), 500);
        assert_eq!(
            iso8601_to_millis("1970-01-01T01:00:00+01:00").unwrap(),
            0,
            "offset ahead of UTC subtracts"
        );
        assert_eq!(
            iso8601_to_millis("1969-12-31T23:00:00-01:00").unwrap(),
            0,
            "offset behind UTC adds"
        );
        assert_eq!(iso8601_to_millis("1970-01-01 00:00:00").unwrap(), 0);
        for bad in [
            "1970-13-01T00:00:00Z",
            "not a date",
            "1970-01-01T00:00",
            "1969-01-01T00:00:00Z",
            "1970-01-01T00:00:61Z",
            // Expanded years: no leading zero or sign, and not past the
            // clock's last tick.
            "02024-01-01T00:00:00Z",
            "+2024-01-01T00:00:00Z",
            "584556020-01-01T00:00:00Z",
            "1000000000-01-01T00:00:00Z",
        ] {
            assert!(iso8601_to_millis(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn iso8601_lowercase_separators() {
        assert_eq!(iso8601_to_millis("1970-01-01t00:00:01z").unwrap(), 1000);
        assert_eq!(iso8601_to_millis("1970-01-01t00:00:01Z").unwrap(), 1000);
        assert_eq!(iso8601_to_millis("1970-01-01T00:00:01z").unwrap(), 1000);
    }

    #[test]
    fn iso8601_leap_second_clamps() {
        // `:60` folds into the last ordinary second, fraction intact.
        assert_eq!(
            iso8601_to_millis("1998-12-31T23:59:60.500Z").unwrap(),
            iso8601_to_millis("1998-12-31T23:59:59.500Z").unwrap(),
        );
        // `:61` is still rejected.
        assert!(iso8601_to_millis("1998-12-31T23:59:61Z").is_err());
    }

    #[test]
    fn iso8601_parse_format_fixed_point() {
        // format ∘ parse is idempotent across accepted spellings.
        for text in [
            "1970-01-01T00:00:00.000+00:00",
            "1998-12-31T23:59:60.500Z",
            "2024-06-01t12:34:56z",
            "2024-06-01 12:34:56.789",
            "2024-06-01T13:34:56+01:00",
        ] {
            let millis = iso8601_to_millis(text).unwrap();
            let formatted = millis_to_iso8601(millis);
            assert_eq!(
                iso8601_to_millis(&formatted).unwrap(),
                millis,
                "parse(format(parse({text})))"
            );
            assert_eq!(
                millis_to_iso8601(iso8601_to_millis(&formatted).unwrap()),
                formatted,
                "format is a fixed point for {text}"
            );
        }
    }

    #[test]
    fn xes_round_trip_instantaneous() {
        let log = WorkflowLog::from_strings(["ABCE", "ACDE"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("<trace>"));
        assert!(text.contains(r#"<string key="lifecycle:transition" value="complete"/>"#));
        assert!(
            !text.contains(r#"value="start""#),
            "instantaneous → complete only"
        );

        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.display_sequences(), log.display_sequences());
    }

    #[test]
    fn xes_round_trip_intervals_and_outputs() {
        let mut table = crate::ActivityTable::new();
        let a = table.intern("Approve & Review");
        let b = table.intern("Ship<fast>");
        let mut log = WorkflowLog::with_activities(table);
        log.push(
            Execution::new(
                "case \"1\"",
                vec![
                    ActivityInstance {
                        activity: a,
                        start: 0,
                        end: 5000,
                        output: Some(vec![-3, 12]),
                    },
                    ActivityInstance {
                        activity: b,
                        start: 2000,
                        end: 9000,
                        output: None,
                    },
                ],
            )
            .unwrap(),
        );
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 1);
        let exec = &back.executions()[0];
        assert_eq!(exec.id, "case \"1\"");
        assert_eq!(exec.instances().len(), 2);
        let aid = back.activities().id("Approve & Review").unwrap();
        let inst = exec.instances().iter().find(|i| i.activity == aid).unwrap();
        assert_eq!((inst.start, inst.end), (0, 5000));
        assert_eq!(inst.output.as_deref(), Some(&[-3i64, 12][..]));
        // Overlap preserved.
        assert_eq!(exec.precedence_pairs().count(), 0);
    }

    #[test]
    fn reads_foreign_xes() {
        // A PM4Py-style export: no start events, extra attributes,
        // comments, single quotes.
        let text = r#"<?xml version='1.0' encoding='UTF-8'?>
<!-- exported elsewhere -->
<log xes.version="1846.2016">
  <string key="source" value="other tool"/>
  <trace>
    <string key="concept:name" value="order-17"/>
    <string key="customer" value="ACME &amp; sons"/>
    <event>
      <string key="concept:name" value="register"/>
      <date key="time:timestamp" value="2024-01-01T10:00:00.000+00:00"/>
      <int key="amount" value="250"/>
    </event>
    <event>
      <string key="concept:name" value="ship"/>
      <date key="time:timestamp" value="2024-01-02T10:00:00.000+00:00"/>
    </event>
  </trace>
</log>"#;
        let log = read_log(text.as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.executions()[0].id, "order-17");
        assert_eq!(log.display_sequences(), vec!["register ship"]);
    }

    #[test]
    fn malformed_xml_is_rejected() {
        for bad in [
            "<log><trace><event></log>", // mismatched nesting is tolerated…
            "<log><event><string key=></event></log>", // …but broken attributes are not
            "<log><trace><event><string key='concept:name' value='A'",
        ] {
            // Only assert no panic; structurally-broken inputs either
            // error or produce an empty/partial log.
            let _ = read_log(bad.as_bytes());
        }
        let bad_attr =
            "<log><event><string key=\"concept:name\" value=\"unterminated></event></log>";
        assert!(read_log(bad_attr.as_bytes()).is_err());
    }

    #[test]
    fn mining_from_xes_works() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.display_sequences(), log.display_sequences());
        assert_eq!(back.activities().len(), log.activities().len());
    }

    /// Everything observable about one read: the log's activity names
    /// and executions (or the rendered error), stats and report.
    type Observed = (
        Result<(Vec<String>, Vec<Execution>), String>,
        CodecStats,
        IngestReport,
    );

    type ReadWith<'d> = fn(
        &'d [u8],
        RecoveryPolicy,
        &mut CodecStats,
        &mut IngestReport,
    ) -> Result<WorkflowLog, LogError>;

    fn observe<'d>(read: ReadWith<'d>, doc: &'d [u8], policy: RecoveryPolicy) -> Observed {
        let mut stats = CodecStats::default();
        let mut report = IngestReport::default();
        let log = read(doc, policy, &mut stats, &mut report)
            .map(|log| (log.activities().names().to_vec(), log.executions().to_vec()))
            .map_err(|e| e.to_string());
        (log, stats, report)
    }

    /// Reads `doc` with this parser and with
    /// [`xes_reference`](super::super::xes_reference) under every
    /// recovery policy, asserts identical observations, and returns
    /// this parser's log under `policy`.
    fn read_like_reference(doc: &[u8], policy: RecoveryPolicy) -> Result<WorkflowLog, LogError> {
        for p in [
            RecoveryPolicy::Strict,
            RecoveryPolicy::Skip { max_errors: 4 },
            RecoveryPolicy::BestEffort,
        ] {
            assert_eq!(
                observe(read_log_with, doc, p),
                observe(super::super::xes_reference::read_log_with, doc, p),
                "policy {p:?}"
            );
        }
        read_log_with(
            doc,
            policy,
            &mut CodecStats::default(),
            &mut IngestReport::default(),
        )
    }

    /// One `<event>` with a name and, when given, a transition and a
    /// timestamp.
    fn event(name: &str, transition: Option<&str>, time: Option<&str>) -> String {
        let mut e = format!("<event><string key=\"concept:name\" value=\"{name}\"/>");
        if let Some(t) = transition {
            e += &format!("<string key=\"lifecycle:transition\" value=\"{t}\"/>");
        }
        if let Some(t) = time {
            e += &format!("<date key=\"time:timestamp\" value=\"{t}\"/>");
        }
        e + "</event>"
    }

    /// A `<trace>` named `name` holding `events`.
    fn trace(name: &str, events: &[String]) -> String {
        format!(
            "<trace><string key=\"concept:name\" value=\"{name}\"/>{}</trace>",
            events.concat()
        )
    }

    #[test]
    fn matches_reference_on_clean_log() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_like_reference(&buf, RecoveryPolicy::Strict).unwrap();
        assert_eq!(back.display_sequences(), log.display_sequences());
    }

    #[test]
    fn unnamed_traces_are_numbered_in_document_order() {
        let mut doc = String::from("<log>\n");
        for i in 0..6 {
            doc.push_str("<trace>\n");
            doc.push_str(&event(
                &format!("act{i}"),
                None,
                Some("2024-01-01T10:00:00Z"),
            ));
            doc.push_str("\n</trace>\n");
        }
        doc.push_str("</log>\n");
        let log = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap();
        let ids: Vec<_> = log.executions().iter().map(|e| e.id.as_str()).collect();
        assert_eq!(
            ids,
            ["trace-1", "trace-2", "trace-3", "trace-4", "trace-5", "trace-6"]
        );
    }

    #[test]
    fn matches_reference_on_truncated_and_corrupt_input() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        for cut in [buf.len() / 3, buf.len() / 2, buf.len() - 3] {
            assert!(read_like_reference(&buf[..cut], RecoveryPolicy::Strict).is_err());
        }
        let mut corrupt = buf.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] = b'<';
        read_like_reference(&corrupt, RecoveryPolicy::BestEffort).unwrap();
    }

    #[test]
    fn traces_sharing_a_case_name_form_one_case() {
        // START/END balance is kept per case, not per trace: the second
        // trace's `complete` closes the first trace's `start`.
        let doc = format!(
            "<log>{}{}</log>",
            trace(
                "same",
                &[event("A", Some("start"), Some("2024-01-01T10:00:00Z"))]
            ),
            trace(
                "same",
                &[event("A", Some("complete"), Some("2024-01-01T11:00:00Z"))]
            ),
        );
        let log = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap();
        assert_eq!(log.len(), 1);
        let inst = &log.executions()[0].instances()[0];
        assert_eq!(inst.end - inst.start, 3_600_000);
    }

    #[test]
    fn untimed_events_take_their_row_ordinal_as_stamp() {
        // The stamp counts the rows before the event, synthesized STARTs
        // included: a0's START and END are rows 0 and 1, so a1 reads 2.
        let mut doc = String::from("<log>");
        for i in 0..4 {
            doc.push_str(&format!(
                "<trace>{}</trace>",
                event(&format!("a{i}"), None, None)
            ));
        }
        doc.push_str("</log>");
        let log = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap();
        let stamps: Vec<_> = log
            .executions()
            .iter()
            .map(|e| (e.instances()[0].start, e.instances()[0].end))
            .collect();
        assert_eq!(stamps, [(0, 0), (2, 2), (4, 4), (6, 6)]);
    }

    #[test]
    fn lifecycles_and_names_match_reference() {
        let at = |h: u32| format!("2024-01-01T{h:02}:00:00Z");
        let (one, two, three) = (at(1), at(2), at(3));
        let at1 = Some(one.as_str());
        // (document body, expected case, activity, and instance span in
        // hours after 01:00)
        let cases = [
            // A lone `complete` is an instantaneous instance.
            (
                trace("c", &[event("A", Some("complete"), at1)]),
                "c",
                "A",
                (0, 0),
            ),
            // Any transition but `start` closes the instance.
            (
                trace(
                    "c",
                    &[
                        event("A", Some("start"), at1),
                        event("A", Some("ate_abort"), Some(&two)),
                    ],
                ),
                "c",
                "A",
                (0, 1),
            ),
            // `start` is matched without regard to case.
            (
                trace(
                    "c",
                    &[
                        event("A", Some("START"), at1),
                        event("A", Some("Complete"), Some(&three)),
                    ],
                ),
                "c",
                "A",
                (0, 2),
            ),
            // An event outside any trace belongs to case `trace-0`.
            (event("A", None, at1), "trace-0", "A", (0, 0)),
            // Entities in a name are resolved.
            (
                trace("c", &[event("A&amp;B", None, at1)]),
                "c",
                "A&B",
                (0, 0),
            ),
        ];
        let base = iso8601_to_millis(&one).unwrap();
        let hours = |t: u64| (t - base) / 3_600_000;
        for (body, case, activity, span) in cases {
            let doc = format!("<log>{body}</log>");
            let log = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap();
            assert_eq!(log.display_sequences(), [activity], "{doc}");
            let exec = &log.executions()[0];
            let inst = &exec.instances()[0];
            assert_eq!(exec.id, case, "{doc}");
            assert_eq!((hours(inst.start), hours(inst.end)), span, "{doc}");
        }
    }

    #[test]
    fn a_refused_event_leaves_no_case_behind() {
        // The only event of `bad` has an invalid timestamp: under
        // BestEffort it is skipped, and no empty execution is left.
        let doc = format!(
            "<log>{}{}</log>",
            trace("bad", &[event("A", None, Some("2024-13-01T00:00:00Z"))]),
            trace("good", &[event("B", None, Some("2024-01-01T00:00:00Z"))]),
        );
        let log = read_like_reference(doc.as_bytes(), RecoveryPolicy::BestEffort).unwrap();
        let ids: Vec<_> = log.executions().iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["good"]);
        assert_eq!(log.display_sequences(), ["B"]);
    }

    #[test]
    fn xes_stats_count_bytes_events_executions() {
        let log = WorkflowLog::from_strings(["ABCE", "ACDE"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let mut stats = CodecStats::default();
        let back = read_log_with(
            buf.as_slice(),
            RecoveryPolicy::Strict,
            &mut stats,
            &mut IngestReport::default(),
        )
        .unwrap();
        assert_eq!(stats.bytes_read, buf.len() as u64);
        assert_eq!(stats.events_parsed, 8, "4 instantaneous events per trace");
        assert_eq!(stats.executions_parsed, back.len() as u64);
    }
}
