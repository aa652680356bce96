//! XES codec — the IEEE 1849 XML interchange format used by the
//! process-mining ecosystem (ProM, PM4Py, Disco, …).
//!
//! Writing `procmine` logs as XES lets downstream users cross-check
//! mined models against other tools; reading XES lets real-world event
//! logs flow into these miners. The implementation is self-contained: a
//! minimal XML pull parser (elements, attributes, comments,
//! declarations, the five named entities and numeric character
//! references) and civil-date conversion, covering the XES subset the
//! log model needs:
//!
//! * one `<trace>` per execution, named by a `concept:name` attribute
//!   element directly inside it;
//! * one `<event>` per START/END, with `concept:name` (activity),
//!   `lifecycle:transition` (`start` / `complete`) and `time:timestamp`
//!   (ISO 8601; the log's integer ticks are interpreted as milliseconds
//!   since the Unix epoch);
//! * instantaneous instances are written as a single `complete` event
//!   and read back as `start == end`, matching the paper's list-form
//!   simplification;
//! * output vectors ride on `complete` events as a `procmine:output`
//!   string attribute (`"1;2;3"`), a documented extension, read by the
//!   same parser as Flowmark's fifth field: an event whose output is
//!   not a list of integers is refused.
//!
//! # Fast path
//!
//! The parser is zero-copy: the whole document is validated as UTF-8
//! once up front, then a byte-offset `Scanner` slices names and
//! attribute values straight out of the input. All XML delimiters are
//! ASCII, so byte search never lands inside a multi-byte character;
//! values are borrowed (`Cow::Borrowed`) unless they contain an entity
//! (`&…;`), which is the only case that allocates.
//!
//! Each tag costs about what scanning its bytes costs. The scanner
//! searches for `<`, and for a value's closing quote or its first `&`,
//! eight bytes at a time (a `u64` per step, in safe code), classifies
//! name and whitespace bytes with one 256-entry table (a non-ASCII
//! byte falls back to `char::is_alphanumeric` or
//! `char::is_whitespace`), and tells comments, declarations,
//! processing instructions, closing and opening tags apart by the byte
//! after `<`. Each tag's name is classified once (trace, event, one of
//! the five attribute elements, or other), and each attribute key once.
//! Timestamps are parsed by digit arithmetic over their fixed-width
//! shape.
//!
//! A close tag must close the innermost open element, as XML 1.0
//! well-formedness requires: an `</event>` that closes no open
//! `<event>` emits nothing. Under [`RecoveryPolicy::Strict`] a
//! mismatched close tag is an XML error located at the tag; a
//! recovering read records it as an error, emits nothing for it, and
//! closes the innermost open element of its name, if any.
//!
//! Errors keep the historical contract — byte offsets, 1-based
//! line:column (column in characters), [`LogError::UnexpectedEof`] at
//! clean truncation — computed on the error paths only. The scanner
//! keeps the last position it reported and counts lines and columns on
//! from there, so a recovering read pays one pass over the document
//! for all its errors together, not one per error.
//!
//! Each `<event>` is interned into the same table of events the
//! Flowmark reader fills, as the event closes and only once it has
//! validated: its case and activity names become ids, START/END balance
//! is kept per (case id, activity id) in a fold-hashed map that holds
//! only the open pairs, and no string is owned per event.
//! [`read_compact_with`] groups and pairs the cases straight into
//! columns; [`read_log_with`] converts those into a [`WorkflowLog`]. The
//! previous character-based implementation is preserved as
//! [`xes_reference`](super::xes_reference) and pinned to this one by
//! differential tests.

use super::flowmark::parse_output_vector;
use super::{assemble, CodecStats, IngestReport, RecoveryPolicy};
use crate::hash::{word64, FoldMap};
use crate::validate::EventTable;
use crate::{CompactLog, EventKind, LogError, WorkflowLog};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::hash_map::Entry;
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
/// applied; like `xs:dateTime`'s, their minutes are below 60 and they
/// reach at most 14:00 either way. Timestamps before the epoch or after
/// the clock's last tick (`u64::MAX` ms) are rejected.
///
/// The leap-second spelling `:60` is **clamped to `:59`** (fractional
/// part preserved): the log clock is POSIX-like and has no leap
/// seconds, and [`millis_to_iso8601`] never emits `:60`, so
/// `parse ∘ format` is the identity and `format ∘ parse` is idempotent
/// — XES round-trips are byte-stable.
pub fn iso8601_to_millis(text: &str) -> Result<u64, String> {
    let fail = || format!("invalid ISO 8601 timestamp `{text}`");
    let past_end = || format!("timestamp `{text}` is past the end of the log clock");
    let bytes = text.as_bytes();
    // The year: its digits end at the first `-`.
    let year_len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    if bytes.get(year_len) != Some(&b'-') || year_len < 4 || (year_len > 4 && bytes[0] == b'0') {
        return Err(fail());
    }
    // Nine digits already reach past the clock's last tick (year
    // 584556019); longer years would overflow the day count.
    if year_len > 9 {
        return Err(past_end());
    }
    // The fixed-width rest, indexed as if the year had four digits.
    let b = &bytes[year_len - 4..];
    if b.len() < 19 || b[7] != b'-' || !matches!(b[10], b'T' | b't' | b' ') {
        return Err(fail());
    }
    let y = bytes[..year_len]
        .iter()
        .fold(0i64, |y, d| y * 10 + i64::from(d - b'0'));
    let (Some(mo), Some(d)) = (two_digits(b, 5), two_digits(b, 8)) else {
        return Err(fail());
    };
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
    let (Some(h), Some(mi), Some(s)) = (two_digits(b, 11), two_digits(b, 14), two_digits(b, 17))
    else {
        return Err(fail());
    };
    if b[13] != b':' || b[16] != b':' || h > 23 || mi > 59 || s > 60 {
        return Err(fail());
    }
    // Leap second: fold into the last ordinary second of the minute.
    let s = s.min(59);

    let mut pos = 19;
    let mut ms = 0u64;
    if b.get(pos) == Some(&b'.') {
        let digits = b[pos + 1..]
            .iter()
            .take_while(|c| c.is_ascii_digit())
            .count();
        if digits == 0 {
            return Err(fail());
        }
        // Truncate or pad fractional seconds to milliseconds.
        let kept = digits.min(3);
        let frac = b[pos + 1..pos + 1 + kept]
            .iter()
            .fold(0, |frac, d| frac * 10 + u64::from(d - b'0'));
        ms = frac * 10u64.pow(3 - kept as u32);
        pos += 1 + digits;
    }

    let offset_minutes = match b.get(pos) {
        None => 0,
        Some(b'Z' | b'z') if pos + 1 == b.len() => 0,
        Some(&sign @ (b'+' | b'-')) => {
            if b.len() != pos + 6 || b[pos + 3] != b':' {
                return Err(fail());
            }
            let (Some(oh), Some(om)) = (two_digits(b, pos + 1), two_digits(b, pos + 4)) else {
                return Err(fail());
            };
            // The `xs:dateTime` range: -14:00 to +14:00.
            let minutes = oh * 60 + om;
            if om > 59 || minutes > 14 * 60 {
                return Err(fail());
            }
            // Ahead of UTC subtracts.
            if sign == b'+' {
                -i64::from(minutes)
            } else {
                i64::from(minutes)
            }
        }
        Some(_) => return Err(fail()),
    };

    // A nine-digit year's seconds fit an `i64`; its milliseconds may
    // not fit a `u64`, which is the end of the clock.
    let secs = days_from_civil(y, mo, d) * 86_400
        + i64::from(h * 3600 + mi * 60 + s)
        + offset_minutes * 60;
    let Ok(secs) = u64::try_from(secs) else {
        return Err(format!("timestamp `{text}` is before the Unix epoch"));
    };
    secs.checked_mul(1000)
        .and_then(|t| t.checked_add(ms))
        .ok_or_else(past_end)
}

/// The two ASCII digits at `b[i..i + 2]` as a number: no sign, no
/// space.
#[inline]
fn two_digits(b: &[u8], i: usize) -> Option<u32> {
    let hi = b.get(i)?.wrapping_sub(b'0');
    let lo = b.get(i + 1)?.wrapping_sub(b'0');
    (hi < 10 && lo < 10).then(|| u32::from(hi) * 10 + u32::from(lo))
}

// ---------------------------------------------------------------------------
// Zero-copy XML pull scanner.
// ---------------------------------------------------------------------------

/// Eight copies of the byte 1.
const ONES: u64 = u64::from_le_bytes([1; 8]);

/// The high bit of every zero byte of `word`, and perhaps of bytes
/// above a zero byte: the lowest bit set marks the first zero byte.
#[inline]
fn zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(ONES) & !word & (ONES << 7)
}

/// The first position in `hay` of any of `needles`, tested eight bytes
/// at a time: a word xored with a needle in every byte has a zero byte
/// where the needle is.
#[inline]
fn find_any<const N: usize>(needles: [u8; N], hay: &[u8]) -> Option<usize> {
    let mut chunks = hay.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = word64(chunk);
        let hits = needles.iter().fold(0, |hits, &n| {
            hits | zero_bytes(word ^ (ONES * u64::from(n)))
        });
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let rest = chunks.remainder();
    rest.iter()
        .position(|b| needles.contains(b))
        .map(|i| at + i)
}

// Byte classes of the scanner, one table lookup per byte.
/// An ASCII byte of an XML name: alphanumeric, `:`, `_`, `-` or `.`.
const NAME: u8 = 1;
/// ASCII whitespace: what `char::is_whitespace` accepts below 0x80.
const SPACE: u8 = 2;
/// A byte of a multi-byte character: tested as a `char`.
const NON_ASCII: u8 = 4;
/// The class of every byte value.
static BYTE_CLASS: [u8; 256] = byte_classes();

const fn byte_classes() -> [u8; 256] {
    let mut table = [0; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        table[i] = if !b.is_ascii() {
            NON_ASCII
        } else if b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.') {
            NAME
        } else if matches!(b, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ') {
            SPACE
        } else {
            0
        };
        i += 1;
    }
    table
}

/// The elements the XES subset acts on, classified once per tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Element {
    Trace,
    Event,
    /// `string`, `date`, `int`, `float` or `boolean`: one `key`/`value`
    /// pair.
    Attribute,
    Other,
}

impl Element {
    fn of(name: &str) -> Element {
        match name {
            "trace" => Element::Trace,
            "event" => Element::Event,
            "string" | "date" | "int" | "float" | "boolean" => Element::Attribute,
            _ => Element::Other,
        }
    }
}

/// An XML tag event. Borrowed from the document text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag<'a> {
    Open {
        name: &'a str,
        element: Element,
        self_closing: bool,
    },
    Close {
        name: &'a str,
        element: Element,
    },
}

/// The only two attributes the XES subset reads (`key="…"`/`value="…"`
/// on `<string>`-family elements). Captured during tag parsing so
/// uninteresting attributes are scanned but never stored.
#[derive(Default)]
struct KeyValue<'a> {
    key: Option<Cow<'a, str>>,
    value: Option<Cow<'a, str>>,
}

/// A byte offset of the document with its 1-based line and its 1-based
/// column in characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cursor {
    offset: usize,
    line: usize,
    column: usize,
}

impl Cursor {
    const START: Cursor = Cursor {
        offset: 0,
        line: 1,
        column: 1,
    };

    /// This cursor moved forward to `end` of `text`, a character
    /// boundary at or after `self.offset`: only the bytes between are
    /// counted, and the column from the last line start among them.
    fn advance(self, text: &[u8], end: usize) -> Cursor {
        let span = &text[self.offset..end];
        match span.iter().rposition(|&b| b == b'\n') {
            Some(last) => Cursor {
                offset: end,
                line: self.line + span.iter().filter(|&&b| b == b'\n').count(),
                column: 1 + char_count(&span[last + 1..]),
            },
            None => Cursor {
                offset: end,
                column: self.column + char_count(span),
                ..self
            },
        }
    }
}

/// The characters in UTF-8 `bytes`: the bytes that do not continue a
/// character.
fn char_count(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b & 0xC0 != 0x80).count()
}

/// Byte-offset scanner over a UTF-8 document. `pos` always sits on a
/// character boundary: every delimiter searched for is ASCII, and the
/// Unicode-aware paths (names, whitespace) advance by whole `char`s.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    /// Where the tag [`Scanner::next`] returned last starts (its `<`).
    tag_start: usize,
    /// The last position reported, which the next report counts on
    /// from: `pos` only grows, so the lines and columns of all errors
    /// together cost one pass over the document.
    cursor: Cell<Cursor>,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner {
            text,
            pos: 0,
            tag_start: 0,
            cursor: Cell::new(Cursor::START),
        }
    }

    /// 1-based line, 1-based column (in characters), and byte offset of
    /// the current position, counted on from the last position reported
    /// (from the start only if the current one is earlier).
    fn position(&self) -> (usize, usize, u64) {
        self.position_at(self.pos)
    }

    /// [`Scanner::position`] of byte offset `at` instead of the current
    /// one.
    fn position_at(&self, at: usize) -> (usize, usize, u64) {
        let end = at.min(self.text.len());
        let mut cursor = self.cursor.get();
        if end < cursor.offset {
            cursor = Cursor::START;
        }
        let cursor = cursor.advance(self.text.as_bytes(), end);
        self.cursor.set(cursor);
        (cursor.line, cursor.column, end as u64)
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

    fn consume(&mut self, b: u8) -> bool {
        if self.text.as_bytes().get(self.pos) == Some(&b) {
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
        while let Some(k) = find_any([pat[0]], &bytes[i..]) {
            i += k;
            if bytes[i..].starts_with(pat) {
                self.pos = i + pat.len();
                return Ok(());
            }
            i += 1;
        }
        self.pos = bytes.len();
        Err(self.error(format!("unterminated construct (expected `{end}`)")))
    }

    /// Advances over bytes of class `class`, and over non-ASCII
    /// characters that `unicode` accepts. The byte loop is small enough
    /// to inline at every call; a non-ASCII byte hands the rest over to
    /// [`Scanner::skip_class_by_char`].
    #[inline]
    fn skip_class(&mut self, class: u8, unicode: fn(char) -> bool) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while let Some(&b) = bytes.get(pos) {
            match BYTE_CLASS[usize::from(b)] {
                c if c == class => pos += 1,
                NON_ASCII => {
                    self.pos = pos;
                    return self.skip_class_by_char(class, unicode);
                }
                _ => break,
            }
        }
        self.pos = pos;
    }

    /// [`Scanner::skip_class`] a whole character at a time.
    #[inline(never)]
    fn skip_class_by_char(&mut self, class: u8, unicode: fn(char) -> bool) {
        while let Some(c) = self.text[self.pos..].chars().next() {
            let accepted = if c.is_ascii() {
                BYTE_CLASS[c as usize] == class
            } else {
                unicode(c)
            };
            if !accepted {
                break;
            }
            self.pos += c.len_utf8();
        }
    }

    fn skip_ws(&mut self) {
        self.skip_class(SPACE, char::is_whitespace);
    }

    fn read_name(&mut self) -> Result<&'a str, LogError> {
        let start = self.pos;
        self.skip_class(NAME, char::is_alphanumeric);
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
            match find_any([b'<'], &bytes[self.pos..]) {
                Some(i) => self.pos += i,
                None => {
                    self.pos = bytes.len();
                    return Ok(None);
                }
            }
            // The byte after `<` tells a comment or declaration, a
            // processing instruction, a closing and an opening tag apart.
            self.tag_start = self.pos;
            match bytes.get(self.pos + 1) {
                Some(b'!') if bytes[self.pos + 2..].starts_with(b"--") => self.skip_until("-->")?,
                Some(b'!') => self.skip_until(">")?,
                Some(b'?') => self.skip_until("?>")?,
                Some(b'/') => {
                    self.pos += 2;
                    let name = self.read_name()?;
                    self.skip_ws();
                    if !self.consume(b'>') {
                        return Err(self.error("malformed closing tag"));
                    }
                    let element = Element::of(name);
                    return Ok(Some(Tag::Close { name, element }));
                }
                _ => {
                    self.pos += 1;
                    return self.open_tag(kv).map(Some);
                }
            }
        }
    }

    /// The rest of an opening tag, after its `<`.
    fn open_tag(&mut self, kv: &mut KeyValue<'a>) -> Result<Tag<'a>, LogError> {
        let bytes = self.text.as_bytes();
        let name = self.read_name()?;
        let element = Element::of(name);
        kv.key = None;
        kv.value = None;
        loop {
            self.skip_ws();
            let self_closing = match bytes.get(self.pos) {
                Some(b'>') => Some(false),
                Some(b'/') if bytes.get(self.pos + 1) == Some(&b'>') => Some(true),
                _ => None,
            };
            if let Some(self_closing) = self_closing {
                self.pos += 1 + usize::from(self_closing);
                return Ok(Tag::Open {
                    name,
                    element,
                    self_closing,
                });
            }
            let key = self.read_name()?;
            self.skip_ws();
            if !self.consume(b'=') {
                return Err(self.error(format!("attribute `{key}` missing `=`")));
            }
            self.skip_ws();
            let quote = match bytes.get(self.pos) {
                Some(&quote @ (b'"' | b'\'')) => quote,
                _ => return Err(self.error(format!("attribute `{key}` missing quote"))),
            };
            self.pos += 1;
            let value = self.attribute_value(quote)?;
            match key {
                "key" => kv.key = Some(value),
                "value" => kv.value = Some(value),
                _ => {}
            }
        }
    }

    /// An attribute value up to its closing `quote`, which it steps
    /// past. The search stops at an entity too: only a value with one
    /// is searched on and unescaped into an owned string.
    fn attribute_value(&mut self, quote: u8) -> Result<Cow<'a, str>, LogError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let (end, escaped) = match find_any([quote, b'&'], &bytes[start..]) {
            Some(i) if bytes[start + i] == quote => (Some(start + i), false),
            Some(i) => (
                find_any([quote], &bytes[start + i..]).map(|k| start + i + k),
                true,
            ),
            None => (None, false),
        };
        let Some(end) = end else {
            self.pos = bytes.len();
            return Err(self.error("unterminated attribute value"));
        };
        let raw = &self.text[start..end];
        self.pos = end + 1;
        if escaped {
            unescape(raw).map(Cow::Owned).map_err(|m| self.error(m))
        } else {
            Ok(Cow::Borrowed(raw))
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
            reference if reference.starts_with('#') => char_reference(&reference[1..])
                .ok_or_else(|| format!("invalid character reference `&{reference};`"))?,
            other => return Err(format!("unsupported entity `&{other};`")),
        });
        // Skip the entity body.
        for _ in 0..semi {
            chars.next();
        }
    }
    Ok(out)
}

/// The character a numeric character reference names, from its body
/// after `&#`: decimal digits, or `x` and hexadecimal digits in either
/// case. `None` for an empty body, one that is not all digits, and a
/// code point that XML's `Char` production excludes: the C0 controls
/// other than tab, LF and CR, surrogates, U+FFFE, U+FFFF, and anything
/// above U+10FFFF.
fn char_reference(body: &str) -> Option<char> {
    let (digits, radix) = match body.strip_prefix('x') {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    let code = u32::from_str_radix(digits, radix).ok()?;
    let is_char = matches!(
        code,
        0x9 | 0xA | 0xD | 0x20..=0xD7FF | 0xE000..=0xFFFD | 0x1_0000..=0x10_FFFF
    );
    is_char.then(|| char::from_u32(code)).flatten()
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
    reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    read_compact_with(reader, policy, stats, report).map(CompactLog::into_log)
}

/// [`read_log_with`] into columns: the same log, stats, report and
/// errors, as a [`CompactLog`]. Each `<event>` joins a table of events
/// as it closes; the cases are grouped and paired straight into the
/// columns once the document ends.
pub fn read_compact_with<R: BufRead>(
    mut reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<CompactLog, LogError> {
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

/// Per (case id, activity id) of an [`EventTable`], packed into one
/// `u64` as `case << 32 | activity`: the STARTs not yet closed by an
/// END. A pair leaves the map when its last START closes, so the map
/// holds only the open pairs, not every pair the log has seen.
type Balance = FoldMap<u64, usize>;

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
    let mut balance = Balance::default();
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
                element,
                self_closing,
            } => {
                let parent = open_elements.last().copied();
                if !self_closing {
                    open_elements.push(name);
                }
                match element {
                    Element::Trace => {
                        trace_counter += 1;
                        trace_name = Some(Cow::Owned(format!("trace-{trace_counter}")));
                    }
                    Element::Event => {
                        in_event = true;
                        attrs = EventAttrs::default();
                    }
                    Element::Attribute => {
                        // Nested attributes are allowed by XES; we only
                        // need the top-level key/value, children are
                        // skipped naturally.
                        let key = Key::of(kv.key.as_deref().unwrap_or(""));
                        let value = kv.value.take().unwrap_or(Cow::Borrowed(""));
                        if in_event {
                            attrs.set(key, value);
                        } else if key == Key::Name
                            && parent == Some("trace")
                            && trace_name.is_some()
                        {
                            trace_name = Some(value);
                        }
                    }
                    Element::Other => {}
                }
            }
            Tag::Close { name, element } => {
                if open_elements.last() != Some(&name) {
                    // XML 1.0 well-formedness: a close tag closes the
                    // innermost open element. A recovering read records
                    // the mismatch and emits nothing for it; it closes
                    // the innermost element of that name, if one is
                    // open, with everything left open inside it.
                    let (line, column, byte_offset) = scanner.position_at(scanner.tag_start);
                    let err = LogError::Xml {
                        line,
                        column,
                        message: mismatched_close(name, open_elements.last().copied()),
                    };
                    report.record_error(byte_offset, line, err.to_string());
                    if policy.is_strict() {
                        return Err(err);
                    }
                    report.over_budget(policy)?;
                    if let Some(i) = open_elements.iter().rposition(|n| *n == name) {
                        let closed = &open_elements[i..];
                        if closed.contains(&"event") {
                            in_event = false;
                        }
                        if closed.contains(&"trace") {
                            trace_name = None;
                        }
                        open_elements.truncate(i);
                    }
                    continue;
                }
                open_elements.pop();
                match element {
                    Element::Event => {
                        in_event = false;
                        let case = trace_name.as_deref().unwrap_or("trace-0");
                        let closed = close_event(&attrs, case, &mut events, &mut balance, scanner);
                        match closed {
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
                    Element::Trace => trace_name = None,
                    Element::Attribute | Element::Other => {}
                }
            }
        }
    }
    Ok(events)
}

/// The message of a close tag `</name>` that does not close `open`, the
/// innermost open element (`None`: no element is open). Shared with
/// the reference parser.
pub(crate) fn mismatched_close(name: &str, open: Option<&str>) -> String {
    match open {
        Some(open) => format!("closing tag `</{name}>` does not match the open `<{open}>`"),
        None => format!("closing tag `</{name}>` with no element open"),
    }
}

/// The event attribute keys the log model reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    Name,
    Transition,
    Timestamp,
    Output,
    Other,
}

impl Key {
    fn of(key: &str) -> Key {
        match key {
            "concept:name" => Key::Name,
            "lifecycle:transition" => Key::Transition,
            "time:timestamp" => Key::Timestamp,
            "procmine:output" => Key::Output,
            _ => Key::Other,
        }
    }
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
    fn set(&mut self, key: Key, value: Cow<'a, str>) {
        let slot = match key {
            Key::Name => &mut self.name,
            Key::Transition => &mut self.transition,
            Key::Timestamp => &mut self.timestamp,
            Key::Output => &mut self.output,
            Key::Other => return,
        };
        *slot = Some(value);
    }
}

/// Turns one closed `<event>` of case `case` into rows of `events`: a
/// START, or an END after an instantaneous START when none is open.
/// Validates before interning, so a refused event leaves `events`
/// untouched: it needs a name, a timestamp that parses if it has one,
/// and an output vector that parses if it has one (whatever its
/// transition; only an END keeps it).
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
    let output = match attrs.output.as_deref() {
        Some(v) => Some(
            parse_output_vector(v)
                .ok_or_else(|| scanner.error(format!("invalid output vector `{v}`")))?,
        ),
        None => None,
    };
    let case = events.case_id(case);
    let activity = events.activity_id(activity);
    let key = u64::from(case) << 32 | u64::from(activity);
    let is_start = attrs
        .transition
        .as_deref()
        .is_some_and(|t| t.eq_ignore_ascii_case("start"));
    if is_start {
        *balance.entry(key).or_insert(0) += 1;
        events.push(case, activity, EventKind::Start, stamp, None);
        return Ok(());
    }
    // Everything else — complete, a missing transition, and coarse
    // lifecycles like "ate_abort" — closes the instance. If no START is
    // open for this activity in this case, synthesize an instantaneous
    // one.
    match balance.entry(key) {
        Entry::Occupied(open) if *open.get() == 1 => {
            open.remove();
        }
        Entry::Occupied(mut open) => *open.get_mut() -= 1,
        Entry::Vacant(_) => events.push(case, activity, EventKind::Start, stamp, None),
    }
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
        // Leap days, and the last second of a day.
        assert_eq!(
            iso8601_to_millis("2000-02-29T23:59:59Z").unwrap(),
            951_868_799_000
        );
        assert_eq!(
            iso8601_to_millis("2024-02-29T00:00:00Z").unwrap(),
            1_709_164_800_000
        );
        for bad in [
            "1970-13-01T00:00:00Z",
            // Hour, minute and day-of-month ranges, and leap years.
            "2024-01-01T24:00:00Z",
            "2024-01-01T00:60:00Z",
            "2024-04-31T00:00:00Z",
            "2024-11-31T00:00:00Z",
            "2023-02-29T00:00:00Z",
            "1900-02-29T00:00:00Z",
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
            // Month, day, hour, minute, second and offset fields are
            // two digits each, with no sign.
            "2024-+1-01T00:00:+1Z",
            "2024-01-+1T00:00:00Z",
            "2024-01-01T-1:00:00Z",
            "2024-01-01T00:-1:00Z",
            "2024-01-01T00:00:-1Z",
            "2024-01-01T00:00:00+-1:00",
            "2024-01-01T00:00:00-+1:00",
            "2024-01-01T00:00:00+01:-1",
            "2024-01-01T 1:00:00Z",
            // Offsets: minutes below 60, and at most 14:00 either way.
            "2024-01-01T00:00:00.000+99:99",
            "2024-01-01T00:00:00+01:60",
            "2024-01-01T00:00:00+14:01",
            "2024-01-01T00:00:00-15:00",
        ] {
            assert!(iso8601_to_millis(bad).is_err(), "{bad}");
        }
        let midnight = iso8601_to_millis("2024-01-01T00:00:00Z").unwrap();
        for (offset, minutes) in [
            ("+14:00", -840i64),
            ("-14:00", 840),
            ("+05:45", -345),
            ("-00:30", 30),
        ] {
            let text = format!("2024-01-01T00:00:00{offset}");
            assert_eq!(
                iso8601_to_millis(&text).unwrap() as i64 - midnight as i64,
                minutes * 60_000,
                "{text}"
            );
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

    /// The timestamp parser this module had before it parsed by digit
    /// arithmetic (`str::find`, `str::parse`, `i128`), with the offset
    /// range check added: the judge of [`iso8601_to_millis`].
    fn reference_iso8601_to_millis(text: &str) -> Result<u64, String> {
        let fail = || format!("invalid ISO 8601 timestamp `{text}`");
        let year_len = text.find('-').ok_or_else(fail)?;
        let year = &text[..year_len];
        if year_len < 4
            || (year_len > 4 && year.starts_with('0'))
            || !year.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(fail());
        }
        if year_len > 9 {
            return Err(format!(
                "timestamp `{text}` is past the end of the log clock"
            ));
        }
        let y: i64 = year.parse().map_err(|_| fail())?;
        let rest = &text[year_len - 4..];
        let bytes = rest.as_bytes();
        if bytes.len() < 19 || bytes[7] != b'-' || !matches!(bytes[10], b'T' | b't' | b' ') {
            return Err(fail());
        }
        let num = |range: std::ops::Range<usize>| -> Result<i64, String> {
            match bytes.get(range) {
                Some(&[hi, lo]) if hi.is_ascii_digit() && lo.is_ascii_digit() => {
                    Ok(i64::from(hi - b'0') * 10 + i64::from(lo - b'0'))
                }
                _ => Err(fail()),
            }
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
                if om > 59 || oh * 60 + om > 14 * 60 {
                    return Err(fail());
                }
                offset_minutes = oh * 60 + om;
                if *sign == b'+' {
                    offset_minutes = -offset_minutes;
                }
            }
            Some(_) => return Err(fail()),
        }
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

    /// Canonical stamps are formatted from these ticks plus a delta:
    /// the epoch, 2024, the last second of year 9999, the end of the
    /// signed range, and the end of the clock.
    const STAMP_BASES: [u64; 5] = [
        0,
        1_710_028_800_000,
        253_402_300_799_000,
        i64::MAX as u64,
        u64::MAX - 100_000,
    ];
    /// What a mutation writes into a stamp.
    const PIECES: [&str; 16] = [
        "0", "9", "-", ":", "T", "t", " ", "+", "Z", "z", ".", "x", "é", "60", "+14:00", "1",
    ];
    const ZONES: [&str; 12] = [
        "", "Z", "z", "+00:00", "+14:00", "-14:00", "+14:01", "-15:00", "+99:99", "+01:60",
        "+05:45", "-00:30",
    ];
    const FRACTIONS: [&str; 6] = ["", ".", ".5", ".12", ".123456", ".0001"];

    /// `stamp` mutated by `kind`: kept, one character replaced, deleted
    /// or inserted at `at`, cut at `at`, prefixed (a longer year), the
    /// seconds made `60`, the zone or the fraction replaced.
    fn mutate(stamp: &str, kind: usize, at: usize, piece: usize) -> String {
        let chars: Vec<char> = stamp.chars().collect();
        let at = at % (chars.len() + 1);
        let head: String = chars[..at].iter().collect();
        let tail: String = chars[at..].iter().collect();
        let after: String = chars[(at + 1).min(chars.len())..].iter().collect();
        let p = PIECES[piece % PIECES.len()];
        // Field positions shift with the year's length.
        let y = stamp.find('-').unwrap() - 4;
        match kind {
            0 => stamp.to_string(),
            1 => head + p + &after,
            2 => head + &after,
            3 => head + p + &tail,
            4 => head,
            5 => format!("{p}{stamp}"),
            6 => format!("{}60{}", &stamp[..y + 17], &stamp[y + 19..]),
            7 => format!("{}{}", &stamp[..y + 23], ZONES[piece % ZONES.len()]),
            _ => format!(
                "{}{}{}",
                &stamp[..y + 19],
                FRACTIONS[piece % FRACTIONS.len()],
                &stamp[y + 23..]
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// A mutated stamp parses to the reference's result or error
        /// text.
        #[test]
        fn stamps_parse_like_the_reference(
            base in 0usize..STAMP_BASES.len(),
            delta in 0u64..200_000_000,
            kind in 0usize..9,
            at in 0usize..40,
            piece in 0usize..64,
        ) {
            let canonical = millis_to_iso8601(STAMP_BASES[base].saturating_add(delta));
            let text = mutate(&canonical, kind, at, piece);
            proptest::prop_assert_eq!(
                iso8601_to_millis(&text),
                reference_iso8601_to_millis(&text),
                "{}",
                text
            );
        }
    }

    /// The word search finds what a byte loop finds, in every position
    /// of a word and of the tail after the last whole word, next to
    /// bytes one bit away from a needle and non-ASCII bytes.
    #[test]
    fn find_any_matches_a_byte_loop() {
        let fillers = [b' ', b'<' ^ 1, b'<' ^ 0x80, b'"' + 1, 0xC3, 0xFF, 0];
        for len in 0..40 {
            for filler in fillers {
                let mut hay = vec![filler; len];
                assert_eq!(find_any([b'<'], &hay), None);
                for at in (0..len).rev() {
                    hay[at] = if at % 2 == 0 { b'"' } else { b'&' };
                    let expected = hay.iter().position(|&b| b == b'"' || b == b'&');
                    assert_eq!(find_any([b'"', b'&'], &hay), expected, "{hay:?}");
                    assert_eq!(
                        find_any([b'&'], &hay),
                        hay.iter().position(|&b| b == b'&'),
                        "{hay:?}"
                    );
                }
            }
        }
    }

    /// Line, column and offset of `end` in `text`, counted from the
    /// start: what the scanner reported before it kept a cursor.
    fn recount(text: &str, end: usize) -> (usize, usize, u64) {
        let end = end.min(text.len());
        let mut line = 1usize;
        let mut line_start = 0usize;
        for (i, &b) in text.as_bytes()[..end].iter().enumerate() {
            if b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        (line, 1 + text[line_start..end].chars().count(), end as u64)
    }

    #[test]
    fn position_cursor_matches_a_recount() {
        let long = "ab".repeat(50_000);
        let docs = [
            "<log>\n  <trace>\r\n\t<event/>\r\n</trace>\n</log>\n".to_string(),
            "<a>Prüfung 審査\nΩ\r\n\u{A0}é</a>\n\n".repeat(20),
            // One 100 KB line: its columns are counted on from the cursor.
            format!("<log>{long}é{long}</log>"),
            format!("\r\n{long}\r\n審{long}"),
        ];
        for doc in &docs {
            let boundaries: Vec<usize> = (0..=doc.len())
                .filter(|&i| doc.is_char_boundary(i))
                .collect();
            let stride = (boundaries.len() / 500).max(1);
            let forward: Vec<usize> = boundaries.iter().copied().step_by(stride).collect();
            let mut scanner = Scanner::new(doc);
            // Increasing offsets, each asked twice; then back to earlier
            // ones, which count from the start again; then past the end.
            let back = forward.iter().rev().step_by(97).copied();
            for pos in forward.iter().copied().chain(back).chain([doc.len() + 1]) {
                scanner.pos = pos;
                for _ in 0..2 {
                    assert_eq!(scanner.position(), recount(doc, pos), "offset {pos}");
                }
            }
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
            "<log><trace><event></log>",               // mismatched nesting…
            "<log><event><string key=></event></log>", // …broken attributes…
            "<log><trace><event><string key='concept:name' value='A'", // …truncation
        ] {
            assert!(read_log(bad.as_bytes()).is_err(), "{bad}");
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

    /// A trace `c1` whose second event opens as `<evXnt>` and closes
    /// with `</event>`: the close tag closes no `<event>`, so it emits
    /// nothing, and the `concept:name` inside `<evXnt>` is not the
    /// trace's. Strict reads fail at the close tag; recovering reads
    /// record it, and the `</trace>` that closes over the open
    /// `<evXnt>`, and keep `c1`'s other events.
    #[test]
    fn a_close_tag_closes_only_the_innermost_open_element() {
        let doc = "<log><trace><string key=\"concept:name\" value=\"c1\"/>\n\
                   <event><string key=\"concept:name\" value=\"A\"/></event>\n\
                   <evXnt><string key=\"concept:name\" value=\"B\"/></event>\n\
                   <event><string key=\"concept:name\" value=\"C\"/></event>\n\
                   </trace></log>\n";
        let line3 = doc.lines().nth(2).unwrap();
        let column = line3.find("</event>").unwrap() + 1;
        let at = doc.find("</event>\n<event>").unwrap() as u64;
        let err = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap_err();
        assert!(
            matches!(
                &err,
                LogError::Xml { line: 3, column: c, message }
                    if *c == column
                        && message == "closing tag `</event>` does not match the open `<evXnt>`"
            ),
            "{err:?}"
        );
        for policy in [
            RecoveryPolicy::Skip { max_errors: 4 },
            RecoveryPolicy::BestEffort,
        ] {
            let mut report = IngestReport::default();
            let log = read_log_with(
                doc.as_bytes(),
                policy,
                &mut CodecStats::default(),
                &mut report,
            )
            .unwrap();
            assert_eq!(log.display_sequences(), ["A C"], "{policy:?}");
            assert_eq!(log.executions()[0].id, "c1");
            assert_eq!(report.errors_total, 2);
            assert_eq!(
                (report.errors[0].byte_offset, report.errors[0].line),
                (at, 3)
            );
            assert!(report.errors[1].message.contains("`</trace>`"));
        }
    }

    /// Numeric character references decode to their character, in
    /// attribute values as in `unescape` itself; malformed ones and
    /// code points XML excludes are refused.
    #[test]
    fn numeric_character_references_decode() {
        for (raw, want) in [
            ("c&#49;", "c1"),
            ("A&#x26;B", "A&B"),
            ("&#10;", "\n"),
            ("&#x1F600;", "\u{1F600}"),
            ("&#x4a;&#x4A;&#0074;", "JJJ"),
            ("&#9;&#13;&#xFFFD;&#x10FFFF;", "\t\r\u{FFFD}\u{10FFFF}"),
        ] {
            assert_eq!(unescape(raw).as_deref(), Ok(want), "{raw}");
        }
        for raw in [
            "&#;",
            "&#x;",
            "&#12a;",
            "&#0;",
            "&#xD800;",
            "&#x110000;",
            "&#X41;",
            "&#+65;",
            "&#x1;",
            "&#xFFFE;",
            "&#99999999999;",
        ] {
            let err = unescape(raw).unwrap_err();
            assert!(err.contains("invalid character reference"), "{raw}: {err}");
        }
        let doc = "<log><trace><string key=\"concept:name\" value=\"c&#49;\"/>\
                   <event><string key=\"concept:name\" value=\"A&#x26;B\"/></event>\
                   </trace></log>";
        let log = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap();
        assert_eq!(log.executions()[0].id, "c1");
        assert_eq!(log.activities().names(), ["A&B"]);
        let refused = doc.replace("&#49;", "&#0;");
        let err = read_like_reference(refused.as_bytes(), RecoveryPolicy::Strict).unwrap_err();
        assert!(
            matches!(&err, LogError::Xml { line: 1, message, .. }
                if message == "invalid character reference `&#0;`"),
            "{err:?}"
        );
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

    /// One timed, named event carrying `output` as its
    /// `procmine:output`.
    fn event_with_output(name: &str, output: &str) -> String {
        format!(
            "<event><string key=\"concept:name\" value=\"{name}\"/>\
             <date key=\"time:timestamp\" value=\"2024-01-01T00:00:00Z\"/>\
             <string key=\"procmine:output\" value=\"{output}\"/></event>"
        )
    }

    #[test]
    fn malformed_output_vectors_are_refused_at_the_event() {
        for bad in ["1;x;3", "7;;8", "1;", "x"] {
            let doc = format!(
                "<log>{}</log>",
                trace(
                    "c",
                    &[
                        event("A", None, Some("2024-01-01T00:00:00Z")),
                        event_with_output("B", bad),
                    ]
                )
            );
            let err = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap_err();
            let end = doc.find("</event></trace>").unwrap() + "</event>".len();
            assert_eq!(
                err.to_string(),
                format!(
                    "XML error at line 1, column {}: invalid output vector `{bad}`",
                    end + 1
                ),
                "{bad}"
            );
            // Under recovery the event is skipped and counted.
            let mut report = IngestReport::default();
            let log = read_log_with(
                doc.as_bytes(),
                RecoveryPolicy::Skip { max_errors: 1 },
                &mut CodecStats::default(),
                &mut report,
            )
            .unwrap();
            assert_eq!(log.display_sequences(), ["A"], "{bad}");
            assert_eq!(
                (report.records_skipped, report.errors_total),
                (1, 1),
                "{bad}"
            );
            assert_eq!(report.errors[0].byte_offset, end as u64, "{bad}");
        }
    }

    #[test]
    fn output_vectors_read_like_flowmark() {
        for (value, expected) in [
            ("", vec![]),
            ("  ", vec![]),
            ("3", vec![3]),
            (" 1 ; -2 ;+3", vec![1, -2, 3]),
        ] {
            let doc = format!(
                "<log>{}</log>",
                trace("c", &[event_with_output("A", value)])
            );
            let log = read_like_reference(doc.as_bytes(), RecoveryPolicy::Strict).unwrap();
            let inst = &log.executions()[0].instances()[0];
            assert_eq!(inst.output.as_deref(), Some(&expected[..]), "{value:?}");
        }
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
