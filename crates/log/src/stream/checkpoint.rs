//! Checkpoint envelope: a versioned, checksummed, atomically-written
//! container for streaming-pipeline state.
//!
//! A `procmine mine --follow --checkpoint FILE` session periodically
//! persists its full pipeline state — miner counts, open cases, source
//! position — so a crashed process can resume instead of re-absorbing
//! the whole log. This module owns the *container*, not the payload:
//!
//! * a fixed header (`magic || version || payload length || CRC32`)
//!   that detects foreign files, version skew, torn writes, and bit
//!   rot before any payload byte is interpreted;
//! * [`write_atomic`] — `tmp` file + `fsync` + `rename` (+ best-effort
//!   directory sync), so a crash mid-save leaves either the old
//!   checkpoint or the new one, never a half-written hybrid;
//! * [`WireWriter`] / [`WireReader`] — a tiny length-prefixed binary
//!   encoding used by the state payloads (bounds-checked on decode, so
//!   even a CRC-colliding corruption cannot panic or over-allocate).
//!
//! The failure matrix is deliberately typed ([`CheckpointError`]):
//! callers distinguish "not a checkpoint at all" from "right format,
//! wrong version" from "torn/corrupt", because the CLI degrades each
//! differently (refuse vs. cold-start under `--recover`).

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// First bytes of every checkpoint file.
pub const MAGIC: &[u8; 7] = b"PMCKPT\n";

/// Current checkpoint format version. Bump on any payload layout
/// change; readers refuse other versions with
/// [`CheckpointError::VersionSkew`].
pub const VERSION: u16 = 1;

/// Header length: magic (7) + version (2) + payload length (8) +
/// CRC32 (4).
pub const HEADER_LEN: usize = 21;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (open, write, fsync, rename).
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — it is not a
    /// checkpoint (or its header itself was destroyed).
    NotACheckpoint,
    /// The file is a checkpoint of an incompatible format version.
    VersionSkew {
        /// Version found in the file.
        found: u16,
        /// Version this build reads and writes.
        expected: u16,
    },
    /// The file is shorter than its header promises — a torn write.
    Truncated {
        /// Payload bytes the header declares.
        expected: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload does not match its recorded CRC32 — bit rot or a
    /// torn overwrite.
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        actual: u32,
    },
    /// The envelope was intact but the payload failed structural
    /// decoding or validation.
    Payload {
        /// What failed, with enough context to locate it.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::NotACheckpoint => {
                write!(f, "not a procmine checkpoint (bad magic)")
            }
            CheckpointError::VersionSkew { found, expected } => write!(
                f,
                "checkpoint format version {found} is not readable by this build (expected {expected})"
            ),
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint is truncated: header promises {expected} payload bytes, found {actual}"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:#010x}, computed {actual:#010x}"
            ),
            CheckpointError::Payload { message } => {
                write!(f, "checkpoint payload is invalid: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// CRC32 (IEEE 802.3 polynomial, reflected), slice-by-8: eight
// 256-entry tables fold eight input bytes per step. Vendored so the
// checkpoint format needs no external dependency.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[k][b]: the CRC state after byte b and then k zero bytes.
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The envelope header of `payload`: magic, version, payload length,
/// CRC32.
fn header(payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..7].copy_from_slice(MAGIC);
    h[7..9].copy_from_slice(&VERSION.to_le_bytes());
    h[9..17].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[17..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Wraps `payload` in the checkpoint envelope (header + payload).
pub fn encode_envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header(payload));
    out.extend_from_slice(payload);
    out
}

/// Validates the envelope and returns the payload slice. Every check
/// runs before a single payload byte is interpreted: magic, version,
/// declared length, CRC32.
pub fn decode_envelope(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < HEADER_LEN || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::NotACheckpoint);
    }
    let version = u16::from_le_bytes([bytes[7], bytes[8]]);
    if version != VERSION {
        return Err(CheckpointError::VersionSkew {
            found: version,
            expected: VERSION,
        });
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&bytes[9..17]);
    let expected_len = u64::from_le_bytes(len_bytes);
    let actual_len = (bytes.len() - HEADER_LEN) as u64;
    if actual_len < expected_len {
        return Err(CheckpointError::Truncated {
            expected: expected_len,
            actual: actual_len,
        });
    }
    // Trailing garbage past the declared length is ignored: the CRC
    // covers exactly the declared payload.
    let payload = &bytes[HEADER_LEN..HEADER_LEN + expected_len as usize];
    let expected_crc = u32::from_le_bytes([bytes[17], bytes[18], bytes[19], bytes[20]]);
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(CheckpointError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(payload)
}

/// Writes `payload` (wrapped in the envelope) to `path` atomically:
/// the bytes land in `<path>.tmp`, are fsynced, and only then renamed
/// over `path`. A crash at any point leaves either the previous
/// checkpoint or the new one — never a torn hybrid. The parent
/// directory is synced best-effort so the rename itself survives a
/// power loss.
pub fn write_atomic(path: &Path, payload: &[u8]) -> Result<(), CheckpointError> {
    write_atomic_raw(path, &encode_envelope(payload))
}

/// Atomic replace without the checkpoint envelope: `bytes` land on
/// disk exactly as given. Same tmp + fsync + rename discipline as
/// [`write_atomic`], for callers (metrics exports) whose readers
/// expect the raw format, not an envelope.
pub fn write_atomic_raw(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        // Directory fsync is advisory: some filesystems refuse it, and
        // the rename is already durable-enough for our failure model
        // (a lost rename re-reads the previous checkpoint).
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads `path`, validates the envelope, and returns the payload.
pub fn read_payload(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_envelope(&bytes).map(<[u8]>::to_vec)
}

/// Structural decode failure inside a checkpoint payload. Converted to
/// [`CheckpointError::Payload`] at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What failed (field, expected size, found size).
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Payload { message: e.message }
    }
}

/// Little-endian, length-prefixed payload encoder. The matching
/// decoder is [`WireReader`]; both sides must agree field for field —
/// the envelope version is the compatibility contract.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Bytes reserved in front of the payload for the envelope header:
    /// `HEADER_LEN` for [`WireWriter::enveloped`], else 0.
    start: usize,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// An empty writer with the envelope header reserved in front of
    /// the payload and room for `capacity` payload bytes, so
    /// [`WireWriter::into_envelope`] seals the checkpoint file in
    /// place: a payload encoded into it is never copied.
    pub fn enveloped(capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + capacity);
        buf.resize(HEADER_LEN, 0);
        WireWriter {
            buf,
            start: HEADER_LEN,
        }
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..self.start);
        self.buf
    }

    /// Consumes the writer, returning the payload wrapped in the
    /// checkpoint envelope: the bytes of a checkpoint file. Written in
    /// place by an [`WireWriter::enveloped`] writer; a plain one copies
    /// its payload behind the header.
    pub fn into_envelope(mut self) -> Vec<u8> {
        if self.start != HEADER_LEN {
            return encode_envelope(&self.buf);
        }
        let h = header(&self.buf[HEADER_LEN..]);
        self.buf[..HEADER_LEN].copy_from_slice(&h);
        self.buf
    }

    /// Appends bytes as they are: a part encoded by another writer.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked decoder for [`WireWriter`] payloads. Every read
/// validates against the remaining bytes, so a corrupted (or
/// CRC-colliding) payload produces a [`WireError`], never a panic or
/// an attacker-sized allocation.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed — trailing garbage in a
    /// payload is a decode bug or corruption, not slack.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError {
                message: format!("{} unconsumed payload bytes", self.remaining()),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError {
                message: format!(
                    "{what}: need {n} bytes at offset {}, only {} remain",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self, what: &str) -> Result<i64, WireError> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self, what: &str) -> Result<usize, WireError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| WireError {
            message: format!("{what}: value {v} exceeds usize"),
        })
    }

    /// Reads an element count that must be plausible for the remaining
    /// bytes (each element occupying at least `min_elem_bytes`), so a
    /// corrupt length cannot drive an over-allocation.
    pub fn get_len(&mut self, what: &str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.get_usize(what)?;
        let budget = self.remaining() / min_elem_bytes.max(1);
        if len > budget {
            return Err(WireError {
                message: format!(
                    "{what}: declared {len} elements, at most {budget} fit in the remaining bytes"
                ),
            });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.get_len(what, 1)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError {
            message: format!("{what}: not valid UTF-8"),
        })
    }
}

/// Encodes an [`EventRecord`](crate::EventRecord).
pub fn encode_event(w: &mut WireWriter, e: &crate::EventRecord) {
    w.put_str(&e.process);
    w.put_str(&e.activity);
    w.put_u8(match e.kind {
        crate::EventKind::Start => 0,
        crate::EventKind::End => 1,
    });
    w.put_u64(e.time);
    match &e.output {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            w.put_usize(v.len());
            for &x in v {
                w.put_i64(x);
            }
        }
    }
}

/// Decodes an [`EventRecord`](crate::EventRecord).
pub fn decode_event(r: &mut WireReader<'_>) -> Result<crate::EventRecord, WireError> {
    let process = r.get_str("event.process")?;
    let activity = r.get_str("event.activity")?;
    let kind = match r.get_u8("event.kind")? {
        0 => crate::EventKind::Start,
        1 => crate::EventKind::End,
        other => {
            return Err(WireError {
                message: format!("event.kind: unknown tag {other}"),
            })
        }
    };
    let time = r.get_u64("event.time")?;
    let output = match r.get_u8("event.output")? {
        0 => None,
        1 => {
            let len = r.get_len("event.output.len", 8)?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(r.get_i64("event.output.value")?);
            }
            Some(v)
        }
        other => {
            return Err(WireError {
                message: format!("event.output: unknown tag {other}"),
            })
        }
    };
    Ok(crate::EventRecord {
        process,
        activity,
        kind,
        time,
        output,
    })
}

/// Encodes a [`SourceLocation`](super::SourceLocation).
pub fn encode_location(w: &mut WireWriter, at: &super::SourceLocation) {
    w.put_u64(at.byte_offset);
    w.put_usize(at.line);
}

/// Decodes a [`SourceLocation`](super::SourceLocation).
pub fn decode_location(r: &mut WireReader<'_>) -> Result<super::SourceLocation, WireError> {
    Ok(super::SourceLocation {
        byte_offset: r.get_u64("location.byte_offset")?,
        line: r.get_usize("location.line")?,
    })
}

/// Encodes a [`CodecStats`](crate::codec::CodecStats).
pub fn encode_stats(w: &mut WireWriter, stats: &crate::codec::CodecStats) {
    w.put_u64(stats.bytes_read);
    w.put_u64(stats.events_parsed);
    w.put_u64(stats.executions_parsed);
}

/// Decodes a [`CodecStats`](crate::codec::CodecStats).
pub fn decode_stats(r: &mut WireReader<'_>) -> Result<crate::codec::CodecStats, WireError> {
    Ok(crate::codec::CodecStats {
        bytes_read: r.get_u64("stats.bytes_read")?,
        events_parsed: r.get_u64("stats.events_parsed")?,
        executions_parsed: r.get_u64("stats.executions_parsed")?,
    })
}

/// Encodes an [`IngestReport`](crate::IngestReport).
pub fn encode_report(w: &mut WireWriter, report: &crate::IngestReport) {
    w.put_u64(report.records_parsed);
    w.put_u64(report.records_skipped);
    w.put_u64(report.errors_total);
    w.put_u64(report.cases_evicted);
    w.put_usize(report.errors.len());
    for e in &report.errors {
        w.put_u64(e.byte_offset);
        w.put_usize(e.line);
        w.put_str(&e.message);
    }
}

/// Decodes an [`IngestReport`](crate::IngestReport).
pub fn decode_report(r: &mut WireReader<'_>) -> Result<crate::IngestReport, WireError> {
    let records_parsed = r.get_u64("report.records_parsed")?;
    let records_skipped = r.get_u64("report.records_skipped")?;
    let errors_total = r.get_u64("report.errors_total")?;
    let cases_evicted = r.get_u64("report.cases_evicted")?;
    let len = r.get_len("report.errors.len", 24)?;
    let mut errors = Vec::with_capacity(len);
    for _ in 0..len {
        errors.push(crate::IngestError {
            byte_offset: r.get_u64("report.error.byte_offset")?,
            line: r.get_usize("report.error.line")?,
            message: r.get_str("report.error.message")?,
        });
    }
    Ok(crate::IngestReport {
        records_parsed,
        records_skipped,
        errors_total,
        cases_evicted,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_type_codecs_roundtrip() {
        let event = crate::EventRecord {
            process: "case-7".to_string(),
            activity: "Ship".to_string(),
            kind: crate::EventKind::End,
            time: 42,
            output: Some(vec![-1, 0, 7]),
        };
        let at = super::super::SourceLocation {
            byte_offset: 1234,
            line: 56,
        };
        let stats = crate::codec::CodecStats {
            bytes_read: 1,
            events_parsed: 2,
            executions_parsed: 3,
        };
        let mut report = crate::IngestReport::default();
        report.record_error(9, 2, "bad line");
        report.records_parsed = 10;

        let mut w = WireWriter::new();
        encode_event(&mut w, &event);
        encode_location(&mut w, &at);
        encode_stats(&mut w, &stats);
        encode_report(&mut w, &report);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(decode_event(&mut r).unwrap(), event);
        assert_eq!(decode_location(&mut r).unwrap(), at);
        assert_eq!(decode_stats(&mut r).unwrap(), stats);
        assert_eq!(decode_report(&mut r).unwrap(), report);
        r.finish().unwrap();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Reference: the bytewise table-driven CRC32.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// A deterministic pseudo-random buffer (xorshift64*).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed >> 12;
                seed ^= seed << 25;
                seed ^= seed >> 27;
                (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        let buf = noise(64 + 8, 0x5EED);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
        let big = noise(1 << 20, 7);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    /// Envelope bytes are pinned: checkpoints written by earlier builds
    /// must keep loading, and theirs must load ours.
    #[test]
    fn envelope_bytes_are_pinned() {
        let payload = b"procmine checkpoint payload\x00\x01\x02\xff";
        let mut expected = Vec::new();
        expected.extend_from_slice(b"PMCKPT\n");
        expected.extend_from_slice(&[0x01, 0x00]); // version 1
        expected.extend_from_slice(&[31, 0, 0, 0, 0, 0, 0, 0]); // payload length
        expected.extend_from_slice(&[0xB9, 0x12, 0x01, 0x71]); // CRC32, little-endian
        expected.extend_from_slice(payload);
        assert_eq!(encode_envelope(payload), expected);
    }

    #[test]
    fn envelope_roundtrips() {
        let payload = b"hello checkpoint";
        let bytes = encode_envelope(payload);
        assert_eq!(decode_envelope(&bytes).unwrap(), payload);
    }

    #[test]
    fn foreign_file_is_not_a_checkpoint() {
        assert!(matches!(
            decode_envelope(b"p1,A,START,0\np1,A,END,1\n"),
            Err(CheckpointError::NotACheckpoint)
        ));
        assert!(matches!(
            decode_envelope(b""),
            Err(CheckpointError::NotACheckpoint)
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = encode_envelope(b"x");
        bytes[7] = 99;
        assert!(matches!(
            decode_envelope(&bytes),
            Err(CheckpointError::VersionSkew {
                found: 99,
                expected: VERSION
            })
        ));
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = encode_envelope(b"some payload worth keeping");
        for cut in 0..bytes.len() {
            let err = decode_envelope(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::NotACheckpoint | CheckpointError::Truncated { .. }
                ),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let bytes = encode_envelope(b"bit flips must not pass");
        for i in HEADER_LEN..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0x10;
            assert!(
                matches!(
                    decode_envelope(&dirty),
                    Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "flip at byte {i} was not caught"
            );
        }
    }

    #[test]
    fn atomic_write_then_read_roundtrips() {
        let path =
            std::env::temp_dir().join(format!("procmine-ckpt-test-{}.ckpt", std::process::id()));
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(read_payload(&path).unwrap(), b"payload");
        // Overwrite: the rename replaces the previous checkpoint.
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read_payload(&path).unwrap(), b"second");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wire_roundtrip_and_bounds() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_str("caseid");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX);
        assert_eq!(r.get_i64("d").unwrap(), -42);
        assert_eq!(r.get_str("e").unwrap(), "caseid");
        r.finish().unwrap();

        // A declared length larger than the remaining bytes is refused
        // before any allocation.
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_len("huge", 1).is_err());
    }

    #[test]
    fn unconsumed_payload_bytes_are_an_error() {
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.get_u64("first").unwrap();
        assert!(r.finish().is_err());
    }
}
