//! Streaming archive reader/writer with CRC-framed records.

use std::io::{self, Read, Write};

use ripple_obs::LazyCounter;

use crate::event::HistoryEvent;
use crate::frame::{self, Parsed};

static WRITER_FRAMES: LazyCounter = LazyCounter::new("store.writer.frames");
static WRITER_BYTES: LazyCounter = LazyCounter::new("store.writer.bytes");
static READER_FRAMES: LazyCounter = LazyCounter::new("store.reader.frames");
static READER_BYTES: LazyCounter = LazyCounter::new("store.reader.bytes");
static READER_CRC_FAILURES: LazyCounter = LazyCounter::new("store.reader.crc_failures");
static READER_RESYNC_SCANS: LazyCounter = LazyCounter::new("store.reader.resync_scans");

/// The 8-byte archive magic.
pub const MAGIC: &[u8; 8] = b"RPLSTOR1";

/// Maximum payload size accepted by the archive and sidecar readers (a
/// corrupt length prefix must not trigger a giant allocation).
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Errors from archive I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid data (bad magic, bad CRC, truncated frame,
    /// malformed payload).
    Corrupt(String),
}

impl StoreError {
    /// A [`StoreError::Corrupt`] with the given message.
    pub fn corrupt(msg: impl Into<String>) -> StoreError {
        StoreError::Corrupt(msg.into())
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "archive I/O failed: {e}"),
            StoreError::Corrupt(msg) => write!(f, "archive corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Streaming archive writer.
///
/// A mutable reference works wherever an owned writer does (`Write` is
/// implemented for `&mut W`), so callers can keep ownership of their sink.
#[derive(Debug)]
pub struct Writer<W: Write> {
    sink: W,
    wrote_magic: bool,
    records: u64,
    /// Reused frame buffer: one allocation serves every `write` call.
    scratch: Vec<u8>,
}

impl<W: Write> Writer<W> {
    /// Creates a writer over `sink`. The magic is emitted lazily on the
    /// first record (or on [`Writer::finish`] for empty archives).
    pub fn new(sink: W) -> Writer<W> {
        Writer {
            sink,
            wrote_magic: false,
            records: 0,
            scratch: Vec::new(),
        }
    }

    fn ensure_magic(&mut self) -> Result<(), StoreError> {
        if !self.wrote_magic {
            self.sink.write_all(MAGIC)?;
            self.wrote_magic = true;
        }
        Ok(())
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on sink failure.
    pub fn write(&mut self, event: &HistoryEvent) -> Result<(), StoreError> {
        self.ensure_magic()?;
        self.scratch.clear();
        frame::encode(&mut self.scratch, event.tag(), |out| {
            event.encode_payload_into(out)
        });
        self.sink.write_all(&self.scratch)?;
        self.records += 1;
        WRITER_FRAMES.add(1);
        WRITER_BYTES.add(self.scratch.len() as u64);
        Ok(())
    }

    /// Number of records written.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<W, StoreError> {
        self.ensure_magic()?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// How the [`Reader`] reacts to structurally invalid data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Abort with [`StoreError::Corrupt`] at the first bad frame (the
    /// historical behaviour, and the default).
    #[default]
    Strict,
    /// Resynchronize: scan forward byte-by-byte for the next frame whose
    /// CRC and payload both validate, salvaging every intact record after
    /// a corrupt region. Skipped bytes and corrupt regions are tallied in
    /// [`RecoveryStats`].
    Resync,
}

/// Salvage counters maintained by a [`ReadMode::Resync`] reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Records successfully decoded.
    pub records: u64,
    /// Bytes discarded while hunting for the next valid frame.
    pub skipped_bytes: u64,
    /// Contiguous corrupt regions crossed (one torn write or burst of bit
    /// flips counts once, however many bytes it ruined).
    pub corrupt_regions: u64,
}

/// Outcome of attempting to parse one frame at the current cursor.
enum Frame {
    /// Clean end of archive: zero unconsumed bytes remain.
    Eof,
    /// A valid record: the event plus the frame's total size in bytes.
    Ok(Box<HistoryEvent>, usize),
    /// Source ended mid-frame.
    Truncated,
    /// Length prefix above [`MAX_PAYLOAD`].
    Oversize(usize),
    /// Frame CRC does not match its contents.
    BadCrc,
    /// CRC passed but the payload would not decode.
    BadPayload(StoreError),
}

/// Streaming archive reader.
///
/// [`Reader::new`] opens in [`ReadMode::Strict`]; [`Reader::recovering`]
/// opens in [`ReadMode::Resync`], which rides over corrupt regions
/// (torn writes, bit flips, truncated tails) and salvages every record
/// that still frames and decodes cleanly.
#[derive(Debug)]
pub struct Reader<R: Read> {
    source: R,
    mode: ReadMode,
    buf: Vec<u8>,
    pos: usize,
    source_eof: bool,
    records: u64,
    skipped_bytes: u64,
    corrupt_regions: u64,
    in_corrupt_region: bool,
    /// Absolute archive offset of the next unconsumed byte. Starts just
    /// past the magic and advances through resync skips too, so frame
    /// offsets stay exact even on salvaged archives.
    consumed: u64,
}

/// Read chunk size for the internal buffer.
const FILL_CHUNK: usize = 64 * 1024;

impl<R: Read> Reader<R> {
    /// Opens an archive in strict mode, validating the magic.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the magic does not match;
    /// [`StoreError::Io`] on read failure.
    pub fn new(source: R) -> Result<Reader<R>, StoreError> {
        Reader::with_mode(source, ReadMode::Strict)
    }

    /// Opens an archive in [`ReadMode::Resync`]: mid-stream corruption is
    /// skipped rather than fatal.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the magic does not match;
    /// [`StoreError::Io`] on read failure. (A missing or damaged magic
    /// means there is no evidence the input is an archive at all, so even
    /// resync mode refuses it.)
    pub fn recovering(source: R) -> Result<Reader<R>, StoreError> {
        Reader::with_mode(source, ReadMode::Resync)
    }

    /// Opens an archive with an explicit [`ReadMode`].
    ///
    /// # Errors
    ///
    /// See [`Reader::new`].
    pub fn with_mode(mut source: R, mode: ReadMode) -> Result<Reader<R>, StoreError> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StoreError::corrupt("archive shorter than its magic")
            } else {
                StoreError::Io(e)
            }
        })?;
        if &magic != MAGIC {
            return Err(StoreError::corrupt("bad archive magic"));
        }
        Ok(Reader {
            source,
            mode,
            buf: Vec::new(),
            pos: 0,
            source_eof: false,
            records: 0,
            skipped_bytes: 0,
            corrupt_regions: 0,
            in_corrupt_region: false,
            consumed: MAGIC.len() as u64,
        })
    }

    /// Bytes currently unconsumed in the internal buffer.
    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pulls from the source until at least `n` bytes are buffered or the
    /// source is exhausted.
    fn fill_to(&mut self, n: usize) -> Result<(), StoreError> {
        while !self.source_eof && self.available() < n {
            let start = self.buf.len();
            self.buf.resize(start + FILL_CHUNK, 0);
            let got = self.source.read(&mut self.buf[start..])?;
            self.buf.truncate(start + got);
            if got == 0 {
                self.source_eof = true;
            }
        }
        Ok(())
    }

    /// Attempts to parse one frame at the cursor without consuming it. The
    /// end of the source is final: a frame it cuts short is truncated.
    fn parse_frame(&mut self) -> Result<Frame, StoreError> {
        self.fill_to(frame::HEADER_LEN)?;
        if self.available() == 0 {
            return Ok(Frame::Eof);
        }
        let parsed = loop {
            match frame::parse(&self.buf[self.pos..], MAX_PAYLOAD) {
                Parsed::Short(need) if !self.source_eof => self.fill_to(need)?,
                parsed => break parsed,
            }
        };
        Ok(match parsed {
            Parsed::Short(_) => Frame::Truncated,
            Parsed::Oversize(len) => Frame::Oversize(len),
            Parsed::BadCrc => Frame::BadCrc,
            Parsed::Frame { tag, payload, len } => match HistoryEvent::decode_payload(tag, payload)
            {
                Ok(event) => Frame::Ok(Box::new(event), len),
                Err(e) => Frame::BadPayload(e),
            },
        })
    }

    /// Consumes `frame_len` bytes and compacts the buffer when the dead
    /// prefix grows large.
    fn consume(&mut self, frame_len: usize) {
        self.pos += frame_len;
        self.consumed += frame_len as u64;
        if self.pos >= FILL_CHUNK {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Reads the next event, or `None` at the end of the archive.
    ///
    /// # Errors
    ///
    /// In [`ReadMode::Strict`], [`StoreError::Corrupt`] on CRC mismatch,
    /// truncation mid-record, or a malformed payload. In
    /// [`ReadMode::Resync`] those conditions skip forward instead (tallied
    /// in [`Reader::stats`]); only I/O errors surface.
    pub fn next_event(&mut self) -> Result<Option<HistoryEvent>, StoreError> {
        Ok(self.next_event_at()?.map(|(_, event)| event))
    }

    /// Reads the next event along with the absolute byte offset its frame
    /// starts at — the currency of the secondary indexes. Offsets remain
    /// exact across [`ReadMode::Resync`] gaps (skipped bytes advance the
    /// cursor too), which is what lets an index built over a salvaged
    /// archive still seek to real frame boundaries.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reader::next_event`].
    pub fn next_event_at(&mut self) -> Result<Option<(u64, HistoryEvent)>, StoreError> {
        loop {
            let frame = self.parse_frame()?;
            match frame {
                Frame::Eof => return Ok(None),
                Frame::Ok(event, frame_len) => {
                    let start = self.consumed;
                    self.consume(frame_len);
                    self.records += 1;
                    self.in_corrupt_region = false;
                    READER_FRAMES.add(1);
                    READER_BYTES.add(frame_len as u64);
                    return Ok(Some((start, *event)));
                }
                Frame::Truncated if self.mode == ReadMode::Strict => {
                    return Err(StoreError::corrupt("archive truncated mid-record"));
                }
                Frame::Oversize(len) if self.mode == ReadMode::Strict => {
                    return Err(StoreError::corrupt(format!(
                        "payload length {len} exceeds cap {MAX_PAYLOAD}"
                    )));
                }
                Frame::BadCrc if self.mode == ReadMode::Strict => {
                    READER_CRC_FAILURES.add(1);
                    return Err(StoreError::corrupt(format!(
                        "CRC mismatch in record {}",
                        self.records
                    )));
                }
                Frame::BadPayload(e) if self.mode == ReadMode::Strict => return Err(e),
                // Resync: shift one byte and rescan for the next frame
                // boundary that validates end to end.
                Frame::Truncated | Frame::Oversize(_) | Frame::BadCrc | Frame::BadPayload(_) => {
                    if !self.in_corrupt_region {
                        self.in_corrupt_region = true;
                        self.corrupt_regions += 1;
                        // One scan per corrupt region, not one per shifted
                        // byte: the metric counts recovery episodes.
                        READER_RESYNC_SCANS.add(1);
                        if matches!(frame, Frame::BadCrc) {
                            READER_CRC_FAILURES.add(1);
                        }
                    }
                    self.consume(1);
                    self.skipped_bytes += 1;
                }
            }
        }
    }

    /// Salvage counters (all zero for a clean archive or strict mode
    /// before any error).
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            records: self.records,
            skipped_bytes: self.skipped_bytes,
            corrupt_regions: self.corrupt_regions,
        }
    }

    /// Drains the remaining events into a vector.
    ///
    /// # Errors
    ///
    /// Propagates the first error encountered.
    pub fn read_all(mut self) -> Result<Vec<HistoryEvent>, StoreError> {
        let mut out = Vec::new();
        while let Some(event) = self.next_event()? {
            out.push(event);
        }
        Ok(out)
    }

    /// Drains the remaining events, also returning the salvage counters —
    /// the natural endpoint for a [`ReadMode::Resync`] read.
    ///
    /// # Errors
    ///
    /// Propagates the first error encountered (I/O only, in resync mode).
    pub fn read_all_with_stats(mut self) -> Result<(Vec<HistoryEvent>, RecoveryStats), StoreError> {
        let mut out = Vec::new();
        while let Some(event) = self.next_event()? {
            out.push(event);
        }
        let stats = self.stats();
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::CorruptionOp;
    use ripple_crypto::{sha512_half, AccountId};
    use ripple_ledger::{Currency, PathSummary, PaymentRecord, RippleTime};

    fn payment(n: u8) -> HistoryEvent {
        HistoryEvent::Payment(PaymentRecord {
            tx_hash: sha512_half(&[n]),
            sender: AccountId::from_bytes([n; 20]),
            destination: AccountId::from_bytes([n.wrapping_add(1); 20]),
            currency: Currency::USD,
            issuer: None,
            amount: "1.5".parse().unwrap(),
            timestamp: RippleTime::from_seconds(n as u64),
            ledger_seq: n as u32,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        })
    }

    fn archive(events: &[HistoryEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for e in events {
            writer.write(e).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    #[test]
    fn write_read_round_trip() {
        let events: Vec<HistoryEvent> = (0..10).map(payment).collect();
        let buf = archive(&events);
        let back = Reader::new(buf.as_slice()).unwrap().read_all().unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_archive_is_valid() {
        let buf = archive(&[]);
        assert_eq!(buf, MAGIC);
        let back = Reader::new(buf.as_slice()).unwrap().read_all().unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Reader::new(&b"NOTMAGIC"[..]),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            Reader::new(&b"RP"[..]),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn bit_flip_detected_by_crc() {
        let mut buf = archive(&[payment(1)]);
        // Flip a byte in the middle of the payload.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let mut reader = Reader::new(buf.as_slice()).unwrap();
        assert!(matches!(reader.next_event(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn truncation_mid_record_detected() {
        let buf = archive(&[payment(1)]);
        let cut = &buf[..buf.len() - 3];
        let mut reader = Reader::new(cut).unwrap();
        let err = reader.next_event().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(msg) if msg.contains("truncated")));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = MAGIC.to_vec();
        buf.push(1); // tag
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut reader = Reader::new(buf.as_slice()).unwrap();
        let err = reader.next_event().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(msg) if msg.contains("exceeds cap")));
    }

    #[test]
    fn record_counters_track() {
        let events: Vec<HistoryEvent> = (0..5).map(payment).collect();
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for e in &events {
            writer.write(e).unwrap();
        }
        assert_eq!(writer.records(), 5);
        writer.finish().unwrap();
        let mut reader = Reader::new(buf.as_slice()).unwrap();
        while reader.next_event().unwrap().is_some() {}
        assert_eq!(reader.records, 5);
    }

    /// Byte range `(start, end)` of each record frame in `archive(events)`.
    fn frame_bounds(events: &[HistoryEvent]) -> Vec<(usize, usize)> {
        let mut start = MAGIC.len();
        let mut out = Vec::new();
        for e in events {
            let len = archive(std::slice::from_ref(e)).len() - MAGIC.len();
            out.push((start, start + len));
            start += len;
        }
        out
    }

    #[test]
    fn resync_reader_on_clean_archive_matches_strict() {
        let events: Vec<HistoryEvent> = (0..10).map(payment).collect();
        let buf = archive(&events);
        let (back, stats) = Reader::recovering(buf.as_slice())
            .unwrap()
            .read_all_with_stats()
            .unwrap();
        assert_eq!(back, events);
        assert_eq!(
            stats,
            RecoveryStats {
                records: 10,
                skipped_bytes: 0,
                corrupt_regions: 0
            }
        );
    }

    #[test]
    fn resync_skips_bit_flipped_record_and_salvages_the_rest() {
        let events: Vec<HistoryEvent> = (0..10).map(payment).collect();
        let buf = archive(&events);
        let bounds = frame_bounds(&events);
        // Flip one payload bit inside record 3.
        let (start3, end3) = bounds[3];
        let plan = crate::chaos::CorruptionPlan::new().flip_bit((start3 + 10) as u64, 2);
        let bad = crate::chaos::corrupt_bytes(&buf, &plan);

        // Strict mode: hard error at record 3.
        let mut strict = Reader::new(bad.as_slice()).unwrap();
        for _ in 0..3 {
            assert!(strict.next_event().unwrap().is_some());
        }
        let err = strict.next_event().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(msg) if msg.contains("CRC mismatch")));

        // Resync mode: every record except #3 is salvaged, and exactly its
        // frame is skipped as one corrupt region.
        let (back, stats) = Reader::recovering(bad.as_slice())
            .unwrap()
            .read_all_with_stats()
            .unwrap();
        let expected: Vec<HistoryEvent> = events
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, e)| e.clone())
            .collect();
        assert_eq!(back, expected);
        assert_eq!(stats.records, 9);
        assert_eq!(stats.skipped_bytes as usize, end3 - start3);
        assert_eq!(stats.corrupt_regions, 1);
    }

    #[test]
    fn resync_rides_over_torn_write_spanning_two_records() {
        let events: Vec<HistoryEvent> = (0..8).map(payment).collect();
        let buf = archive(&events);
        let bounds = frame_bounds(&events);
        // Drop a range straddling the record 2 → 3 boundary, destroying
        // both. The hole starts mid-payload: payment frames all share the
        // same tag and length bytes, so a hole aligned to the header would
        // splice frame 2's header onto frame 3's remainder and reconstitute
        // record 3 byte-for-byte (which resync would rightly salvage).
        let hole_start = bounds[2].0 + 12;
        let hole_end = bounds[3].0 + 12;
        let plan = crate::chaos::CorruptionPlan::new().push(CorruptionOp::DropRange {
            offset: hole_start as u64,
            len: (hole_end - hole_start) as u64,
        });
        let bad = crate::chaos::corrupt_bytes(&buf, &plan);

        let (back, stats) = Reader::recovering(bad.as_slice())
            .unwrap()
            .read_all_with_stats()
            .unwrap();
        let expected: Vec<HistoryEvent> = events
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2 && *i != 3)
            .map(|(_, e)| e.clone())
            .collect();
        assert_eq!(back, expected, "records outside the hole must all survive");
        assert_eq!(stats.records, 6);
        assert_eq!(stats.corrupt_regions, 1, "one hole is one region");
        // What remains of frames 2+3 after the drop is exactly what gets skipped.
        let ruined = (bounds[3].1 - bounds[2].0) - (hole_end - hole_start);
        assert_eq!(stats.skipped_bytes as usize, ruined);
    }

    #[test]
    fn resync_treats_truncated_tail_as_end_of_archive() {
        let events: Vec<HistoryEvent> = (0..5).map(payment).collect();
        let buf = archive(&events);
        let cut = buf.len() - 3;
        let plan = crate::chaos::CorruptionPlan::new().truncate_at(cut as u64);
        let bad = crate::chaos::corrupt_bytes(&buf, &plan);

        // Strict still errors...
        let mut strict = Reader::new(bad.as_slice()).unwrap();
        for _ in 0..4 {
            assert!(strict.next_event().unwrap().is_some());
        }
        assert!(matches!(
            strict.next_event(),
            Err(StoreError::Corrupt(msg)) if msg.contains("truncated")
        ));

        // ...resync returns the intact prefix without error.
        let (back, stats) = Reader::recovering(bad.as_slice())
            .unwrap()
            .read_all_with_stats()
            .unwrap();
        assert_eq!(back, events[..4]);
        assert_eq!(stats.records, 4);
        assert_eq!(stats.corrupt_regions, 1);
        let last_len = frame_bounds(&events)[4];
        assert_eq!(stats.skipped_bytes as usize, (last_len.1 - last_len.0) - 3);
    }

    #[test]
    fn resync_recovers_all_uncorrupted_records_under_combined_damage() {
        let events: Vec<HistoryEvent> = (0..20).map(payment).collect();
        let buf = archive(&events);
        let bounds = frame_bounds(&events);
        // Ruin records 1, 7 (bit flips), 12–13 (torn write), and 19 (truncation).
        let plan = crate::chaos::CorruptionPlan::new()
            .flip_bit((bounds[1].0 + 6) as u64, 0)
            .flip_bit((bounds[7].0 + 9) as u64, 7)
            .push(CorruptionOp::DropRange {
                offset: (bounds[12].0 + 20) as u64,
                len: (bounds[13].0 - bounds[12].0) as u64,
            })
            .truncate_at((bounds[19].0 + 5) as u64);
        let bad = crate::chaos::corrupt_bytes(&buf, &plan);

        let (back, stats) = Reader::recovering(bad.as_slice())
            .unwrap()
            .read_all_with_stats()
            .unwrap();
        let lost = [1usize, 7, 12, 13, 19];
        let expected: Vec<HistoryEvent> = events
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        assert_eq!(back, expected, "every uncorrupted record must be salvaged");
        assert_eq!(stats.records, 15);
        assert_eq!(stats.corrupt_regions, 4);
    }

    #[test]
    fn empty_input_errors_in_both_modes() {
        assert!(matches!(
            Reader::new(&b""[..]),
            Err(StoreError::Corrupt(msg)) if msg.contains("shorter than its magic")
        ));
        assert!(matches!(
            Reader::recovering(&b""[..]),
            Err(StoreError::Corrupt(msg)) if msg.contains("shorter than its magic")
        ));
    }

    #[test]
    fn magic_only_archive_is_empty_in_both_modes() {
        let buf = MAGIC.to_vec();
        assert!(Reader::new(buf.as_slice())
            .unwrap()
            .read_all()
            .unwrap()
            .is_empty());
        let (back, stats) = Reader::recovering(buf.as_slice())
            .unwrap()
            .read_all_with_stats()
            .unwrap();
        assert!(back.is_empty());
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn resync_still_requires_valid_magic() {
        assert!(matches!(
            Reader::recovering(&b"NOTMAGIC-and-more"[..]),
            Err(StoreError::Corrupt(msg)) if msg.contains("bad archive magic")
        ));
    }

    #[test]
    fn reader_mode_is_reported() {
        let buf = archive(&[]);
        assert_eq!(Reader::new(buf.as_slice()).unwrap().mode, ReadMode::Strict);
        assert_eq!(
            Reader::recovering(buf.as_slice()).unwrap().mode,
            ReadMode::Resync
        );
    }

    #[test]
    fn frame_offsets_match_byte_layout() {
        let events: Vec<HistoryEvent> = (0..10).map(payment).collect();
        let buf = archive(&events);
        let bounds = frame_bounds(&events);
        let mut reader = Reader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.consumed, MAGIC.len() as u64);
        let mut seen = Vec::new();
        while let Some((offset, _)) = reader.next_event_at().unwrap() {
            seen.push(offset as usize);
        }
        let expected: Vec<usize> = bounds.iter().map(|&(start, _)| start).collect();
        assert_eq!(seen, expected);
        assert_eq!(reader.consumed, buf.len() as u64);
    }

    #[test]
    fn frame_offsets_stay_exact_across_resync_gaps() {
        let events: Vec<HistoryEvent> = (0..10).map(payment).collect();
        let buf = archive(&events);
        let bounds = frame_bounds(&events);
        // Ruin record 4; every surviving frame must still report its true
        // byte offset in the *damaged* file.
        let plan = crate::chaos::CorruptionPlan::new().flip_bit((bounds[4].0 + 8) as u64, 3);
        let bad = crate::chaos::corrupt_bytes(&buf, &plan);
        let mut reader = Reader::recovering(bad.as_slice()).unwrap();
        let mut seen = Vec::new();
        while let Some((offset, event)) = reader.next_event_at().unwrap() {
            seen.push((offset as usize, event));
        }
        assert_eq!(seen.len(), 9);
        for (offset, event) in seen {
            // Decoding the frame found at the reported offset must
            // reproduce the event.
            let tag = bad[offset];
            let len = u32::from_be_bytes(bad[offset + 1..offset + 5].try_into().unwrap()) as usize;
            let payload = &bad[offset + 5..offset + 5 + len];
            let back = HistoryEvent::decode_payload(tag, payload).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn mixed_event_kinds_round_trip() {
        let events = vec![
            payment(1),
            HistoryEvent::TrustSet {
                truster: AccountId::from_bytes([7; 20]),
                trustee: AccountId::from_bytes([8; 20]),
                currency: Currency::EUR,
                limit: "100".parse().unwrap(),
                timestamp: RippleTime::from_seconds(9),
            },
            HistoryEvent::AccountCreated {
                account: AccountId::from_bytes([9; 20]),
                timestamp: RippleTime::from_seconds(10),
            },
        ];
        let buf = archive(&events);
        assert_eq!(
            Reader::new(buf.as_slice()).unwrap().read_all().unwrap(),
            events
        );
    }
}
