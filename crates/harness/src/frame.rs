//! The framed on-disk envelope shared by every harness file format.
//!
//! Checkpoints (`DSTLCKPT`), the experiment store (`DSTLSTOR`) and the
//! lease queue (`DSTLLEAS`) all wrap their payloads in the same frame:
//!
//! ```text
//! magic (8) | version u32 | payload_len u64 | fnv1a64(payload) u64 | payload
//! ```
//!
//! with every integer little-endian. A format is an [`Envelope`] — its
//! magic and version — and this module owns everything about the frame
//! itself: encoding straight into a payload writer ([`Envelope::frame`]),
//! decoding the next frame of a file with typed, offset-carrying errors
//! ([`Envelope::next`]), and durable appends ([`Appender`]). Each format
//! keeps its own error type and converts from [`FrameError`].
//!
//! Checkpoints and the store are *frame logs*: a file is a sequence of
//! frames, and decoding takes the union of all of them. The lease queue is
//! a snapshot: exactly one frame, rewritten atomically.
//!
//! Decoding is total. The magic, version, length and checksum are checked
//! before a payload byte is handed out, and no input can cause a panic.

use crate::atomic::AtomicIoError;
use crate::codec::{fnv1a64, Writer};
use std::fmt;
use std::io::Write as _;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};

/// Frame header size: magic + version + payload length + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Byte range of the payload-length field inside the header.
const LEN_FIELD: std::ops::Range<usize> = 12..20;

/// Byte range of the checksum field inside the header.
const SUM_FIELD: std::ops::Range<usize> = 20..28;

/// Why the frame at a given offset could not be read. Every variant
/// carries `at`, the byte offset where the damaged frame starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`HEADER_LEN`] bytes remain at `at`.
    TooShort {
        /// Byte offset of the frame.
        at: usize,
        /// Bytes actually remaining there.
        len: usize,
    },
    /// The bytes at `at` do not start with this format's magic.
    BadMagic {
        /// Byte offset of the frame.
        at: usize,
    },
    /// The frame's version is not one this build reads.
    UnsupportedVersion {
        /// Byte offset of the frame.
        at: usize,
        /// Version found in the frame.
        found: u32,
        /// Version this build writes.
        supported: u32,
    },
    /// The payload is shorter than the header claims: the file ends
    /// inside this frame.
    Truncated {
        /// Byte offset of the frame.
        at: usize,
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// The payload checksum does not match (bit rot or a torn write).
    ChecksumMismatch {
        /// Byte offset of the frame.
        at: usize,
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
}

impl FrameError {
    /// `true` when the file simply ends inside this frame — what a writer
    /// killed in the middle of an append leaves behind. Every other
    /// variant means bytes that *are* present are wrong.
    pub fn is_torn_tail(&self) -> bool {
        matches!(
            self,
            FrameError::TooShort { .. } | FrameError::Truncated { .. }
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooShort { at, len } => write!(
                f,
                "frame at byte {at} cut off ({len} bytes < {HEADER_LEN}-byte header)"
            ),
            FrameError::BadMagic { at } => write!(f, "bad magic at byte {at}"),
            FrameError::UnsupportedVersion {
                at,
                found,
                supported,
            } => write!(
                f,
                "frame at byte {at} has version {found} (this build reads {supported})"
            ),
            FrameError::Truncated {
                at,
                expected,
                found,
            } => write!(
                f,
                "frame at byte {at} truncated: header promises {expected} payload bytes, \
                 found {found}"
            ),
            FrameError::ChecksumMismatch {
                at,
                stored,
                computed,
            } => write!(
                f,
                "frame at byte {at} checksum mismatch: stored {stored:#018x}, \
                 computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// One verified frame inside a byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The checksum-verified payload.
    pub payload: &'a [u8],
    /// Byte offset just past the frame: where the next one starts.
    pub end: usize,
}

/// A file format's identity: the magic that opens each of its frames and
/// the one version this build reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// The 8-byte magic.
    pub magic: [u8; 8],
    /// The format version.
    pub version: u32,
}

impl Envelope {
    /// Starts a frame: the returned writer already holds the header, and
    /// the payload is written straight after it, so sealing the frame
    /// never copies the payload.
    pub fn frame(&self) -> FrameWriter {
        let mut w = Writer::new();
        for &b in &self.magic {
            w.put_u8(b);
        }
        w.put_u32(self.version);
        w.put_u64(0); // payload length, filled in by `finish`
        w.put_u64(0); // checksum, filled in by `finish`
        FrameWriter { w }
    }

    /// Decodes the frame that starts at byte `at` of `bytes`, verifying
    /// magic, version, length and checksum.
    ///
    /// # Errors
    /// A [`FrameError`] naming `at`; no input can cause a panic.
    pub fn next<'a>(&self, bytes: &'a [u8], at: usize) -> Result<Frame<'a>, FrameError> {
        let rest = bytes.get(at..).unwrap_or(&[]);
        let (Some(header), Some(body)) = (rest.get(..HEADER_LEN), rest.get(HEADER_LEN..)) else {
            return Err(FrameError::TooShort {
                at,
                len: rest.len(),
            });
        };
        if header.get(..8) != Some(&self.magic[..]) {
            return Err(FrameError::BadMagic { at });
        }
        let version = u32::from_le_bytes(le_array(header.get(8..12)));
        if version != self.version {
            return Err(FrameError::UnsupportedVersion {
                at,
                found: version,
                supported: self.version,
            });
        }
        let payload_len = u64::from_le_bytes(le_array(header.get(LEN_FIELD)));
        let stored = u64::from_le_bytes(le_array(header.get(SUM_FIELD)));
        let payload = usize::try_from(payload_len)
            .ok()
            .and_then(|len| body.get(..len))
            .ok_or(FrameError::Truncated {
                at,
                expected: payload_len,
                found: body.len() as u64,
            })?;
        let computed = fnv1a64(payload);
        if computed != stored {
            return Err(FrameError::ChecksumMismatch {
                at,
                stored,
                computed,
            });
        }
        Ok(Frame {
            payload,
            end: at + HEADER_LEN + payload.len(),
        })
    }
}

/// Copies a header field into a fixed array. The callers pass ranges
/// inside a slice of exactly [`HEADER_LEN`] bytes, so the field is always
/// present; a missing one reads as zeros rather than panicking.
fn le_array<const N: usize>(field: Option<&[u8]>) -> [u8; N] {
    let mut out = [0u8; N];
    if let Some(src) = field.filter(|s| s.len() == N) {
        out.copy_from_slice(src);
    }
    out
}

/// A frame under construction: a [`Writer`] (reachable through `Deref`)
/// positioned after the header. [`FrameWriter::finish`] fills in the
/// payload length and checksum.
#[derive(Debug)]
pub struct FrameWriter {
    w: Writer,
}

impl FrameWriter {
    /// Seals the frame and returns its bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut bytes = self.w.into_bytes();
        let payload = bytes.get(HEADER_LEN..).unwrap_or(&[]);
        let len = (payload.len() as u64).to_le_bytes();
        let sum = fnv1a64(payload).to_le_bytes();
        if let Some(field) = bytes.get_mut(LEN_FIELD) {
            field.copy_from_slice(&len);
        }
        if let Some(field) = bytes.get_mut(SUM_FIELD) {
            field.copy_from_slice(&sum);
        }
        bytes
    }
}

impl Deref for FrameWriter {
    type Target = Writer;

    fn deref(&self) -> &Writer {
        &self.w
    }
}

impl DerefMut for FrameWriter {
    fn deref_mut(&mut self) -> &mut Writer {
        &mut self.w
    }
}

/// An open frame log that appends durably: each [`Appender::append`]
/// writes the whole frame and fsyncs the file before it returns.
#[derive(Debug)]
pub struct Appender {
    path: PathBuf,
    file: std::fs::File,
}

impl Appender {
    /// Opens the existing log at `path` for appending, first cutting it to
    /// its first `keep` bytes — the intact frames, dropping a torn tail.
    /// The cut is fsynced before any frame is appended after it.
    ///
    /// # Errors
    /// [`AtomicIoError`] naming `path`.
    pub fn open(path: &Path, keep: u64) -> Result<Self, AtomicIoError> {
        let err = |e| AtomicIoError {
            path: path.to_path_buf(),
            source: e,
        };
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(err)?;
        if file.metadata().map_err(err)?.len() > keep {
            file.set_len(keep).map_err(err)?;
            file.sync_all().map_err(err)?;
        }
        Ok(Appender {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one encoded frame and fsyncs it. A process killed during
    /// the call leaves the earlier frames intact and at most a prefix of
    /// this one, which a salvage decode cuts off.
    ///
    /// # Errors
    /// [`AtomicIoError`] naming the log's path.
    pub fn append(&mut self, frame: &[u8]) -> Result<(), AtomicIoError> {
        let err = |e| AtomicIoError {
            path: self.path.clone(),
            source: e,
        };
        self.file.write_all(frame).map_err(err)?;
        self.file.sync_all().map_err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Envelope = Envelope {
        magic: *b"DSTLTEST",
        version: 3,
    };

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut w = TEST.frame();
        for &b in payload {
            w.put_u8(b);
        }
        w.finish()
    }

    #[test]
    fn frames_chain_and_carry_their_offsets() {
        let mut log = frame(b"abc");
        log.extend_from_slice(&frame(b""));
        log.extend_from_slice(&frame(b"xyz!"));
        let a = TEST.next(&log, 0).unwrap();
        assert_eq!((a.payload, a.end), (&b"abc"[..], HEADER_LEN + 3));
        let b = TEST.next(&log, a.end).unwrap();
        assert_eq!(b.payload, b"");
        let c = TEST.next(&log, b.end).unwrap();
        assert_eq!(c.payload, b"xyz!");
        assert_eq!(c.end, log.len());
        assert_eq!(
            TEST.next(&log, c.end),
            Err(FrameError::TooShort { at: c.end, len: 0 })
        );
    }

    #[test]
    fn damage_is_typed_with_offsets() {
        let good = frame(b"payload");
        let at = good.len();
        let mut log = good.clone();
        log.extend_from_slice(&good);

        let torn = &log[..log.len() - 1];
        let e = TEST.next(torn, at).unwrap_err();
        assert!(matches!(e, FrameError::Truncated { at: a, expected: 7, found: 6 } if a == at));
        assert!(e.is_torn_tail());

        let e = TEST.next(&log[..at + 5], at).unwrap_err();
        assert_eq!(e, FrameError::TooShort { at, len: 5 });
        assert!(e.is_torn_tail());

        let mut bad = log.clone();
        bad[at] ^= 0xFF;
        assert_eq!(TEST.next(&bad, at), Err(FrameError::BadMagic { at }));

        let mut bad = log.clone();
        bad[at + 8] = 9;
        assert!(matches!(
            TEST.next(&bad, at),
            Err(FrameError::UnsupportedVersion {
                found: 9,
                supported: 3,
                ..
            })
        ));

        let mut bad = log.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        let e = TEST.next(&bad, at).unwrap_err();
        assert!(matches!(e, FrameError::ChecksumMismatch { at: a, .. } if a == at));
        assert!(!e.is_torn_tail());

        // A length field beyond usize is a truncation, not a panic.
        let mut huge = good.clone();
        huge[LEN_FIELD].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            TEST.next(&huge, 0),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn appender_cuts_a_torn_tail_then_appends() {
        let dir = std::env::temp_dir().join(format!("distill-frame-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        let first = frame(b"one");
        let second = frame(b"two");
        let mut on_disk = first.clone();
        on_disk.extend_from_slice(&second[..10]); // killed mid-append
        std::fs::write(&path, &on_disk).unwrap();

        let mut log = Appender::open(&path, first.len() as u64).unwrap();
        log.append(&second).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, [first, second].concat());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_render() {
        for e in [
            FrameError::TooShort { at: 1, len: 2 },
            FrameError::BadMagic { at: 1 },
            FrameError::UnsupportedVersion {
                at: 1,
                found: 2,
                supported: 1,
            },
            FrameError::Truncated {
                at: 1,
                expected: 10,
                found: 5,
            },
            FrameError::ChecksumMismatch {
                at: 1,
                stored: 1,
                computed: 2,
            },
        ] {
            assert!(e.to_string().contains("byte 1"));
        }
    }
}
