//! Versioned, checksummed sweep checkpoints as an append-only frame log.
//!
//! A checkpoint records sweep progress: the config fingerprint, the total
//! trial count, and completed `(trial index, SimResult)` pairs. On disk it
//! is a sequence of [`crate::frame`] frames,
//!
//! ```text
//! magic "DSTLCKPT" (8) | version u32 | payload_len u64 | fnv1a64(payload) u64 | payload
//! ```
//!
//! each with payload `fingerprint u64 | total_trials u64 | count u64 |
//! count × (trial u64, SimResult)`, trials strictly ascending within the
//! frame. A sweep appends one frame per cadence point holding only the
//! trials completed since the previous one ([`CheckpointLog`]), so the
//! bytes written grow linearly in the trial count. [`Checkpoint::encode`]
//! is the canonical one-frame form, and a one-frame file is exactly the
//! pre-log (version 1) layout.
//!
//! Decoding takes the union of every frame. All frames must agree on
//! fingerprint and trial count, and a trial present in two frames must
//! carry bit-identical results — the same union rule as
//! [`crate::merge::merge_checkpoints`], from the same code. Decoding is
//! total: truncation, bit flips, version skew, and config mismatches all
//! yield a typed [`CheckpointError`] (property-tested in
//! `tests/checkpoint_corruption.rs` and `tests/checkpoint_log.rs`), never
//! a panic and never a silently wrong result — each frame's checksum is
//! verified before any of its payload bytes are interpreted.
//!
//! ## Crash safety
//!
//! The first frame of a fresh log is written with
//! [`crate::atomic::write_atomic`] (tmp file, fsync, rename), so it
//! replaces any earlier file whole. Later frames are appended and fsynced
//! before [`CheckpointLog::append`] returns. A process killed in the
//! middle of an append leaves every earlier frame intact plus a prefix of
//! the new one — a *torn tail*. Resume ([`CheckpointLog::resume`]) keeps
//! the intact frames and cuts the torn tail off before appending again;
//! any other damage stays a hard error.

use crate::atomic;
use crate::codec::{CodecError, Reader, Writer};
use crate::frame::{self, Envelope, FrameError};
use crate::merge::{MergeError, TrialUnion};
use distill_billboard::{ObjectId, PlayerId, Round};
use distill_sim::{FaultCounters, FinalEval, PlayerOutcome, SimResult, TraceEvent};
use std::fmt;
use std::path::{Path, PathBuf};

/// File magic: identifies a distill sweep checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DSTLCKPT";

/// Current checkpoint format version. Bump on any layout change; old
/// versions are rejected with [`CheckpointError::UnsupportedVersion`]
/// rather than misread.
pub const CHECKPOINT_VERSION: u32 = 1;

const ENVELOPE: Envelope = Envelope {
    magic: CHECKPOINT_MAGIC,
    version: CHECKPOINT_VERSION,
};

/// Why a checkpoint could not be loaded or does not match the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(String),
    /// The file is shorter than one frame header.
    TooShort {
        /// Observed file length.
        len: usize,
    },
    /// The magic bytes are wrong — not a checkpoint file.
    BadMagic,
    /// The format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        supported: u32,
    },
    /// A frame's payload is shorter than its header claims (torn or
    /// truncated file).
    Truncated {
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// Bytes past the last complete frame that cannot hold a frame
    /// header, or past a frame's declared entries.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// A frame's payload checksum does not match (bit rot or torn write).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload itself failed to decode (corruption past the checksum,
    /// which is effectively unreachable but still handled).
    Decode(CodecError),
    /// Completed-trial indices are not strictly ascending within a frame.
    OutOfOrder {
        /// The index that broke the order.
        trial: u64,
    },
    /// A completed-trial index is outside `0..total_trials`.
    TrialOutOfRange {
        /// The offending index.
        trial: u64,
        /// The sweep's trial count.
        total: u64,
    },
    /// The frame starting at byte `at` cannot join the frames before it:
    /// it names another fingerprint or trial count, or repeats a trial
    /// with different result bytes.
    InconsistentFrames {
        /// Byte offset of the offending frame.
        at: usize,
        /// The union rule it broke.
        cause: MergeError,
    },
    /// The checkpoint was written by a sweep with a different configuration.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        stored: u64,
        /// Fingerprint of the sweep attempting to resume.
        expected: u64,
    },
    /// The checkpoint was written for a different trial count.
    TrialCountMismatch {
        /// Count stored in the checkpoint.
        stored: u64,
        /// Count of the sweep attempting to resume.
        expected: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::TooShort { len } => {
                write!(
                    f,
                    "checkpoint file too short ({len} bytes < {}-byte header)",
                    frame::HEADER_LEN
                )
            }
            CheckpointError::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint version {found} unsupported (this build reads {supported})"
                )
            }
            CheckpointError::Truncated { expected, found } => {
                write!(
                    f,
                    "checkpoint truncated: header promises {expected} payload bytes, found {found}"
                )
            }
            CheckpointError::TrailingBytes { extra } => {
                write!(f, "checkpoint has {extra} bytes past the declared payload")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => {
                write!(f, "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            CheckpointError::Decode(e) => write!(f, "checkpoint payload corrupt: {e}"),
            CheckpointError::OutOfOrder { trial } => {
                write!(
                    f,
                    "checkpoint trial indices not strictly ascending at {trial}"
                )
            }
            CheckpointError::TrialOutOfRange { trial, total } => {
                write!(f, "checkpoint names trial {trial} outside 0..{total}")
            }
            CheckpointError::InconsistentFrames { at, cause } => {
                write!(
                    f,
                    "checkpoint frame at byte {at} disagrees with earlier frames: {cause}"
                )
            }
            CheckpointError::ConfigMismatch { stored, expected } => {
                write!(
                    f,
                    "checkpoint belongs to a different sweep configuration \
                     (fingerprint {stored:#018x}, this sweep is {expected:#018x})"
                )
            }
            CheckpointError::TrialCountMismatch { stored, expected } => {
                write!(
                    f,
                    "checkpoint covers {stored} trials, this sweep has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Decode(e)
    }
}

impl From<FrameError> for CheckpointError {
    /// A first frame shorter than a header is a too-short file; after a
    /// complete frame, a fragment that short is trailing bytes.
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TooShort { at: 0, len } => CheckpointError::TooShort { len },
            FrameError::TooShort { len, .. } => CheckpointError::TrailingBytes { extra: len },
            FrameError::BadMagic { .. } => CheckpointError::BadMagic,
            FrameError::UnsupportedVersion {
                found, supported, ..
            } => CheckpointError::UnsupportedVersion { found, supported },
            FrameError::Truncated {
                expected, found, ..
            } => CheckpointError::Truncated { expected, found },
            FrameError::ChecksumMismatch {
                stored, computed, ..
            } => CheckpointError::ChecksumMismatch { stored, computed },
        }
    }
}

impl From<atomic::AtomicIoError> for CheckpointError {
    fn from(e: atomic::AtomicIoError) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// A snapshot of sweep progress.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a fingerprint of the sweep's canonical config description;
    /// resume refuses checkpoints from a different configuration.
    pub fingerprint: u64,
    /// The sweep's total trial count.
    pub total_trials: u64,
    /// Completed trials, strictly ascending by index.
    pub completed: Vec<(u64, SimResult)>,
}

/// Encodes one frame holding `entries`, which must be strictly ascending
/// by trial. Results are encoded from the borrowed values.
fn encode_frame(fingerprint: u64, total_trials: u64, entries: &[(u64, &SimResult)]) -> Vec<u8> {
    let mut w = ENVELOPE.frame();
    w.put_u64(fingerprint);
    w.put_u64(total_trials);
    w.put_u64(entries.len() as u64);
    for &(trial, result) in entries {
        w.put_u64(trial);
        encode_sim_result(&mut w, result);
    }
    w.finish()
}

/// Decodes one frame's payload, checking order and range within it.
fn decode_payload(payload: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let mut r = Reader::new(payload);
    let fingerprint = r.u64()?;
    let total_trials = r.u64()?;
    let count = r.seq_len(8)?;
    let mut completed = Vec::with_capacity(count);
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let trial = r.u64()?;
        if prev.is_some_and(|p| trial <= p) {
            return Err(CheckpointError::OutOfOrder { trial });
        }
        if trial >= total_trials {
            return Err(CheckpointError::TrialOutOfRange {
                trial,
                total: total_trials,
            });
        }
        prev = Some(trial);
        let result = decode_sim_result(&mut r)?;
        completed.push((trial, result));
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(Checkpoint {
        fingerprint,
        total_trials,
        completed,
    })
}

/// Decodes frames from the start of `bytes` and unions them. Stops at the
/// end of the input or at the first frame that fails its envelope check,
/// returning the union so far, the byte length it spans, and that frame's
/// error. Payload and union errors end the decode outright.
fn decode_frames(bytes: &[u8]) -> Result<(Checkpoint, usize, Option<FrameError>), CheckpointError> {
    let first = ENVELOPE.next(bytes, 0)?;
    let head = decode_payload(first.payload)?;
    let mut at = first.end;
    if at == bytes.len() {
        return Ok((head, at, None));
    }
    let mut union = TrialUnion::new(head.fingerprint, head.total_trials);
    let mut absorb = |at: usize, part: Checkpoint| {
        union
            .absorb(part.fingerprint, part.total_trials, part.completed)
            .map_err(|cause| CheckpointError::InconsistentFrames { at, cause })
    };
    absorb(0, head)?;
    let mut damage = None;
    while at < bytes.len() {
        match ENVELOPE.next(bytes, at) {
            Ok(next) => {
                absorb(at, decode_payload(next.payload)?)?;
                at = next.end;
            }
            Err(e) => {
                damage = Some(e);
                break;
            }
        }
    }
    Ok((union.into_checkpoint(), at, damage))
}

impl Checkpoint {
    /// Encodes the checkpoint as one canonical frame.
    pub fn encode(&self) -> Vec<u8> {
        let entries: Vec<(u64, &SimResult)> = self.completed.iter().map(|(t, r)| (*t, r)).collect();
        encode_frame(self.fingerprint, self.total_trials, &entries)
    }

    /// Decodes a checkpoint log: the union of every frame, each verified
    /// (magic, version, length, checksum) before its payload is read.
    ///
    /// # Errors
    /// Every corruption mode maps to a [`CheckpointError`] variant; no input
    /// can cause a panic. Frames that disagree on the sweep or on a
    /// duplicated trial yield [`CheckpointError::InconsistentFrames`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        match decode_frames(bytes)? {
            (ck, _, None) => Ok(ck),
            (_, _, Some(damage)) => Err(damage.into()),
        }
    }

    /// Salvage decode for resume: the union of the intact leading frames
    /// and the byte length they span, with a torn tail — a last frame the
    /// file ends inside of, as a writer killed mid-append leaves — cut
    /// off. Returns the full length when nothing was torn.
    ///
    /// # Errors
    /// As [`Checkpoint::decode`] for any damage other than a torn tail,
    /// including a damaged first frame (the first frame is written
    /// atomically, so it is never torn).
    pub fn decode_salvage(bytes: &[u8]) -> Result<(Self, usize), CheckpointError> {
        match decode_frames(bytes)? {
            (ck, intact, None) => Ok((ck, intact)),
            (ck, intact, Some(damage)) if damage.is_torn_tail() => Ok((ck, intact)),
            (_, _, Some(damage)) => Err(damage.into()),
        }
    }

    /// Verifies the checkpoint belongs to the sweep described by
    /// `fingerprint` over `total_trials` trials.
    ///
    /// # Errors
    /// [`CheckpointError::ConfigMismatch`] or
    /// [`CheckpointError::TrialCountMismatch`].
    pub fn validate_for(&self, fingerprint: u64, total_trials: u64) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                stored: self.fingerprint,
                expected: fingerprint,
            });
        }
        if self.total_trials != total_trials {
            return Err(CheckpointError::TrialCountMismatch {
                stored: self.total_trials,
                expected: total_trials,
            });
        }
        Ok(())
    }

    /// Loads and strictly decodes a checkpoint file, first sweeping any
    /// orphaned `*.tmp*` scratch siblings a killed writer left behind (a
    /// crash between create and rename leaves the previous complete
    /// checkpoint at `path` plus crash debris next to it; the debris is
    /// reclaimed here so it cannot accumulate across restarts). A failed
    /// sweep is deliberately non-fatal — resuming from the intact
    /// checkpoint matters more.
    ///
    /// # Errors
    /// I/O failures surface as [`CheckpointError::Io`]; corrupt contents as
    /// the corresponding decode variant.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Checkpoint::decode(&read_swept(path)?)
    }

    /// [`Checkpoint::load`] with [`Checkpoint::decode_salvage`]: reads a
    /// log whose writer may have been killed mid-append, without touching
    /// the file.
    ///
    /// # Errors
    /// As [`Checkpoint::decode_salvage`], plus [`CheckpointError::Io`].
    pub fn load_salvaged(path: &Path) -> Result<Self, CheckpointError> {
        Checkpoint::decode_salvage(&read_swept(path)?).map(|(ck, _)| ck)
    }

    /// Writes the checkpoint atomically as one frame: encode to
    /// `<path>.tmp.<pid>`, fsync, then rename over `path` (see
    /// [`crate::atomic`]). A crash at any point leaves either the old or
    /// the new complete file, never a torn one.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] with the failing path and OS error.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        Ok(atomic::write_atomic(path, &self.encode())?)
    }
}

/// Sweeps stale scratch siblings of `path`, then reads it.
fn read_swept(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let _ = atomic::sweep_stale_tmp(path);
    std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
}

/// The writing side of a checkpoint log: [`CheckpointLog::append`] adds
/// one frame per cadence point, holding only the newly completed trials.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    fingerprint: u64,
    total_trials: u64,
    /// `None` until the first frame exists on disk.
    appender: Option<frame::Appender>,
}

impl CheckpointLog {
    /// A log that starts over: its first append atomically replaces
    /// whatever `path` holds, later appends extend it.
    pub fn create(path: &Path, fingerprint: u64, total_trials: u64) -> Self {
        CheckpointLog {
            path: path.to_path_buf(),
            fingerprint,
            total_trials,
            appender: None,
        }
    }

    /// Reopens the log at `path` to continue a sweep. The file is
    /// salvage-decoded ([`Checkpoint::decode_salvage`]), a torn tail is cut
    /// off on disk, and the recovered progress is returned with the log.
    /// A missing file starts a fresh log with nothing recovered.
    ///
    /// # Errors
    /// Damage other than a torn tail, a checkpoint from another sweep
    /// ([`CheckpointError::ConfigMismatch`],
    /// [`CheckpointError::TrialCountMismatch`]), and I/O failures.
    pub fn resume(
        path: &Path,
        fingerprint: u64,
        total_trials: u64,
    ) -> Result<(Self, Checkpoint), CheckpointError> {
        let mut log = CheckpointLog::create(path, fingerprint, total_trials);
        let bytes = match read_swept(path) {
            Ok(bytes) => bytes,
            Err(_) if !path.exists() => {
                let empty = Checkpoint {
                    fingerprint,
                    total_trials,
                    completed: Vec::new(),
                };
                return Ok((log, empty));
            }
            Err(e) => return Err(e),
        };
        let (ck, intact) = Checkpoint::decode_salvage(&bytes)?;
        ck.validate_for(fingerprint, total_trials)?;
        log.appender = Some(frame::Appender::open(path, intact as u64)?);
        Ok((log, ck))
    }

    /// Appends one frame holding `entries` — strictly ascending by trial —
    /// and fsyncs it before returning, so the entries are durable once
    /// this returns.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] with the failing path and OS error.
    pub fn append(&mut self, entries: &[(u64, &SimResult)]) -> Result<(), CheckpointError> {
        let bytes = encode_frame(self.fingerprint, self.total_trials, entries);
        match &mut self.appender {
            Some(appender) => appender.append(&bytes)?,
            None => {
                atomic::write_atomic(&self.path, &bytes)?;
                self.appender = Some(frame::Appender::open(&self.path, bytes.len() as u64)?);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SimResult codec.
// ---------------------------------------------------------------------------

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CodecError> {
    let at = r.position();
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        tag => Err(CodecError::BadTag {
            at,
            tag,
            what: "option",
        }),
    }
}

/// Encodes one [`SimResult`] field-for-field (every field, including the
/// optional trace — the determinism oracles compare full results, so the
/// checkpoint must preserve everything `PartialEq` sees).
pub fn encode_sim_result(w: &mut Writer, r: &SimResult) {
    w.put_u64(r.rounds);
    w.put_bool(r.all_satisfied);
    w.put_u64(r.players.len() as u64);
    for p in &r.players {
        w.put_u64(p.probes);
        w.put_f64(p.cost_paid);
        put_opt_u64(w, p.satisfied_round.map(|r| r.0));
        w.put_u64(p.advice_probes);
        w.put_u64(p.explore_probes);
        put_opt_u64(w, p.crash_round.map(|r| r.0));
    }
    w.put_u64(r.satisfied_per_round.len() as u64);
    for &s in &r.satisfied_per_round {
        w.put_u32(s);
    }
    w.put_u64(r.posts_total as u64);
    w.put_u64(r.forged_rejected);
    w.put_u64(r.notes.len() as u64);
    for (key, value) in &r.notes {
        w.put_str(key);
        w.put_f64(*value);
    }
    match &r.final_eval {
        None => w.put_u8(0),
        Some(eval) => {
            w.put_u8(1);
            w.put_u64(eval.found_good.len() as u64);
            for &g in &eval.found_good {
                w.put_bool(g);
            }
            w.put_f64(eval.success_fraction);
        }
    }
    w.put_u64(r.faults.posts_dropped);
    w.put_u64(r.faults.crashes);
    w.put_u64(r.faults.recoveries);
    match &r.trace {
        None => w.put_u8(0),
        Some(trace) => {
            w.put_u8(1);
            w.put_u64(trace.len() as u64);
            for event in trace {
                encode_trace_event(w, event);
            }
        }
    }
}

fn encode_trace_event(w: &mut Writer, e: &TraceEvent) {
    match *e {
        TraceEvent::RoundStart {
            round,
            active_honest,
        } => {
            w.put_u8(0);
            w.put_u64(round.0);
            w.put_u32(active_honest);
        }
        TraceEvent::Probe {
            round,
            player,
            object,
            via_advice,
            good,
        } => {
            w.put_u8(1);
            w.put_u64(round.0);
            w.put_u32(player.0);
            w.put_u32(object.0);
            w.put_bool(via_advice);
            w.put_bool(good);
        }
        TraceEvent::Satisfied {
            round,
            player,
            object,
        } => {
            w.put_u8(2);
            w.put_u64(round.0);
            w.put_u32(player.0);
            w.put_u32(object.0);
        }
        TraceEvent::AdversaryPosts { round, count } => {
            w.put_u8(3);
            w.put_u64(round.0);
            w.put_u32(count);
        }
        TraceEvent::PostDropped {
            round,
            player,
            object,
        } => {
            w.put_u8(4);
            w.put_u64(round.0);
            w.put_u32(player.0);
            w.put_u32(object.0);
        }
        TraceEvent::PlayerCrashed { round, player } => {
            w.put_u8(5);
            w.put_u64(round.0);
            w.put_u32(player.0);
        }
        TraceEvent::PlayerRecovered { round, player } => {
            w.put_u8(6);
            w.put_u64(round.0);
            w.put_u32(player.0);
        }
    }
}

/// Decodes one [`SimResult`].
///
/// # Errors
/// [`CodecError`] on any malformed byte; total over arbitrary input.
pub fn decode_sim_result(r: &mut Reader<'_>) -> Result<SimResult, CodecError> {
    let rounds = r.u64()?;
    let all_satisfied = r.bool()?;
    let n_players = r.seq_len(8 + 8 + 1 + 8 + 8 + 1)?;
    let mut players = Vec::with_capacity(n_players);
    for _ in 0..n_players {
        let probes = r.u64()?;
        let cost_paid = r.f64()?;
        let satisfied_round = get_opt_u64(r)?.map(Round);
        let advice_probes = r.u64()?;
        let explore_probes = r.u64()?;
        let crash_round = get_opt_u64(r)?.map(Round);
        players.push(PlayerOutcome {
            probes,
            cost_paid,
            satisfied_round,
            advice_probes,
            explore_probes,
            crash_round,
        });
    }
    let n_rounds = r.seq_len(4)?;
    let mut satisfied_per_round = Vec::with_capacity(n_rounds);
    for _ in 0..n_rounds {
        satisfied_per_round.push(r.u32()?);
    }
    let posts_total = usize::try_from(r.u64()?).map_err(|_| CodecError::LengthOverflow {
        at: r.position(),
        len: u64::MAX,
    })?;
    let forged_rejected = r.u64()?;
    let n_notes = r.seq_len(8 + 8)?;
    let mut notes = Vec::with_capacity(n_notes);
    for _ in 0..n_notes {
        let key = r.str()?;
        let value = r.f64()?;
        notes.push((key, value));
    }
    let final_eval = {
        let at = r.position();
        match r.u8()? {
            0 => None,
            1 => {
                let n = r.seq_len(1)?;
                let mut found_good = Vec::with_capacity(n);
                for _ in 0..n {
                    found_good.push(r.bool()?);
                }
                let success_fraction = r.f64()?;
                Some(FinalEval {
                    found_good,
                    success_fraction,
                })
            }
            tag => {
                return Err(CodecError::BadTag {
                    at,
                    tag,
                    what: "final_eval option",
                })
            }
        }
    };
    let faults = FaultCounters {
        posts_dropped: r.u64()?,
        crashes: r.u64()?,
        recoveries: r.u64()?,
    };
    let trace = {
        let at = r.position();
        match r.u8()? {
            0 => None,
            1 => {
                let n = r.seq_len(1 + 8)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(decode_trace_event(r)?);
                }
                Some(events)
            }
            tag => {
                return Err(CodecError::BadTag {
                    at,
                    tag,
                    what: "trace option",
                })
            }
        }
    };
    Ok(SimResult {
        rounds,
        all_satisfied,
        players,
        satisfied_per_round,
        posts_total,
        forged_rejected,
        notes,
        final_eval,
        faults,
        trace,
    })
}

fn decode_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, CodecError> {
    let at = r.position();
    Ok(match r.u8()? {
        0 => TraceEvent::RoundStart {
            round: Round(r.u64()?),
            active_honest: r.u32()?,
        },
        1 => TraceEvent::Probe {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
            object: ObjectId(r.u32()?),
            via_advice: r.bool()?,
            good: r.bool()?,
        },
        2 => TraceEvent::Satisfied {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
            object: ObjectId(r.u32()?),
        },
        3 => TraceEvent::AdversaryPosts {
            round: Round(r.u64()?),
            count: r.u32()?,
        },
        4 => TraceEvent::PostDropped {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
            object: ObjectId(r.u32()?),
        },
        5 => TraceEvent::PlayerCrashed {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
        },
        6 => TraceEvent::PlayerRecovered {
            round: Round(r.u64()?),
            player: PlayerId(r.u32()?),
        },
        tag => {
            return Err(CodecError::BadTag {
                at,
                tag,
                what: "trace event",
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(seed: u64) -> SimResult {
        SimResult {
            rounds: 10 + seed,
            all_satisfied: seed % 2 == 0,
            players: vec![
                PlayerOutcome {
                    probes: 3,
                    cost_paid: 3.5,
                    satisfied_round: Some(Round(2)),
                    advice_probes: 1,
                    explore_probes: 2,
                    crash_round: None,
                },
                PlayerOutcome {
                    probes: 7,
                    cost_paid: 0.25 * seed as f64,
                    satisfied_round: None,
                    advice_probes: 0,
                    explore_probes: 7,
                    crash_round: Some(Round(4)),
                },
            ],
            satisfied_per_round: vec![0, 1, 1, 2],
            posts_total: 19,
            forged_rejected: 2,
            notes: vec![("iterations".into(), 3.0), ("α-guess".into(), 0.5)],
            final_eval: Some(FinalEval {
                found_good: vec![true, false],
                success_fraction: 0.5,
            }),
            faults: FaultCounters {
                posts_dropped: 1,
                crashes: 1,
                recoveries: 0,
            },
            trace: Some(vec![
                TraceEvent::RoundStart {
                    round: Round(0),
                    active_honest: 2,
                },
                TraceEvent::Probe {
                    round: Round(0),
                    player: PlayerId(0),
                    object: ObjectId(5),
                    via_advice: true,
                    good: false,
                },
                TraceEvent::Satisfied {
                    round: Round(2),
                    player: PlayerId(0),
                    object: ObjectId(1),
                },
                TraceEvent::AdversaryPosts {
                    round: Round(1),
                    count: 4,
                },
                TraceEvent::PostDropped {
                    round: Round(1),
                    player: PlayerId(1),
                    object: ObjectId(3),
                },
                TraceEvent::PlayerCrashed {
                    round: Round(4),
                    player: PlayerId(1),
                },
                TraceEvent::PlayerRecovered {
                    round: Round(5),
                    player: PlayerId(1),
                },
            ]),
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xFEED_FACE_CAFE_BEEF,
            total_trials: 8,
            completed: vec![
                (0, sample_result(0)),
                (2, sample_result(2)),
                (5, sample_result(5)),
            ],
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let ck = sample_checkpoint();
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded, ck);
    }

    #[test]
    fn nan_costs_round_trip_bit_identically() {
        let mut ck = sample_checkpoint();
        ck.completed[0].1.players[0].cost_paid = f64::NAN;
        let bytes = ck.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        // NaN != NaN defeats PartialEq; compare at the bit level via re-encode.
        assert_eq!(decoded.encode(), bytes);
        assert!(decoded.completed[0].1.players[0].cost_paid.is_nan());
    }

    #[test]
    fn header_corruption_is_typed() {
        let ck = sample_checkpoint();
        let good = ck.encode();

        assert_eq!(
            Checkpoint::decode(&good[..10]),
            Err(CheckpointError::TooShort { len: 10 })
        );

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Checkpoint::decode(&bad), Err(CheckpointError::BadMagic));

        let mut bad = good.clone();
        bad[8] = 99; // version field
        assert!(matches!(
            Checkpoint::decode(&bad),
            Err(CheckpointError::UnsupportedVersion { found: 99, .. })
        ));

        let truncated = &good[..good.len() - 1];
        assert!(matches!(
            Checkpoint::decode(truncated),
            Err(CheckpointError::Truncated { .. })
        ));

        let mut extended = good.clone();
        extended.push(0);
        assert!(matches!(
            Checkpoint::decode(&extended),
            Err(CheckpointError::TrailingBytes { extra: 1 })
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            Checkpoint::decode(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn semantic_corruption_is_typed() {
        // Out-of-order and out-of-range trials are rebuilt with a correct
        // checksum so decode reaches the semantic checks.
        let mut ck = sample_checkpoint();
        ck.completed.swap(0, 1);
        assert!(matches!(
            Checkpoint::decode(&ck.encode()),
            Err(CheckpointError::OutOfOrder { .. })
        ));

        let mut ck = sample_checkpoint();
        ck.completed[2].0 = 8; // == total_trials
        assert!(matches!(
            Checkpoint::decode(&ck.encode()),
            Err(CheckpointError::TrialOutOfRange { trial: 8, total: 8 })
        ));
    }

    #[test]
    fn validate_for_checks_fingerprint_and_count() {
        let ck = sample_checkpoint();
        assert!(ck.validate_for(ck.fingerprint, ck.total_trials).is_ok());
        assert!(matches!(
            ck.validate_for(1, ck.total_trials),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            ck.validate_for(ck.fingerprint, 9),
            Err(CheckpointError::TrialCountMismatch {
                stored: 8,
                expected: 9
            })
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("distill-ckpt-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = sample_checkpoint();
        ck.write_atomic(&path).unwrap();
        // No scratch file may survive the rename.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ck);
        // Overwrite with different contents; load sees the new snapshot.
        let mut ck2 = ck.clone();
        ck2.completed.pop();
        ck2.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A writer killed between creating its scratch file and renaming it
    /// leaves an orphan; the next load reclaims it and still reads the
    /// intact previous checkpoint.
    #[test]
    fn load_sweeps_orphaned_tmp_from_killed_writer() {
        let dir = std::env::temp_dir().join(format!("distill-ckpt-orphan-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = sample_checkpoint();
        ck.write_atomic(&path).unwrap();
        // Crash debris: a dead writer's pid-suffixed scratch and a legacy
        // fixed-name one, both torn mid-write.
        let orphan_a = dir.join("sweep.ckpt.tmp.999999999");
        let orphan_b = dir.join("sweep.ckpt.tmp");
        std::fs::write(&orphan_a, &ck.encode()[..20]).unwrap();
        std::fs::write(&orphan_b, b"garbage").unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        assert!(!orphan_a.exists(), "orphaned scratch must be reclaimed");
        assert!(!orphan_b.exists(), "legacy orphan must be reclaimed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/distill.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
        assert!(err.to_string().contains("nonexistent"));
    }

    #[test]
    fn errors_render() {
        for e in [
            CheckpointError::Io("x".into()),
            CheckpointError::TooShort { len: 3 },
            CheckpointError::BadMagic,
            CheckpointError::UnsupportedVersion {
                found: 2,
                supported: 1,
            },
            CheckpointError::Truncated {
                expected: 10,
                found: 5,
            },
            CheckpointError::TrailingBytes { extra: 4 },
            CheckpointError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            CheckpointError::Decode(CodecError::BadUtf8 { at: 0 }),
            CheckpointError::OutOfOrder { trial: 3 },
            CheckpointError::TrialOutOfRange { trial: 9, total: 8 },
            CheckpointError::InconsistentFrames {
                at: 64,
                cause: MergeError::Conflict { trial: 3 },
            },
            CheckpointError::ConfigMismatch {
                stored: 1,
                expected: 2,
            },
            CheckpointError::TrialCountMismatch {
                stored: 1,
                expected: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
