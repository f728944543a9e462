//! The on-disk lease queue: shared work assignment for multi-process
//! sweeps.
//!
//! A sweep's trial range `0..total_trials` is cut into fixed-size chunks;
//! each chunk is either `Available`, `Leased` to a worker until a deadline,
//! or `Done`. Independent worker processes claim chunks under time-bounded
//! leases, renew them by heartbeat while working, and mark them done when
//! the chunk's results are safely in the worker's own checkpoint. A lease
//! whose deadline has passed is *expired* and may be reclaimed by any live
//! worker — that is the whole worker-loss story: a kill -9 mid-chunk leaves
//! an expired lease, and the next claim re-runs the chunk.
//!
//! The file is one frame in the shared [`crate::frame`] envelope — a
//! snapshot, rewritten atomically on every update, not an appended log:
//!
//! ```text
//! magic "DSTLLEAS" (8) | version u32 | payload_len u64 | fnv1a64(payload) u64 | payload
//! ```
//!
//! with payload `fingerprint u64 | total_trials u64 | chunk_size u64 |
//! max_claims u32 | chunk_count u64 | chunk_count × entry` and each entry
//! `claims u32 | tag u8 [| worker u64 | expires_ms u64]` (tag 0 available,
//! 1 leased, 2 done). Decoding is total: truncation, bit flips, version
//! skew, and geometry mismatches all yield a typed [`LeaseError`]
//! (property-tested in `tests/lease_corruption.rs`), never a panic.
//!
//! ## Correctness versus performance
//!
//! The queue is deliberately *advisory*: every trial is a pure function of
//! its index, so two workers racing onto the same chunk at worst duplicate
//! work whose bit-identical results later set-union cleanly (see
//! [`crate::merge`]). Leases make the fabric *efficient* (disjoint ranges,
//! bounded re-execution after a loss); they are not what makes it
//! *correct*. That is why a corrupt queue file is salvageable by simply
//! rebuilding it fresh — see `crate::worker`.
//!
//! All state transitions take the caller's clock as an explicit `now_ms`
//! argument; this module never reads wall-clock time itself, which keeps it
//! deterministic (lint rule D2) and makes lease expiry testable without
//! sleeping.

use crate::atomic;
use crate::codec::{CodecError, Reader};
use crate::frame::{self, Envelope, FrameError};
use std::fmt;
use std::path::Path;

/// File magic: identifies a distill lease-queue file.
pub const LEASE_MAGIC: [u8; 8] = *b"DSTLLEAS";

/// Current lease-queue format version. Bump on any layout change; old
/// versions are rejected with [`LeaseError::UnsupportedVersion`] rather
/// than misread.
pub const LEASE_VERSION: u32 = 1;

const ENVELOPE: Envelope = Envelope {
    magic: LEASE_MAGIC,
    version: LEASE_VERSION,
};

/// Why a lease queue could not be built, loaded, or does not match the
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// Reading or writing the file failed.
    Io(String),
    /// `chunk_size` was zero — there is no chunk geometry to build.
    BadGeometry,
    /// The file is shorter than the fixed header.
    TooShort {
        /// Observed file length.
        len: usize,
    },
    /// The magic bytes are wrong — not a lease-queue file.
    BadMagic,
    /// The format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        supported: u32,
    },
    /// The payload is shorter than the header claims (torn or truncated
    /// file).
    Truncated {
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// The file has bytes beyond the declared payload.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The payload checksum does not match (bit rot or torn write).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload itself failed to decode (corruption past the checksum,
    /// which is effectively unreachable but still handled).
    Decode(CodecError),
    /// The stored chunk count disagrees with the stored geometry.
    ChunkCountMismatch {
        /// Chunk count stored in the file.
        stored: u64,
        /// `ceil(total_trials / chunk_size)` from the stored geometry.
        expected: u64,
    },
    /// The queue was written by a sweep with a different configuration.
    ConfigMismatch {
        /// Fingerprint stored in the queue.
        stored: u64,
        /// Fingerprint of the sweep attempting to attach.
        expected: u64,
    },
    /// The queue was written for a different trial count.
    TrialCountMismatch {
        /// Count stored in the queue.
        stored: u64,
        /// Count of the sweep attempting to attach.
        expected: u64,
    },
    /// The queue was written with a different chunk size or claim budget.
    GeometryMismatch {
        /// `(chunk_size, max_claims)` stored in the queue.
        stored: (u64, u32),
        /// `(chunk_size, max_claims)` of the sweep attempting to attach.
        expected: (u64, u32),
    },
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Io(msg) => write!(f, "lease-queue I/O error: {msg}"),
            LeaseError::BadGeometry => f.write_str("lease-queue chunk size must be at least 1"),
            LeaseError::TooShort { len } => {
                write!(
                    f,
                    "lease-queue file too short ({len} bytes < {}-byte header)",
                    frame::HEADER_LEN
                )
            }
            LeaseError::BadMagic => f.write_str("not a lease-queue file (bad magic)"),
            LeaseError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "lease-queue version {found} unsupported (this build reads {supported})"
                )
            }
            LeaseError::Truncated { expected, found } => {
                write!(
                    f,
                    "lease-queue truncated: header promises {expected} payload bytes, found {found}"
                )
            }
            LeaseError::TrailingBytes { extra } => {
                write!(f, "lease-queue has {extra} bytes past the declared payload")
            }
            LeaseError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "lease-queue checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            LeaseError::Decode(e) => write!(f, "lease-queue payload corrupt: {e}"),
            LeaseError::ChunkCountMismatch { stored, expected } => {
                write!(
                    f,
                    "lease-queue stores {stored} chunks but its geometry implies {expected}"
                )
            }
            LeaseError::ConfigMismatch { stored, expected } => {
                write!(
                    f,
                    "lease queue belongs to a different sweep configuration \
                     (fingerprint {stored:#018x}, this sweep is {expected:#018x})"
                )
            }
            LeaseError::TrialCountMismatch { stored, expected } => {
                write!(
                    f,
                    "lease queue covers {stored} trials, this sweep has {expected}"
                )
            }
            LeaseError::GeometryMismatch { stored, expected } => {
                write!(
                    f,
                    "lease queue built with chunk_size={} max_claims={}, this sweep wants \
                     chunk_size={} max_claims={}",
                    stored.0, stored.1, expected.0, expected.1
                )
            }
        }
    }
}

impl std::error::Error for LeaseError {}

impl From<CodecError> for LeaseError {
    fn from(e: CodecError) -> Self {
        LeaseError::Decode(e)
    }
}

impl From<FrameError> for LeaseError {
    /// The queue is a single frame at offset 0, so offsets are dropped.
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TooShort { len, .. } => LeaseError::TooShort { len },
            FrameError::BadMagic { .. } => LeaseError::BadMagic,
            FrameError::UnsupportedVersion {
                found, supported, ..
            } => LeaseError::UnsupportedVersion { found, supported },
            FrameError::Truncated {
                expected, found, ..
            } => LeaseError::Truncated { expected, found },
            FrameError::ChecksumMismatch {
                stored, computed, ..
            } => LeaseError::ChecksumMismatch { stored, computed },
        }
    }
}

/// Ownership state of one chunk of the trial range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkState {
    /// Nobody owns the chunk; any worker may claim it.
    Available,
    /// A worker owns the chunk until the deadline passes.
    Leased {
        /// The claiming worker's id.
        worker: u64,
        /// The lease deadline (caller clock, milliseconds). At or past this
        /// instant the lease is expired and the chunk reclaimable.
        expires_ms: u64,
    },
    /// The chunk's results are safely in a worker checkpoint.
    Done,
}

/// One chunk's queue entry: its state plus how many times it has been
/// claimed (initial claims, expiry reclaims, and post-quarantine re-releases
/// all count — the claim counter is the cross-process retry budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Total claims so far.
    pub claims: u32,
    /// Current ownership.
    pub state: ChunkState,
}

/// What a lease operation did. Operations on leases another worker holds
/// (or that are already done) are no-ops with a typed outcome, never errors:
/// losing a race is normal fabric life, not a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseOutcome {
    /// The transition was applied.
    Applied,
    /// The chunk is not leased by this worker (lost to a reclaim, or
    /// released); the operation did nothing.
    NotHeld,
    /// The chunk was already marked done; the operation did nothing.
    AlreadyDone,
    /// The chunk index is outside the queue.
    OutOfRange,
}

/// The shared lease queue over a sweep's chunked trial range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseQueue {
    /// FNV-1a fingerprint of the sweep's canonical config description;
    /// attach refuses queues from a different configuration.
    pub fingerprint: u64,
    /// The sweep's total trial count.
    pub total_trials: u64,
    /// Trials per chunk (the last chunk may be short).
    pub chunk_size: u64,
    /// Claim budget per chunk: a chunk whose every claim ends in quarantined
    /// trials is released for re-claim only while `claims < max_claims`,
    /// giving each claiming process a fresh per-trial retry budget.
    pub max_claims: u32,
    chunks: Vec<ChunkEntry>,
}

impl LeaseQueue {
    /// Builds a fresh queue with every chunk available.
    ///
    /// # Errors
    /// [`LeaseError::BadGeometry`] when `chunk_size` is zero.
    pub fn new(
        fingerprint: u64,
        total_trials: u64,
        chunk_size: u64,
        max_claims: u32,
    ) -> Result<Self, LeaseError> {
        if chunk_size == 0 {
            return Err(LeaseError::BadGeometry);
        }
        let count = total_trials.div_ceil(chunk_size);
        let count_usize = usize::try_from(count).map_err(|_| LeaseError::BadGeometry)?;
        Ok(LeaseQueue {
            fingerprint,
            total_trials,
            chunk_size,
            max_claims,
            chunks: vec![
                ChunkEntry {
                    claims: 0,
                    state: ChunkState::Available,
                };
                count_usize
            ],
        })
    }

    /// Number of chunks (`ceil(total_trials / chunk_size)`).
    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// The chunk entries, in chunk order.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.chunks
    }

    /// The trial range of chunk `chunk`; empty for an out-of-range index.
    pub fn chunk_range(&self, chunk: u64) -> core::ops::Range<u64> {
        let start = chunk.saturating_mul(self.chunk_size).min(self.total_trials);
        let end = start.saturating_add(self.chunk_size).min(self.total_trials);
        start..end
    }

    /// How many times chunk `chunk` has been claimed (0 if out of range).
    pub fn claims_of(&self, chunk: u64) -> u32 {
        usize::try_from(chunk)
            .ok()
            .and_then(|i| self.chunks.get(i))
            .map_or(0, |e| e.claims)
    }

    /// Claims a chunk for `worker` at time `now_ms` under a lease of
    /// `ttl_ms`: the first available chunk, or failing that the first chunk
    /// whose lease has expired (`expires_ms <= now_ms` — the previous owner
    /// is presumed dead and the chunk is reclaimed). Returns the chunk
    /// index, or `None` when nothing is claimable right now (every chunk is
    /// done or validly leased).
    pub fn claim(&mut self, worker: u64, now_ms: u64, ttl_ms: u64) -> Option<u64> {
        let mut pick: Option<usize> = None;
        for (i, entry) in self.chunks.iter().enumerate() {
            match entry.state {
                ChunkState::Available => {
                    pick = Some(i);
                    break;
                }
                ChunkState::Leased { expires_ms, .. } if expires_ms <= now_ms && pick.is_none() => {
                    pick = Some(i);
                }
                _ => {}
            }
        }
        let i = pick?;
        if let Some(entry) = self.chunks.get_mut(i) {
            entry.claims = entry.claims.saturating_add(1);
            entry.state = ChunkState::Leased {
                worker,
                expires_ms: now_ms.saturating_add(ttl_ms),
            };
        }
        Some(i as u64)
    }

    /// Renews `worker`'s lease on `chunk` to `now_ms + ttl_ms` (the
    /// heartbeat). Renewal succeeds even past the old deadline as long as
    /// nobody reclaimed the chunk in between; once someone did, the answer
    /// is [`LeaseOutcome::NotHeld`] and the worker must abandon the chunk.
    pub fn renew(&mut self, chunk: u64, worker: u64, now_ms: u64, ttl_ms: u64) -> LeaseOutcome {
        let Some(entry) = usize::try_from(chunk)
            .ok()
            .and_then(|i| self.chunks.get_mut(i))
        else {
            return LeaseOutcome::OutOfRange;
        };
        match entry.state {
            ChunkState::Done => LeaseOutcome::AlreadyDone,
            ChunkState::Leased { worker: w, .. } if w == worker => {
                entry.state = ChunkState::Leased {
                    worker,
                    expires_ms: now_ms.saturating_add(ttl_ms),
                };
                LeaseOutcome::Applied
            }
            _ => LeaseOutcome::NotHeld,
        }
    }

    /// Marks `chunk` done on behalf of `worker` (its results are safely
    /// checkpointed). Like renewal, completion is valid past the deadline
    /// as long as nobody reclaimed the chunk; a reclaim in between yields
    /// [`LeaseOutcome::NotHeld`] — harmless, because the reclaiming worker
    /// will produce bit-identical results that merge cleanly.
    pub fn complete(&mut self, chunk: u64, worker: u64) -> LeaseOutcome {
        let Some(entry) = usize::try_from(chunk)
            .ok()
            .and_then(|i| self.chunks.get_mut(i))
        else {
            return LeaseOutcome::OutOfRange;
        };
        match entry.state {
            ChunkState::Done => LeaseOutcome::AlreadyDone,
            ChunkState::Leased { worker: w, .. } if w == worker => {
                entry.state = ChunkState::Done;
                LeaseOutcome::Applied
            }
            _ => LeaseOutcome::NotHeld,
        }
    }

    /// Releases `worker`'s lease on `chunk` back to available (used when a
    /// chunk held quarantined trials and the claim budget still has room —
    /// the next claimer gets a fresh per-trial retry budget).
    pub fn release(&mut self, chunk: u64, worker: u64) -> LeaseOutcome {
        let Some(entry) = usize::try_from(chunk)
            .ok()
            .and_then(|i| self.chunks.get_mut(i))
        else {
            return LeaseOutcome::OutOfRange;
        };
        match entry.state {
            ChunkState::Done => LeaseOutcome::AlreadyDone,
            ChunkState::Leased { worker: w, .. } if w == worker => {
                entry.state = ChunkState::Available;
                LeaseOutcome::Applied
            }
            _ => LeaseOutcome::NotHeld,
        }
    }

    /// `true` when every chunk is done (an empty queue is trivially done).
    pub fn all_done(&self) -> bool {
        self.chunks
            .iter()
            .all(|e| matches!(e.state, ChunkState::Done))
    }

    /// `(available, leased, done)` chunk counts.
    pub fn state_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0u64, 0u64, 0u64);
        for e in &self.chunks {
            match e.state {
                ChunkState::Available => counts.0 += 1,
                ChunkState::Leased { .. } => counts.1 += 1,
                ChunkState::Done => counts.2 += 1,
            }
        }
        counts
    }

    /// Encodes the queue to its on-disk byte layout. The encoding is
    /// canonical — a function of the queue state alone — so two processes
    /// that arrive at the same state write bit-identical files.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ENVELOPE.frame();
        w.put_u64(self.fingerprint);
        w.put_u64(self.total_trials);
        w.put_u64(self.chunk_size);
        w.put_u32(self.max_claims);
        w.put_u64(self.chunks.len() as u64);
        for entry in &self.chunks {
            w.put_u32(entry.claims);
            match entry.state {
                ChunkState::Available => w.put_u8(0),
                ChunkState::Leased { worker, expires_ms } => {
                    w.put_u8(1);
                    w.put_u64(worker);
                    w.put_u64(expires_ms);
                }
                ChunkState::Done => w.put_u8(2),
            }
        }
        w.finish()
    }

    /// Decodes a queue, verifying magic, version, length, and checksum
    /// before interpreting a single payload byte.
    ///
    /// # Errors
    /// Every corruption mode maps to a [`LeaseError`] variant; no input can
    /// cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, LeaseError> {
        let frame = ENVELOPE.next(bytes, 0)?;
        if frame.end < bytes.len() {
            return Err(LeaseError::TrailingBytes {
                extra: bytes.len() - frame.end,
            });
        }
        let mut r = Reader::new(frame.payload);
        let fingerprint = r.u64()?;
        let total_trials = r.u64()?;
        let chunk_size = r.u64()?;
        let max_claims = r.u32()?;
        if chunk_size == 0 {
            return Err(LeaseError::BadGeometry);
        }
        let stored_count = r.u64()?;
        let expected_count = total_trials.div_ceil(chunk_size);
        if stored_count != expected_count {
            return Err(LeaseError::ChunkCountMismatch {
                stored: stored_count,
                expected: expected_count,
            });
        }
        // Each entry is at least claims u32 + tag u8 = 5 bytes; bound the
        // allocation by what the payload could actually hold.
        let count = usize::try_from(stored_count).map_err(|_| LeaseError::BadGeometry)?;
        if (r.remaining() as u64) < stored_count.saturating_mul(5) {
            return Err(LeaseError::Decode(CodecError::LengthOverflow {
                at: r.position(),
                len: stored_count,
            }));
        }
        let mut chunks = Vec::with_capacity(count);
        for _ in 0..count {
            let claims = r.u32()?;
            let at = r.position();
            let state = match r.u8()? {
                0 => ChunkState::Available,
                1 => ChunkState::Leased {
                    worker: r.u64()?,
                    expires_ms: r.u64()?,
                },
                2 => ChunkState::Done,
                tag => {
                    return Err(LeaseError::Decode(CodecError::BadTag {
                        at,
                        tag,
                        what: "chunk state",
                    }))
                }
            };
            chunks.push(ChunkEntry { claims, state });
        }
        if r.remaining() != 0 {
            return Err(LeaseError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(LeaseQueue {
            fingerprint,
            total_trials,
            chunk_size,
            max_claims,
            chunks,
        })
    }

    /// Verifies the queue belongs to the sweep described by `fingerprint`
    /// over `total_trials` trials with the same chunk geometry.
    ///
    /// # Errors
    /// [`LeaseError::ConfigMismatch`], [`LeaseError::TrialCountMismatch`],
    /// or [`LeaseError::GeometryMismatch`].
    pub fn validate_for(
        &self,
        fingerprint: u64,
        total_trials: u64,
        chunk_size: u64,
        max_claims: u32,
    ) -> Result<(), LeaseError> {
        if self.fingerprint != fingerprint {
            return Err(LeaseError::ConfigMismatch {
                stored: self.fingerprint,
                expected: fingerprint,
            });
        }
        if self.total_trials != total_trials {
            return Err(LeaseError::TrialCountMismatch {
                stored: self.total_trials,
                expected: total_trials,
            });
        }
        if self.chunk_size != chunk_size || self.max_claims != max_claims {
            return Err(LeaseError::GeometryMismatch {
                stored: (self.chunk_size, self.max_claims),
                expected: (chunk_size, max_claims),
            });
        }
        Ok(())
    }

    /// Loads and decodes a queue file, first sweeping any orphaned `*.tmp*`
    /// scratch siblings a killed writer left behind (same debris story as
    /// [`crate::checkpoint::Checkpoint::load`]). A failed sweep is
    /// deliberately non-fatal.
    ///
    /// # Errors
    /// I/O failures surface as [`LeaseError::Io`]; corrupt contents as the
    /// corresponding decode variant.
    pub fn load(path: &Path) -> Result<Self, LeaseError> {
        let _ = atomic::sweep_stale_tmp(path);
        let bytes =
            std::fs::read(path).map_err(|e| LeaseError::Io(format!("{}: {e}", path.display())))?;
        LeaseQueue::decode(&bytes)
    }

    /// Writes the queue atomically: encode to `<path>.tmp.<pid>`, fsync,
    /// then rename over `path` (see [`crate::atomic`]). A crash at any
    /// point leaves either the old or the new complete file, never a torn
    /// one.
    ///
    /// # Errors
    /// [`LeaseError::Io`] with the failing path and OS error.
    pub fn write_atomic(&self, path: &Path) -> Result<(), LeaseError> {
        atomic::write_atomic(path, &self.encode()).map_err(|e| LeaseError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> LeaseQueue {
        LeaseQueue::new(0xFEED, 10, 4, 2).unwrap()
    }

    #[test]
    fn geometry_is_ceil_division() {
        let q = queue();
        assert_eq!(q.chunk_count(), 3);
        assert_eq!(q.chunk_range(0), 0..4);
        assert_eq!(q.chunk_range(1), 4..8);
        assert_eq!(q.chunk_range(2), 8..10); // short tail chunk
        assert_eq!(q.chunk_range(3), 10..10); // out of range ⇒ empty
        assert!(LeaseQueue::new(1, 5, 0, 1).is_err());
        let empty = LeaseQueue::new(1, 0, 4, 1).unwrap();
        assert_eq!(empty.chunk_count(), 0);
        assert!(empty.all_done());
    }

    #[test]
    fn claim_prefers_available_then_expired() {
        let mut q = queue();
        assert_eq!(q.claim(1, 1000, 50), Some(0));
        assert_eq!(q.claim(1, 1000, 50), Some(1));
        assert_eq!(q.claim(2, 1000, 50), Some(2));
        // Everything validly leased: nothing claimable.
        assert_eq!(q.claim(3, 1040, 50), None);
        // Worker 1's leases expire at 1050; worker 3 reclaims the first.
        assert_eq!(q.claim(3, 1050, 50), Some(0));
        assert_eq!(q.claims_of(0), 2);
        assert_eq!(
            q.entries()[0].state,
            ChunkState::Leased {
                worker: 3,
                expires_ms: 1100
            }
        );
    }

    #[test]
    fn renew_heartbeat_extends_and_detects_loss() {
        let mut q = queue();
        assert_eq!(q.claim(1, 0, 100), Some(0));
        assert_eq!(q.renew(0, 1, 80, 100), LeaseOutcome::Applied);
        assert_eq!(
            q.entries()[0].state,
            ChunkState::Leased {
                worker: 1,
                expires_ms: 180
            }
        );
        // Renewal after expiry still works while nobody reclaimed…
        assert_eq!(q.renew(0, 1, 500, 100), LeaseOutcome::Applied);
        // …but once worker 2 reclaims, worker 1 has lost the lease. (The
        // available chunks 1 and 2 are claimed first; only then does the
        // expired chunk 0 become worker 2's pick.)
        assert_eq!(q.claim(2, 700, 100), Some(1));
        assert_eq!(q.claim(2, 700, 100), Some(2));
        assert_eq!(q.claim(2, 700, 100), Some(0));
        assert_eq!(q.renew(0, 1, 710, 100), LeaseOutcome::NotHeld);
        assert_eq!(q.renew(9, 1, 0, 1), LeaseOutcome::OutOfRange);
    }

    #[test]
    fn complete_and_release_respect_ownership() {
        let mut q = queue();
        assert_eq!(q.claim(1, 0, 100), Some(0));
        assert_eq!(q.complete(0, 2), LeaseOutcome::NotHeld);
        assert_eq!(q.complete(0, 1), LeaseOutcome::Applied);
        assert_eq!(q.complete(0, 1), LeaseOutcome::AlreadyDone);
        assert_eq!(q.release(0, 1), LeaseOutcome::AlreadyDone);
        assert_eq!(q.claim(1, 0, 100), Some(1));
        assert_eq!(q.release(1, 1), LeaseOutcome::Applied);
        assert_eq!(q.entries()[1].state, ChunkState::Available);
        // The released chunk keeps its claim count (the retry budget).
        assert_eq!(q.claims_of(1), 1);
        assert!(!q.all_done());
        assert_eq!(q.state_counts(), (2, 0, 1));
    }

    #[test]
    fn round_trip_is_identity_and_canonical() {
        let mut q = queue();
        q.claim(7, 123, 456);
        q.claim(8, 124, 456);
        q.complete(1, 8);
        let bytes = q.encode();
        let decoded = LeaseQueue::decode(&bytes).unwrap();
        assert_eq!(decoded, q);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn header_corruption_is_typed() {
        let good = queue().encode();

        assert_eq!(
            LeaseQueue::decode(&good[..10]),
            Err(LeaseError::TooShort { len: 10 })
        );

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(LeaseQueue::decode(&bad), Err(LeaseError::BadMagic));

        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            LeaseQueue::decode(&bad),
            Err(LeaseError::UnsupportedVersion { found: 99, .. })
        ));

        assert!(matches!(
            LeaseQueue::decode(&good[..good.len() - 1]),
            Err(LeaseError::Truncated { .. })
        ));

        let mut extended = good.clone();
        extended.push(0);
        assert!(matches!(
            LeaseQueue::decode(&extended),
            Err(LeaseError::TrailingBytes { extra: 1 })
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            LeaseQueue::decode(&flipped),
            Err(LeaseError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn validate_for_checks_config_and_geometry() {
        let q = queue();
        assert!(q.validate_for(0xFEED, 10, 4, 2).is_ok());
        assert!(matches!(
            q.validate_for(1, 10, 4, 2),
            Err(LeaseError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            q.validate_for(0xFEED, 11, 4, 2),
            Err(LeaseError::TrialCountMismatch { .. })
        ));
        assert!(matches!(
            q.validate_for(0xFEED, 10, 5, 2),
            Err(LeaseError::GeometryMismatch { .. })
        ));
        assert!(matches!(
            q.validate_for(0xFEED, 10, 4, 3),
            Err(LeaseError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("distill-lease-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.queue");
        let mut q = queue();
        q.claim(1, 5, 10);
        q.write_atomic(&path).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(LeaseQueue::load(&path).unwrap(), q);
        // Orphaned scratch debris from a killed writer is swept on load.
        let orphan = dir.join("sweep.queue.tmp.999999999");
        std::fs::write(&orphan, b"torn").unwrap();
        assert_eq!(LeaseQueue::load(&path).unwrap(), q);
        assert!(!orphan.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_render() {
        for e in [
            LeaseError::Io("x".into()),
            LeaseError::BadGeometry,
            LeaseError::TooShort { len: 3 },
            LeaseError::BadMagic,
            LeaseError::UnsupportedVersion {
                found: 2,
                supported: 1,
            },
            LeaseError::Truncated {
                expected: 10,
                found: 5,
            },
            LeaseError::TrailingBytes { extra: 4 },
            LeaseError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            LeaseError::Decode(CodecError::BadUtf8 { at: 0 }),
            LeaseError::ChunkCountMismatch {
                stored: 4,
                expected: 3,
            },
            LeaseError::ConfigMismatch {
                stored: 1,
                expected: 2,
            },
            LeaseError::TrialCountMismatch {
                stored: 1,
                expected: 2,
            },
            LeaseError::GeometryMismatch {
                stored: (4, 2),
                expected: (8, 1),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
