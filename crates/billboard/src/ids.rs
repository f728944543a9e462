//! Strongly-typed identifiers for the billboard model.
//!
//! Newtypes keep players, objects, rounds and log sequence numbers from being
//! confused with one another (C-NEWTYPE). All of them are `Copy` and cheap.

use std::fmt;

/// Identity of a player, `0 ≤ id < n`.
///
/// The billboard reliably tags every post with the author's `PlayerId`
/// (paper §2.1); forging an identity is impossible by construction.
///
/// ```
/// use distill_billboard::PlayerId;
/// let p = PlayerId(3);
/// assert_eq!(p.index(), 3usize);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PlayerId(pub u32);

impl PlayerId {
    /// The id as a `usize` index into player-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The typed conversion from an array index back to an id: `Some` iff
    /// `index` fits the `u32` id space. This is the single sanctioned
    /// index→id path — engines validate their population size once at
    /// construction and then convert losslessly, instead of sprinkling
    /// truncating `as u32` casts through the round loop.
    #[inline]
    pub fn from_index(index: usize) -> Option<PlayerId> {
        u32::try_from(index).ok().map(PlayerId)
    }
}

impl fmt::Display for PlayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PlayerId {
    fn from(v: u32) -> Self {
        PlayerId(v)
    }
}

impl TryFrom<usize> for PlayerId {
    type Error = std::num::TryFromIntError;
    /// Fails (instead of truncating) for indices beyond the `u32` id space.
    fn try_from(index: usize) -> Result<Self, Self::Error> {
        u32::try_from(index).map(PlayerId)
    }
}

/// Identity of an object, `0 ≤ id < m`.
///
/// ```
/// use distill_billboard::ObjectId;
/// assert_eq!(ObjectId(7).to_string(), "o7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a `usize` index into object-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl From<u32> for ObjectId {
    fn from(v: u32) -> Self {
        ObjectId(v)
    }
}

impl TryFrom<usize> for ObjectId {
    type Error = std::num::TryFromIntError;
    /// Fails (instead of truncating) for indices beyond the `u32` id space.
    fn try_from(index: usize) -> Result<Self, Self::Error> {
        u32::try_from(index).map(ObjectId)
    }
}

/// A synchronous round number; doubles as the billboard timestamp (§2.1).
///
/// Rounds start at 0 and only move forward.
///
/// ```
/// use distill_billboard::Round;
/// let r = Round(5);
/// assert_eq!(r.next(), Round(6));
/// assert_eq!(r + 3, Round(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(pub u64);

impl Round {
    /// The round that immediately follows this one.
    #[inline]
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The round number as a plain `u64`.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::ops::Add<u64> for Round {
    type Output = Round;
    fn add(self, rhs: u64) -> Round {
        Round(self.0 + rhs)
    }
}

impl std::ops::Sub<Round> for Round {
    type Output = u64;
    /// Number of rounds from `rhs` to `self`.
    ///
    /// # Panics
    /// Panics in debug builds if `rhs > self`.
    fn sub(self, rhs: Round) -> u64 {
        debug_assert!(rhs.0 <= self.0, "round subtraction underflow");
        self.0 - rhs.0
    }
}

/// Position of a post in the append-only log. Strictly increasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seq(pub u64);

impl Seq {
    /// The sequence number as a `usize` index into the log.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn player_id_roundtrips() {
        let p: PlayerId = 9u32.into();
        assert_eq!(p, PlayerId(9));
        assert_eq!(p.index(), 9);
        assert_eq!(format!("{p}"), "p9");
    }

    #[test]
    fn object_id_roundtrips() {
        let o: ObjectId = 4u32.into();
        assert_eq!(o, ObjectId(4));
        assert_eq!(o.index(), 4);
        assert_eq!(format!("{o}"), "o4");
    }

    #[test]
    fn round_arithmetic() {
        assert_eq!(Round(0).next(), Round(1));
        assert_eq!(Round(10) + 5, Round(15));
        assert_eq!(Round(15) - Round(10), 5);
        assert!(Round(3) < Round(4));
    }

    #[test]
    fn seq_orders() {
        assert!(Seq(1) < Seq(2));
        assert_eq!(Seq(3).index(), 3);
        assert_eq!(Seq(3).to_string(), "#3");
    }

    #[test]
    fn ids_are_hashable_defaults() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(PlayerId::default());
        s.insert(PlayerId(0));
        assert_eq!(s.len(), 1);
        assert_eq!(Round::default(), Round(0));
    }
}
