//! Reader-side vote interpretation policies.

use std::fmt;

/// How a player's posts are turned into votes by honest readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VoteMode {
    /// Search **with local testing** (§2.2, §4): a vote is a positive report,
    /// and only the first `f` positive reports of each player count. Votes are
    /// permanent.
    #[default]
    LocalTesting,
    /// Search **without local testing** (§5.3): a player's (single) vote is
    /// the highest-value object it has reported so far, and may therefore
    /// change over time. A *vote event* is recorded the first time each object
    /// becomes a player's vote; window tallies count vote events.
    BestValue,
}

impl fmt::Display for VoteMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VoteMode::LocalTesting => f.write_str("local-testing"),
            VoteMode::BestValue => f.write_str("best-value"),
        }
    }
}

/// The complete reader-side interpretation of the billboard.
///
/// The paper's base algorithm allows "each player to make only one such
/// report, called the player's *vote*" (§4). §4.1 relaxes this to `f` votes
/// per player ("there is nothing special about the number 1"), and shows the
/// analysis survives while `f = o(1/(1−α))`. Crucially, this is not enforced
/// by the billboard — Byzantine players can post anything — but by how honest
/// players *read* it: all positive reports beyond the first `f` per author
/// are ignored.
///
/// ```
/// use distill_billboard::{VoteMode, VotePolicy};
/// let p = VotePolicy::single_vote();
/// assert_eq!(p.votes_per_player, 1);
/// assert_eq!(p.mode, VoteMode::LocalTesting);
/// let p = VotePolicy::multi_vote(4);
/// assert_eq!(p.votes_per_player, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VotePolicy {
    /// Maximum number of votes counted per player (`f` in §4.1). Must be ≥ 1.
    pub votes_per_player: usize,
    /// Vote semantics: local testing or best-value.
    pub mode: VoteMode,
}

impl VotePolicy {
    /// The base policy of Figure 1: one vote per player, local testing.
    pub fn single_vote() -> Self {
        VotePolicy {
            votes_per_player: 1,
            mode: VoteMode::LocalTesting,
        }
    }

    /// The §4.1 extension: up to `f` votes per player, local testing.
    ///
    /// # Panics
    /// Panics if `f == 0`.
    pub fn multi_vote(f: usize) -> Self {
        assert!(f >= 1, "votes_per_player must be at least 1");
        VotePolicy {
            votes_per_player: f,
            mode: VoteMode::LocalTesting,
        }
    }

    /// The §5.3 policy: single best-value-so-far vote (no local testing).
    pub fn best_value() -> Self {
        VotePolicy {
            votes_per_player: 1,
            mode: VoteMode::BestValue,
        }
    }
}

impl Default for VotePolicy {
    fn default() -> Self {
        VotePolicy::single_vote()
    }
}

impl fmt::Display for VotePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (f={})", self.mode, self.votes_per_player)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(VotePolicy::default(), VotePolicy::single_vote());
        assert_eq!(VotePolicy::multi_vote(3).votes_per_player, 3);
        assert_eq!(VotePolicy::best_value().mode, VoteMode::BestValue);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_votes_rejected() {
        let _ = VotePolicy::multi_vote(0);
    }

    #[test]
    fn display() {
        assert_eq!(VotePolicy::single_vote().to_string(), "local-testing (f=1)");
        assert_eq!(VotePolicy::best_value().to_string(), "best-value (f=1)");
    }
}
