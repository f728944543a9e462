//! Billboard messages.

use crate::ids::{ObjectId, PlayerId, Round, Seq};
use std::fmt;

/// The polarity of a probe report.
///
/// Algorithm DISTILL uses *only positive reports* ("this object is good") and
/// flatly ignores negative ones (§4, §6 "Is slander useless?"). Negative
/// reports are still first-class messages on the billboard — honest players
/// post the value of every object they probe (§2.1) — they just never count
/// as votes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportKind {
    /// "I probed this object and it is good" — a candidate vote.
    Positive,
    /// "I probed this object and it is bad" — informational only.
    Negative,
}

impl fmt::Display for ReportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportKind::Positive => f.write_str("+"),
            ReportKind::Negative => f.write_str("-"),
        }
    }
}

/// One immutable message on the billboard.
///
/// Carries the author tag and round timestamp the paper's environment
/// guarantees (§2.1). The reported `value` is *whatever the author claims*:
/// honest players report true probe values, Byzantine players may lie.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Post {
    /// Position in the append-only log; strictly increasing.
    pub seq: Seq,
    /// Round in which the post was made (the timestamp).
    pub round: Round,
    /// Reliably-tagged author identity.
    pub author: PlayerId,
    /// The object the report is about.
    pub object: ObjectId,
    /// The value the author claims to have observed.
    pub value: f64,
    /// Positive (vote-eligible) or negative (informational) report.
    pub kind: ReportKind,
}

impl Post {
    /// `true` iff this is a positive report (a potential vote).
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.kind == ReportKind::Positive
    }
}

impl fmt::Display for Post {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}{} v={}",
            self.seq, self.round, self.author, self.kind, self.object, self.value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Post {
        Post {
            seq: Seq(0),
            round: Round(2),
            author: PlayerId(1),
            object: ObjectId(5),
            value: 1.0,
            kind: ReportKind::Positive,
        }
    }

    #[test]
    fn positivity() {
        assert!(sample().is_positive());
        let neg = Post {
            kind: ReportKind::Negative,
            ..sample()
        };
        assert!(!neg.is_positive());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
        assert_eq!(ReportKind::Positive.to_string(), "+");
        assert_eq!(ReportKind::Negative.to_string(), "-");
    }
}
