//! Deterministic fault injection for the simulation engines.
//!
//! The paper's model (Thm 4, Cor 5) assumes a perfectly reliable synchronous
//! billboard: every honest post lands, every read is fresh, and honest
//! players never leave. A [`FaultPlan`] relaxes each assumption
//! independently so degradation becomes *measurable* rather than assumed:
//!
//! * **Dropped posts** (`drop_rate`): an honest probe happens and the player
//!   learns the outcome locally, but the resulting post never lands on the
//!   billboard — the vote is lost to everyone else.
//! * **Stale reads** (`view_lag`): honest players read a
//!   [`BoardView`](distill_billboard::BoardView) that lags `L` rounds behind
//!   the billboard's true contents.
//! * **Crash churn** (`crash_rate`/`crash_window`/`recovery_rate`): an
//!   honest player crash-stops at a predetermined round (chosen uniformly in
//!   `[0, crash_window)`), stops probing, and — if `recovery_rate > 0` —
//!   rejoins later with its pre-crash votes intact. `crash_rate` is the
//!   probability a player *ever* crashes, so the effective honest fraction
//!   shrinks to α′ = α·(1 − `crash_rate`) when recovery is disabled.
//!
//! Every random draw comes from the dedicated
//! [`Stream::Faults`](crate::rng::Stream::Faults) RNG stream, so a plan with
//! all faults disabled (the [`Default`]) leaves no-fault executions
//! bit-identical to an engine without the fault layer, and per-player
//! probe/error streams stay independent of the fault schedule.
//!
//! Both engines run crash churn through one [`CrashSchedule`]: the same
//! draw, the same due cursor and the same crash/recovery merge, so the sync
//! and async models differ only in what a crash or a recovery does to their
//! own state.

use distill_billboard::BitSet;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of the fault layer, carried on
/// [`SimConfig`](crate::config::SimConfig).
///
/// The default plan disables every fault and is guaranteed not to perturb
/// the execution (property-tested in `tests/trace_consistency.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that an individual honest post is dropped
    /// before reaching the billboard. `0.0` disables post drops.
    pub drop_rate: f64,
    /// How many rounds behind the billboard honest reads lag. `0` means
    /// fresh reads. Adversaries always read fresh state (worst case).
    pub view_lag: u64,
    /// Probability in `[0, 1]` that an honest player ever crashes. `0.0`
    /// disables churn.
    pub crash_rate: f64,
    /// Crash rounds are drawn uniformly from `[0, crash_window)`. Must be
    /// positive when `crash_rate > 0`. Defaults to 64.
    pub crash_window: u64,
    /// Per-round probability in `[0, 1]` that a crashed player recovers and
    /// rejoins. `0.0` means crash-stop (the player is gone for good).
    pub recovery_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            view_lag: 0,
            crash_rate: 0.0,
            crash_window: 64,
            recovery_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan with every fault disabled (same as [`Default`]).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the per-post drop probability.
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the honest read lag in rounds.
    #[must_use]
    pub fn with_view_lag(mut self, lag: u64) -> Self {
        self.view_lag = lag;
        self
    }

    /// Sets the probability that a player ever crashes.
    #[must_use]
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate;
        self
    }

    /// Sets the window `[0, w)` from which crash rounds are drawn.
    #[must_use]
    pub fn with_crash_window(mut self, window: u64) -> Self {
        self.crash_window = window;
        self
    }

    /// Sets the per-round recovery probability for crashed players.
    #[must_use]
    pub fn with_recovery_rate(mut self, rate: f64) -> Self {
        self.recovery_rate = rate;
        self
    }

    /// True when the plan cannot perturb an execution: no drops, no lag,
    /// no churn. The engines take the exact unfaulted code path in this
    /// case, which is what makes default-plan runs bit-identical.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0 && self.view_lag == 0 && self.crash_rate == 0.0
    }

    /// Validates the plan's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: probabilities
    /// outside `[0, 1]` (or non-finite), or a zero `crash_window` while
    /// `crash_rate > 0`.
    pub fn validate(&self) -> Result<(), String> {
        let probabilities = [
            ("drop_rate", self.drop_rate),
            ("crash_rate", self.crash_rate),
            ("recovery_rate", self.recovery_rate),
        ];
        for (name, value) in probabilities {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(format!("{name} must be in [0, 1], got {value}"));
            }
        }
        if self.crash_rate > 0.0 && self.crash_window == 0 {
            return Err("crash_window must be positive when crash_rate > 0".to_string());
        }
        Ok(())
    }
}

/// Per-fault event counters, reported on
/// [`SimResult`](crate::metrics::SimResult) and
/// [`AsyncResult`](crate::async_engine::AsyncResult).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Honest posts suppressed before reaching the billboard.
    pub posts_dropped: u64,
    /// Crash events (each player crashes at most once).
    pub crashes: u64,
    /// Recovery events (crashed players that rejoined).
    pub recoveries: u64,
}

impl FaultCounters {
    /// True when no fault event occurred during the execution.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.posts_dropped == 0 && self.crashes == 0 && self.recoveries == 0
    }
}

/// One crash or recovery that [`CrashSchedule::advance`] has just applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Churn {
    /// The player crashed (each player crashes at most once).
    Crashed(u32),
    /// The crashed player rejoined.
    Recovered(u32),
}

/// The crash-churn state of one execution: the predetermined crash events,
/// the cursor over the ones that have fired, and who is crashed now.
///
/// Every buffer is reused across [`draw`](CrashSchedule::draw)s, and
/// [`advance`](CrashSchedule::advance) allocates nothing once the crashed
/// list has reached its peak size.
#[derive(Debug, Clone)]
pub(crate) struct CrashSchedule {
    /// Crash events `(time, player)`, sorted ascending; `cursor` marks the
    /// first that has not fired. Each fires exactly once, so a recovered
    /// player never re-crashes and churn costs O(crashed + due) per tick
    /// instead of an O(n) rescan.
    events: Vec<(u64, u32)>,
    cursor: usize,
    /// Whether each honest player is crashed now (bitmap plane).
    crashed: BitSet,
    /// Crashed players, ascending: the recovery-coin draw order.
    crashed_list: Vec<u32>,
    /// Output buffer for rebuilding `crashed_list`.
    scratch: Vec<u32>,
}

impl CrashSchedule {
    /// An empty schedule for `n_honest` players: nobody ever crashes.
    pub(crate) fn new(n_honest: u32) -> Self {
        CrashSchedule {
            events: Vec::new(),
            cursor: 0,
            crashed: BitSet::new(n_honest as usize),
            crashed_list: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Clears all churn state and draws the crash events of a fresh
    /// execution, one per player that will ever crash. Coins are drawn in
    /// ascending player order (one coin per player, plus a time draw only
    /// for crashers), and nothing is drawn when `crash_rate` is zero.
    /// `crash_rate` is the probability of ever crashing; the crash time is
    /// uniform over `[0, crash_window)`, which is what makes the effective
    /// honest fraction α′ = α·(1 − crash_rate) once the window has passed.
    pub(crate) fn draw(&mut self, plan: &FaultPlan, rng: &mut SmallRng, n_honest: u32) {
        self.events.clear();
        self.cursor = 0;
        self.crashed.reset(n_honest as usize);
        self.crashed_list.clear();
        if plan.crash_rate <= 0.0 {
            return;
        }
        for p in 0..n_honest {
            if rng.gen::<f64>() < plan.crash_rate {
                self.events.push((rng.gen_range(0..plan.crash_window), p));
            }
        }
        self.events.sort_unstable();
    }

    /// Whether player `p` is crashed now.
    pub(crate) fn is_crashed(&self, p: u32) -> bool {
        self.crashed.contains(p as usize)
    }

    /// The crashed players, ascending.
    pub(crate) fn crashed(&self) -> &[u32] {
        &self.crashed_list
    }

    /// Applies the churn due at time `now` and reports each event to
    /// `apply`, after the schedule's own state and `counters` have taken it.
    ///
    /// Crashes fire once their time is reached (`<=`, so events that fall
    /// before a run's first tick still fire). Recovery is a per-tick
    /// geometric draw: one coin per crashed player, in ascending order. The
    /// crashed players are merged with the due events in player order, so
    /// the coin and event sequence is that of a walk over every player, at
    /// O(crashed + due).
    // lint: hot
    pub(crate) fn advance(
        &mut self,
        now: u64,
        recovery: f64,
        rng: &mut SmallRng,
        counters: &mut FaultCounters,
        mut apply: impl FnMut(Churn),
    ) {
        let start = self.cursor;
        let mut end = start;
        while end < self.events.len() && self.events[end].0 <= now {
            end += 1;
        }
        self.cursor = end;
        if end - start > 1 {
            // A batch from a single tick is already player-sorted; one that
            // spans several ticks (possible only on the first call of a run
            // that starts past time 0) needs the player order restored.
            self.events[start..end].sort_unstable_by_key(|&(_, p)| p);
        }
        if end == start && self.crashed_list.is_empty() {
            return;
        }
        let mut next_list = std::mem::take(&mut self.scratch);
        next_list.clear();
        let mut ci = 0;
        let mut di = start;
        loop {
            let next_crashed = self.crashed_list.get(ci).copied();
            let next_due = (di < end).then(|| self.events[di].1);
            let crash_now = match (next_crashed, next_due) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(c), Some(d)) => d < c,
            };
            if crash_now {
                let p = self.events[di].1;
                di += 1;
                self.crashed.insert(p as usize);
                counters.crashes += 1;
                next_list.push(p);
                apply(Churn::Crashed(p));
            } else {
                let p = self.crashed_list[ci];
                ci += 1;
                if recovery > 0.0 && rng.gen::<f64>() < recovery {
                    self.crashed.remove(p as usize);
                    counters.recoveries += 1;
                    apply(Churn::Recovered(p));
                } else {
                    next_list.push(p);
                }
            }
        }
        std::mem::swap(&mut self.crashed_list, &mut next_list);
        self.scratch = next_list;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(plan.validate().is_ok());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn builders_set_fields_and_flip_noop() {
        let plan = FaultPlan::none()
            .with_drop_rate(0.25)
            .with_view_lag(3)
            .with_crash_rate(0.1)
            .with_crash_window(16)
            .with_recovery_rate(0.5);
        assert!(!plan.is_noop());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.drop_rate, 0.25);
        assert_eq!(plan.view_lag, 3);
        assert_eq!(plan.crash_rate, 0.1);
        assert_eq!(plan.crash_window, 16);
        assert_eq!(plan.recovery_rate, 0.5);
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        assert!(FaultPlan::none().with_drop_rate(1.5).validate().is_err());
        assert!(FaultPlan::none().with_drop_rate(-0.1).validate().is_err());
        assert!(FaultPlan::none()
            .with_crash_rate(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_recovery_rate(2.0)
            .validate()
            .is_err());
    }

    #[test]
    fn zero_crash_window_requires_zero_crash_rate() {
        let plan = FaultPlan::none().with_crash_rate(0.5).with_crash_window(0);
        assert!(plan.validate().is_err());
        // window irrelevant while churn is off
        let idle = FaultPlan::none().with_crash_window(0);
        assert!(idle.validate().is_ok());
        assert!(idle.is_noop());
    }

    #[test]
    fn counters_default_empty() {
        let c = FaultCounters::default();
        assert!(c.is_empty());
        let c = FaultCounters {
            posts_dropped: 1,
            ..FaultCounters::default()
        };
        assert!(!c.is_empty());
    }
}
