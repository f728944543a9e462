//! # distill-sim
//!
//! Synchronous round-based simulation engine for the collaboration model of
//! *Adaptive Collaboration in Peer-to-Peer Systems* (ICDCS 2005).
//!
//! The paper's synchronous model (§1.2, §2.1): computation proceeds in
//! rounds; in each round every *active* player reads the billboard, probes
//! one object (paying its cost, learning its value), and posts the result; a
//! player is active until it probes a good object. An α fraction of players
//! are honest; the rest are Byzantine, coordinated by an adversary that may
//! be oblivious or adaptive (§2.3).
//!
//! This crate provides:
//!
//! * [`World`] — the object universe: values, costs, the good set, and the
//!   two object models of §2.2 ([`ObjectModel::LocalTesting`] and
//!   [`ObjectModel::TopBeta`]);
//! * [`Cohort`] — the honest players' shared, public protocol, expressed as a
//!   per-round [`Directive`] plus a [`PhaseInfo`] the adversary may read (the
//!   protocol is public knowledge);
//! * [`Adversary`] — the Byzantine strategy interface, with the
//!   oblivious / adaptive / strongly-adaptive information models;
//! * [`Engine`] — the synchronous round loop, enforcing the billboard
//!   integrity rules and collecting [`SimResult`] metrics;
//! * [`run_trials_scoped`] — the deterministic, work-stealing multi-trial
//!   runner, with one reusable state arena per worker thread.
//!
//! ## Example: random probing against a silent adversary
//!
//! ```
//! use distill_sim::{CandidateSet, Cohort, Directive, Engine, NullAdversary,
//!                   PhaseInfo, SimConfig, StopRule, World};
//! use distill_billboard::BoardView;
//!
//! /// The "trivial algorithm" of §3: probe a uniformly random object each
//! /// round, ignore the billboard.
//! #[derive(Debug)]
//! struct Trivial;
//! impl Cohort for Trivial {
//!     fn directive(&mut self, _view: &BoardView<'_>) -> Directive {
//!         Directive::ProbeUniform(CandidateSet::All)
//!     }
//!     fn phase_info(&self) -> PhaseInfo { PhaseInfo::plain("trivial") }
//!     fn name(&self) -> &'static str { "trivial" }
//! }
//!
//! # fn main() -> Result<(), distill_sim::SimError> {
//! let world = World::binary(64, 8, 7)?;          // m=64 objects, 8 good
//! let config = SimConfig::new(16, 16, 42)        // n=16 players, all honest
//!     .with_stop(StopRule::all_satisfied(10_000));
//! let result = Engine::new(config, &world, Box::new(Trivial), Box::new(NullAdversary))?
//!     .run()?;
//! assert!(result.all_satisfied);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod adversary;
pub mod async_engine;
mod cohort;
mod config;
mod engine;
mod error;
mod faults;
mod metrics;
mod object_model;
pub mod rng;
mod runner;
mod trace;
mod world;

pub use adversary::{Adversary, AdversaryCtx, DishonestPost, InfoModel, NullAdversary};
pub use cohort::{CandidateSet, Cohort, Directive, PhaseInfo};
pub use config::{player_count, Participation, ServicePlan, SimConfig, StopRule};
pub use engine::Engine;
pub use error::SimError;
pub use faults::{FaultCounters, FaultPlan};
pub use metrics::{FinalEval, PlayerOutcome, ResultFold, SimResult};
pub use object_model::ObjectModel;
pub use runner::run_trials_scoped;
pub use trace::{summarize, TraceEvent, TraceSummary};
pub use world::{Probe, ValueDistribution, World, WorldBuilder};

// Re-export the billboard vocabulary so downstream crates can use one import.
pub use distill_billboard as billboard;
pub use distill_billboard::{ObjectId, PlayerId, Round, VotePolicy, Window};
