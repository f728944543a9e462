//! Shared plumbing for the experiment harnesses.
//!
//! Every paper claim has a bench target (`benches/exp_*.rs`, `harness =
//! false`) that prints a paper-vs-measured table; this crate holds the
//! pieces they share: trial execution, seed discipline, and environment
//! knobs.
//!
//! Environment variables:
//!
//! * `DISTILL_TRIALS` — override the per-experiment trial count (e.g. set to
//!   5 for a smoke run, 200 for tighter confidence intervals).
//! * `DISTILL_THREADS` — override worker-thread count (defaults to available
//!   parallelism).

#![forbid(unsafe_code)]

use distill_sim::{run_trials_scoped, Adversary, Cohort, SimConfig, SimResult, World};

/// The per-experiment default trial count, overridable via `DISTILL_TRIALS`.
pub fn trials(default: usize) -> usize {
    std::env::var("DISTILL_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker threads for trial execution, overridable via `DISTILL_THREADS`.
pub fn threads() -> usize {
    std::env::var("DISTILL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
}

/// Runs `n_trials` independent simulations in parallel. Each trial `t` gets
/// its own world (via `world(t)`), cohort, adversary, and a config derived
/// from `config(t)`; results return in trial order, deterministically.
///
/// # Panics
/// Panics if any trial's engine construction or execution fails — experiment
/// setups are programmer-controlled, so a failure is a bug in the harness.
pub fn run_experiment<W, C, A, F>(
    n_trials: usize,
    world: W,
    cohort: C,
    adversary: A,
    config: F,
) -> Vec<SimResult>
where
    W: Fn(u64) -> World + Sync,
    C: Fn(&World, u64) -> Box<dyn Cohort> + Sync,
    A: Fn(u64) -> Box<dyn Adversary> + Sync,
    F: Fn(u64) -> SimConfig + Sync,
{
    run_trials_scoped(
        n_trials,
        threads(),
        || (),
        |(), t| {
            let w = world(t);
            let c = cohort(&w, t);
            let a = adversary(t);
            distill_sim::Engine::new(config(t), &w, c, a)
                .expect("experiment setup must be valid")
                .run()
                .expect("experiment run must succeed")
        },
    )
}

/// Mean of a per-trial statistic.
pub fn mean_of<F: Fn(&SimResult) -> f64>(results: &[SimResult], f: F) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(f).sum::<f64>() / results.len() as f64
}

/// Maximum of a per-trial statistic.
pub fn max_of<F: Fn(&SimResult) -> f64>(results: &[SimResult], f: F) -> f64 {
    results.iter().map(f).fold(f64::NEG_INFINITY, f64::max)
}

/// Extracts a per-trial vector of a statistic.
pub fn collect<F: Fn(&SimResult) -> f64>(results: &[SimResult], f: F) -> Vec<f64> {
    results.iter().map(f).collect()
}

/// The per-trial *last satisfaction round* (worst honest player), treating
/// non-terminating trials as the full round count.
pub fn last_round(r: &SimResult) -> f64 {
    r.last_satisfaction_round()
        .map_or(r.rounds as f64, |x| x.as_u64() as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_core::RandomProbing;
    use distill_sim::NullAdversary;

    #[test]
    fn knobs_parse_defaults() {
        assert!(threads() >= 1);
        assert_eq!(trials(7), 7);
    }

    #[test]
    fn run_experiment_is_deterministic() {
        let go = || {
            run_experiment(
                4,
                |t| World::binary(16, 2, t).unwrap(),
                |_w, _t| Box::new(RandomProbing::new()) as Box<dyn Cohort>,
                |_t| Box::new(NullAdversary) as Box<dyn Adversary>,
                |t| SimConfig::new(8, 8, 100 + t),
            )
        };
        let a = go();
        let b = go();
        let ra: Vec<u64> = a.iter().map(|r| r.rounds).collect();
        let rb: Vec<u64> = b.iter().map(|r| r.rounds).collect();
        assert_eq!(ra, rb);
        assert!(mean_of(&a, |r| r.mean_probes()) > 0.0);
        assert!(max_of(&a, last_round) >= 1.0);
        assert_eq!(collect(&a, |r| r.rounds as f64).len(), 4);
    }
}
