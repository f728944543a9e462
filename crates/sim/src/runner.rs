//! Deterministic multi-trial execution.

use std::sync::PoisonError;

/// Runs `trials` independent simulations on up to `threads` OS threads,
/// each worker with its own state arena.
///
/// `run(&mut state, t)` receives the trial index (use it to derive the
/// per-trial seed) and returns that trial's result: typically a
/// [`SimResult`](crate::metrics::SimResult), or a `Result` when the caller
/// wants to surface engine errors per trial. Stateless callers pass
/// `|| ()` as `init`.
///
/// Work-stealing: workers pull the next trial index from a shared atomic
/// counter, so an uneven trial-duration mix cannot idle a thread the way a
/// static slot split would. Each worker calls `init` exactly once and
/// threads the resulting state through every trial it steals; the intended
/// use is one [`Engine`](crate::engine::Engine) arena per worker, rewound
/// with [`Engine::reset`](crate::engine::Engine::reset) instead of rebuilt.
/// With `threads <= 1` this is a sequential loop over one state, and no
/// thread is spawned.
///
/// Determinism contract: `run(&mut state, t)` must depend only on `t`, never
/// on which trials the state saw before (an engine freshly `reset` for trial
/// `t` satisfies this; property-tested in `tests/engine_props.rs`). Results
/// are tagged with their trial index and come back in trial order, so any
/// thread count gives byte-identical output.
pub fn run_trials_scoped<R, S, I, F>(trials: usize, threads: usize, init: I, run: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> R + Sync,
{
    let threads = threads.max(1).min(trials.max(1));
    if threads <= 1 {
        let mut state = init();
        return (0..trials as u64).map(|t| run(&mut state, t)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done: std::sync::Mutex<Vec<(usize, R)>> = std::sync::Mutex::new(Vec::with_capacity(trials));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if t >= trials {
                        break;
                    }
                    let result = run(&mut state, t as u64);
                    // Indices are unique, so ordering recovery only needs the
                    // tags; recover rather than propagate poison if another
                    // worker panicked mid-push.
                    done.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((t, result));
                }
            });
        }
    });
    let mut tagged = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    tagged.sort_unstable_by_key(|&(t, _)| t);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultCounters;
    use crate::metrics::{PlayerOutcome, SimResult};

    fn fake_result(rounds: u64) -> SimResult {
        SimResult {
            rounds,
            all_satisfied: true,
            players: vec![PlayerOutcome {
                probes: rounds,
                cost_paid: rounds as f64,
                satisfied_round: None,
                advice_probes: 0,
                explore_probes: rounds,
                crash_round: None,
            }],
            satisfied_per_round: vec![],
            posts_total: 0,
            forged_rejected: 0,
            notes: vec![],
            final_eval: None,
            faults: FaultCounters::default(),
            trace: None,
        }
    }

    fn fake_trials(trials: usize, threads: usize) -> Vec<SimResult> {
        run_trials_scoped(trials, threads, || (), |(), t| fake_result(t * 3))
    }

    #[test]
    fn sequential_preserves_order() {
        let rounds: Vec<u64> = fake_trials(5, 1).iter().map(|r| r.rounds).collect();
        assert_eq!(rounds, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn threaded_matches_sequential() {
        assert_eq!(fake_trials(16, 1), fake_trials(16, 4));
    }

    #[test]
    fn generic_return_types_are_supported() {
        // The runner is generic over the trial result, so fallible engines
        // can return Result per trial without unwrapping inside the closure.
        let out: Vec<Result<u64, String>> = run_trials_scoped(
            8,
            4,
            || (),
            |(), t| {
                if t % 2 == 0 {
                    Ok(t)
                } else {
                    Err(format!("{t}"))
                }
            },
        );
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 4);
        assert_eq!(out[3], Err("3".to_string()));
    }

    #[test]
    fn scoped_runner_reuses_worker_state_and_preserves_order() {
        // State counts how many trials this worker ran; the result must not
        // depend on it (determinism contract), but init must run per worker.
        let out = run_trials_scoped(
            12,
            3,
            || 0u64,
            |seen, t| {
                *seen += 1;
                t * 2
            },
        );
        assert_eq!(out, (0..12u64).map(|t| t * 2).collect::<Vec<_>>());
        // Sequential path: exactly one state sees every trial.
        let out = run_trials_scoped(
            5,
            1,
            || 0u64,
            |seen, t| {
                *seen += 1;
                (*seen, t)
            },
        );
        assert_eq!(out.last(), Some(&(5, 4)));
    }

    #[test]
    fn degenerate_thread_counts() {
        assert_eq!(fake_trials(3, 0).len(), 3);
        assert_eq!(fake_trials(0, 8).len(), 0);
        assert_eq!(fake_trials(2, 100).len(), 2);
    }
}
