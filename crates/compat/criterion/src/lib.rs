//! Offline stub of the `criterion` API subset this workspace uses.
//!
//! The build environment has no registry access, so the workspace vendors a
//! small wall-clock benchmark harness that is source-compatible with the
//! `benches/perf.rs` usage: `Criterion`, `benchmark_group`, `sample_size`,
//! `bench_function`, `Bencher::iter` / `iter_batched`, `BatchSize`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Extensions over upstream:
//!
//! * [`Criterion::set_json_output`] — writes every measurement to a
//!   machine-readable JSON file when the run finishes (used to produce
//!   `BENCH_perf.json` at the repository root; see EXPERIMENTS.md);
//! * measurements are mean/median/min over `sample_size` samples with a
//!   fixed 3-iteration warmup, not criterion's bootstrapped statistics.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// How `iter_batched` amortizes setup cost. The stub times each routine call
/// individually, so the variants are behaviorally identical; they exist for
/// source compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// One recorded measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/function` identifier.
    pub id: String,
    /// `"timed"` for wall-clock measurements, `"value"` for raw reported
    /// values ([`BenchmarkGroup::report_value`]). Downstream consumers (the
    /// perf trend gate) must never compare `"value"` rows in nanosecond
    /// terms.
    pub kind: &'static str,
    /// Unit of the three value fields: `"ns"` for timed rows, whatever the
    /// reporter declared for value rows.
    pub unit: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest observed iteration, nanoseconds.
    pub min_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
}

impl BenchResult {
    /// Iterations per second implied by the mean of a timed row. `0.0` for
    /// value rows, whose fields hold a reported value rather than
    /// nanoseconds, and for a zero mean, keeping the JSON dump free of
    /// non-finite literals that strict parsers reject.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.kind == "timed" && self.mean_ns > 0.0 {
            1e9 / self.mean_ns
        } else {
            0.0
        }
    }
}

/// The benchmark harness.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
    json_output: Option<PathBuf>,
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 10,
        }
    }

    /// Requests a JSON dump of all measurements at the end of the run
    /// (stub extension; upstream writes `target/criterion` instead).
    pub fn set_json_output(&mut self, path: impl Into<PathBuf>) {
        self.json_output = Some(path.into());
    }

    /// All measurements recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the summary and writes the JSON dump if requested. Called by
    /// `criterion_main!`.
    pub fn final_summary(&self) {
        if let Some(path) = &self.json_output {
            let mut json = String::from("{\n  \"benches\": [\n");
            for (i, r) in self.results.iter().enumerate() {
                json.push_str(&format!(
                    "    {{\"id\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \
                     \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \
                     \"min_ns\": {:.1}, \"samples\": {}, \"throughput_per_sec\": {:.3}}}{}\n",
                    r.id,
                    r.kind,
                    r.unit,
                    r.mean_ns,
                    r.median_ns,
                    r.min_ns,
                    r.samples,
                    r.throughput_per_sec(),
                    if i + 1 < self.results.len() { "," } else { "" },
                ));
            }
            json.push_str("  ]\n}\n");
            match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
                Ok(()) => println!("wrote {} results to {}", self.results.len(), path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

/// A named group sharing a sample-size setting.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        let mut samples = bencher.samples_ns;
        if samples.is_empty() {
            samples.push(0.0);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let median = samples[samples.len() / 2];
        let result = BenchResult {
            id: format!("{}/{}", self.name, id),
            kind: "timed",
            unit: "ns".to_string(),
            mean_ns: mean,
            median_ns: median,
            min_ns: samples[0],
            samples: samples.len(),
        };
        println!(
            "{:<44} mean {:>12.1} ns   median {:>12.1} ns   ({} samples)",
            result.id, result.mean_ns, result.median_ns, result.samples
        );
        self.criterion.results.push(result);
        self
    }

    /// Records a raw, already-measured value under this group (stub
    /// extension; upstream has no equivalent). Used for non-time metrics
    /// such as allocation counts — the value lands in the JSON dump in the
    /// `mean_ns`/`median_ns`/`min_ns` fields verbatim with `samples = 1`,
    /// tagged `kind: "value"` with the declared `unit` so downstream
    /// consumers never mistake it for nanoseconds.
    pub fn report_value(&mut self, id: &str, value: f64, unit: &str) -> &mut Self {
        let result = BenchResult {
            id: format!("{}/{}", self.name, id),
            kind: "value",
            unit: unit.to_string(),
            mean_ns: value,
            median_ns: value,
            min_ns: value,
            samples: 1,
        };
        println!(
            "{:<44} value {:>12.1} {:<10} (reported, not timed)",
            result.id, value, result.unit
        );
        self.criterion.results.push(result);
        self
    }

    /// Ends the group (measurements are recorded eagerly; this is a no-op for
    /// source compatibility).
    pub fn finish(self) {}
}

/// Times closures.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine` with no per-sample setup.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warmup, then calibrate iterations-per-sample so that one sample
        // costs ~2 ms and short routines are not all timer noise.
        for _ in 0..3 {
            std::hint::black_box(routine());
        }
        let probe = Instant::now();
        std::hint::black_box(routine());
        let once_ns = probe.elapsed().as_nanos().max(1) as f64;
        let iters = ((2e6 / once_ns).ceil() as usize).clamp(1, 1_000_000);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            self.samples_ns
                .push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }

    /// Times `routine` against fresh input from `setup`; setup cost is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        std::hint::black_box(routine(setup())); // warmup
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.samples_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
}

/// Bundles benchmark functions into a group runner, as in upstream.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for a set of groups, as in upstream.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_results() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_function("batched", |b| {
                b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
            });
            g.finish();
        }
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].id, "g/noop");
        assert_eq!(c.results()[0].kind, "timed");
        assert_eq!(c.results()[0].unit, "ns");
        assert!(c.results()[0].mean_ns >= 0.0);
        assert!(c.results()[1].samples >= 3);
    }

    #[test]
    fn report_value_rows_are_typed() {
        let mut c = Criterion::default();
        c.benchmark_group("g")
            .report_value("allocs", 7.0, "allocs/round");
        let r = &c.results()[0];
        assert_eq!(r.kind, "value");
        assert_eq!(r.unit, "allocs/round");
        assert_eq!(r.mean_ns, 7.0);
        assert_eq!(r.samples, 1);
    }

    #[test]
    fn value_rows_have_no_throughput() {
        let mut c = Criterion::default();
        c.benchmark_group("g")
            .report_value("overhead_frac", 36.5, "fraction");
        assert_eq!(c.results()[0].throughput_per_sec(), 0.0);
        let timed = BenchResult {
            id: "g/timed".into(),
            kind: "timed",
            unit: "ns".into(),
            mean_ns: 2e6,
            median_ns: 2e6,
            min_ns: 2e6,
            samples: 3,
        };
        assert_eq!(timed.throughput_per_sec(), 500.0);
    }

    #[test]
    fn json_output_is_written() {
        let path = std::env::temp_dir().join("criterion_stub_test.json");
        let mut c = Criterion::default();
        c.set_json_output(&path);
        c.benchmark_group("j")
            .bench_function("one", |b| b.iter(|| 0u8));
        c.final_summary();
        let text = std::fs::read_to_string(&path).expect("json written");
        assert!(text.contains("\"id\": \"j/one\""));
        assert!(text.contains("\"kind\": \"timed\""));
        assert!(text.contains("\"unit\": \"ns\""));
        assert!(text.contains("throughput_per_sec"));
        let _ = std::fs::remove_file(&path);
    }
}
