//! Measurement plumbing shared by every workload: the run outcome and
//! its JSON line, percentiles, set-up timing, peak memory, a seeded
//! generator, content hashes, and the in-memory span recorder of the
//! traced run.

use std::hash::{DefaultHasher, Hasher};
use std::time::{Duration, Instant};

use fcn_telemetry::json::Value;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output-check and determinism-guard failures, one line each.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check; the run then reports
    /// `"correct": false`.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// The run's result as the one-line JSON object the benchmark
    /// prints last.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let metric = Value::Obj(vec![
                    ("value".to_owned(), Value::Num(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ]);
                (m.name.to_owned(), metric)
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.errors.is_empty())),
            ("attempted".to_owned(), Value::Num(self.attempted as f64)),
            ("failed".to_owned(), Value::Num(self.failed as f64)),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ])
        .serialize()
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Processes whose set-up times `setup_s` is the median of: this one
/// and `SETUP_PROCESSES - 1` fresh copies of it.
const SETUP_PROCESSES: usize = 11;

/// Set in the environment of a copy that only sets up: it prints its
/// set-up time and exits.
const SETUP_PROBE: &str = "FLOWBENCH_SETUP_PROBE";

/// Runs `setup` once and returns its state with the set-up time in
/// seconds: the time from `process_start` (entry to `main`) to the end
/// of set-up, so it covers the process's own start-up and every
/// one-time initialisation. Nothing is warmed up: state the program
/// builds lazily is paid by the timed operations.
///
/// One set-up takes well under a millisecond, so a single one samples
/// the machine's load at one instant. An untraced run therefore also
/// starts `SETUP_PROCESSES - 1` fresh copies of this process with the
/// same arguments; each sets up the same way, prints its time and
/// exits. The time returned is the median over all of them. A traced
/// run reports no `setup_s` and starts no copies.
pub fn timed_setup<T>(process_start: Instant, trace: bool, setup: impl FnOnce() -> T) -> (T, f64) {
    let state = setup();
    let own = process_start.elapsed().as_secs_f64();
    if std::env::var_os(SETUP_PROBE).is_some() {
        println!("{own:?}");
        std::process::exit(0);
    }
    if trace {
        return (state, own);
    }
    let mut times = vec![own];
    for _ in 1..SETUP_PROCESSES {
        match setup_copy() {
            Ok(t) => times.push(t),
            Err(e) => {
                eprintln!("flowbench: set-up copy: {e}");
                std::process::exit(1);
            }
        }
    }
    (state, median(&times))
}

/// Runs one set-up-only copy of this process and returns the time it
/// printed.
fn setup_copy() -> Result<f64, String> {
    let out = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(std::env::args_os().skip(1))
        .env(SETUP_PROBE, "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(t) if out.status.success() => Ok(t),
        _ => Err(format!("{}, printed {text:?}", out.status)),
    }
}

/// The process's peak resident set in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: a small, fixed, seedable generator, so a seed names the
/// same inputs on every platform and Rust release.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A content hash for comparing outputs within a run without keeping
/// them (never stored).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// Runs whole passes over `items` until `seconds` have passed. `op`
/// performs one operation (given its id) and returns its output with
/// the work counts the determinism guard compares: every later pass
/// must reproduce the first pass's counts for the same item. An error
/// counts as a failed operation. Returns the first pass's outputs and
/// the length of the timed phase in seconds.
pub fn run_passes<I, T>(
    items: &[I],
    name: impl Fn(&I) -> &str,
    seconds: f64,
    outcome: &mut Outcome,
    mut op: impl FnMut(&I, u64) -> Result<(T, Vec<(&'static str, u64)>), String>,
) -> (Vec<Option<T>>, f64) {
    let mut first_counts: Vec<Option<Vec<(&'static str, u64)>>> = Vec::new();
    let mut first_outputs = Vec::new();
    let phase = Instant::now();
    for pass in 0.. {
        for (i, item) in items.iter().enumerate() {
            let id = outcome.attempted;
            outcome.attempted += 1;
            let (output, counts) = match op(item, id) {
                Ok((output, counts)) => (Some(output), Some(counts)),
                Err(e) => {
                    outcome.failed += 1;
                    eprintln!("flowbench: {} failed: {e}", name(item));
                    (None, None)
                }
            };
            if pass == 0 {
                first_outputs.push(output);
                first_counts.push(counts);
            } else if let (Some(first), Some(now)) = (&first_counts[i], counts) {
                if *first != now {
                    outcome.error(format!(
                        "determinism guard: {} did different work in pass {pass}: \
                         first {first:?}, now {now:?}",
                        name(item)
                    ));
                }
            }
        }
        if phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (first_outputs, phase.elapsed().as_secs_f64())
}

/// One recorded span of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to (one per timed operation).
    pub op: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Keeps the traced run's spans in memory; [`Tracer::write`] saves
/// them once, at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Records a span whose bounds were measured elsewhere (nanoseconds
    /// since `epoch`).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Total time of all spans named `name`.
    pub fn busy(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Duration::from_nanos(s.end_ns - s.start_ns))
            .sum()
    }

    /// Writes the spans as one JSON array to `path` (creating its
    /// directory).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Obj(vec![
                    ("id".to_owned(), Value::Num(i as f64)),
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("op".to_owned(), Value::Num(s.op as f64)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("start_ns".to_owned(), Value::Num(s.start_ns as f64)),
                    ("end_ns".to_owned(), Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let mut out = Value::Arr(spans).serialize_pretty();
        out.push('\n');
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn the_generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            o.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
    }
}
