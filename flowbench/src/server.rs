//! `server_mixed`: the in-process `fcn_server::Server` with two
//! workers, fed by two closed-loop clients from a seeded request stream.
//!
//! The stream is synthetic: no measured traffic stands behind it, so
//! each share below is derived from what the workload has to measure.
//! It comes in rounds of [`ROUND`] requests. Round 0 holds fresh
//! circuits only; every later round holds [`FRESH`] fresh circuits,
//! [`RENAMED`] renamed repeats and [`REPEATS`] exact repeats in seeded
//! order. Repeats and renames draw only on requests of completed
//! rounds, and a round starts only when the previous one has been
//! answered, so which requests hit the result cache does not depend on
//! timing.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use bestagon_core::flow::{FlowOptions, FlowRequest};
use fcn_server::{JobStatus, Server, ServerConfig};
use fcn_telemetry::json::Value;

use crate::circuits::{check_layout, check_xag, Generated};
use crate::measure::{
    content_hash, median, ms, peak_rss_mb, quantile, ratio, timed_setup, Outcome, Rng, Tracer,
};
use crate::Args;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Exact repeats per round: 70 %. Hits are fast and cold flows slow, so
/// with a hit share `h` the sorted latencies switch from the hit path
/// to the cold path at quantile `h`. `latency_p50_ms` reads the hit
/// path only while `h > 0.5`, and `latency_p90_ms` the cold path only
/// while `h < 0.9`; `h = 0.7` keeps both percentiles equally far (0.2)
/// from that boundary.
const REPEATS: usize = 14;
/// Fresh circuits and renamed repeats per round: the other 30 %, split
/// evenly. Only a fresh circuit brings new work to the caches, and only
/// a renamed repeat can find a warm session pool; with nothing to say
/// which is more common, neither is favoured.
const FRESH: usize = 3;
const RENAMED: usize = 3;
/// The smallest round that holds these shares in whole requests. Round
/// 0 has the same size but is all fresh, since nothing can be repeated
/// yet.
const ROUND: usize = REPEATS + FRESH + RENAMED;
/// Input counts of successive fresh circuits, and of the bases
/// successive renames draw from: every size of the 3–6-input range
/// equally often, in a fixed order, so that every run of the same
/// length does the same mix of sizes and only the netlists' structure
/// depends on the seed. Round 0 holds five of each size, so a rename
/// always finds a base of the size it needs.
const INPUT_SCHEDULE: [usize; 4] = [3, 4, 5, 6];
/// Generator seed of round 0.
const FILL_SEED: u64 = 0x5eed_f111;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Renamed,
    Repeat,
}

/// A distinct netlist of the stream, in the format it is always sent
/// in.
struct Base {
    circuit: Generated,
    blif: bool,
    renames: usize,
}

/// One request of the stream.
#[derive(Clone)]
struct Request {
    kind: Kind,
    /// Index into the stream's bases.
    base: usize,
    text: Arc<String>,
}

/// The flow request a client sends: the text in its format, one P&R
/// thread, everything else default.
fn flow_request(text: &str, blif: bool) -> FlowRequest {
    let request = if blif {
        FlowRequest::blif(text)
    } else {
        FlowRequest::verilog(text)
    };
    request.with_options(FlowOptions::new().with_threads(1))
}

/// The seeded request stream and its round barrier.
struct Stream {
    rng: Rng,
    bases: Vec<Base>,
    /// Cold requests (fresh and renamed) of completed rounds, in the
    /// order they were sent: what exact repeats draw on.
    history: Vec<Request>,
    /// Bases of completed rounds (a prefix of `bases`): what renames
    /// draw on.
    completed_bases: usize,
    fresh_sent: usize,
    renames_sent: usize,
    round: Vec<Request>,
    pending: std::collections::VecDeque<Request>,
    in_flight: usize,
    stopped: bool,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut stream = Stream {
            rng: Rng::new(seed),
            bases: Vec::new(),
            history: Vec::new(),
            completed_bases: 0,
            fresh_sent: 0,
            renames_sent: 0,
            round: Vec::new(),
            pending: Default::default(),
            in_flight: 0,
            stopped: false,
        };
        // Round 0 is the same for every seed (drawn from a fixed
        // generator), so `area_tiles` sums one fixed set of circuits;
        // the seed drives everything after it.
        let seeded = std::mem::replace(&mut stream.rng, Rng::new(FILL_SEED));
        let fill: Vec<Request> = (0..ROUND).map(|_| stream.fresh()).collect();
        stream.rng = seeded;
        stream.start_round(fill);
        stream
    }

    fn text(base: &Base, name: &str) -> String {
        if base.blif {
            base.circuit.to_blif(name)
        } else {
            base.circuit.to_verilog(name)
        }
    }

    fn fresh(&mut self) -> Request {
        let inputs = INPUT_SCHEDULE[self.fresh_sent % INPUT_SCHEDULE.len()];
        self.fresh_sent += 1;
        let circuit = Generated::generate(&mut self.rng, inputs);
        // Half the netlists in each format: each cycle of the input
        // schedule is sent in one format, the next in the other.
        let blif = (self.bases.len() / INPUT_SCHEDULE.len()) % 2 == 1;
        let base = Base {
            circuit,
            blif,
            renames: 0,
        };
        let name = format!("g{}", self.bases.len());
        let text = Arc::new(Stream::text(&base, &name));
        self.bases.push(base);
        Request {
            kind: Kind::Fresh,
            base: self.bases.len() - 1,
            text,
        }
    }

    fn renamed(&mut self) -> Request {
        let inputs = INPUT_SCHEDULE[self.renames_sent % INPUT_SCHEDULE.len()];
        self.renames_sent += 1;
        let candidates: Vec<usize> = (0..self.completed_bases)
            .filter(|&i| self.bases[i].circuit.num_inputs() == inputs)
            .collect();
        let index = candidates[self.rng.below(candidates.len())];
        let base = &mut self.bases[index];
        base.renames += 1;
        let name = format!("g{index}_r{}", base.renames);
        Request {
            kind: Kind::Renamed,
            base: index,
            text: Arc::new(Stream::text(base, &name)),
        }
    }

    fn start_round(&mut self, requests: Vec<Request>) {
        self.round = requests.clone();
        self.pending = requests.into();
    }

    /// Closes the answered round and builds the next one.
    fn next_round(&mut self) {
        self.history.extend(
            self.round
                .iter()
                .filter(|r| r.kind != Kind::Repeat)
                .cloned(),
        );
        self.completed_bases = self.bases.len();
        let mut requests: Vec<Request> = Vec::with_capacity(ROUND);
        for _ in 0..RENAMED {
            requests.push(self.renamed());
        }
        for _ in 0..REPEATS {
            let mut repeat = self.history[self.rng.below(self.history.len())].clone();
            repeat.kind = Kind::Repeat;
            requests.push(repeat);
        }
        for _ in 0..FRESH {
            requests.push(self.fresh());
        }
        self.rng.shuffle(&mut requests);
        self.start_round(requests);
    }
}

/// What a client saw for one request.
struct Seen {
    kind: Kind,
    base: usize,
    key: u64,
    latency_ms: f64,
    cache_hit: bool,
    verilog: u64,
    sqd: u64,
    /// Client-side timestamps (traced run).
    start_ns: u64,
    end_ns: u64,
    /// Kept for cold answers only: the exported Verilog (checked after
    /// the run), the report and the sqd size.
    cold: Option<ColdAnswer>,
    report_bytes: usize,
}

struct ColdAnswer {
    verilog: String,
    report: Value,
    sqd_bytes: usize,
}

struct Setup {
    server: Server,
    stream: Stream,
}

fn setup(seed: u64) -> Setup {
    Setup {
        server: Server::new(
            ServerConfig::new()
                .with_workers(WORKERS)
                .with_queue_capacity(64),
        ),
        stream: Stream::new(seed),
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let (setup, setup_s) = timed_setup(process_start, args.trace, || setup(args.seed));
    let Setup { server, stream } = setup;
    let stream = Mutex::new(stream);
    let turn = Condvar::new();
    let phase = Instant::now();
    let seen: Vec<Seen> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(args, &server, &stream, &turn, phase)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let phase_s = phase.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    let aggregate = server.aggregate();
    drop(server);
    let stream = stream.into_inner().expect("clients joined");

    let mut outcome = Outcome {
        attempted: seen.len() as u64,
        ..Outcome::default()
    };
    check(&stream, &seen, &mut outcome);

    let latencies: Vec<f64> = seen
        .iter()
        .filter(|s| s.verilog != 0)
        .map(|s| s.latency_ms)
        .collect();
    if args.trace {
        traced_metrics(args, &seen, &aggregate, phase, phase_s, &mut outcome);
    } else {
        // Area of round 0's circuits: a fixed prefix of the
        // stream, reached by every run.
        let area: f64 = seen
            .iter()
            .filter(|s| s.kind == Kind::Fresh && s.base < ROUND)
            .filter_map(|s| s.cold.as_ref())
            .map(|c| area_of(&c.report))
            .sum();
        outcome.metric("setup_s", setup_s, "s");
        outcome.metric("jobs_per_s", latencies.len() as f64 / phase_s, "1/s");
        outcome.metric("latency_p50_ms", median(&latencies), "ms");
        outcome.metric("latency_p90_ms", quantile(&latencies, 0.9), "ms");
        outcome.metric("peak_rss_mb", peak_rss, "MB");
        outcome.metric("area_tiles", area, "tiles");
    }
    outcome
}

/// One closed-loop client: take the next request of the current round
/// (waiting at the round barrier), submit it, wait for the answer.
fn client(
    args: &Args,
    server: &Server,
    stream: &Mutex<Stream>,
    turn: &Condvar,
    phase: Instant,
) -> Vec<Seen> {
    let mut seen = Vec::new();
    loop {
        let (request, blif) = {
            let mut s = stream.lock().expect("no client panics holding the stream");
            loop {
                if s.stopped {
                    return seen;
                }
                if let Some(request) = s.pending.pop_front() {
                    s.in_flight += 1;
                    let blif = s.bases[request.base].blif;
                    break (request, blif);
                }
                if s.in_flight == 0 {
                    if phase.elapsed().as_secs_f64() >= args.seconds {
                        s.stopped = true;
                        turn.notify_all();
                        return seen;
                    }
                    s.next_round();
                    turn.notify_all();
                    continue;
                }
                s = turn.wait(s).expect("no client panics holding the stream");
            }
        };
        let flow_request = flow_request(&request.text, blif);
        let key = content_hash(request.text.as_bytes()) ^ u64::from(blif);
        let start = Instant::now();
        let answer = server.submit(flow_request).map(|ticket| ticket.wait());
        let end = Instant::now();
        let mut record = Seen {
            kind: request.kind,
            base: request.base,
            key,
            latency_ms: ms(end - start),
            cache_hit: false,
            verilog: 0,
            sqd: 0,
            start_ns: start.saturating_duration_since(phase).as_nanos() as u64,
            end_ns: end.saturating_duration_since(phase).as_nanos() as u64,
            cold: None,
            report_bytes: 0,
        };
        match answer {
            Ok(answer) if answer.status == JobStatus::Done => {
                let verilog = answer.verilog.unwrap_or_default();
                let sqd = answer.sqd.unwrap_or_default();
                record.cache_hit = answer.cache_hit;
                record.verilog = content_hash(verilog.as_bytes()) | 1;
                record.sqd = content_hash(sqd.as_bytes());
                let report = answer.report.unwrap_or(Value::Null);
                if args.trace {
                    record.report_bytes = report.serialize().len();
                }
                if !answer.cache_hit {
                    record.cold = Some(ColdAnswer {
                        verilog,
                        report,
                        sqd_bytes: sqd.len(),
                    });
                }
            }
            Ok(answer) => eprintln!(
                "flowbench: request {} answered {:?}: {:?}",
                answer.id, answer.status, answer.error
            ),
            Err(reason) => eprintln!("flowbench: request rejected: {reason}"),
        }
        seen.push(record);
        let mut s = stream.lock().expect("no client panics holding the stream");
        s.in_flight -= 1;
        turn.notify_all();
    }
}

/// Output checks, after the run: every request answered; every cold
/// answer's Verilog computes the generator's function; every cache hit
/// byte-identical to the cold answer of the same request; a renamed
/// netlist laid out exactly as its base; and round 0's circuits,
/// re-run through `FlowRequest::execute`, passing the layout check and
/// matching the server's bytes.
fn check(stream: &Stream, seen: &[Seen], outcome: &mut Outcome) {
    outcome.failed = seen.iter().filter(|s| s.verilog == 0).count() as u64;
    let mut cold: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut base_sqd: BTreeMap<usize, u64> = BTreeMap::new();
    for s in seen.iter().filter(|s| s.verilog != 0 && !s.cache_hit) {
        let Some(answer) = &s.cold else { continue };
        let function = &stream.bases[s.base].circuit;
        match fcn_logic::verilog::parse_verilog(&answer.verilog) {
            Ok((_, xag)) => {
                if let Err(e) = check_xag(&xag, function) {
                    outcome.error(format!("answer for g{}: {e}", s.base));
                }
            }
            Err(e) => outcome.error(format!("answer for g{}: unparsable Verilog: {e}", s.base)),
        }
        if let Some(&(v, q)) = cold.get(&s.key) {
            if (v, q) != (s.verilog, s.sqd) {
                outcome.error(format!(
                    "g{}: two cold answers to one request differ",
                    s.base
                ));
            }
        }
        cold.insert(s.key, (s.verilog, s.sqd));
        if s.kind == Kind::Fresh {
            base_sqd.insert(s.base, s.sqd);
        }
    }
    for s in seen.iter().filter(|s| s.verilog != 0) {
        if s.cache_hit && cold.get(&s.key) != Some(&(s.verilog, s.sqd)) {
            outcome.error(format!(
                "g{}: cache hit differs from the cold answer",
                s.base
            ));
        }
        if s.kind == Kind::Renamed && base_sqd.get(&s.base).is_some_and(|&q| q != s.sqd) {
            outcome.error(format!("g{}: renamed netlist laid out differently", s.base));
        }
    }

    // Layout-level check of round 0's circuits; the renamed-sqd
    // and cache-hit checks above tie later answers to checked ones.
    for s in seen
        .iter()
        .filter(|s| s.kind == Kind::Fresh && s.base < ROUND && s.verilog != 0)
    {
        let base = &stream.bases[s.base];
        let name = format!("g{}", s.base);
        let problem = match flow_request(&Stream::text(base, &name), base.blif).execute() {
            Ok(result) => check_layout(&result.layout, &base.circuit)
                .err()
                .or_else(|| {
                    let same = content_hash(result.to_verilog().as_bytes()) | 1 == s.verilog
                        && content_hash(result.to_sqd().unwrap_or_default().as_bytes()) == s.sqd;
                    (!same).then(|| "server answer differs from execute".to_owned())
                }),
            Err(e) => Some(format!("execute failed: {e}")),
        };
        if let Some(problem) = problem {
            outcome.error(format!("{name}: {problem}"));
        }
    }
}

fn child<'a>(span: &'a Value, name: &str) -> Option<&'a Value> {
    span.get("children")?
        .as_array()?
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
}

fn duration_ms(span: Option<&Value>) -> f64 {
    span.and_then(|s| s.get("duration_ns"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
        / 1e6
}

/// Sum of counter `name` over a span subtree.
fn counter_total(span: &Value, name: &str) -> f64 {
    let own = span
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let children: f64 = span
        .get("children")
        .and_then(Value::as_array)
        .map_or(0.0, |cs| cs.iter().map(|c| counter_total(c, name)).sum());
    own + children
}

/// Number of spans in a subtree whose name starts with `prefix`.
fn count_spans(span: &Value, prefix: &str) -> f64 {
    let own = span
        .get("name")
        .and_then(Value::as_str)
        .is_some_and(|n| n.starts_with(prefix));
    let children: f64 = span
        .get("children")
        .and_then(Value::as_array)
        .map_or(0.0, |cs| cs.iter().map(|c| count_spans(c, prefix)).sum());
    f64::from(u8::from(own)) + children
}

/// Layout area from a report's step-4 `ratio` note (`"WxH"`).
fn area_of(report: &Value) -> f64 {
    child(report, "step4:pnr")
        .and_then(|s| s.get("notes"))
        .and_then(|n| n.get("ratio"))
        .and_then(Value::as_str)
        .and_then(|r| r.split_once('x'))
        .and_then(|(w, h)| Some(w.parse::<f64>().ok()? * h.parse::<f64>().ok()?))
        .unwrap_or(0.0)
}

fn traced_metrics(
    args: &Args,
    seen: &[Seen],
    aggregate: &fcn_telemetry::RegistrySnapshot,
    phase: Instant,
    phase_s: f64,
    outcome: &mut Outcome,
) {
    let mut tracer = Tracer::new(phase);
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_insert(0.0) += v;
    let (mut cold_n, mut hit_n) = (0.0, 0.0);
    for (op, s) in seen.iter().enumerate().filter(|(_, s)| s.verilog != 0) {
        let op = op as u64;
        let request = tracer.record("server.request", op, None, s.start_ns, s.end_ns);
        add("report_bytes", s.report_bytes as f64);
        let Some(answer) = &s.cold else {
            hit_n += 1.0;
            add("hit_ms", s.latency_ms);
            continue;
        };
        cold_n += 1.0;
        let r = &answer.report;
        let flow_ms = duration_ms(Some(r));
        let flow_start = s
            .end_ns
            .saturating_sub((flow_ms * 1e6) as u64)
            .max(s.start_ns);
        tracer.record(
            "server.queue_wait",
            op,
            Some(request),
            s.start_ns,
            flow_start,
        );
        tracer.record("server.flow", op, Some(request), flow_start, s.end_ns);
        let stage = |name: &str| duration_ms(child(r, name));
        let stages: f64 = [
            "step1:parse",
            "step2:rewrite",
            "step3:techmap",
            "step4:pnr",
            "step5:equiv",
            "step6:supertiles",
            "step7:apply",
            "step8:export",
        ]
        .iter()
        .map(|n| stage(n))
        .sum();
        let pnr = child(r, "step4:pnr").unwrap_or(&Value::Null);
        add("cold_ms", s.latency_ms);
        add("queue_wait_ms", (s.latency_ms - flow_ms).max(0.0));
        add(
            "logic_ms",
            stage("step1:parse") + stage("step2:rewrite") + stage("step3:techmap"),
        );
        add("gates_after", counter_total(r, "gates.after"));
        add("pnr_ms", stage("step4:pnr"));
        add("ratios", count_spans(pnr, "ratio:"));
        add("conflicts", counter_total(pnr, "sat.conflicts"));
        add("propagations", counter_total(pnr, "sat.propagations"));
        add("warm_probes", counter_total(pnr, "pnr.warm_probes"));
        add("equiv_ms", stage("step5:equiv"));
        add("apply_ms", stage("step7:apply"));
        add("export_ms", stage("step8:export"));
        add("sqd_bytes", answer.sqd_bytes as f64);
        add("sidbs", counter_total(r, "sidbs"));
        add("overhead_ms", (flow_ms - stages).max(0.0));
    }
    let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let per_cold = |k: &str| ratio(get(k), cold_n);
    outcome.metric("logic.busy_ms", per_cold("logic_ms"), "ms");
    outcome.metric("logic.gates_after", per_cold("gates_after"), "count");
    outcome.metric("pnr.busy_ms", per_cold("pnr_ms"), "ms");
    outcome.metric("pnr.ratios_tried", per_cold("ratios"), "count");
    outcome.metric("sat.conflicts", per_cold("conflicts"), "count");
    outcome.metric(
        "sat.propagations_per_s",
        ratio(get("propagations"), get("pnr_ms") / 1e3),
        "1/s",
    );
    outcome.metric(
        "pnr.warm_probe_ratio",
        ratio(get("warm_probes"), get("ratios")),
        "ratio",
    );
    outcome.metric("equiv.busy_ms", per_cold("equiv_ms"), "ms");
    outcome.metric("bestagon.apply_ms", per_cold("apply_ms"), "ms");
    outcome.metric("bestagon.export_ms", per_cold("export_ms"), "ms");
    outcome.metric("bestagon.sqd_kb", per_cold("sqd_bytes") / 1024.0, "KB");
    outcome.metric("bestagon.sidbs", per_cold("sidbs"), "count");
    outcome.metric("flow.overhead_ms", per_cold("overhead_ms"), "ms");
    outcome.metric(
        "telemetry.report_kb",
        ratio(get("report_bytes"), cold_n + hit_n) / 1024.0,
        "KB",
    );
    outcome.metric("server.queue_wait_ms", per_cold("queue_wait_ms"), "ms");
    outcome.metric("server.cold_ms", per_cold("cold_ms"), "ms");
    outcome.metric("server.hit_ms", ratio(get("hit_ms"), hit_n), "ms");
    let jobs = aggregate.counters.get("server.jobs").copied().unwrap_or(0);
    let hits = aggregate
        .counters
        .get("server.cache_hits")
        .copied()
        .unwrap_or(0);
    outcome.metric("server.hit_ratio", ratio(hits as f64, jobs as f64), "ratio");
    outcome.metric("trace.jobs_per_s", (cold_n + hit_n) / phase_s, "1/s");
    crate::write_trace(args, &tracer, outcome);
}
