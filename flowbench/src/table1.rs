//! `table1_exact` and `table1_validated`: Table 1 circuits through the
//! default flow in round-robin passes.
//!
//! The untraced run times `FlowRequest::execute` per circuit. The traced
//! run drives the same eight steps itself through the layers' public
//! functions, with a span around each call, and must reproduce
//! `execute`'s layout, exported Verilog and tile verdicts.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bestagon_core::flow::{FlowOptions, FlowRequest, FlowResult};
use bestagon_lib::tiles::BestagonLibrary;
use fcn_layout::hexagonal::HexGateLayout;
use sidb_sim::engine::{SimEngine, SimParams};

use crate::circuits::{check_layout, table1_function, Table1Function};
use crate::measure::{
    content_hash, median, ms, peak_rss_mb, quantile, ratio, run_passes, timed_setup, Outcome,
    Tracer,
};
use crate::Args;

/// Which Table 1 workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The 13 circuits other than `newtag` (whose single ~50 s solve
    /// would be the whole run), default flow.
    Exact,
    /// The six crossing-free circuits with step-7 tile validation.
    Validated,
}

const EXACT: [&str; 13] = [
    "xor2",
    "xnor2",
    "par_gen",
    "mux21",
    "par_check",
    "xor5_r1",
    "xor5_majority",
    "t",
    "t_5",
    "c17",
    "majority",
    "majority_5_r1",
    "cm82a_5",
];

const VALIDATED: [&str; 6] = [
    "xor2",
    "xnor2",
    "par_gen",
    "par_check",
    "xor5_r1",
    "xor5_majority",
];

/// The exact engine's area bound in the default flow
/// (`PnrMethod::default()`).
const MAX_AREA: u64 = 150;

struct Circuit {
    name: &'static str,
    verilog: String,
    request: FlowRequest,
    function: Table1Function,
}

struct Setup {
    circuits: Vec<Circuit>,
    library: BestagonLibrary,
}

fn options(variant: Variant) -> FlowOptions {
    let options = FlowOptions::new().with_threads(1);
    match variant {
        Variant::Exact => options,
        Variant::Validated => options.with_tile_validation(),
    }
}

fn setup(variant: Variant) -> Setup {
    let names: &[&'static str] = match variant {
        Variant::Exact => &EXACT,
        Variant::Validated => &VALIDATED,
    };
    let circuits = names
        .iter()
        .map(|&name| {
            let xag = bestagon_core::benchmark(name).xag;
            let verilog = fcn_logic::verilog::write_verilog(name, &xag);
            Circuit {
                name,
                request: FlowRequest::verilog(verilog.clone()).with_options(options(variant)),
                verilog,
                function: table1_function(name).expect("every run circuit has a reference"),
            }
        })
        .collect();
    Setup {
        circuits,
        library: BestagonLibrary::new(),
    }
}

/// A layout's content hash (its debug rendering is ordered).
fn layout_hash(layout: &HexGateLayout) -> u64 {
    content_hash(format!("{layout:?}").as_bytes())
}

/// The step-7 failing-tile set a flow reported.
fn reported_failing(result: &FlowResult) -> Vec<String> {
    let mut failing: Vec<String> = result
        .report
        .root
        .child("step7:apply")
        .and_then(|s| s.notes.get("tiles.failing"))
        .map(|n| n.split(", ").map(str::to_owned).collect())
        .unwrap_or_default();
    failing.sort();
    failing
}

fn validation_sim() -> SimParams {
    SimParams::new(bestagon_lib::geometry::validation_params())
        .with_engine(SimEngine::QuickExact)
        .with_threads(1)
}

/// Failing designs among `layout`'s used designs by direct
/// `check_operational_with` calls, memoized by design name across the
/// run.
fn direct_failing(
    layout: &HexGateLayout,
    library: &BestagonLibrary,
    verdicts: &mut BTreeMap<String, bool>,
) -> Result<Vec<String>, String> {
    let designs = bestagon_lib::apply::used_designs(layout, library)
        .map_err(|e| format!("used_designs failed: {e}"))?;
    let sim = validation_sim();
    let mut failing: Vec<String> = designs
        .iter()
        .filter(|d| {
            !*verdicts
                .entry(d.name.clone())
                .or_insert_with(|| d.check_operational_with(&sim).is_operational())
        })
        .map(|d| d.name.clone())
        .collect();
    failing.sort();
    Ok(failing)
}

pub fn run(args: &Args, variant: Variant, process_start: Instant) -> Outcome {
    let (setup, setup_s) = timed_setup(process_start, args.trace, || setup(variant));
    if args.trace {
        traced(args, variant, &setup)
    } else {
        untraced(args, variant, &setup, setup_s)
    }
}

fn untraced(args: &Args, variant: Variant, setup: &Setup, setup_s: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let mut latencies: Vec<f64> = Vec::new();
    let (first_pass, phase_s) = run_passes(
        &setup.circuits,
        |c| c.name,
        args.seconds,
        &mut outcome,
        |circuit, _| {
            let start = Instant::now();
            let result = std::hint::black_box(circuit.request.execute());
            let took = start.elapsed();
            let result = result.map_err(|e| e.to_string())?;
            latencies.push(ms(took));
            let counts = vec![
                ("area", result.layout.ratio().tile_count()),
                (
                    "sat.conflicts",
                    result.report.counter_total("sat.conflicts"),
                ),
                ("sidb.visited", result.report.counter_total("sidb.visited")),
                (
                    "sidbs",
                    result.cell.as_ref().map_or(0, |c| c.num_sidbs() as u64),
                ),
                ("layout", layout_hash(&result.layout)),
            ];
            Ok((result, counts))
        },
    );
    let peak_rss = peak_rss_mb();

    // Output checks, outside the timed phase, on the first pass (later
    // passes are held to it by the determinism guard).
    let mut verdicts = BTreeMap::new();
    let mut area = 0u64;
    for (circuit, result) in setup.circuits.iter().zip(&first_pass) {
        let Some(result) = result else { continue };
        area += result.layout.ratio().tile_count();
        if let Err(e) = check_layout(&result.layout, &circuit.function) {
            outcome.error(format!("{}: {e}", circuit.name));
        }
        if result.degraded() {
            outcome.error(format!(
                "{}: degraded {:?}",
                circuit.name, result.degradations
            ));
        }
        if variant == Variant::Validated {
            match direct_failing(&result.layout, &setup.library, &mut verdicts) {
                Ok(direct) if direct != reported_failing(result) => outcome.error(format!(
                    "{}: flow reports failing tiles {:?}, direct checks give {direct:?}",
                    circuit.name,
                    reported_failing(result)
                )),
                Ok(_) => {}
                Err(e) => outcome.error(format!("{}: {e}", circuit.name)),
            }
        }
    }

    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("jobs_per_s", latencies.len() as f64 / phase_s, "1/s");
    outcome.metric("latency_p50_ms", median(&latencies), "ms");
    outcome.metric("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    outcome.metric("peak_rss_mb", peak_rss, "MB");
    outcome.metric("area_tiles", area as f64, "tiles");
    outcome
}

/// Work counters of one manually driven flow.
#[derive(Debug, Default)]
struct Counts {
    gates_after: u64,
    ratios_tried: u64,
    conflicts: u64,
    propagations: u64,
    warm_probes: u64,
    probes: u64,
    sqd_bytes: u64,
    sidbs: u64,
    visited: u64,
    pattern_sims: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Counts {
    fn add(&mut self, c: &Counts) {
        self.gates_after += c.gates_after;
        self.ratios_tried += c.ratios_tried;
        self.conflicts += c.conflicts;
        self.propagations += c.propagations;
        self.warm_probes += c.warm_probes;
        self.probes += c.probes;
        self.sqd_bytes += c.sqd_bytes;
        self.sidbs += c.sidbs;
        self.visited += c.visited;
        self.pattern_sims += c.pattern_sims;
        self.cache_hits += c.cache_hits;
        self.cache_lookups += c.cache_lookups;
    }
}

/// What the manual drive produced, for comparison with `execute`.
struct Manual {
    layout: HexGateLayout,
    verilog: String,
    failing: Vec<String>,
    counts: Counts,
}

/// Drives the eight flow steps through the layers' public functions,
/// with one span per layer call under an `op` span.
fn drive(
    circuit: &Circuit,
    variant: Variant,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Manual, String> {
    let root = tracer.open("op", op, None);
    let mut counts = Counts::default();
    let p = Some(root);

    let parsed = tracer.time("logic.parse", op, p, || {
        fcn_logic::verilog::parse_verilog(&circuit.verilog)
    });
    let (name, xag) = parsed.map_err(|e| format!("parse: {e}"))?;
    let optimized = tracer.time("logic.rewrite", op, p, || {
        fcn_logic::rewrite::rewrite(&xag, fcn_logic::rewrite::RewriteOptions::default())
    });
    counts.gates_after = optimized.num_gates() as u64;
    let mapped = tracer.time("logic.techmap", op, p, || {
        fcn_logic::techmap::map_xag(&optimized, fcn_logic::techmap::MapOptions::default())
    });
    let mapped = mapped.map_err(|e| format!("techmap: {e}"))?;
    let graph = tracer.time("logic.netgraph", op, p, || fcn_pnr::NetGraph::new(mapped));
    let graph = graph.map_err(|e| format!("netgraph: {e}"))?;

    let exact_options = fcn_pnr::ExactOptions {
        max_area: MAX_AREA,
        num_threads: 1,
        incremental: fcn_pnr::default_incremental(),
        ..Default::default()
    };
    let placed = tracer.time("pnr.exact", op, p, || {
        fcn_pnr::exact_pnr(&graph, &exact_options)
    });
    let layout = match placed {
        Ok(outcome) => {
            counts.ratios_tried = outcome.ratios_tried as u64;
            counts.conflicts = outcome.stats.conflicts;
            counts.propagations = outcome.stats.propagations;
            counts.warm_probes = outcome.reuse.warm_probes;
            counts.probes = outcome.probes.len() as u64;
            outcome.layout
        }
        Err(_) => {
            let fallback = tracer.time("pnr.heuristic", op, p, || fcn_pnr::heuristic_pnr(&graph));
            fallback.map_err(|e| format!("heuristic P&R: {e}"))?
        }
    };

    let equivalence = tracer.time("equiv.check", op, p, || {
        fcn_equiv::check_equivalence(&optimized, &layout)
    });
    match equivalence {
        Ok(fcn_equiv::Equivalence::Equivalent) => {}
        other => return Err(format!("equivalence verdict {other:?}")),
    }
    let plan = tracer.time("layout.supertiles", op, p, || {
        fcn_layout::supertile::plan_supertiles(&layout)
    });
    std::hint::black_box(plan);

    let cell = tracer.time("bestagon.apply", op, p, || {
        let library = BestagonLibrary::new();
        bestagon_lib::apply::apply_gate_library(&layout, &library).map(|c| (c, library))
    });
    let (cell, library) = cell.map_err(|e| format!("apply: {e}"))?;
    counts.sidbs = cell.num_sidbs() as u64;

    let mut failing = Vec::new();
    if variant == Variant::Validated {
        let sidb = tracer.open("sidb.validate", op, p);
        let designs = bestagon_lib::apply::used_designs(&layout, &library)
            .map_err(|e| format!("used_designs: {e}"))?;
        // The flow's default per-run state: a fresh cache per flow
        // (`SIM_CACHE` is cleared at start-up).
        let sim = SimParams::new(bestagon_lib::geometry::validation_params())
            .with_engine(SimEngine::QuickExact)
            .with_cache(sidb_sim::SimCache::new());
        for design in &designs {
            let report = tracer.time("sidb.check_operational", op, Some(sidb), || {
                design.check_operational_with(&sim)
            });
            counts.visited += report.stats.visited;
            counts.pattern_sims += u64::from(design.num_patterns());
            counts.cache_hits += report.stats.cache_hits;
            counts.cache_lookups += report.stats.cache_hits + report.stats.cache_misses;
            if !report.is_operational() {
                failing.push(design.name.clone());
            }
        }
        tracer.close(sidb);
        failing.sort();
    }

    let sqd = tracer.time("bestagon.export", op, p, || {
        bestagon_lib::sqd::to_sqd_string(&cell.sidb)
    });
    counts.sqd_bytes = sqd.len() as u64;
    tracer.close(root);
    Ok(Manual {
        verilog: fcn_logic::verilog::write_verilog(&name, &optimized),
        layout,
        failing,
        counts,
    })
}

fn traced(args: &Args, variant: Variant, setup: &Setup) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut totals = Counts::default();
    let (first_pass, phase_s) = run_passes(
        &setup.circuits,
        |c| c.name,
        args.seconds,
        &mut outcome,
        |circuit, op| {
            let manual = drive(circuit, variant, &mut tracer, op)?;
            let c = &manual.counts;
            totals.add(c);
            let counts = vec![
                ("area", manual.layout.ratio().tile_count()),
                ("sat.conflicts", c.conflicts),
                ("sidb.visited", c.visited),
                ("sidbs", c.sidbs),
                ("layout", layout_hash(&manual.layout)),
            ];
            Ok((manual, counts))
        },
    );
    let done = outcome.attempted - outcome.failed;
    // The manual drive must reproduce `FlowRequest::execute` on the
    // same input; the reference runs also give the flow's own overhead
    // and report size.
    let mut overhead_ms = Vec::new();
    let mut report_kb = Vec::new();
    for (circuit, manual) in setup.circuits.iter().zip(&first_pass) {
        let Some(manual) = manual else { continue };
        if let Err(e) = check_layout(&manual.layout, &circuit.function) {
            outcome.error(format!("{}: {e}", circuit.name));
        }
        match circuit.request.execute() {
            Ok(result) => {
                if layout_hash(&result.layout) != layout_hash(&manual.layout) {
                    outcome.error(format!(
                        "{}: traced layout differs from execute",
                        circuit.name
                    ));
                }
                if result.to_verilog() != manual.verilog {
                    outcome.error(format!(
                        "{}: traced Verilog differs from execute",
                        circuit.name
                    ));
                }
                if reported_failing(&result) != manual.failing {
                    outcome.error(format!(
                        "{}: traced tile verdicts {:?} differ from execute's {:?}",
                        circuit.name,
                        manual.failing,
                        reported_failing(&result)
                    ));
                }
                let stages: Duration = result.report.root.children.iter().map(|s| s.duration).sum();
                overhead_ms.push(ms(result.report.root.duration.saturating_sub(stages)));
                report_kb.push(result.report.to_json().len() as f64 / 1024.0);
            }
            Err(e) => outcome.error(format!("{}: execute failed: {e}", circuit.name)),
        }
    }

    let per_op = |v: u64| ratio(v as f64, done as f64);
    let busy_ms =
        |names: &[&str]| ratio(names.iter().map(|n| ms(tracer.busy(n))).sum(), done as f64);
    let pnr_s = (tracer.busy("pnr.exact") + tracer.busy("pnr.heuristic")).as_secs_f64();
    let sidb_ns = tracer.busy("sidb.validate").as_nanos() as f64;
    outcome.metric(
        "logic.busy_ms",
        busy_ms(&[
            "logic.parse",
            "logic.rewrite",
            "logic.techmap",
            "logic.netgraph",
        ]),
        "ms",
    );
    outcome.metric("logic.gates_after", per_op(totals.gates_after), "count");
    outcome.metric(
        "pnr.busy_ms",
        busy_ms(&["pnr.exact", "pnr.heuristic"]),
        "ms",
    );
    outcome.metric("pnr.ratios_tried", per_op(totals.ratios_tried), "count");
    outcome.metric("sat.conflicts", per_op(totals.conflicts), "count");
    outcome.metric(
        "sat.propagations_per_s",
        ratio(totals.propagations as f64, pnr_s),
        "1/s",
    );
    outcome.metric(
        "pnr.warm_probe_ratio",
        ratio(totals.warm_probes as f64, totals.probes as f64),
        "ratio",
    );
    outcome.metric("equiv.busy_ms", busy_ms(&["equiv.check"]), "ms");
    outcome.metric("bestagon.apply_ms", busy_ms(&["bestagon.apply"]), "ms");
    outcome.metric("bestagon.export_ms", busy_ms(&["bestagon.export"]), "ms");
    outcome.metric("bestagon.sqd_kb", per_op(totals.sqd_bytes) / 1024.0, "KB");
    outcome.metric("bestagon.sidbs", per_op(totals.sidbs), "count");
    outcome.metric("sidb.busy_ms", busy_ms(&["sidb.validate"]), "ms");
    outcome.metric("sidb.visited", per_op(totals.visited), "count");
    outcome.metric(
        "sidb.ns_per_visited",
        ratio(sidb_ns, totals.visited as f64),
        "ns",
    );
    outcome.metric("sidb.pattern_sims", per_op(totals.pattern_sims), "count");
    outcome.metric(
        "sidb.cache_hit_ratio",
        ratio(totals.cache_hits as f64, totals.cache_lookups as f64),
        "ratio",
    );
    outcome.metric("flow.overhead_ms", median(&overhead_ms), "ms");
    outcome.metric("telemetry.report_kb", median(&report_kb), "KB");
    outcome.metric("trace.jobs_per_s", done as f64 / phase_s, "1/s");
    crate::write_trace(args, &tracer, &mut outcome);
    outcome
}
