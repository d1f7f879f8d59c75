//! `tile_sim`: `GateDesign::check_operational_with` on the 15 Figure 5
//! designs at the library's validation parameters, with QuickExact on
//! one thread and no cache — the SiDB kernel alone, without the flow or
//! P&R.
//!
//! One pass over the 15 designs takes about 50 s, longer than any
//! sensible `--seconds`, so a run always makes exactly one pass and no
//! operation repeats within it. The determinism guard therefore
//! compares each timed call's `sidb.visited` with the re-simulation of
//! the same patterns that the ground-state check makes after the timed
//! phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sidb_sim::charge::InteractionMatrix;
use sidb_sim::engine::{self, SimEngine, SimParams};
use sidb_sim::operational::{GateDesign, OperationalReport, OperationalStatus};

use crate::measure::{
    median, ms, peak_rss_mb, quantile, ratio, run_passes, timed_setup, Outcome, Tracer,
};
use crate::Args;

/// Designs small enough for the exhaustive engine, whose verdicts must
/// agree with QuickExact's.
const EXHAUSTIVE_CHECKED: [&str; 3] = ["OR (Huff-style Y)", "WIRE (NW→SW)", "INV (NW→SW)"];

/// The two designs whose re-simulation would double the run (about
/// 35 s of the ~45 s pass): the ground-state check covers one of their
/// input patterns per run, chosen by the seed, instead of all four.
const SAMPLED: [&str; 2] = ["CROSS", "HALF ADDER"];

/// Threads of the output check, which runs after the timed phase.
const CHECK_THREADS: usize = 2;

struct Setup {
    designs: Vec<GateDesign>,
    sim: SimParams,
}

fn setup() -> Setup {
    Setup {
        designs: bestagon_lib::tiles::figure5_designs(),
        sim: SimParams::new(bestagon_lib::geometry::validation_params())
            .with_engine(SimEngine::QuickExact)
            .with_threads(1),
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let (setup, setup_s) = timed_setup(process_start, args.trace, setup);
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut latencies = Vec::new();
    let (mut visited, mut pattern_sims) = (0u64, 0u64);
    let (first_pass, phase_s) = run_passes(
        &setup.designs,
        |d| d.name.as_str(),
        args.seconds,
        &mut outcome,
        |design, op| {
            let span = args
                .trace
                .then(|| tracer.open("sidb.check_operational", op, None));
            let start = Instant::now();
            let report = std::hint::black_box(design.check_operational_with(&setup.sim));
            latencies.push(ms(start.elapsed()));
            if let Some(span) = span {
                tracer.close(span);
            }
            visited += report.stats.visited;
            pattern_sims += u64::from(design.num_patterns());
            let counts = vec![
                ("sidb.visited", report.stats.visited),
                ("sidbs", design.body.num_sites() as u64),
            ];
            Ok((report, counts))
        },
    );
    let first_pass: Vec<OperationalReport> = first_pass.into_iter().flatten().collect();
    let peak_rss = peak_rss_mb();

    check_ground_states(&setup, &first_pass, args.seed, &mut outcome);
    for (design, report) in setup.designs.iter().zip(&first_pass) {
        if EXHAUSTIVE_CHECKED.contains(&design.name.as_str()) {
            let exhaustive = SimParams::new(setup.sim.physical)
                .with_engine(SimEngine::Exhaustive)
                .with_threads(1);
            let verdict = design.check_operational_with(&exhaustive);
            if verdict.status != report.status {
                outcome.error(format!(
                    "{}: QuickExact verdict {:?} differs from the exhaustive engine's {:?}",
                    design.name, report.status, verdict.status
                ));
            }
        }
    }

    let ops = latencies.len() as f64;
    if args.trace {
        let busy_ns = tracer.busy("sidb.check_operational").as_nanos() as f64;
        outcome.metric("sidb.busy_ms", ratio(busy_ns / 1e6, ops), "ms");
        outcome.metric("sidb.visited", ratio(visited as f64, ops), "count");
        outcome.metric("sidb.ns_per_visited", ratio(busy_ns, visited as f64), "ns");
        outcome.metric(
            "sidb.pattern_sims",
            ratio(pattern_sims as f64, ops),
            "count",
        );
        outcome.metric("trace.jobs_per_s", ops / phase_s, "1/s");
        crate::write_trace(args, &tracer, &mut outcome);
    } else {
        outcome.metric("setup_s", setup_s, "s");
        outcome.metric("jobs_per_s", ops / phase_s, "1/s");
        outcome.metric("latency_p50_ms", median(&latencies), "ms");
        outcome.metric("latency_p90_ms", quantile(&latencies, 0.9), "ms");
        outcome.metric("peak_rss_mb", peak_rss, "MB");
        // Each Figure 5 design is one hexagonal tile.
        outcome.metric("area_tiles", setup.designs.len() as f64, "tiles");
    }
    outcome
}

/// Per checked job: design index, pattern, and the outputs read off a
/// physically valid ground state with the nodes the search visited (or
/// what went wrong).
type PatternRead = (usize, u32, Result<(Vec<Option<bool>>, u64), &'static str>);

/// Re-simulates the input patterns of every design (outside the timed
/// phase, on [`CHECK_THREADS`] threads; one seed-chosen pattern of the
/// [`SAMPLED`] designs): each ground state must be physically valid,
/// and the outputs read off the ground states must agree with the
/// verdict the timed call returned. For every design whose patterns
/// are all re-simulated, the nodes visited must add up to the timed
/// call's `sidb.visited` (the determinism guard of this workload).
fn check_ground_states(
    setup: &Setup,
    reports: &[OperationalReport],
    seed: u64,
    outcome: &mut Outcome,
) {
    // Largest designs first, so the threads finish together.
    let mut jobs: Vec<(usize, u32)> = setup
        .designs
        .iter()
        .enumerate()
        .flat_map(|(d, design)| {
            let n = design.num_patterns();
            let sampled = SAMPLED.contains(&design.name.as_str());
            (0..n)
                .filter(move |&p| !sampled || u64::from(p) == seed % u64::from(n))
                .map(move |p| (d, p))
        })
        .collect();
    jobs.sort_by_key(|&(d, _)| std::cmp::Reverse(setup.designs[d].body.num_sites()));
    let next = AtomicUsize::new(0);
    let reads: Vec<PatternRead> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CHECK_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut reads = Vec::new();
                    while let Some(&(d, p)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        reads.push((d, p, read_pattern(&setup.designs[d], p, &setup.sim)));
                    }
                    reads
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("check threads do not panic"))
            .collect()
    });
    let mut visited = vec![0u64; setup.designs.len()];
    // A pattern below the timed verdict's first failing pattern must
    // read correctly, that pattern itself must not; an operational
    // verdict needs every pattern to read correctly.
    for (d, p, read) in reads {
        let outputs = match read {
            Ok((outputs, nodes)) => {
                visited[d] += nodes;
                outputs
            }
            Err(e) => {
                outcome.error(format!("{} pattern {p}: {e}", setup.designs[d].name));
                continue;
            }
        };
        let design = &setup.designs[d];
        let expected: Vec<Option<bool>> = design.truth_table[p as usize]
            .iter()
            .map(|&b| Some(b))
            .collect();
        let reads_right = outputs == expected;
        let must = match &reports[d].status {
            OperationalStatus::Operational => Some(true),
            OperationalStatus::NonOperational { pattern, .. } if p < *pattern => Some(true),
            OperationalStatus::NonOperational { pattern, .. } if p == *pattern => Some(false),
            OperationalStatus::NonOperational { .. } => None,
        };
        if must.is_some_and(|m| m != reads_right) {
            outcome.error(format!(
                "{}: verdict {:?}, but pattern {p}'s ground state reads {outputs:?}",
                design.name, reports[d].status
            ));
        }
    }
    for (d, design) in setup.designs.iter().enumerate() {
        if !SAMPLED.contains(&design.name.as_str()) && visited[d] != reports[d].stats.visited {
            outcome.error(format!(
                "determinism guard: {} visited {} nodes in the timed call, {} when re-simulated",
                design.name, reports[d].stats.visited, visited[d]
            ));
        }
    }
}

/// Simulates pattern `p` of `design` and reads its outputs off the
/// ground state, which must be physically valid.
fn read_pattern(
    design: &GateDesign,
    p: u32,
    sim: &SimParams,
) -> Result<(Vec<Option<bool>>, u64), &'static str> {
    let layout = design.layout_for_pattern(p);
    let result = engine::simulate_with(&layout, sim);
    let ground = &result.states.first().ok_or("no ground state")?.config;
    if !ground.is_physically_valid(&InteractionMatrix::new(&layout, &sim.physical)) {
        return Err("ground state is not physically valid");
    }
    let outputs = design
        .outputs
        .iter()
        .map(|o| o.pair.read(&layout, ground))
        .collect();
    Ok((outputs, result.stats.visited))
}
