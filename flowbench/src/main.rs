//! `flowbench` — the Bestagon flow benchmark.
//!
//! ```text
//! flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process for `--seconds` seconds (in whole
//! rounds), checks every output, and prints one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones untraced (`--trace 0`), the per-layer
//! ones traced (`--trace 1`). See `README.md` next to this crate.

mod circuits;
mod measure;
mod server;
mod table1;
mod tiles;

use std::time::Instant;

use measure::{Outcome, Tracer};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 4] = [
    "table1_exact",
    "table1_validated",
    "tile_sim",
    "server_mixed",
];

/// Every per-layer metric with its unit. A traced run reports all of
/// them; a layer its workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("logic.busy_ms", "ms"),
    ("logic.gates_after", "count"),
    ("pnr.busy_ms", "ms"),
    ("pnr.ratios_tried", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("pnr.warm_probe_ratio", "ratio"),
    ("equiv.busy_ms", "ms"),
    ("bestagon.apply_ms", "ms"),
    ("bestagon.export_ms", "ms"),
    ("bestagon.sqd_kb", "KB"),
    ("bestagon.sidbs", "count"),
    ("sidb.busy_ms", "ms"),
    ("sidb.visited", "count"),
    ("sidb.ns_per_visited", "ns"),
    ("sidb.pattern_sims", "count"),
    ("sidb.cache_hit_ratio", "ratio"),
    ("flow.overhead_ms", "ms"),
    ("telemetry.report_kb", "KB"),
    ("server.queue_wait_ms", "ms"),
    ("server.cold_ms", "ms"),
    ("server.hit_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("trace.jobs_per_s", "1/s"),
];

const USAGE: &str =
    "usage: flowbench --workload <table1_exact|table1_validated|tile_sim|server_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Pins the program's knobs: one SiDB and one P&R thread per flow (the
/// server's two workers and two clients then fit two cores), and none
/// of the environment switches that change what the flow does
/// (deadlines, budgets, faults, surfaces, telemetry output).
fn pin_environment() {
    for var in [
        "FLOW_DEADLINE_MS",
        "FLOW_REWRITE_ITERS",
        "FLOW_SAT_CONFLICTS",
        "FLOW_SAT_CONFLICTS_TOTAL",
        "FLOW_EQUIV_CONFLICTS",
        "FLOW_SIM_STEPS",
        "FAULT_INJECT",
        "SURFACE_DEFECTS",
        "TELEMETRY",
        "TELEMETRY_FILE",
        "TELEMETRY_TRACE",
        "SIM_CACHE",
        "PNR_INCREMENTAL",
        "SERVER_WORKERS",
        "SERVER_QUEUE",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("PNR_THREADS", "1");
    std::env::set_var("SIM_THREADS", "1");
}

/// Writes the traced run's spans to
/// `.flowbench_trace/<workload>-seed<n>.json` under the working
/// directory.
pub fn write_trace(args: &Args, tracer: &Tracer, outcome: &mut Outcome) {
    let path = std::path::Path::new(".flowbench_trace")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = tracer.write(&path) {
        outcome.error(format!("writing {}: {e}", path.display()));
    }
}

fn main() {
    let process_start = Instant::now();
    pin_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "table1_exact" => table1::run(&args, table1::Variant::Exact, process_start),
        "table1_validated" => table1::run(&args, table1::Variant::Validated, process_start),
        "tile_sim" => tiles::run(&args, process_start),
        "server_mixed" => server::run(&args, process_start),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.iter().any(|m| m.name == name) {
                outcome.metric(name, 0.0, unit);
            }
        }
    }
    for e in &outcome.errors {
        eprintln!("flowbench: check failed: {e}");
    }
    println!("{}", outcome.to_json());
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}
