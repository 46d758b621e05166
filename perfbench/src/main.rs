//! `adi-perfbench` — the repository benchmark.
//!
//! ```text
//! adi-perfbench --workload <paper_flow|atpg_static|serve_mixed>
//!               --seed <n> --seconds <s> --trace <0|1> [--rate <req/s>]
//! ```
//!
//! Generates every input from the seed, measures the workload for the
//! given number of seconds, checks every output exactly, reports on
//! stderr, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set, with `--trace 1` the per-layer
//! set. A failed check exits 1. `--rate` changes the offered load of
//! `serve_mixed` from its fixed rate, to measure the server at other
//! rates; the benchmark itself never passes it. `adi-perfbench
//! --setup-probe <circuit>` is the child process the closed-loop
//! workloads time their set-ups in. See `README.md` next to this file.

mod checks;
mod closed;
mod serve;
mod stats;

use std::collections::BTreeMap;

use json::{Object, Value};

/// End-to-end metrics: `(name, unit)`. Every workload reports each.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rss_peak_mb", "MiB"),
    ("tests", "count"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not run
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.compile_s", "s"),
    ("uset.s", "s"),
    ("uset.vectors", "count"),
    ("sim.no_drop_s", "s"),
    ("adi.s", "s"),
    ("order.dynm_s", "s"),
    ("order.0dynm_s", "s"),
    ("order.static_s", "s"),
    ("atpg.s", "s"),
    ("atpg.self_s", "s"),
    ("atpg.generate_s", "s"),
    ("atpg.drop_s", "s"),
    ("atpg.commit_wait_s", "s"),
    ("podem.s", "s"),
    ("sim.drop_flush_s", "s"),
    ("atpg.targets", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.aborted", "count"),
    ("atpg.unresolved", "count"),
    ("atpg.accidental_frac", "ratio"),
    ("sat.s", "s"),
    ("sat.proofs", "count"),
    ("sat.undecided", "count"),
    ("core.ave_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.stage_cover", "ratio"),
    ("service.compile.p50_ms", "ms"),
    ("service.coverage.p50_ms", "ms"),
    ("service.ndetect.p50_ms", "ms"),
    ("service.adi.p50_ms", "ms"),
    ("scenario.hit_ratio", "ratio"),
    ("scenario.hit_p50_ms", "ms"),
    ("scenario.miss_p50_ms", "ms"),
    ("store.compiles", "count"),
    ("store.hits", "count"),
    ("store.evictions", "count"),
    ("pool.queue_wait_p99_ms", "ms"),
    ("service.execute_s", "s"),
    ("service.serialize_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
];

/// Named metric values collected by a workload.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub correct: bool,
    /// Check failures, one line each.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Environment variables that change the program's defaults; cleared so
/// every run measures the defaults.
pub const PROGRAM_ENV: [&str; 3] = ["ADI_SIM_WIDTH", "ADI_ATPG_THREADS", "ADI_OBS"];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rate = serve::RATE;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--rate" => {
                rate = value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| *r > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rate,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, circuit] = &argv[..] {
        if flag == "--setup-probe" {
            closed::setup_probe(circuit);
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adi-perfbench: {e}");
            eprintln!(
                "usage: adi-perfbench --workload <paper_flow|atpg_static|serve_mixed> \
                 --seed <n> --seconds <s> --trace <0|1> [--rate <req/s>]"
            );
            std::process::exit(2);
        }
    };
    // No thread exists yet, so clearing the environment is sound; the
    // program reads these variables once, on first use.
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
    adi_obs::set_enabled(false);

    let outcome = match args.workload.as_str() {
        "paper_flow" => closed::run(&closed::PAPER_FLOW, args.seed, args.seconds, args.trace),
        "atpg_static" => closed::run(&closed::ATPG_STATIC, args.seed, args.seconds, args.trace),
        "serve_mixed" => match serve::run(args.seed, args.seconds, args.rate, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("adi-perfbench: serve_mixed could not run: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("adi-perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Object::new();
    eprintln!(
        "adi-perfbench: {} seed {} trace {} — nproc {}, sim width {} lanes, atpg threads {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        adi_sim::SimWidth::default().lanes(),
        adi_atpg::TestGenConfig::default().atpg_threads,
    );
    for &(name, unit) in names {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        eprintln!("  {name:<26} {value:>14.6} {unit}");
        let mut o = Object::new();
        o.insert("value", value);
        o.insert("unit", unit);
        metrics.insert(name, o);
    }
    for e in &outcome.errors {
        eprintln!("adi-perfbench: CHECK FAILED: {e}");
    }
    let correct = outcome.correct && outcome.errors.is_empty();
    let mut line = Object::new();
    line.insert("correct", correct);
    line.insert("attempted", outcome.attempted);
    line.insert("failed", outcome.failed);
    line.insert("metrics", Value::Object(metrics));
    println!("{}", Value::Object(line));
    if !correct {
        std::process::exit(1);
    }
}
