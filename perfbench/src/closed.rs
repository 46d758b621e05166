//! The closed-loop workloads: one caller running the paper's experiment
//! (`Experiment::on(..).run()`) back to back on one compiled circuit.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use adi_atpg::{FaultStatus, TestGenConfig, TestGenResult, TestGenerator};
use adi_circuits::paper_suite;
use adi_core::dynamic::dynamic_order_traced;
use adi_core::uset::{select_u_for, USetConfig};
use adi_core::{order_faults, AdiAnalysis, Experiment, ExperimentConfig, FaultOrdering};
use adi_netlist::CompiledCircuit;
use adi_obs::SpanSite;
use adi_sim::FaultSimulator;

use crate::checks;
use crate::stats::{self, median, mix, span_delta, span_s, span_totals, SpanTotals};
use crate::{Metrics, Outcome};

/// One closed-loop workload.
pub struct Closed {
    /// Paper-suite stand-in the experiment runs on.
    pub circuit: &'static str,
    /// Orders the experiment builds and runs ATPG over.
    pub orderings: &'static [FaultOrdering],
    /// The AVE ratio reported as `core.ave_ratio`: `AVE(.0) / AVE(.1)`.
    pub ave_ratio: (FaultOrdering, FaultOrdering),
    /// The orders whose test-set sizes sum to `tests`.
    pub tests_of: &'static [FaultOrdering],
    /// Nominal wall of one experiment, seconds: a run of `--seconds`
    /// executes `seconds / nominal_s` experiments (rounded, at least
    /// one), however fast the host is.
    pub nominal_s: f64,
}

/// `paper_flow`: the paper's main experiment on the irs5378 stand-in.
pub const PAPER_FLOW: Closed = Closed {
    circuit: "irs5378",
    orderings: &[
        FaultOrdering::Original,
        FaultOrdering::Dynamic0,
        FaultOrdering::Dynamic,
        FaultOrdering::Incr0,
    ],
    ave_ratio: (FaultOrdering::Dynamic, FaultOrdering::Original),
    tests_of: &[FaultOrdering::Dynamic0],
    nominal_s: 9.0,
};

/// `atpg_static`: static orders only, on the irs13207 stand-in.
pub const ATPG_STATIC: Closed = Closed {
    circuit: "irs13207",
    orderings: &[FaultOrdering::Original, FaultOrdering::Incr0],
    ave_ratio: (FaultOrdering::Incr0, FaultOrdering::Original),
    tests_of: &[FaultOrdering::Original, FaultOrdering::Incr0],
    nominal_s: 10.0,
};

/// Circuit set-ups are timed in bursts before the first experiment and
/// after each one; `setup_s` is the median over all of them. A single
/// set-up takes milliseconds, and the host's speed swings by up to 2x
/// within a second, so each burst repeats set-ups for this long (and
/// at least [`SETUP_BURST_MIN`] times) rather than a fixed count.
const SETUP_BURST: Duration = Duration::from_secs(1);
const SETUP_BURST_MIN: usize = 5;

/// The small circuit on which the dynamic order must equal the naive
/// greedy.
const NAIVE_CIRCUIT: &str = "irs953";

static SPAN_REPLAY: SpanSite = SpanSite::new("bench.replay");
static SPAN_USET: SpanSite = SpanSite::new("bench.select_u_for");
static SPAN_NO_DROP: SpanSite = SpanSite::new("bench.no_drop_matrix");
static SPAN_ADI: SpanSite = SpanSite::new("bench.from_matrix");
static SPAN_ORDER: SpanSite = SpanSite::new("bench.order_faults");
static SPAN_ATPG: SpanSite = SpanSite::new("bench.testgen_run");

/// The experiment configuration for `seed`: `U` and the random fill
/// are seeded from it, orderings run serially, everything else is the
/// program default.
fn config(w: &Closed, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        uset: USetConfig {
            seed: mix(seed, 1),
            ..USetConfig::default()
        },
        testgen: TestGenConfig {
            fill_seed: mix(seed, 2),
            ..TestGenConfig::default()
        },
        orderings: w.orderings.to_vec(),
        parallel_orderings: false,
        ..ExperimentConfig::default()
    }
}

/// Generates the stand-in netlist and compiles it, forcing every lazily
/// built artifact the experiment uses, so set-up holds all of it.
/// Returns the circuit, the set-up time and the compile share of it.
fn set_up(name: &str) -> (CompiledCircuit, Duration, Duration) {
    let spec = paper_suite()
        .into_iter()
        .find(|c| c.name == name)
        .expect("workload circuit is in the paper suite");
    let t0 = Instant::now();
    let netlist = spec.netlist();
    let t1 = Instant::now();
    let circuit = CompiledCircuit::compile(netlist);
    circuit.collapsed_faults();
    circuit.scoap();
    circuit.post_dominators();
    (circuit, t0.elapsed(), t1.elapsed())
}

/// Times set-ups of stand-in `name` in this process for [`SETUP_BURST`]
/// and prints one `<setup_s> <compile_s>` line for each: the child side
/// of [`set_up_burst`].
pub fn setup_probe(name: &str) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < SETUP_BURST_MIN || start.elapsed() < SETUP_BURST {
        let (_, setup, compile) = set_up(name);
        println!("{} {}", setup.as_secs_f64(), compile.as_secs_f64());
        reps += 1;
    }
}

/// Times a burst of set-ups of stand-in `name` in a fresh child process
/// (this benchmark under `--setup-probe`), so every burst starts from
/// the same memory state and leaves nothing in this process's heap or
/// peak RSS. Appends the times to `setups` and `compiles`.
fn set_up_burst(name: &str, setups: &mut Vec<f64>, compiles: &mut Vec<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", name])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("the set-up probe exited with {}", out.status));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut times = line.split_whitespace().map(str::parse::<f64>);
        match (times.next(), times.next()) {
            (Some(Ok(setup)), Some(Ok(compile))) => {
                setups.push(setup);
                compiles.push(compile);
            }
            _ => return Err(format!("bad set-up probe line `{line}`")),
        }
    }
    Ok(())
}

pub fn run(w: &Closed, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut m = Metrics::default();
    let mut errors: Vec<String> = Vec::new();
    let mut setups = Vec::new();
    let mut compiles = Vec::new();
    let mut setup_errors = Vec::new();
    let mut burst = || {
        if let Err(e) = set_up_burst(w.circuit, &mut setups, &mut compiles) {
            setup_errors.push(format!("set-up: {e}"));
        }
    };
    burst();
    let (circuit, _, _) = set_up(w.circuit);

    // The measured window: a fixed number of whole experiments back to
    // back, experiment `i` on sub-seed `(seed, i)`, so the inputs depend
    // on the seed and `--seconds` only. A traced run follows each
    // experiment with its traced replay and runs half as many. Each
    // experiment is checked and dropped before the next, outside its
    // timed wall, so peak memory does not grow with the count.
    let per_experiment = if trace {
        2.0 * w.nominal_s
    } else {
        w.nominal_s
    };
    let experiments = ((seconds / per_experiment).round() as usize).max(1);
    let mut walls = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let mut failed = 0;
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for i in 0..experiments {
        let cfg = config(w, mix(seed, i as u64));
        let t = Instant::now();
        let exp = std::hint::black_box(Experiment::on(&circuit).config(cfg.clone()).run());
        walls.push(t.elapsed().as_secs_f64());
        let mut errs = Vec::new();
        if trace {
            adi_obs::set_enabled(true);
            let (l, replay_errs) = replay_once(&circuit, &cfg, &exp);
            adi_obs::set_enabled(false);
            errs.extend(replay_errs);
            layers.push(l);
        }
        for (name, value) in experiment_counts(w, &exp) {
            counts.entry(name).or_default().push(value);
        }
        errs.extend(check_experiment(&circuit, &cfg, &exp));
        if !errs.is_empty() {
            failed += 1;
        }
        errors.extend(errs.into_iter().map(|e| format!("experiment {i}: {e}")));
        drop(exp);
        burst();
    }

    eprintln!(
        "closed loop: {} experiments, walls {:?} s",
        walls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    errors.extend(setup_errors);
    m.set("setup_s", median(&setups));
    m.set("netlist.compile_s", median(&compiles));
    // Wall per experiment over the whole window (a mean: it integrates
    // the host's slow speed swings better than the median of three).
    m.set("wall_s", walls.iter().sum::<f64>() / walls.len() as f64);
    m.set("p50_ms", median(&walls) * 1e3);
    m.set("p90_ms", stats::max(&walls) * 1e3);
    // The result figures: medians over the run's fixed set of
    // experiments, so a function of the seed and `--seconds`.
    for (name, values) in &counts {
        m.set(name, median(values));
    }
    if let Err(e) = naive_check(&config(w, mix(seed, 0))) {
        errors.push(format!("{NAIVE_CIRCUIT}: {e}"));
    }
    if trace {
        record_layers(&mut m, &layers, &walls);
    }
    m.set(
        "ok_frac",
        1.0 - stats::ratio(failed as f64, experiments as f64),
    );
    m.set("rss_peak_mb", stats::rss_peak_mb("self"));

    Outcome {
        correct: errors.is_empty(),
        errors,
        attempted: experiments as u64,
        failed,
        metrics: m,
    }
}

/// The deterministic figures of one experiment: test counts, the AVE
/// ratio, and ATPG counters summed over its orders.
fn experiment_counts(w: &Closed, exp: &Experiment) -> Vec<(&'static str, f64)> {
    let tests: usize = w
        .tests_of
        .iter()
        .map(|&o| exp.run_for(o).map_or(0, |r| r.num_tests()))
        .sum();
    let ave = |o| exp.run_for(o).map_or(0.0, |r| r.ave);
    let results: Vec<&TestGenResult> = exp.runs.iter().map(|r| &r.result).collect();
    let sum =
        |f: &dyn Fn(&TestGenResult) -> usize| results.iter().map(|r| f(r)).sum::<usize>() as f64;
    let accidental = sum(&|r| {
        r.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::DetectedAccidentally { .. }))
            .count()
    });
    vec![
        ("tests", tests as f64),
        (
            "core.ave_ratio",
            stats::ratio(ave(w.ave_ratio.0), ave(w.ave_ratio.1)),
        ),
        ("uset.vectors", exp.u_size as f64),
        ("atpg.targets", sum(&|r| r.podem_stats.targets as usize)),
        (
            "atpg.backtracks",
            sum(&|r| r.podem_stats.backtracks as usize),
        ),
        ("atpg.aborted", sum(&|r| r.podem_stats.aborted as usize)),
        ("atpg.unresolved", sum(&|r| r.num_aborted())),
        (
            "sat.undecided",
            sum(&|r| r.podem_stats.sat_resolved.undecided as usize),
        ),
        (
            "atpg.accidental_frac",
            stats::ratio(accidental, sum(&|r| r.num_detected())),
        ),
    ]
}

/// The exact checks on one experiment's outputs.
fn check_experiment(
    circuit: &CompiledCircuit,
    cfg: &ExperimentConfig,
    exp: &Experiment,
) -> Vec<String> {
    let mut errors = Vec::new();
    let faults = circuit.collapsed_faults();
    for run in &exp.runs {
        let label = run.ordering;
        if let Err(e) = checks::permutation(&run.order, faults.len()) {
            errors.push(format!("{label}: {e}"));
        }
        if let Err(e) = checks::test_set(circuit, faults, &run.result) {
            errors.push(format!("{label}: {e}"));
        }
    }
    let dynamic: Vec<_> = exp
        .runs
        .iter()
        .filter(|r| matches!(r.ordering, FaultOrdering::Dynamic | FaultOrdering::Dynamic0))
        .collect();
    if !dynamic.is_empty() {
        let u = select_u_for(circuit, faults, cfg.uset);
        let analysis = AdiAnalysis::for_circuit(circuit, faults, &u.patterns, cfg.adi);
        let trace = dynamic_order_traced(&analysis);
        if let Err(e) = checks::dynamic_trace(&analysis, &trace) {
            errors.push(format!("dynamic trace: {e}"));
        }
        for run in dynamic {
            if let Err(e) =
                checks::dynamic_order_matches(&analysis, &trace, run.ordering, &run.order)
            {
                errors.push(e);
            }
        }
    }
    errors
}

/// The dynamic order on the small stand-in must equal the naive greedy.
fn naive_check(cfg: &ExperimentConfig) -> Result<(), String> {
    let (circuit, _, _) = set_up(NAIVE_CIRCUIT);
    let faults = circuit.collapsed_faults();
    let u = select_u_for(&circuit, faults, cfg.uset);
    let analysis = AdiAnalysis::for_circuit(&circuit, faults, &u.patterns, cfg.adi);
    checks::matches_naive(&analysis, &dynamic_order_traced(&analysis).order)
}

/// Runs `f` inside a span at `site` and returns its result with the
/// span totals recorded meanwhile (the site's own and its children's).
fn stage<T>(site: &'static SpanSite, f: impl FnOnce() -> T) -> (T, SpanTotals) {
    let before = span_totals();
    let out = {
        let _span = site.enter();
        f()
    };
    (out, span_delta(&before, &span_totals()))
}

/// Per-layer times of one traced replay.
#[derive(Default)]
struct Layers {
    wall: f64,
    uset: f64,
    no_drop: f64,
    adi: f64,
    order_dynm: f64,
    order_0dynm: f64,
    order_static: f64,
    atpg: f64,
    atpg_podem: f64,
    drop_flush: f64,
    sat: f64,
    sat_proofs: f64,
    generate: f64,
    drop: f64,
    commit_wait: f64,
}

/// Per-layer figures: medians over the traced replays of the run.
fn record_layers(m: &mut Metrics, replays: &[Layers], untraced: &[f64]) {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let stages = |l: &Layers| {
        l.uset + l.no_drop + l.adi + l.order_dynm + l.order_0dynm + l.order_static + l.atpg
    };
    let overhead: Vec<f64> = replays
        .iter()
        .zip(untraced)
        .map(|(l, &u)| stats::ratio(l.wall, u))
        .collect();
    m.set("trace.wall_s", med(&|l| l.wall));
    m.set("trace.overhead", median(&overhead));
    m.set(
        "trace.unattributed_s",
        med(&|l| (l.wall - stages(l)).max(0.0)),
    );
    m.set(
        "trace.stage_cover",
        med(&|l| stats::ratio(stages(l), l.wall)),
    );
    m.set("uset.s", med(&|l| l.uset));
    m.set("sim.no_drop_s", med(&|l| l.no_drop));
    m.set("adi.s", med(&|l| l.adi));
    m.set("order.dynm_s", med(&|l| l.order_dynm));
    m.set("order.0dynm_s", med(&|l| l.order_0dynm));
    m.set("order.static_s", med(&|l| l.order_static));
    m.set("atpg.s", med(&|l| l.atpg));
    m.set(
        "atpg.self_s",
        med(&|l| (l.atpg - l.atpg_podem - l.drop_flush).max(0.0)),
    );
    m.set("atpg.generate_s", med(&|l| l.generate));
    m.set("atpg.drop_s", med(&|l| l.drop));
    m.set("atpg.commit_wait_s", med(&|l| l.commit_wait));
    m.set("podem.s", med(&|l| (l.atpg_podem - l.sat).max(0.0)));
    m.set("sim.drop_flush_s", med(&|l| l.drop_flush));
    m.set("sat.s", med(&|l| l.sat));
    m.set("sat.proofs", med(&|l| l.sat_proofs));
}

/// Replays one experiment through its public entry points, each call
/// under a benchmark span, with span collection on. The replay must
/// reproduce the experiment's orders and tests.
fn replay_once(
    circuit: &CompiledCircuit,
    cfg: &ExperimentConfig,
    exp: &Experiment,
) -> (Layers, Vec<String>) {
    let mut l = Layers::default();
    let mut errors = Vec::new();
    let faults = circuit.collapsed_faults();
    let before = span_totals();
    {
        let _replay = SPAN_REPLAY.enter();
        let (u, d) = stage(&SPAN_USET, || select_u_for(circuit, faults, cfg.uset));
        l.uset = span_s(&d, "bench_select_u_for");
        let (matrix, d) = stage(&SPAN_NO_DROP, || {
            FaultSimulator::for_circuit_with_engine(circuit, faults, cfg.adi.engine)
                .with_width(cfg.adi.width)
                .no_drop_matrix(&u.patterns)
        });
        l.no_drop = span_s(&d, "bench_no_drop_matrix");
        let (analysis, d) = stage(&SPAN_ADI, || AdiAnalysis::from_matrix(matrix, cfg.adi));
        l.adi = span_s(&d, "bench_from_matrix");
        let generator = TestGenerator::for_circuit(circuit, faults, cfg.testgen);
        for run in &exp.runs {
            let (order, d) = stage(&SPAN_ORDER, || order_faults(&analysis, run.ordering));
            let t = span_s(&d, "bench_order_faults");
            match run.ordering {
                FaultOrdering::Dynamic => l.order_dynm += t,
                FaultOrdering::Dynamic0 => l.order_0dynm += t,
                _ => l.order_static += t,
            }
            let (result, d) = stage(&SPAN_ATPG, || generator.run(&order));
            l.atpg += span_s(&d, "bench_testgen_run");
            l.atpg_podem += span_s(&d, "atpg_podem");
            l.drop_flush += span_s(&d, "sim_drop_flush");
            l.sat += span_s(&d, "sat_prove");
            l.sat_proofs += d.get("sat_prove").map_or(0.0, |&(c, _)| c as f64);
            l.generate += result.timing.generate_ns as f64 * 1e-9;
            l.drop += result.timing.drop_ns as f64 * 1e-9;
            l.commit_wait += result.timing.commit_wait_ns as f64 * 1e-9;
            if order != run.order {
                errors.push(format!("traced replay: {} order differs", run.ordering));
            }
            if result != run.result {
                errors.push(format!("traced replay: {} tests differ", run.ordering));
            }
        }
    }
    l.wall = span_s(&span_delta(&before, &span_totals()), "bench_replay");
    (l, errors)
}
