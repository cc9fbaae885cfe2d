//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks every output against `linalg-ref`, prints a
//! report and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero if
//! any check failed. See `README.md`.

use lac_bench::json::Json;
use lac_kernels::SolverLoopParams;
use perfbench::closed::{self, FleetDoor, FleetSpec};
use perfbench::open::{self, OpenSpec};
use perfbench::spans::SpanTree;
use perfbench::summary::{median, nearest_rank, Host, Tally};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <solver_fleet|event_fleet|open_loop> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics reported to the JSON line, with their units.
/// Throughput is on the process CPU clock: on a shared host, wall-clock
/// throughput swings with the CPU time other guests take.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_cpu_s", "jobs/cpu-s"),
    ("sim_mcycles_per_cpu_s", "Mcycles/cpu-s"),
    ("peak_rss_mb", "MB"),
    ("fmac_utilization", "ratio"),
    ("gflops_per_w", "GFLOPS/W"),
];

/// Per-layer metrics reported to the JSON line under `--trace 1`, with
/// their units. A layer a workload does not use reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("host.jobs_per_s", "jobs/s"),
    ("host.sim_mcycles_per_s", "Mcycles/s"),
    ("kernels.gen_s", "s"),
    ("engine.job_s", "s"),
    ("engine.job_us_p50", "us"),
    ("engine.job_us_p99", "us"),
    ("engine.busy_frac", "ratio"),
    ("compile.cold_s", "s"),
    ("compile.entries", "count"),
    ("compile.hits", "count"),
    ("compile.misses", "count"),
    ("compile.redundant", "count"),
    ("coord.self_s", "s"),
    ("coord.self_frac", "ratio"),
    ("cluster.partition_s", "s"),
    ("cluster.round_s", "s"),
    ("cluster.round_frac", "ratio"),
    ("cluster.rounds", "count"),
    ("cluster.round_us_p50", "us"),
    ("cluster.round_us_p99", "us"),
    ("service.enqueue_s", "s"),
    ("service.offers", "count"),
    ("service.bounces", "count"),
    ("service.accept_ratio", "ratio"),
    ("traffic.self_s", "s"),
    ("traffic.jobs_per_round", "jobs/round"),
    ("traffic.sojourn_p50_cycles", "cycles"),
    ("traffic.sojourn_p99_cycles", "cycles"),
    ("traffic.batch.sojourn_p99_cycles", "cycles"),
    ("traffic.interactive.sojourn_p99_cycles", "cycles"),
    ("traffic.deadline_misses", "count"),
    ("traffic.slo_miss_frac", "ratio"),
    ("sim.makespan_cycles", "cycles"),
    ("chip.idle_cycles", "cycles"),
    ("cluster.transferred_words", "words"),
    ("cluster.transfer_cycles", "cycles"),
    ("cluster.transfer_stall_cycles", "cycles"),
    ("power.chips_nj", "nJ"),
    ("power.link_nj", "nJ"),
    ("trace.overhead_frac", "ratio"),
    ("bench.check_s", "s"),
    ("bench.trace_spans", "count"),
    ("bench.repetitions", "count"),
];

#[derive(Clone, Copy, Debug)]
enum Workload {
    Fleet(FleetSpec),
    OpenLoop(OpenSpec),
}

/// Map a seed to operand salts well inside `u64`, so member salts
/// `salt + m` never wrap.
fn salt(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16
}

fn workload(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        // Medium loops on a 2-core service: host time is mostly tape
        // replay in the engine.
        "solver_fleet" => Workload::Fleet(FleetSpec {
            params: SolverLoopParams {
                n: 16,
                rounds: 6,
                panels: 4,
                width: 8,
                salt: salt(seed),
            },
            loops: 60,
            door: FleetDoor::Service,
        }),
        // 10k tiny jobs on an event-mode cluster: host time is mostly
        // the event core's dispatch.
        "event_fleet" => Workload::Fleet(FleetSpec {
            params: SolverLoopParams {
                n: 8,
                rounds: 2,
                panels: 2,
                width: 4,
                salt: salt(seed),
            },
            loops: 1000,
            door: FleetDoor::EventCluster,
        }),
        // Thousands of short rounds: per-round coordination, admission
        // and the driver dominate.
        "open_loop" => Workload::OpenLoop(OpenSpec {
            stream: SolverLoopParams {
                n: 8,
                rounds: 1,
                panels: 2,
                width: 4,
                salt: salt(seed),
            },
            requests: 30_000,
            load: 0.75,
            interactive_share: 1.0 / 3.0,
            deadline_units: 8,
            seed,
        }),
        _ => return None,
    })
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?.clone();
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    let workload = workload(&name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(Args {
        name,
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One of the issue's eleven end-to-end metrics as printed in the report:
/// `None` where it does not apply to the workload.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    note: String,
}

fn rep(name: &'static str, unit: &'static str, value: Option<f64>) -> Reported {
    Reported {
        name,
        unit,
        value,
        note: String::new(),
    }
}

/// Everything a workload hands back to be printed.
struct Outcome {
    provenance: Vec<(&'static str, Json)>,
    host: Host,
    /// The simulated end-to-end metrics.
    simulated: Vec<Reported>,
    per_layer: HashMap<&'static str, f64>,
    spans: Option<SpanTree>,
}

fn params_json(p: &SolverLoopParams) -> Json {
    Json::obj([
        ("n", Json::from(p.n)),
        ("rounds", Json::from(p.rounds)),
        ("panels", Json::from(p.panels)),
        ("width", Json::from(p.width)),
        ("salt", Json::from(p.salt)),
    ])
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

fn run_fleet(spec: &FleetSpec, args: &Args, tally: &mut Tally) -> Outcome {
    let mut host = closed::run(spec, args.seconds, tally);
    let sim = host.sim.clone().unwrap_or_default();
    let door = match spec.door {
        FleetDoor::Service => "LacService, 2 cores, SimMode::Wave, compiled backend",
        FleetDoor::EventCluster => {
            "LacCluster, 2 chips x 1 core, SimMode::Event, Partitioner::Striped, compiled backend"
        }
    };
    let provenance = vec![
        ("loop", params_json(&spec.params)),
        ("loops", Json::from(spec.loops)),
        ("jobs_per_submission", Json::from(spec.jobs())),
        ("door", Json::from(door)),
        ("scheduler", Json::from("CriticalPath")),
        ("cold_setups", Json::from(host.setup_s.len())),
        ("warm_submissions", Json::from(host.warm_s.len())),
        (
            "warm_submission_s",
            Json::arr(host.warm_s.iter().map(|&s| Json::from(s))),
        ),
    ];
    let host_clock = Host::new(
        &host.setup_s,
        spec.jobs() as f64,
        sim.busy_cycles as f64,
        &host.warm_s,
        &host.warm_cpu_s,
    );
    let simulated = vec![
        rep(
            "makespan_cycles",
            "cycles",
            Some(sim.makespan_cycles as f64),
        ),
        rep("fmac_utilization", "ratio", Some(sim.fmac_utilization)),
        rep("gflops_per_w", "GFLOPS/W", Some(sim.gflops_per_w)),
        rep("sojourn_p50_cycles", "cycles", None),
        rep("sojourn_p99_cycles", "cycles", None),
        rep("slo_miss_frac", "ratio", None),
    ];
    let mut per_layer = HashMap::new();
    let mut spans = None;
    if args.trace {
        let tr = closed::trace(spec, &mut host.sim, tally);
        let door_s = sum(&tr.door_s);
        let cores = spec.cores() as f64;
        let warm = median(&host.warm_s);
        for (k, v) in [
            ("kernels.gen_s", tr.gen_s),
            ("engine.job_s", tr.job_s / tr.door_s.len().max(1) as f64),
            ("engine.job_us_p50", nearest_rank(&tr.job_us, 0.50)),
            ("engine.job_us_p99", nearest_rank(&tr.job_us, 0.99)),
            ("engine.busy_frac", tr.job_s / (door_s * cores)),
            ("compile.cold_s", median(&host.cold_s) - warm),
            ("compile.entries", tr.cache.entries as f64),
            ("compile.hits", tr.cache.hits as f64),
            ("compile.misses", tr.cache.misses as f64),
            (
                "compile.redundant",
                tr.cache.misses as f64 - tr.cache.entries as f64,
            ),
            ("coord.self_s", tr.self_s / tr.door_s.len().max(1) as f64),
            ("coord.self_frac", tr.self_s / door_s),
            ("cluster.partition_s", tr.partition_s),
            ("trace.overhead_frac", median(&tr.door_s) / warm - 1.0),
            (
                "bench.trace_spans",
                tr.tree.as_ref().map_or(0, |t| t.spans().len()) as f64,
            ),
        ] {
            per_layer.insert(k, v);
        }
        spans = tr.tree;
    }
    for (k, v) in [
        ("sim.makespan_cycles", sim.makespan_cycles as f64),
        ("chip.idle_cycles", sim.idle_cycles as f64),
        ("cluster.transferred_words", sim.transferred_words as f64),
        ("cluster.transfer_cycles", sim.transfer_cycles as f64),
        (
            "cluster.transfer_stall_cycles",
            sim.transfer_stall_cycles as f64,
        ),
        ("power.chips_nj", sim.chips_nj),
        ("power.link_nj", sim.link_nj),
        ("bench.repetitions", host.warm_s.len() as f64),
    ] {
        per_layer.insert(k, v);
    }
    Outcome {
        provenance,
        host: host_clock,
        simulated,
        per_layer,
        spans,
    }
}

fn run_open(spec: &OpenSpec, args: &Args, tally: &mut Tally) -> Outcome {
    let mut host = open::run(spec, args.seconds, tally);
    let o = host.sim.clone().unwrap_or_default();
    let provenance = vec![
        ("request", params_json(&spec.stream)),
        ("requests_expected", Json::from(spec.requests)),
        ("arrivals", Json::from(host.arrivals)),
        ("load", Json::from(spec.load)),
        ("interactive_share", Json::from(spec.interactive_share)),
        ("unit_service_cycles", Json::from(host.unit)),
        (
            "interactive_deadline_cycles",
            Json::from(spec.deadline_units * host.unit),
        ),
        ("trace_seed", Json::from(spec.seed)),
        (
            "door",
            Json::from("LacCluster, 2 chips x 1 core, SimMode::Wave, CostBins, compiled backend"),
        ),
        (
            "driver",
            Json::from("FairShare, slo_boost, no round quantum"),
        ),
        ("setups", Json::from(host.setup_s.len())),
        ("replays", Json::from(host.replay_s.len())),
        (
            "replay_s",
            Json::arr(host.replay_s.iter().map(|&s| Json::from(s))),
        ),
    ];
    let samples = o.served;
    let mut p50 = rep("sojourn_p50_cycles", "cycles", Some(o.p50 as f64));
    p50.note = format!("exact, n={samples}");
    let mut p99 = rep("sojourn_p99_cycles", "cycles", Some(o.p99 as f64));
    p99.note = format!("exact, n={samples}, {} beyond", o.beyond_p99);
    let mut slo = rep("slo_miss_frac", "ratio", Some(o.slo_miss_frac()));
    slo.note = format!(
        "{} of {} interactive",
        o.deadline_misses, o.tenant_served[1]
    );
    let host_clock = Host::new(
        &host.setup_s,
        host.jobs as f64,
        o.sim.busy_cycles as f64,
        &host.replay_s,
        &host.replay_cpu_s,
    );
    let simulated = vec![
        rep("makespan_cycles", "cycles", None),
        rep("fmac_utilization", "ratio", Some(o.sim.fmac_utilization)),
        rep("gflops_per_w", "GFLOPS/W", Some(o.sim.gflops_per_w)),
        p50,
        p99,
        slo,
    ];
    let mut per_layer = HashMap::new();
    let mut spans = None;
    if args.trace {
        let tr = open::trace(spec, &mut host.sim, tally);
        let round_s = sum(&tr.round_s);
        let mut round_us: Vec<f64> = tr.round_s.iter().map(|s| s * 1e6).collect();
        round_us.sort_by(f64::total_cmp);
        for (k, v) in [
            ("kernels.gen_s", tr.gen_s),
            ("engine.job_s", tr.job_s),
            ("engine.job_us_p50", nearest_rank(&tr.job_us, 0.50)),
            ("engine.job_us_p99", nearest_rank(&tr.job_us, 0.99)),
            (
                "engine.busy_frac",
                tr.job_s / (round_s * spec.chips() as f64),
            ),
            (
                "compile.cold_s",
                median(&host.cold_s) - median(&host.warm_s),
            ),
            ("compile.entries", tr.cache.entries as f64),
            ("compile.hits", tr.cache.hits as f64),
            ("compile.misses", tr.cache.misses as f64),
            (
                "compile.redundant",
                tr.cache.misses as f64 - tr.cache.entries as f64,
            ),
            ("coord.self_s", tr.round_self_s),
            ("coord.self_frac", tr.round_self_s / round_s),
            ("cluster.round_s", round_s),
            ("cluster.round_frac", round_s / tr.replay_s),
            ("cluster.rounds", tr.round_s.len() as f64),
            ("cluster.round_us_p50", nearest_rank(&round_us, 0.50)),
            ("cluster.round_us_p99", nearest_rank(&round_us, 0.99)),
            ("cluster.transfer_stall_cycles", tr.stall_cycles as f64),
            ("service.enqueue_s", tr.enqueue_s),
            ("service.offers", tr.offers as f64),
            ("service.bounces", tr.bounces as f64),
            (
                "service.accept_ratio",
                (tr.offers - tr.bounces) as f64 / tr.offers.max(1) as f64,
            ),
            ("traffic.self_s", tr.traffic_self_s),
            (
                "trace.overhead_frac",
                tr.replay_s / median(&host.replay_s) - 1.0,
            ),
            (
                "bench.trace_spans",
                tr.tree.as_ref().map_or(0, |t| t.spans().len()) as f64,
            ),
        ] {
            per_layer.insert(k, v);
        }
        spans = tr.tree;
    }
    for (k, v) in [
        (
            "traffic.jobs_per_round",
            host.jobs as f64 / o.rounds.max(1) as f64,
        ),
        ("traffic.sojourn_p50_cycles", o.p50 as f64),
        ("traffic.sojourn_p99_cycles", o.p99 as f64),
        (
            "traffic.batch.sojourn_p99_cycles",
            o.tenant_p99.first().copied().unwrap_or(0) as f64,
        ),
        (
            "traffic.interactive.sojourn_p99_cycles",
            o.tenant_p99.get(1).copied().unwrap_or(0) as f64,
        ),
        ("traffic.deadline_misses", o.deadline_misses as f64),
        ("traffic.slo_miss_frac", o.slo_miss_frac()),
        ("sim.makespan_cycles", o.sim.makespan_cycles as f64),
        ("chip.idle_cycles", o.sim.idle_cycles as f64),
        ("cluster.transferred_words", o.sim.transferred_words as f64),
        ("cluster.transfer_cycles", o.sim.transfer_cycles as f64),
        ("power.chips_nj", o.sim.chips_nj),
        ("power.link_nj", o.sim.link_nj),
        ("bench.repetitions", host.replay_s.len() as f64),
    ] {
        per_layer.insert(k, v);
    }
    Outcome {
        provenance,
        host: host_clock,
        simulated,
        per_layer,
        spans,
    }
}

fn metric_json(name: &str, unit: &str, value: f64) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
    )
}

/// Write the traced pass's spans and per-layer numbers next to this
/// package, once, at the end of the run.
fn write_trace_file(args: &Args, provenance: &Json, layers: &Json, tree: &SpanTree) {
    let spans = Json::arr(tree.spans().iter().map(|s| {
        Json::arr([
            Json::from(s.id as u64),
            Json::from(s.parent as u64),
            Json::from(s.layer.name()),
            Json::from(s.start),
            Json::from(s.end),
        ])
    }));
    let doc = Json::obj([
        ("provenance", provenance.clone()),
        ("per_layer", layers.clone()),
        (
            "span_fields",
            Json::arr(["id", "parent", "layer", "start_ns", "end_ns"].map(Json::from)),
        ),
        ("spans", spans),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.trace.json", args.name));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc.render())) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            tree.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let outcome = match &args.workload {
        Workload::Fleet(spec) => run_fleet(spec, &args, &mut tally),
        Workload::OpenLoop(spec) => run_open(spec, &args, &mut tally),
    };
    let error_frac = tally.failed as f64 / tally.attempted.max(1) as f64;

    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut provenance = vec![
        ("workload", Json::from(args.name.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("simulated_cores", Json::from(2u64)),
        ("host_threads", Json::from(host_threads)),
    ];
    provenance.extend(outcome.provenance);
    let provenance = Json::obj(provenance);
    println!("perfbench {}", provenance.render());

    println!("\nend to end ({}):", args.name);
    let h = &outcome.host;
    let mut errors = rep("error_frac", "ratio", Some(error_frac));
    errors.note = format!("{} of {} chains failed", tally.failed, tally.attempted);
    let mut reported = vec![
        rep("setup_s", "s", Some(h.setup_s)),
        rep("jobs_per_s", "jobs/s", Some(h.jobs_per_s)),
        rep("sim_mcycles_per_s", "Mcycles/s", Some(h.sim_mcycles_per_s)),
        rep("jobs_per_cpu_s", "jobs/cpu-s", Some(h.jobs_per_cpu_s)),
        rep(
            "sim_mcycles_per_cpu_s",
            "Mcycles/cpu-s",
            Some(h.sim_mcycles_per_cpu_s),
        ),
        rep("peak_rss_mb", "MB", Some(h.peak_rss_mb)),
        errors,
    ];
    reported.extend(outcome.simulated);
    for r in &reported {
        let value = r.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        println!("  {:20} {:>18} {:10} {}", r.name, value, r.unit, r.note);
    }
    let value_of = |name: &str| {
        reported
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.value)
    };

    let mut per_layer = outcome.per_layer;
    per_layer.insert("bench.check_s", tally.check_s);
    per_layer.insert("host.jobs_per_s", h.jobs_per_s);
    per_layer.insert("host.sim_mcycles_per_s", h.sim_mcycles_per_s);
    let layers = Json::Obj(
        PER_LAYER
            .iter()
            .map(|&(k, u)| metric_json(k, u, per_layer.get(k).copied().unwrap_or(0.0)))
            .collect(),
    );
    if args.trace {
        println!("\nper layer ({}, traced pass):", args.name);
        for &(k, u) in &PER_LAYER {
            let v = per_layer.get(k).copied().unwrap_or(0.0);
            println!("  {k:40} {v:>18.6} {u}");
        }
        if let Some(tree) = &outcome.spans {
            write_trace_file(&args, &provenance, &layers, tree);
        }
    }

    for p in &tally.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = tally.correct();
    let metrics = if args.trace {
        layers
    } else {
        Json::Obj(
            END_TO_END
                .iter()
                .map(|&(k, u)| metric_json(k, u, value_of(k).unwrap_or(0.0)))
                .collect(),
        )
    };
    let last = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
