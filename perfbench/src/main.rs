//! The repository's benchmark: the Serval paper's own workloads (the
//! Fig. 11 monitor matrix and the section 7 JIT checker) run end to end,
//! every verdict checked against its known answer, with per-layer
//! attribution at the discharge seam in traced runs.
//!
//! Usage (from the repository root):
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload jit-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics and
//! writes the run's spans to `perfbench/out/`. See `perfbench/README.md`.

mod oracle;
mod trace;
mod workloads;

use oracle::{check, Expect, Outcome, Tally};
use serval_engine::{Discharge, EngineCfg};
use serval_net::NetCfg;
use serval_smt::solver::{SolverConfig, VerifyResult};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trace::{json_str, lock, Counts, Kind, Timed, Trace};
use workloads::{plan, probe_query, Backend, Planned, Workload};

/// Round-trip probes after the cells of each `service` pass, one query
/// per frame; 200 leaves ten samples beyond the 95th percentile.
const PROBES: usize = 200;

/// Set-up samples after each cell, each a fresh process of this program
/// started and run until its discharger is ready. Samples after every
/// cell spread over the whole run, so a moment of host contention moves
/// few of them.
const SETUP_PER_CELL: usize = 2;

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`) and their units. The first four are
/// end-to-end readings over short windows (cached cells, the longest
/// cell, probe latencies), kept here without a bound because bursts of
/// host contention move them by more than the largest bound allowed.
const PER_LAYER: [(&str, &str); 39] = [
    ("cached_s", "s"),
    ("tail_cell_s", "s"),
    ("probe_p50_us", "us"),
    ("probe_p95_us", "us"),
    ("sym.eval_s", "s"),
    ("engine.discharge_s", "s"),
    ("engine.batches", "count"),
    ("engine.queries", "count"),
    ("engine.trivial", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.hit_rate", "ratio"),
    ("engine.session_groups", "count"),
    ("engine.fresh_groups", "count"),
    ("engine.solver_cpu_s", "s"),
    ("engine.pool_util", "ratio"),
    ("engine.max_query_s", "s"),
    ("smt.presolve_terms_in", "count"),
    ("smt.presolve_terms_out", "count"),
    ("smt.vars", "count"),
    ("smt.clauses", "count"),
    ("smt.reused_clauses", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.eliminated_vars", "count"),
    ("sat.subsumed", "count"),
    ("sat.resolvents", "count"),
    ("drat.check_s", "s"),
    ("drat.steps", "count"),
    ("drat.accepted", "count"),
    ("drat.rejected", "count"),
    ("net.rtt_s", "s"),
    ("net.bytes_sent", "bytes"),
    ("net.bytes_received", "bytes"),
    ("net.shard_solved", "count"),
    ("net.shard_hits", "count"),
    ("net.hot_hits", "count"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fig11-refinement|fig11-safety|jit-sweep|service> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One pass over a workload's cells, on a freshly started discharger.
struct Pass {
    verify_s: f64,
    cached_s: f64,
    tail_cell_s: f64,
    /// Wall time of each cell, in plan order.
    cell_s: Vec<f64>,
    tally: Tally,
    /// Set-up samples taken between cells.
    setups: Vec<f64>,
    /// Probe latencies in microseconds (`service` only).
    probe_us: Vec<f64>,
    /// Per-layer metrics (traced passes only).
    layers: Option<Counts>,
}

fn outcome(result: &VerifyResult) -> Outcome {
    match result {
        VerifyResult::Proved => Outcome::Proved,
        VerifyResult::Counterexample(_) => Outcome::Refuted,
        VerifyResult::Unknown | VerifyResult::Interrupted => Outcome::Failed,
    }
}

fn run_pass(
    w: Workload,
    cells: &[Planned],
    ecfg: &EngineCfg,
    ncfg: &NetCfg,
    trace: Option<&Arc<Mutex<Trace>>>,
) -> Pass {
    let solver = SolverConfig::default();
    let backend = Backend::start(w, ecfg, ncfg);
    let seam: Arc<dyn Discharge> = match trace {
        Some(tr) => Arc::new(Timed::new(
            backend.discharger(),
            Arc::clone(tr),
            backend.remote(),
        )),
        None => backend.discharger(),
    };
    serval_engine::install_discharger(seam);

    let wspan = trace.map(|tr| lock(tr).open(Kind::Workload, w.name().to_string()));
    let mut tally = Tally::default();
    let mut cell_s = Vec::with_capacity(cells.len());
    let mut setups = Vec::with_capacity(cells.len() * SETUP_PER_CELL);
    for p in cells {
        let before = trace.map(|_| backend.snapshot());
        let span = trace.map(|tr| lock(tr).open(Kind::Cell, p.cell.name()));
        let t = Instant::now();
        let verdicts = p.cell.run(solver);
        let dt = t.elapsed().as_secs_f64();
        if let (Some(tr), Some(id), Some(before)) = (trace, span, before) {
            lock(tr).close(id, backend.snapshot().since(&before));
        }
        let cell_tally = check(&p.cell.expect(), &verdicts);
        if cell_tally.wrong > 0 || cell_tally.failed > 0 {
            eprintln!(
                "perfbench: {}: {} wrong verdict(s) (first: {}), {} without a verdict",
                p.cell.name(),
                cell_tally.wrong,
                cell_tally.first_wrong.as_deref().unwrap_or("-"),
                cell_tally.failed
            );
        }
        tally.add(&cell_tally);
        cell_s.push(dt);
        setups.extend((0..SETUP_PER_CELL).map(|_| setup_sample(w)));
    }
    let verify_s = cell_s.iter().sum();
    let cached_s = cells
        .iter()
        .zip(&cell_s)
        .filter(|(p, _)| p.cached)
        .fold(0.0, |sum, (_, t)| sum + t);
    let tail_cell_s = cell_s.iter().copied().fold(0.0, f64::max);
    let layers = match (trace, wspan) {
        (Some(tr), Some(id)) => {
            let mut t = lock(tr);
            t.close(id, Counts::default());
            let layers = layer_metrics(&t, id, backend.workers());
            t.spans[id].counts = layers.clone();
            Some(layers)
        }
        _ => None,
    };
    serval_engine::clear_discharger();

    // `service` ends with the round-trip probe, sent to the client
    // directly so that traced passes attribute only the cells' batches.
    let mut probe_us = Vec::new();
    if backend.remote() {
        let d = backend.discharger();
        let mut verdicts = Vec::with_capacity(PROBES);
        for i in 1..=PROBES as u64 {
            let q = probe_query(i);
            let t = Instant::now();
            let o = d.submit(q);
            probe_us.push(t.elapsed().as_secs_f64() * 1e6);
            verdicts.push((o.label, outcome(&o.result)));
        }
        tally.add(&check(&Expect::all_proved(PROBES), &verdicts));
    }
    backend.stop();
    Pass {
        verify_s,
        cached_s,
        tail_cell_s,
        cell_s,
        tally,
        setups,
        probe_us,
        layers,
    }
}

/// Per-layer metrics of one traced pass: the cells' boundary counters,
/// their batches' counters, and the derived ratios.
fn layer_metrics(trace: &Trace, workload_span: usize, workers: usize) -> Counts {
    let mut c = Counts::default();
    for &(name, _) in &PER_LAYER {
        c.add(name, 0.0);
    }
    for cell in trace.children(workload_span) {
        c.merge(&cell.counts);
        // Symbolic evaluation: cell time outside discharge calls.
        c.add("sym.eval_s", trace.self_time(cell.id));
        for batch in trace.children(cell.id) {
            c.merge(&batch.counts);
        }
    }
    let lookups = c.get("engine.queries") - c.get("engine.trivial");
    if lookups > 0.0 {
        c.add("engine.hit_rate", c.get("engine.cache_hits") / lookups);
    }
    let busy = c.get("engine.discharge_s") * workers as f64;
    if busy > 0.0 {
        c.add("engine.pool_util", c.get("engine.solver_cpu_s") / busy);
    }
    c
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn config_json(ecfg: &EngineCfg, ncfg: &NetCfg) -> String {
    format!(
        "{{\"engine\": {{\"jobs\": {}, \"portfolio\": {}, \"disk_cache\": {}, \"split\": {}, \"mode\": \"{:?}\", \
         \"presolve\": {}, \"cert\": {}}}, \"net\": {{\"addr\": {}, \"shards\": {}, \"max_inflight\": {}, \
         \"hot_threshold\": {}, \"max_frame\": {}}}, \"probes\": {PROBES}, \"setup_samples_per_cell\": {SETUP_PER_CELL}}}",
        ecfg.jobs,
        ecfg.portfolio,
        ecfg.disk_cache.as_ref().map_or("null".to_string(), |p| json_str(&p.display().to_string())),
        ecfg.split,
        ecfg.mode,
        ecfg.presolve,
        ecfg.cert,
        json_str(&ncfg.addr),
        ncfg.shards,
        ncfg.max_inflight,
        ncfg.hot_threshold,
        ncfg.max_frame
    )
}

fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The pinned configuration: the engine's defaults with one worker per
/// core the run may use and the disk cache off, and the server's
/// defaults on an ephemeral loopback port.
fn configs() -> (EngineCfg, NetCfg) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ecfg = EngineCfg {
        jobs: cores,
        disk_cache: None,
        ..EngineCfg::default()
    };
    let ncfg = NetCfg {
        addr: "127.0.0.1:0".to_string(),
        engine: ecfg.clone(),
        ..NetCfg::default()
    };
    (ecfg, ncfg)
}

/// One set-up sample: seconds from starting a fresh copy of this program
/// until its discharger has answered one query, as the copy reports on
/// its standard output. The copy's teardown is not timed.
fn setup_sample(w: Workload) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args([SETUP_ONLY, w.name()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a set-up sample");
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped standard output");
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the set-up sample's output");
    let setup_s = t.elapsed().as_secs_f64();
    let status = child.wait().expect("wait for the set-up sample");
    assert!(
        status.success() && line.trim() == "ready",
        "set-up sample failed: {status}, output {line:?}"
    );
    setup_s
}

/// The argument that makes this program a set-up sample: start the named
/// workload's discharger, print `ready`, stop it and exit.
const SETUP_ONLY: &str = "--setup-only";

fn main() {
    // Knobs read below `EngineCfg` (inprocessing, polarity, LRAT,
    // session inprocessing) and the disk cache would silently measure a
    // different program.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SERVAL_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset every SERVAL_* variable",
            knobs.join(", ")
        );
        std::process::exit(2);
    }

    let (ecfg, ncfg) = configs();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name] = argv.as_slice() {
        if flag == SETUP_ONLY {
            let Some(w) = Workload::parse(name) else {
                eprintln!("perfbench: unknown workload {name:?}\n{USAGE}");
                std::process::exit(2);
            };
            let backend = Backend::start(w, &ecfg, &ncfg);
            println!("ready");
            std::io::stdout().flush().expect("flush standard output");
            backend.stop();
            return;
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let cells = plan(w, args.seed);
    let config = config_json(&ecfg, &ncfg);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        ecfg.jobs
    );
    println!("perfbench: config {config}");
    let order: Vec<String> = cells.iter().map(|p| p.cell.name()).collect();
    println!("perfbench: cell order {}", order.join(" | "));

    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_id = format!(
        "{}-seed{}-{}-{nanos}",
        w.name(),
        args.seed,
        std::process::id()
    );
    let trace = args
        .trace
        .then(|| Arc::new(Mutex::new(Trace::new(run_id.clone()))));
    // Untraced passes measure the end-to-end metrics. A traced run
    // interleaves them with traced passes, whose gap is the tracing
    // overhead. Whole passes run until `--seconds` have elapsed, at
    // least one of each.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Read after the first pass: the high-water mark keeps rising over
    // later passes, so a run that fits more passes would read higher.
    let mut peak_rss = None;
    let t_run = Instant::now();
    loop {
        plain.push(run_pass(w, &cells, &ecfg, &ncfg, None));
        peak_rss.get_or_insert_with(peak_rss_mb);
        if let Some(tr) = &trace {
            traced.push(run_pass(w, &cells, &ecfg, &ncfg, Some(tr)));
        }
        if t_run.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut tally = Tally::default();
    let mut setups = Vec::new();
    for p in plain.iter().chain(&traced) {
        tally.add(&p.tally);
        setups.extend(&p.setups);
    }
    let of =
        |f: fn(&Pass) -> f64, passes: &[Pass]| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Median over passes of each pass's probe percentile; 0 where the
    // workload has no probe.
    let probe = |q: f64| {
        if plain[0].probe_us.is_empty() {
            0.0
        } else {
            median(
                &plain
                    .iter()
                    .map(|p| percentile(&p.probe_us, q))
                    .collect::<Vec<_>>(),
            )
        }
    };
    let verify_s = of(|p| p.verify_s, &plain);
    let passes: Vec<String> = plain
        .iter()
        .map(|p| format!("{:.4}/{:.4}", p.verify_s, p.cached_s))
        .collect();
    println!(
        "perfbench: untraced verify_s/cached_s per pass: {}",
        passes.join(" ")
    );
    let first: Vec<String> = plain[0].cell_s.iter().map(|t| format!("{t:.4}")).collect();
    println!(
        "perfbench: first pass seconds per cell: {}",
        first.join(" ")
    );
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "perfbench: {} untraced + {} traced pass(es); verify_s median {verify_s:.4}; \
         {} set-ups; {} probes per pass; attempted {}, verdicts_wrong {}, failed_frac {failed_frac}",
        plain.len(),
        traced.len(),
        setups.len(),
        plain[0].probe_us.len(),
        tally.attempted,
        tally.wrong
    );

    // Readings of the untraced passes; the per-layer counters come from
    // the traced ones.
    let reading = |name: &str| -> Option<f64> {
        Some(match name {
            "setup_s" => median(&setups),
            "verify_s" => verify_s,
            "peak_rss_mb" => peak_rss.expect("at least one pass ran"),
            "cached_s" => of(|p| p.cached_s, &plain),
            "tail_cell_s" => of(|p| p.tail_cell_s, &plain),
            "probe_p50_us" => probe(0.50),
            "probe_p95_us" => probe(0.95),
            "trace.overhead" => of(|p| p.verify_s, &traced) / verify_s - 1.0,
            _ => return None,
        })
    };
    let values: Vec<(&str, &str, f64)> = if let Some(tr) = &trace {
        let layers: Vec<Counts> = traced.iter().filter_map(|p| p.layers.clone()).collect();
        let values: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = reading(name).unwrap_or_else(|| {
                    median(&layers.iter().map(|c| c.get(name)).collect::<Vec<_>>())
                });
                (name, unit, v)
            })
            .collect();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        let extra = format!(
            "\"workload\": {}, \"seed\": {}, \"config\": {config}, \"metrics\": {}",
            json_str(w.name()),
            args.seed,
            metrics_json(&values)
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, lock(tr).to_json(&extra)));
        match written {
            Ok(()) => println!("perfbench: trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        values
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    unit,
                    reading(name).expect("end-to-end metrics are readings"),
                )
            })
            .collect()
    };

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&values)
    );
    if tally.wrong > 0 || tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload service --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Service, 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload jit-sweep --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload jit-sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload jit-sweep --seconds 1").is_err());
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
    }
}
