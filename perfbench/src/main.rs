//! Sample-to-verdict fleet benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_full --seed 1 --seconds 10 --trace 0 [--workers 1]
//! ```
//!
//! Runs one workload (see `README.md` in this directory) through the
//! closed loop of `run.rs`, checks its correctness gates and prints, as
//! the last line of standard output, one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics from spans with
//! `--trace 1`. Exits non-zero on any gate violation.

mod inputs;
mod run;
mod spans;

use run::{Bench, Obs, Run, Workload};
use spans::{Layer, ROOT};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Host-noise filter. The shared host switches, many times a second,
/// between a quiet state and contended ones in which every layer, and
/// the harness's own input generation, runs up to ~1.6× slower; how much
/// of a run is contended varies from run to run, and some runs see the
/// quiet state only in brief spells. Timing statistics therefore come
/// from the windows that ran while the host was quiet: the input
/// generation just before and just after the window both ran within
/// `QUIET_SLACK` of the run's fastest (0.5th-percentile) generation.
/// Generation is harness work outside the measured path, so the
/// selection does not depend on the code being measured.
const QUIET_SLACK: f64 = 1.1;

/// Fewest windows a median is taken over: the quietest ones if fewer
/// pass the filter.
const MIN_QUIET: usize = 100;

/// Fewest windows the p99 is taken over, so it keeps ten beyond it.
const MIN_TAIL: usize = 1000;

/// The windows of `obs` that ran while the host was quiet (see
/// [`QUIET_SLACK`]), topped up with the next-quietest to at least `min`.
fn quiet<'a>(obs: impl Iterator<Item = &'a Obs>, min: usize) -> Vec<&'a Obs> {
    let mut obs: Vec<&Obs> = obs.collect();
    obs.sort_by_key(|o| o.probe_ns);
    let Some(fastest) = obs.get(obs.len() / 200) else {
        return obs;
    };
    let limit = (fastest.probe_ns as f64 * QUIET_SLACK) as u32;
    let keep = obs.partition_point(|o| o.probe_ns <= limit).max(min);
    obs.truncate(keep);
    obs
}

/// Largest tolerated share of the controller window that its child
/// layer spans (ingest, estimate, anomaly) leave unaccounted, percent.
const UNATTRIBUTED_TOLERANCE_PCT: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut workers) =
        (None, None, None, false, 1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--workers" => workers = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: want 0 < s <= 600"));
    }
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        workers,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--workers K]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };

    // Set up several times and keep the last: `setup_s` is their median.
    // The first set-up is timed from process start.
    let reps = match args.workload {
        Workload::TraceReplay => 3,
        _ => 9,
    };
    let mut setup_s = Vec::new();
    let mut phases: [Vec<f64>; 3] = Default::default();
    let mut bench = None;
    for rep in 0..reps {
        drop(bench.take());
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let b = Bench::setup(args.workload, args.seed, args.workers);
        setup_s.push(t0.elapsed().as_secs_f64());
        for (v, d) in phases
            .iter_mut()
            .zip([b.cost.inputs, b.cost.model, b.cost.warmup])
        {
            v.push(d.as_secs_f64());
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let [inputs_s, model_s, warmup_s] = phases.map(|mut v| median(&mut v));
    let setup = Setup {
        setup_s: median(&mut setup_s),
        inputs_s,
        model_s,
        warmup_s,
        ticks: bench.cost.ticks,
    };
    let run = bench.run(args.seconds, args.trace);
    // Before the harness's own post-processing allocates.
    let peak_rss_kb = peak_rss_kb();

    let e2e = end_to_end(&bench, &run, &setup, peak_rss_kb);
    let provenance = provenance(&args, &bench, &run, reps);
    println!("provenance {provenance}");
    for (name, value, unit) in &e2e.report {
        println!("metric {name} = {value} {unit}");
    }
    let metrics = if args.trace {
        let layers = per_layer(&mut bench, &run, &setup);
        for (name, value, unit) in &layers {
            println!("layer {name} = {value} {unit}");
        }
        if let Some(spans) = &run.spans {
            let path = out_dir().join(format!("spans-{}.tsv", args.workload.name()));
            match spans.write(&path, &provenance) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => bench.violate(format!("writing {}: {e}", path.display())),
            }
        }
        layers
    } else {
        e2e.contract
    };

    let correct = bench.violation_count == 0;
    for v in &bench.violations {
        eprintln!("perfbench: gate violated: {v}");
    }
    if bench.violation_count > bench.violations.len() as u64 {
        eprintln!(
            "perfbench: {} gate violations in total",
            bench.violation_count
        );
    }
    let attempted = run.obs.len() as u64 * bench.n as u64;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.failed_mw,
        metrics
            .iter()
            .map(|(name, value, unit)| format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up time and its phases, medians over the set-ups.
struct Setup {
    setup_s: f64,
    inputs_s: f64,
    model_s: f64,
    warmup_s: f64,
    ticks: u64,
}

type Metric = (&'static str, f64, &'static str);

struct EndToEnd {
    /// The metrics `BENCHMARK.json` lists, in its order.
    contract: Vec<Metric>,
    /// Every end-to-end figure the run has, for the human-readable lines.
    report: Vec<Metric>,
}

fn end_to_end(bench: &Bench, run: &Run, setup: &Setup, peak_rss_kb: u64) -> EndToEnd {
    let n = bench.n as f64;
    let t = &run.tally;
    let windows = run.obs.len() as f64;
    let mw = n * windows;
    let untraced = || run.obs.iter().filter(|o| !o.traced);
    let timed = quiet(untraced(), MIN_QUIET);
    let mut win_us: Vec<f64> = timed.iter().map(|o| o.window_ns as f64 / 1e3).collect();
    let controller_s: f64 = win_us.iter().sum::<f64>() / 1e6;
    let mut producer: Vec<f64> = timed.iter().map(|o| o.producer_ns as f64).collect();
    let mut tail: Vec<f64> = quiet(untraced(), MIN_TAIL)
        .iter()
        .map(|o| o.window_ns as f64 / 1e3)
        .collect();
    tail.sort_unstable_by(f64::total_cmp);
    let p99_rank = ((0.99 * tail.len() as f64).ceil() as usize).max(1);
    let failed_share = t.failed_mw as f64 / mw;

    let contract = vec![
        ("setup_s", setup.setup_s, "s"),
        ("window_us_p50", median(&mut win_us), "us"),
        ("mw_per_s", n * win_us.len() as f64 / controller_s, "mw/s"),
        ("producer_ns_per_mw", median(&mut producer) / n, "ns"),
        ("wire_bytes_per_mw", t.bytes as f64 / mw, "B"),
        ("served_share", 1.0 - failed_share, "ratio"),
        ("peak_rss_kb", peak_rss_kb as f64, "kB"),
    ];
    let mut report = contract.clone();
    // Reported, not bounded: on a shared host the tail of a sub-ms
    // window is set by the host, and it spreads too much from run to run
    // to judge a change by.
    let p99 = tail.get(p99_rank - 1).copied().unwrap_or(0.0);
    report.insert(2, ("window_us_p99", p99, "us"));
    report.push(("windows", windows, "count"));
    report.push(("quiet_windows", win_us.len() as f64, "count"));
    report.push(("p99_windows", tail.len() as f64, "count"));
    report.push((
        "p99_windows_beyond",
        (tail.len() - p99_rank) as f64,
        "count",
    ));
    report.push(("failed_share", failed_share, "ratio"));
    if bench.workload != Workload::TraceReplay {
        report.push(("false_positive_mw", t.false_positive_mw as f64, "count"));
    }
    if bench.workload == Workload::FleetAdaptive {
        report.push(("detect_windows_max", t.detect_windows_max as f64, "windows"));
        report.push(("spikes_scored", t.spikes_scored as f64, "count"));
    }
    if let Some(err) = &run.err_pct {
        for (name, value) in ERR_NAMES.iter().zip(err) {
            report.push((name, *value, "%"));
        }
    }
    EndToEnd { contract, report }
}

/// `err_pct.*` names in `Subsystem::ALL` order.
const ERR_NAMES: [&str; 5] = [
    "err_pct.cpu",
    "err_pct.chipset",
    "err_pct.memory",
    "err_pct.io",
    "err_pct.disk",
];

/// Per-layer metrics of a traced run. Layer times come from the spans:
/// a layer's self time is its span minus the part its children cover.
fn per_layer(bench: &mut Bench, run: &Run, setup: &Setup) -> Vec<Metric> {
    let n = bench.n as f64;
    let t = &run.tally;
    let windows = run.obs.len() as f64;
    let spans = run.spans.as_ref().expect("a traced run records spans");
    let first = run.obs.first().map_or(0, |o| o.w);

    // Layer times from the spans of the quiet traced windows; the
    // attribution check covers every traced window.
    let mut is_quiet = vec![false; run.obs.len()];
    for o in quiet(run.obs.iter().filter(|o| o.traced), MIN_QUIET) {
        is_quiet[(o.w - first) as usize] = true;
    }
    let mut by_layer: [Vec<f64>; Layer::ALL.len()] = Default::default();
    let mut ns_per_frame = Vec::new();
    let (mut window_ns, mut children_ns) = (0.0, 0.0);
    for s in spans.all() {
        let ns = s.ns() as f64;
        if s.layer == Layer::Window {
            window_ns += ns;
        } else if s.parent != ROOT {
            children_ns += ns;
        }
        let i = (s.window - first) as usize;
        if !is_quiet[i] {
            continue;
        }
        by_layer[s.layer as usize].push(ns);
        if s.layer == Layer::Ingest {
            ns_per_frame.push(ns / run.obs[i].sample_frames.max(1) as f64);
        }
    }
    let mut per_mw = |l: Layer| median(&mut by_layer[l as usize]) / n;
    let unattributed_pct = 100.0 * (window_ns - children_ns) / window_ns.max(1.0);
    if unattributed_pct > UNATTRIBUTED_TOLERANCE_PCT {
        bench.violate(format!(
            "child spans leave {unattributed_pct:.3} % of the window unattributed (tolerance {UNATTRIBUTED_TOLERANCE_PCT} %)"
        ));
    }
    let p50 = |traced: bool| {
        let timed = quiet(run.obs.iter().filter(|o| o.traced == traced), MIN_QUIET);
        let mut v: Vec<f64> = timed.iter().map(|o| o.window_ns as f64).collect();
        median(&mut v)
    };
    let (traced_p50, untraced_p50) = (p50(true), p50(false));
    let rep = &t.rep;
    let fresh = rep.rows_written - rep.rows_held - rep.rows_reconstructed;
    let err = run.err_pct.unwrap_or([0.0; 5]);

    let mut m: Vec<Metric> = vec![
        ("wire.encode.ns_per_mw", per_mw(Layer::Encode), "ns"),
        (
            "wire.encode.frames_per_window",
            t.frames_sent as f64 / windows,
            "count",
        ),
        (
            "wire.encode.bytes_per_frame",
            t.bytes as f64 / t.frames_sent.max(1) as f64,
            "B",
        ),
        ("wire.ingest.ns_per_mw", per_mw(Layer::Ingest), "ns"),
        ("wire.ingest.ns_per_frame", median(&mut ns_per_frame), "ns"),
        (
            "wire.ingest.sample_frames",
            rep.sample_frames as f64 / windows,
            "count",
        ),
        (
            "wire.ingest.rows_reconstructed",
            rep.rows_reconstructed as f64 / windows,
            "count",
        ),
        (
            "wire.ingest.fresh_ratio",
            fresh as f64 / rep.sample_frames.max(1) as f64,
            "ratio",
        ),
        ("wire.ingest.rows_failed", t.failed_mw as f64, "count"),
        (
            "wire.ingest.layout_frames",
            rep.layout_frames as f64,
            "count",
        ),
        (
            "wire.ingest.corrupt_frames",
            rep.corrupt_frames as f64,
            "count",
        ),
        ("wire.ingest.resyncs", rep.resyncs as f64, "count"),
        (
            "wire.ingest.backpressure_events",
            rep.backpressure_events as f64,
            "count",
        ),
        ("fleet.estimate.ns_per_mw", per_mw(Layer::Estimate), "ns"),
        ("fleet.estimate.clamped", t.clamped as f64, "count"),
        ("fleet.anomaly.ns_per_mw", per_mw(Layer::Anomaly), "ns"),
        ("fleet.anomaly.flagged_mw", t.flagged_mw as f64, "count"),
        (
            "fleet.anomaly.decimated_share",
            t.decimated_grants as f64 / (n * windows),
            "ratio",
        ),
        (
            "fleet.anomaly.false_positive_mw",
            t.false_positive_mw as f64,
            "count",
        ),
        (
            "fleet.anomaly.detect_windows_max",
            t.detect_windows_max as f64,
            "windows",
        ),
        ("fleet.grant.ns_per_mw", per_mw(Layer::Grant), "ns"),
        ("setup.inputs_s", setup.inputs_s, "s"),
        ("setup.model_s", setup.model_s, "s"),
        ("setup.warmup_s", setup.warmup_s, "s"),
        (
            "simsys.ticks_per_s",
            setup.ticks as f64 / setup.inputs_s,
            "1/s",
        ),
    ];
    for (i, name) in ERR_NAMES.iter().enumerate() {
        m.push((name, err[i], "%"));
    }
    m.push(("bench.gen_ns_per_mw", per_mw(Layer::Gen), "ns"));
    m.push((
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "%",
    ));
    m.push(("trace.unattributed_pct", unattributed_pct, "%"));
    m
}

/// The sample median (mean of the middle pair for even counts); 0 for
/// an empty sample.
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0 rather than invalid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Where a traced run writes its spans.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn provenance(args: &Args, bench: &Bench, run: &Run, setup_reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_number(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("machines", bench.n.to_string()),
        ("workers", args.workers.to_string()),
        ("decoders", bench.decoders.to_string()),
        ("windows", run.obs.len().to_string()),
        ("warmup_windows", bench.warmup.to_string()),
        ("verified_windows", run.tally.verified_windows.to_string()),
        ("setup_reps", setup_reps.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", json_string(&cpu_model())),
        ("simd", json_string(tdp_simd::Dispatch::active().label())),
        ("rustc", json_string(env!("PERFBENCH_RUSTC"))),
        ("git_sha", json_string(&git_sha(&repo_root()))),
        ("source_digest", json_string(&source_digest(&repo_root()))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without leaving the
/// checkout; `none` when the checkout is not a git repository.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the path and bytes of every file under `crates/` plus
/// the lock file, in sorted order: identifies the measured source even
/// where there is no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        mix(rel.to_string_lossy().as_bytes());
        mix(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Peak resident set size (VmHWM) in kB; 0 where unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
