//! Argument parsing for the `repro` binary.
//!
//! Split out of `src/bin/repro.rs` so validation — flag syntax, count
//! bounds, experiment-name checking and `all` expansion — is unit
//! testable without spawning the process. The binary's `main` reduces
//! to: parse, print on error, dispatch.

use crate::ExperimentConfig;
use std::collections::BTreeSet;

/// One-line usage string, printed with every argument error.
pub const USAGE: &str = "usage: repro [--quick] [--markdown] [--bench-json] [--fleet N] [--wire N] \
    [--faults SEED] [--anomaly] [--seed N] [--out DIR] \
    <table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|fig7|coefficients|shape|ablate|selection|all>...";

/// Every experiment name the binary knows, excluding `all`.
pub const EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "coefficients",
    "shape",
    "ablate",
    "selection",
];

/// Experiments `all` expands to (everything except the slow ablation
/// and selection sweeps, which must be requested by name).
const ALL_EXPANSION: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "coefficients",
    "shape",
];

/// A fully validated command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment configuration (seed, trace lengths, output dir).
    pub cfg: ExperimentConfig,
    /// Validated experiment names, `all` already expanded.
    pub wanted: BTreeSet<String>,
    /// Render tables as markdown.
    pub markdown: bool,
    /// Run the pipeline throughput benchmark (`BENCH.json`).
    pub bench_json: bool,
    /// Fleet-estimation benchmark machine count (`BENCH_fleet.json`).
    pub fleet: Option<usize>,
    /// Wire-codec benchmark machine count (`BENCH_wire.json`).
    pub wire: Option<usize>,
    /// Fault-injection seed: turns `--wire N` into the chaos harness
    /// (`CHAOS.json`) — a seeded `FaultPlan` batters the stream while
    /// the ingest pipeline must degrade gracefully.
    pub faults: Option<u64>,
    /// Run the adaptive-sampling phase of the wire benchmark: the
    /// closed anomaly→decimation loop plus the decimated-ingest A/B
    /// (`anomaly_*` / `decimation_*` fields in `BENCH_wire.json`), or
    /// the detector-under-fire sub-run when combined with `--faults`
    /// (`CHAOS.json`).
    pub anomaly: bool,
    /// `--help` was requested: print usage, exit success.
    pub help: bool,
}

impl Cli {
    /// Whether the invocation asks for any work at all.
    pub fn requests_something(&self) -> bool {
        self.help
            || self.bench_json
            || self.fleet.is_some()
            || self.wire.is_some()
            || !self.wanted.is_empty()
    }
}

/// A rejected command line; `Display` gives the reason (the caller
/// appends [`USAGE`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// `--fleet` / `--wire` operand: a machine count that must be ≥ 1, with
/// an explicit message for `0` (a silent no-op benchmark would be
/// worse than an error).
fn positive_count(flag: &str, operand: Option<String>) -> Result<usize, CliError> {
    match operand.as_deref().map(str::parse::<usize>) {
        Some(Ok(0)) => Err(CliError(format!(
            "{flag} 0 would benchmark an empty fleet; pass a machine count of at least 1"
        ))),
        Some(Ok(n)) => Ok(n),
        Some(Err(_)) => Err(CliError(format!(
            "{flag} needs a positive machine count, got {:?}",
            operand.unwrap_or_default()
        ))),
        None => Err(CliError(format!("{flag} needs a positive machine count"))),
    }
}

/// Parses and validates `args` (the process arguments *without* the
/// binary name).
///
/// # Errors
///
/// [`CliError`] on unknown flags, unknown experiment names, missing
/// operands, or a zero/non-numeric `--fleet` / `--wire` / `--seed`
/// operand. Nothing is partially applied on error.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut cli = Cli {
        cfg: ExperimentConfig::default(),
        wanted: BTreeSet::new(),
        markdown: false,
        bench_json: false,
        fleet: None,
        wire: None,
        faults: None,
        anomaly: false,
        help: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--markdown" => cli.markdown = true,
            "--bench-json" => cli.bench_json = true,
            "--fleet" => cli.fleet = Some(positive_count("--fleet", args.next())?),
            "--wire" => cli.wire = Some(positive_count("--wire", args.next())?),
            "--faults" => match args.next().map(|s| (s.parse::<u64>(), s)) {
                Some((Ok(seed), _)) => cli.faults = Some(seed),
                Some((Err(_), s)) => {
                    return Err(CliError(format!(
                        "--faults needs an integer fault-plan seed, got {s:?}"
                    )))
                }
                None => return Err(CliError("--faults needs an integer fault-plan seed".into())),
            },
            "--anomaly" => cli.anomaly = true,
            "--quick" => {
                let out = cli.cfg.out_dir.clone();
                let seed = cli.cfg.seed;
                cli.cfg = ExperimentConfig::quick();
                cli.cfg.out_dir = out;
                cli.cfg.seed = seed;
            }
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => cli.cfg.seed = seed,
                None => return Err(CliError("--seed needs an integer".into())),
            },
            "--out" => match args.next() {
                Some(dir) => cli.cfg.out_dir = dir.into(),
                None => return Err(CliError("--out needs a directory".into())),
            },
            "--help" | "-h" => cli.help = true,
            other if !other.starts_with('-') => {
                if other == "all" {
                    cli.wanted
                        .extend(ALL_EXPANSION.iter().map(|s| (*s).to_owned()));
                } else if EXPERIMENTS.contains(&other) {
                    cli.wanted.insert(other.to_owned());
                } else {
                    return Err(CliError(format!("unknown experiment {other}")));
                }
            }
            other => return Err(CliError(format!("unknown flag {other}"))),
        }
    }
    if cli.faults.is_some() && cli.wire.is_none() {
        return Err(CliError(
            "--faults injects faults into the wire chaos harness; also pass --wire N".into(),
        ));
    }
    if cli.anomaly && cli.wire.is_none() {
        return Err(CliError(
            "--anomaly runs the adaptive-sampling phase of the wire benchmark; also pass --wire N"
                .into(),
        ));
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Cli, CliError> {
        parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn zero_fleet_is_rejected_with_a_clear_error() {
        let err = parse_strs(&["--fleet", "0"]).unwrap_err();
        assert!(
            err.to_string().contains("at least 1"),
            "error must say what a valid count is: {err}"
        );
    }

    #[test]
    fn zero_wire_is_rejected_with_a_clear_error() {
        let err = parse_strs(&["--wire", "0"]).unwrap_err();
        assert!(err.to_string().contains("--wire"), "names the flag: {err}");
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn missing_and_garbage_counts_are_rejected() {
        assert!(parse_strs(&["--fleet"]).is_err());
        assert!(parse_strs(&["--wire"]).is_err());
        let err = parse_strs(&["--wire", "many"]).unwrap_err();
        assert!(
            err.to_string().contains("many"),
            "echoes the operand: {err}"
        );
        // A flag where a count belongs is a missing operand, not a name.
        assert!(parse_strs(&["--fleet", "--quick"]).is_err());
    }

    #[test]
    fn valid_counts_parse() {
        let cli = parse_strs(&["--fleet", "256", "--wire", "1024"]).unwrap();
        assert_eq!(cli.fleet, Some(256));
        assert_eq!(cli.wire, Some(1024));
        assert!(cli.requests_something());
        assert!(cli.wanted.is_empty());
    }

    #[test]
    fn faults_flag_parses_and_requires_wire() {
        let cli = parse_strs(&["--wire", "64", "--faults", "1234"]).unwrap();
        assert_eq!(cli.faults, Some(1234));
        assert_eq!(cli.wire, Some(64));
        // Seed 0 is a legitimate seed, unlike a zero machine count.
        let cli = parse_strs(&["--wire", "64", "--faults", "0"]).unwrap();
        assert_eq!(cli.faults, Some(0));

        let err = parse_strs(&["--faults", "7"]).unwrap_err();
        assert!(
            err.to_string().contains("--wire"),
            "points at the fix: {err}"
        );
        let err = parse_strs(&["--wire", "8", "--faults", "lots"]).unwrap_err();
        assert!(
            err.to_string().contains("lots"),
            "echoes the operand: {err}"
        );
        assert!(parse_strs(&["--wire", "8", "--faults"]).is_err());
    }

    #[test]
    fn anomaly_flag_parses_and_requires_wire() {
        let cli = parse_strs(&["--wire", "64", "--anomaly"]).unwrap();
        assert!(cli.anomaly);
        let cli = parse_strs(&["--wire", "64"]).unwrap();
        assert!(!cli.anomaly, "adaptive sampling is opt-in");
        // Composes with the chaos harness: detector-under-fire run.
        let cli = parse_strs(&["--wire", "64", "--faults", "7", "--anomaly"]).unwrap();
        assert!(cli.anomaly && cli.faults == Some(7));

        let err = parse_strs(&["--anomaly"]).unwrap_err();
        assert!(
            err.to_string().contains("--wire"),
            "points at the fix: {err}"
        );
    }

    #[test]
    fn unknown_experiments_and_flags_are_rejected() {
        assert!(parse_strs(&["table9"]).is_err());
        assert!(parse_strs(&["--frobnicate"]).is_err());
        assert!(parse_strs(&["table1", "bogus"]).is_err());
    }

    #[test]
    fn frame_flag_selects_the_wire_format() {
        // The wire has one sample encoding (planar): `--wire N` alone
        // selects it, and the retired `--frame` selector is an unknown
        // flag whatever its operand, not a silently ignored one.
        assert!(parse_strs(&["--wire", "64"]).is_ok());
        for operand in ["planar", "varint"] {
            let err = parse_strs(&["--wire", "64", "--frame", operand]).unwrap_err();
            assert!(
                err.to_string().contains("--frame"),
                "names the rejected flag: {err}"
            );
        }
        assert!(parse_strs(&["--wire", "64", "--frame"]).is_err());
    }

    #[test]
    fn all_expands_to_everything_but_slow_sweeps() {
        let cli = parse_strs(&["all"]).unwrap();
        assert!(cli.wanted.contains("table1"));
        assert!(cli.wanted.contains("shape"));
        assert!(!cli.wanted.contains("ablate"));
        assert!(!cli.wanted.contains("selection"));
        assert_eq!(cli.wanted.len(), 12);
    }

    #[test]
    fn quick_keeps_seed_and_out_dir() {
        let cli = parse_strs(&["--seed", "42", "--out", "/tmp/x", "--quick", "shape"]).unwrap();
        assert_eq!(cli.cfg.seed, 42);
        assert_eq!(cli.cfg.out_dir, std::path::PathBuf::from("/tmp/x"));
        assert!(cli.cfg.trace_seconds < ExperimentConfig::default().trace_seconds);
    }

    #[test]
    fn empty_invocation_requests_nothing() {
        let cli = parse_strs(&[]).unwrap();
        assert!(!cli.requests_something());
        assert!(parse_strs(&["-h"]).unwrap().help);
    }
}
