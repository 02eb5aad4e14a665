//! The `perf` binary: `run`, `selfcheck`, `compare` (see README.md).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use noftl_perf::alloc::CountingAlloc;
use noftl_perf::json::Json;
use noftl_perf::run::{run_workload, RunOptions};
use noftl_perf::{compare, selfcheck, stack, suite, workloads};

// Counts every heap allocation of this process, for `allocs_per_op` and
// `alloc_bytes_per_op`.  Only this binary installs it.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  perf run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--spans-out FILE]
      One workload: prints its record, then the result line.  Without
      --workload: every workload, each in a fresh child process, then a
      summary with the cross-workload fidelity checks.
  perf selfcheck
      Shows the suite measures host time: injects a known host cost and
      checks that host metrics move by it and virtual metrics do not.
  perf compare A B [--benchmark BENCHMARK.json]
      Applies the bounds of BENCHMARK.json to two files of run records
      (captured `perf run` output, any number of runs each).
workloads: tpcc_noftl tpcc_faster tpcb_clients_async scan_q1_async trace_replay_gc";

/// `--key value` pairs and positional arguments of one subcommand.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.push((key.to_string(), value.clone()));
        }
        Ok(Self { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v:?} is not a whole number")),
        }
    }

    fn known(&self, keys: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    args.known(&["workload", "seed", "seconds", "trace", "spans-out"])?;
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", 10)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let trace = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    let Some(workload) = args.get("workload") else {
        return run_suite(seed, seconds, trace);
    };
    let opts = RunOptions {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        spans_out: args.get("spans-out").map(PathBuf::from),
    };
    let record = run_workload(&opts)?;
    println!("{}", record.detail.to_line());
    if let Some(e) = &record.error {
        eprintln!("perf: {workload}: check failed: {e}");
    }
    let table: &[suite::Metric] = if trace {
        &suite::PER_LAYER
    } else {
        &suite::END_TO_END
    };
    println!("{}", record.result_line(table));
    Ok(record.correct)
}

/// Every workload in a fresh child process (so `peak_rss_mb` is each
/// workload's own), then the cross-workload summary.
fn run_suite(seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut by_workload: Vec<(String, Json)> = Vec::new();
    for workload in workloads::NAMES {
        let out = Command::new(&exe)
            .args(["run", "--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        all_ok &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            let Ok(json) = Json::parse(line) else {
                continue;
            };
            if json.get("record").and_then(Json::as_str) == Some("perf-run") {
                println!("{line}");
                by_workload.push((workload.to_string(), json));
            }
        }
    }
    let virtual_metric = |workload: &str, metric: &str| {
        by_workload
            .iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, r)| r.get("virtual_metrics")?.get(metric)?.as_f64())
    };
    let mut summary = Json::obj();
    summary
        .set("record", "perf-suite")
        .set("seed", seed)
        .set("seconds", seconds)
        .set("trace", trace)
        .set("workloads_ok", all_ok);
    // The emulator's reference chain: the paper's headline relation between
    // the two stacks must hold on every run of the suite.
    if let (Some(n), Some(f), Some(wn), Some(wf)) = (
        virtual_metric("tpcc_noftl", "tput_v"),
        virtual_metric("tpcc_faster", "tput_v"),
        virtual_metric("tpcc_noftl", "write_amp"),
        virtual_metric("tpcc_faster", "write_amp"),
    ) {
        let tput = n / f;
        let wa = wf / wn;
        let fidelity_ok = tput >= 2.0 && wa > 1.0;
        let mut fidelity = Json::obj();
        fidelity
            .set("tput_v_noftl_over_faster", tput)
            .set(
                "tput_v_noftl_over_faster_expected",
                ">= 2.0 (paper: >= 2.4)",
            )
            .set("write_amp_faster_over_noftl", wa)
            .set("write_amp_faster_over_noftl_expected", "> 1")
            .set("ok", fidelity_ok);
        summary.set("fidelity", fidelity);
        if !fidelity_ok {
            eprintln!("perf: fidelity check failed: tput ratio {tput:.3}, write-amp ratio {wa:.3}");
        }
        all_ok &= fidelity_ok;
    } else {
        all_ok = false;
    }
    println!("{}", summary.to_line());
    Ok(all_ok)
}

fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    args.known(&[])?;
    let report = selfcheck::run()?;
    println!("{}", report.detail.to_line());
    for failure in &report.failures {
        eprintln!("perf selfcheck: {failure}");
    }
    Ok(report.failures.is_empty())
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    args.known(&["benchmark"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let benchmark = args.get("benchmark").unwrap_or("BENCHMARK.json");
    let report = compare::compare(&read(benchmark)?, &read(a)?, &read(b)?)?;
    print!("{}", report.render());
    Ok(!report.has_regression())
}

fn main() -> ExitCode {
    stack::clear_knobs();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "compare" => cmd_compare(&args),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
