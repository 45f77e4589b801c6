//! `simbench` — the repository benchmark.
//!
//! ```text
//! simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE]
//! ```
//!
//! Runs one workload (`paper-suite` or a file under `workloads/`) for
//! about `--seconds` of host time and prints, as the last stdout line, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics — or, with `--trace 1`, the per-layer metrics of the traced
//! pass, whose spans go to FILE as JSON lines (default:
//! `target/trace-NAME.jsonl` in this package). The line before it is
//! `digest NAME HEX`.
//!
//! Exit status: 0 when every output check passed, 1 when one failed, 2
//! for bad arguments, a workload file that does not validate, or a
//! measurement the host cannot provide.

use simbench::report::SpanLog;
use simbench::{output_dir, scenario, suite, workload_path, DEFAULT_SEED, SCENARIO_WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("simbench: {msg}");
    eprintln!(
        "usage: simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE]"
    );
    eprintln!("workloads: paper-suite {}", SCENARIO_WORKLOADS.join(" "));
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut traced = false;
    let mut trace_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match parse_u64(&value) {
                Some(s) => seed = s,
                None => return usage(&format!("bad --seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage(&format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(&format!("bad --trace {value:?} (0 or 1)")),
            },
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("simbench: {workload}, seed {seed:#x}, {cpus} CPUs available");
    let mut spans = SpanLog::default();
    let run = if workload == "paper-suite" {
        if traced {
            Ok(suite::trace(seed, &mut spans))
        } else {
            suite::measure(seed, seconds)
        }
    } else if SCENARIO_WORKLOADS.contains(&workload.as_str()) {
        scenario::load(&workload_path(&workload)).and_then(|w| {
            if traced {
                scenario::trace(&w, seed, &mut spans)
            } else {
                scenario::measure(&w, seed, seconds)
            }
        })
    } else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    let (report, digest) = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if traced {
        let path =
            trace_file.unwrap_or_else(|| output_dir().join(format!("trace-{workload}.jsonl")));
        if let Err(e) = spans.write(&path) {
            eprintln!("simbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "simbench: {} spans -> {}",
            spans.lines().len(),
            path.display()
        );
    }
    println!("digest {workload} {digest:016x}");
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
