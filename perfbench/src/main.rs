//! `tsajs-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric of the run by name with its unit, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero if any correctness check fails.

use std::process::ExitCode;
use tsajs_perfbench::{result_json, run, Report, Scale, Workload, END_TO_END, PER_LAYER};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 11,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn print_table(name: &str, report: &Report, trace: bool) {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "# workload {name} ({} run)",
        if trace { "traced" } else { "untraced" }
    );
    for d in defs {
        let v = report.metrics.get(d.name).copied().unwrap_or(f64::NAN);
        println!("{:<36} {:>16.6} {}", d.name, v, d.unit);
    }
    for (name, (v, unit)) in &report.extra {
        println!("{name:<36} {v:>16.6} {unit} (not in the result line)");
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<36} {:>16.6} ratio ({} of {} operations)",
        "fail_share", share, report.failed, report.attempted
    );
    for (span, (count, total, own)) in &report.span_table {
        println!("span {span:<31} n={count:<7} total={total:>11.3} ms self={own:>11.3} ms");
    }
    for v in report.violations.iter().take(20) {
        println!("CHECK FAILED: {v}");
    }
    if report.violations.len() > 20 {
        println!("CHECK FAILED: … {} more", report.violations.len() - 20);
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: tsajs-perfbench --workload <paper|service|service_city|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full();
    let mut all_correct = true;
    for w in &args.workloads {
        match run(*w, args.seed, args.seconds, args.trace, &scale) {
            Ok(report) => {
                print_table(w.name(), &report, args.trace);
                println!("{}", result_json(&report, args.trace));
                all_correct &= report.correct();
            }
            Err(e) => {
                eprintln!("error: workload {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
