//! `holistic_bench` — the repository's benchmark. Four named workloads, each
//! measured end to end (tracing off) and layer by layer (the traced run's
//! layer ladder), every answer checked against an independent oracle.
//!
//! ```text
//! holistic_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! holistic_bench --seed <n>            # every workload, each in a child process
//! ```
//!
//! The last line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. The benchmark measures
//! each layer from outside, through public items only; all sizes, mixes and
//! rates are constants of its source (see `README.md`), no environment
//! variable is read.

mod gen;
mod ladder;
mod oracle;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{Ctx, Metric, Outcome, Res, END_TO_END, PER_LAYER};

/// Seconds a run measures when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where trace files and persistence scratch go, relative to the directory
/// the command runs from.
const OUT_DIR: &str = "holistic_bench_out";

/// Exit code of a run that produced a wrong answer or lost an update.
const EXIT_INCORRECT: u8 = 1;
/// Exit code of a run that could not complete.
const EXIT_ERROR: u8 = 2;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    traced: bool,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        traced: false,
        ctx: Ctx {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            smoke: false,
            out_dir: PathBuf::from(OUT_DIR),
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Res<&String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => parsed.ctx.seed = value("--seed")?.parse()?,
            "--seconds" => {
                parsed.ctx.seconds = value("--seconds")?.parse()?;
                if !parsed.ctx.seconds.is_finite() || parsed.ctx.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--smoke" => parsed.ctx.smoke = true,
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` meaning 1.
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
                )
                .into())
            }
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process: the timed run, or the traced run.
fn run_workload(name: &str, ctx: &Ctx, traced: bool) -> Res<Outcome> {
    let workload = workloads::find(name)?;
    std::fs::create_dir_all(&ctx.out_dir)?;
    println!(
        "{}",
        report::provenance_line(
            name,
            ctx,
            traced,
            (workload.clients)(ctx),
            &(workload.frozen)(ctx)
        )
    );
    let outcome = if traced {
        let input = (workload.ladder_input)(ctx);
        let mut outcome = ladder::run(ctx, &input)?;
        outcome
            .diagnostics
            .extend((workload.traced_extras)(ctx, &input)?);
        outcome.check_metrics(&PER_LAYER)?;
        outcome
    } else {
        let outcome = (workload.run)(ctx)?;
        outcome.check_metrics(&END_TO_END)?;
        outcome
    };
    outcome.print_table(name, traced);
    Ok(outcome)
}

/// Runs every workload, each in its own child process of this executable so
/// memory is per workload, echoing their output; the combined result line
/// prefixes each metric with its workload.
fn run_all(args: &Args) -> Res<Outcome> {
    let exe = std::env::current_exe()?;
    let mut combined = Outcome {
        attempted: 0,
        failed: 0,
        correct: true,
        metrics: Vec::new(),
        diagnostics: Vec::new(),
    };
    for workload in workloads::ALL.map(|w| w.name) {
        let passes: &[bool] = if args.traced {
            &[false, true]
        } else {
            &[false]
        };
        for &traced in passes {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload])
                .args(["--seed", &args.ctx.seed.to_string()])
                .args(["--seconds", &args.ctx.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.ctx.smoke {
                command.arg("--smoke");
            }
            let mut child = command.spawn()?;
            let stdout = child.stdout.take().ok_or("child has no stdout")?;
            let mut last = String::new();
            for line in BufReader::new(stdout).lines() {
                last = line?;
                println!("{last}");
            }
            let status = child.wait()?;
            let result = parse_result_line(&last)
                .ok_or_else(|| format!("{workload}: no result line (exit {status})"))?;
            combined.attempted += result.attempted;
            combined.failed += result.failed;
            combined.correct &= result.correct && status.success();
            combined.metrics.extend(
                result
                    .metrics
                    .into_iter()
                    .map(|m| Metric::owned(format!("{workload}:{}", m.name), m.value, m.unit)),
            );
        }
    }
    Ok(combined)
}

/// Reads back a line written by [`Outcome::result_line`].
fn parse_result_line(line: &str) -> Option<Outcome> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(key)? + key.len()..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let (_, metrics_text) = line.split_once("\"metrics\": {")?;
    let mut metrics = Vec::new();
    for entry in metrics_text
        .split("\"}")
        .filter(|e| e.contains("\"value\":"))
    {
        let name = entry.split('"').nth(1)?.to_string();
        let value = entry
            .split_once("\"value\": ")?
            .1
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = entry.rsplit('"').next()?;
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(_, u)| u)
            .find(|&u| u == unit)?;
        metrics.push(Metric::owned(name, value, unit));
    }
    Some(Outcome {
        attempted: field("\"attempted\": ")?.parse().ok()?,
        failed: field("\"failed\": ")?.parse().ok()?,
        correct: field("\"correct\": ")? == "true",
        metrics,
        diagnostics: Vec::new(),
    })
}

fn run() -> Res<Outcome> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    match &args.workload {
        Some(workload) => run_workload(workload, &args.ctx, args.traced),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("holistic_bench: a wrong answer or a failed durability check");
                ExitCode::from(EXIT_INCORRECT)
            }
        }
        Err(error) => {
            eprintln!("holistic_bench: {error}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{explore_cold, explore_warm, mixed_updates};

    fn smoke_ctx(seed: u64, tag: &str) -> Ctx {
        Ctx {
            seed,
            seconds: 0.0,
            smoke: true,
            out_dir: std::env::temp_dir()
                .join(format!("holistic-bench-smoke-{}-{tag}", std::process::id())),
        }
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "explore.warm",
            "--seed",
            "42",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("explore.warm"));
        assert_eq!(args.ctx.seed, 42);
        assert_eq!(args.ctx.seconds, 8.0);
        assert!(args.traced && !args.ctx.smoke);
        assert!(!parse_args(&strings(&["--trace", "0"])).unwrap().traced);
        assert!(
            parse_args(&strings(&["--trace", "--smoke"]))
                .unwrap()
                .traced
        );
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "-1"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn result_lines_read_back() {
        let outcome = Outcome {
            attempted: 12,
            failed: 1,
            correct: false,
            metrics: vec![
                Metric::new("setup_s", 0.25, "s"),
                Metric::new("throughput_ops", 1234.5, "1/s"),
            ],
            diagnostics: Vec::new(),
        };
        assert_eq!(parse_result_line(&outcome.result_line()), Some(outcome));
        assert_eq!(parse_result_line("no json here"), None);
    }

    /// Counts that must repeat exactly for one seed: everything the traced
    /// run counts below the threads of the service rungs.
    const EXACT_COUNTS: [&str; 3] = [
        "cracking.kernels.dispatches",
        "cracking.kernels.values_swept",
        "cracking.cracker.pieces",
    ];

    /// All four workloads at smoke scale, both runs: every named metric is
    /// emitted, every answer is right, count metrics repeat exactly for one
    /// seed and differ for another.
    #[test]
    fn smoke_run_of_every_workload() {
        for workload in workloads::ALL.map(|w| w.name) {
            let ctx = smoke_ctx(5, workload);
            let timed = run_workload(workload, &ctx, false).unwrap();
            assert!(timed.correct, "{workload}: timed run incorrect");
            assert!(timed.attempted > 0 && timed.failed == 0);
            for (name, _) in END_TO_END {
                let value = timed.metric(name).unwrap();
                assert!(value > 0.0, "{workload}: {name} = {value}");
            }

            let traced = run_workload(workload, &ctx, true).unwrap();
            assert!(traced.correct, "{workload}: traced run incorrect");
            let again = run_workload(workload, &ctx, true).unwrap();
            let other = run_workload(workload, &smoke_ctx(6, workload), true).unwrap();
            for name in EXACT_COUNTS {
                assert_eq!(
                    traced.metric(name),
                    again.metric(name),
                    "{workload}: {name}"
                );
            }
            assert!(
                EXACT_COUNTS
                    .iter()
                    .any(|name| traced.metric(name) != other.metric(name)),
                "{workload}: another seed gave the same counts"
            );
            let trace_file = ctx.out_dir.join(format!("trace.{workload}.json"));
            assert!(std::fs::metadata(&trace_file).unwrap().len() > 0);
            std::fs::remove_dir_all(&ctx.out_dir).unwrap();
            let _ = std::fs::remove_dir_all(smoke_ctx(6, workload).out_dir);
        }
    }

    #[test]
    fn what_each_workload_claims_to_stress_holds_at_smoke_scale() {
        let ctx = smoke_ctx(9, "claims");
        let warm = run_workload(explore_warm::NAME, &ctx, true).unwrap();
        assert_eq!(warm.metric("cracking.kernels.dispatches"), Some(0.0));
        assert_eq!(warm.metric("cracking.cracker.zero_read_ratio"), Some(1.0));
        let cold = run_workload(explore_cold::NAME, &ctx, true).unwrap();
        assert!(cold.metric("cracking.kernels.dispatches").unwrap() > 0.0);
        let mixed = run_workload(mixed_updates::NAME, &ctx, false).unwrap();
        let cycles = mixed
            .diagnostics
            .iter()
            .find(|m| m.name == "snapshot_cycles")
            .unwrap();
        assert!(cycles.value >= 5.0);
        std::fs::remove_dir_all(&ctx.out_dir).unwrap();
    }
}
