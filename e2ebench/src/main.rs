//! `e2ebench --workload <recurring|tpcds|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit on standard error and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when any output or fingerprint
//! check fails. `--workload all` runs every workload with tracing off and
//! on, each in its own process, and prints each run's table and line.

use std::path::Path;
use std::process::ExitCode;

use e2ebench::jobs::Stream;
use e2ebench::run::{run, Sizing};

struct Args {
    /// `None` runs every workload.
    stream: Option<Stream>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut stream = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                stream = Some(match value.as_str() {
                    "recurring" => Some(Stream::Recurring),
                    "tpcds" => Some(Stream::Tpcds),
                    "all" => None,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be a whole number from 1 to 600")?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        stream: stream.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        traced: traced.unwrap_or(false),
    })
}

/// Runs every workload, untraced then traced, each as a child process of
/// this binary; fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for stream in [Stream::Recurring, Stream::Tpcds] {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", stream.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(stream) = args.stream else {
        return run_all(&args);
    };
    let sizing = Sizing::for_run(stream, args.seconds);
    eprintln!(
        "e2ebench: workload {} seed {} trace {} ({sizing:?})",
        stream.name(),
        args.seed,
        u8::from(args.traced)
    );
    let state_dir = Path::new(".bench_state");
    let result = run(stream, args.seed, sizing, args.traced, state_dir);
    // Each run removes its own state; drop the parent once it is empty.
    let _ = std::fs::remove_dir(state_dir);
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    eprint!("{}", result.table());
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2ebench: {} of {} jobs or requests failed or returned wrong outputs",
            result.failed, result.attempted
        );
        ExitCode::from(1)
    }
}
