//! Command line of one benchmark run:
//!
//! ```text
//! perfbench --workload <allnn|serve-point|routed-batch> --seed <n>
//!           --seconds <s> --trace <0|1> [--baseline-ms <p50>] [--smoke]
//! ```
//!
//! `--trace 1` needs the traced build (`perfbench-traced`) and
//! `--baseline-ms`, the untraced run's `latency_p50_ms` that
//! `trace.overhead_pct` is taken against. `--smoke` shrinks every
//! workload to seconds. The result line is the last line printed.

use crate::{allnn, serve, RunResult};

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub baseline_ms: Option<f64>,
    pub smoke: bool,
}

/// Parse `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        baseline_ms: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--baseline-ms" => args.baseline_ms = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !crate::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            crate::WORKLOADS,
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    if args.trace != args.baseline_ms.is_some() {
        return Err("--trace 1 goes with --baseline-ms, --trace 0 without".into());
    }
    if args.trace && !gsknn_core::obs::enabled() {
        return Err("--trace 1 needs the traced build (kernel probes on)".into());
    }
    Ok(args)
}

/// Run one workload as `args` says.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let (seed, secs, base) = (args.seed, args.seconds, args.baseline_ms);
    match args.workload.as_str() {
        "allnn" => {
            let shape = if args.smoke {
                allnn::SMOKE
            } else {
                allnn::FULL
            };
            Ok(allnn::run(&shape, seed, secs, base))
        }
        name => {
            let shape = if name == "serve-point" {
                serve::SERVE_POINT
            } else {
                serve::ROUTED_BATCH
            };
            let shape = if args.smoke { shape.smoke() } else { shape };
            serve::run(&shape, seed, secs, base)
        }
    }
}

/// Keep freed memory in the process: serve every allocation from the
/// heap and never hand freed pages back to the kernel. With glibc's
/// defaults each repeated set-up returns its megabytes (`allnn`'s 51 MB
/// data set, the serving indexes' few MB) and faults them in again, and
/// on a virtual machine that page-fault cost swings with the host's load
/// far more than the set-up work does. Allocations a program repeats at
/// 32 MB or less are kept by glibc's own adaptive thresholds anyway.
fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: mallopt only sets allocator tunables, and runs before
        // the process starts any thread.
        let ok = unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_MAX, 0) == 1 };
        assert!(ok, "mallopt refused the retention settings");
    }
}

/// Entry point of both builds; returns the process exit code.
pub fn main() -> i32 {
    retain_freed_memory();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(|a| run(&a)) {
        Ok(result) => {
            result.print();
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        let a = parse(&argv("--workload allnn --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(a.workload, "allnn");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, false, false)
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload allnn --trace 2")).is_err());
        assert!(parse(&argv("--workload allnn --trace 0 --baseline-ms 3")).is_err());
        assert!(parse(&argv("--workload allnn --seconds 0")).is_err());
        assert!(parse(&argv("--workload allnn --seed")).is_err());
    }
}
