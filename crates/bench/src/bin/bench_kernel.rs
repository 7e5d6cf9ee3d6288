//! Persisted kernel-GFLOPS trajectory: time the fused GSKNN kernel and
//! the GEMM+heap reference over a fixed grid of (m, n, d, k) shapes in
//! both precisions, and append the results to a repo-root
//! `BENCH_kernel.json` so successive PRs can compare performance against
//! history instead of a vibe. The metric is the paper's
//! `(2d+3)·m·n / T` GFLOPS. Each run records whether the kernel's phase
//! probes were compiled in (`probes`, from `gsknn_core::obs::enabled()`):
//! the default build ships without them, and `--features gsknn-core/obs`
//! builds a slower, instrumented kernel that `bench-diff` gates only
//! against runs of its own kind.
//!
//! Flags:
//! * `--smoke`   — tiny shapes (CI: proves the harness runs, not perf)
//! * `--reps N`  — timing repetitions, best-of (default 3)
//! * `--out F`   — output path (default `<repo root>/BENCH_kernel.json`)

use bench::{best_of, gflops, print_table};
use dataset::DistanceKind;
use gemm_kernel::GemmScalar;
use gsknn_core::{FusedScalar, GemmParams, Gsknn, GsknnConfig, MachineParams};
use gsknn_obs::roofline::{classify, RooflineInputs};
use knn_ref::GemmKnn;
use serde_json::Value;
use std::path::PathBuf;

/// Default output path: the repository root, resolved relative to this
/// crate so the file lands in the same place regardless of the cwd.
fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json")
}

struct Args {
    smoke: bool,
    reps: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        reps: 3,
        out: default_out(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--reps" => {
                out.reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out.out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    out
}

fn usage() -> ! {
    eprintln!("usage: bench_kernel [--smoke] [--reps N] [--out F]");
    std::process::exit(2);
}

/// One measured cell of the grid.
struct Row {
    m: usize,
    n: usize,
    d: usize,
    k: usize,
    precision: &'static str,
    kernel: &'static str,
    seconds: f64,
    gflops: f64,
    /// Roofline bound class against the §2.6 asymptotes (an offline run
    /// has no coalescer, so this is compute vs bandwidth).
    bound: &'static str,
    /// Predicted asymptote over achieved rate on the binding resource.
    headroom: f64,
}

impl Row {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "m": self.m, "n": self.n, "d": self.d, "k": self.k,
            "precision": self.precision, "kernel": self.kernel,
            "seconds": self.seconds, "gflops": self.gflops,
            "bound": self.bound, "headroom": self.headroom,
        })
    }
}

/// Classify one timed shape against the scalar-rescaled machine model:
/// achieved flops/s and bytes/s (the model's slow-memory element count —
/// pack R `nd + 2n`, pack Q `dm + 2m`, writeback `mk`) versus the
/// asymptotes `τf` and `1/τb`.
fn classify_row(
    m: usize,
    n: usize,
    d: usize,
    k: usize,
    elem_bytes: usize,
    machine: &MachineParams,
    seconds: f64,
) -> (&'static str, f64) {
    let flops = (2 * d + 3) as f64 * m as f64 * n as f64;
    let elems = (n * d + 2 * n + d * m + 2 * m + m * k) as f64;
    let v = classify(&RooflineInputs {
        flops,
        bytes: elems * elem_bytes as f64,
        measured_s: seconds,
        mem_phase_s: 0.0,
        compute_phase_s: 0.0,
        peak_flops_per_s: machine.tau_f,
        peak_bytes_per_s: elem_bytes as f64 / machine.tau_b,
        batch_m: m,
        target_m: 0,
        deadline_flush: false,
        backlog: 0,
    });
    (v.class.name(), v.headroom)
}

/// Time the fused kernel and the GEMM reference for one shape in one
/// precision. The executors are constructed once and reused across reps,
/// so the packing workspaces are warm — this measures the kernel, not
/// the allocator.
fn bench_shape<T: FusedScalar + GemmScalar>(
    x64: &dataset::PointSet,
    m: usize,
    n: usize,
    d: usize,
    k: usize,
    reps: usize,
) -> Vec<Row> {
    let x = x64.cast::<T>();
    let q: Vec<usize> = (0..m).collect();
    let r: Vec<usize> = (0..n).collect();

    let mut exec = Gsknn::<T>::new(GsknnConfig::for_scalar::<T>());
    let t_fused = best_of(reps, || {
        std::hint::black_box(exec.run(&x, &q, &r, k, DistanceKind::SqL2));
    });

    let mut gemm = GemmKnn::<T>::new(GemmParams::native_for::<T>(), false);
    let t_gemm = best_of(reps, || {
        std::hint::black_box(gemm.run(&x, &q, &r, k));
    });

    let machine = MachineParams::ivy_bridge_1core().for_scalar::<T>();
    [("fused", t_fused), ("gemm", t_gemm)]
        .into_iter()
        .map(|(kernel, t)| {
            let seconds = t.as_secs_f64();
            let (bound, headroom) = classify_row(m, n, d, k, T::BYTES, &machine, seconds);
            Row {
                m,
                n,
                d,
                k,
                precision: <T as gsknn_core::GsknnScalar>::NAME,
                kernel,
                seconds,
                gflops: gflops(m, n, d, t),
                bound,
                headroom,
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    // The trajectory grid is fixed on purpose: changing it would break
    // comparability across PRs. d ≥ 64 rows are the ones the f32-speedup
    // acceptance gate reads.
    let shapes: Vec<(usize, usize, usize, usize)> = if args.smoke {
        vec![(256, 256, 16, 8), (256, 256, 64, 8)]
    } else {
        vec![
            (4096, 4096, 16, 16),
            (4096, 4096, 64, 16),
            (4096, 4096, 256, 16),
        ]
    };

    let mut rows: Vec<Row> = Vec::new();
    for &(m, n, d, k) in &shapes {
        let x64 = dataset::uniform(m.max(n), d, 2026);
        rows.extend(bench_shape::<f64>(&x64, m, n, d, k, args.reps));
        rows.extend(bench_shape::<f32>(&x64, m, n, d, k, args.reps));
        eprintln!("measured m={m} n={n} d={d} k={k}");
    }

    // Per-shape fused f32-over-f64 speedup — the headline number.
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for &(m, n, d, k) in &shapes {
        let find = |precision: &str| {
            rows.iter()
                .find(|r| {
                    r.m == m
                        && r.d == d
                        && r.k == k
                        && r.precision == precision
                        && r.kernel == "fused"
                })
                .map(|r| r.gflops)
        };
        if let (Some(g32), Some(g64)) = (find("f32"), find("f64")) {
            speedups.push((format!("m{m}_n{n}_d{d}_k{k}"), g32 / g64));
        }
    }

    let mut table = Vec::new();
    for r in &rows {
        table.push(vec![
            format!("{}x{}", r.m, r.n),
            r.d.to_string(),
            r.k.to_string(),
            r.precision.to_string(),
            r.kernel.to_string(),
            format!("{:.1}", r.seconds * 1e3),
            format!("{:.2}", r.gflops),
            r.bound.to_string(),
            format!("{:.2}", r.headroom),
        ]);
    }
    print_table(
        "kernel GFLOPS trajectory",
        &[
            "m x n", "d", "k", "prec", "kernel", "ms", "GFLOPS", "bound", "headroom",
        ],
        &table,
    );
    for (shape, s) in &speedups {
        println!("fused f32/f64 speedup @ {shape}: {s:.2}x");
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let run = serde_json::json!({
        "unix_time": unix_time,
        "smoke": args.smoke,
        "reps": args.reps,
        "probes": gsknn_core::obs::enabled(),
        "rows": (Value::Array(rows.iter().map(Row::to_json).collect())),
        "fused_f32_over_f64": (Value::Object(
            speedups
                .iter()
                .map(|(shape, s)| (shape.clone(), Value::from(*s)))
                .collect(),
        )),
    });

    // Append to the existing trajectory when the file already holds one
    // (and start fresh on a missing or malformed file).
    let mut doc = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .filter(|v: &Value| matches!(v.get("runs"), Some(Value::Array(_))))
        .unwrap_or_else(|| {
            serde_json::json!({
                "benchmark": "kernel",
                "metric": "(2d+3)*m*n / seconds / 1e9",
                "runs": [],
            })
        });
    if let Value::Object(members) = &mut doc {
        if let Some((_, Value::Array(runs))) = members.iter_mut().find(|(k, _)| k == "runs") {
            runs.push(run);
        }
    }
    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&args.out, doc.to_string_pretty()).expect("write BENCH_kernel.json");
    println!("trajectory appended to {}", args.out.display());
}
