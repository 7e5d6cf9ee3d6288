//! The repository benchmark. Three workloads drive the public APIs of
//! `rkdt`, `gsknn-serve` and `gsknn-router` from one process:
//!
//! * `allnn` — the paper's Table 1 integration, offline all-nearest-
//!   neighbours with GSKNN leaves inside the randomized-KD-tree solver;
//! * `serve-point` — single-point queries against one exact server;
//! * `routed-batch` — 256-point batches through a router over two
//!   partitioned backends.
//!
//! An untraced run reports the [`END_TO_END`] metrics; a traced run
//! (the `perfbench-traced` build, kernel and serve probes on) reports
//! the [`PER_LAYER`] ledger. `README.md` in this directory holds the
//! workload table and which layer metric should move which end-to-end
//! metric.

pub mod allnn;
pub mod cli;
mod layers;
mod oracle;
pub mod serve;
mod stats;

pub use layers::LEDGER_BOUND_PCT;

use serde_json::Value;

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("points_per_s", "1/s"),
    ("recall", "fraction"),
    ("slo_met_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run. A
/// layer the workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.gflops", "GFLOP/s"),
    ("core.pack_r_pct", "%"),
    ("core.pack_q_pct", "%"),
    ("core.rank_dc_pct", "%"),
    ("core.select_pct", "%"),
    ("core.writeback_pct", "%"),
    ("core.selection_rate", "fraction"),
    ("core.drift.pack_r", "ratio"),
    ("core.drift.pack_q", "ratio"),
    ("core.drift.rank_dc", "ratio"),
    ("core.drift.heap", "ratio"),
    ("core.drift.compute", "ratio"),
    ("rkdt.partition_s", "s"),
    ("rkdt.kernel_s", "s"),
    ("rkdt.other_s", "s"),
    ("select.merge_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("net.residual_us", "us"),
    ("serve.server_us", "us"),
    ("serve.coalesce_wait_us", "us"),
    ("serve.kernel_us", "us"),
    ("serve.batch_m_mean", "count"),
    ("serve.flush_deadline_frac", "fraction"),
    ("serve.flush_model_frac", "fraction"),
    ("serve.batch_drift", "ratio"),
    ("serve.refused", "count"),
    ("router.network_pct", "%"),
    ("router.backend_wait_pct", "%"),
    ("router.kernel_pct", "%"),
    ("router.merge_pct", "%"),
    ("router.hedges_per_query", "ratio"),
    ("router.failovers", "count"),
    ("ledger.gap_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["allnn", "serve-point", "routed-batch"];

/// Requests of one run by how they ended. Every request is attempted
/// and ends exactly one way; `slow` further marks `ok` replies that took
/// longer than the latency limit.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub ok: u64,
    pub slow: u64,
    pub busy: u64,
    pub timed_out: u64,
    pub degraded: u64,
    pub wrong: u64,
    pub errors: u64,
}

impl Counts {
    /// Requests that did not end with a correct answer.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Fold another tally in.
    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.slow += o.slow;
        self.busy += o.busy;
        self.timed_out += o.timed_out;
        self.degraded += o.degraded;
        self.wrong += o.wrong;
        self.errors += o.errors;
    }

    fn to_json(self) -> Value {
        Value::Object(vec![
            ("attempted".into(), self.attempted.into()),
            ("ok".into(), self.ok.into()),
            ("slow".into(), self.slow.into()),
            ("busy".into(), self.busy.into()),
            ("timed_out".into(), self.timed_out.into()),
            ("degraded".into(), self.degraded.into()),
            ("wrong".into(), self.wrong.into()),
            ("errors".into(), self.errors.into()),
        ])
    }
}

/// What every run records alongside its numbers.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Per-lane model batch targets of the (first) server; empty when no
    /// server runs.
    pub batch_targets: Vec<(String, usize)>,
    /// Resolved shard count per server; `None` when no server runs.
    pub shards: Option<usize>,
    pub counts: Counts,
    /// Free-form `(key, value)` facts, e.g. the tail percentile used.
    pub facts: Vec<(String, Value)>,
}

impl Record {
    fn to_json(&self) -> Value {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut fields = vec![
            ("workload".into(), self.workload.into()),
            ("seed".into(), self.seed.into()),
            ("traced".into(), self.traced.into()),
            ("probes".into(), gsknn_core::obs::enabled().into()),
            ("simd".into(), simd_level().into()),
            ("nproc".into(), nproc.into()),
            ("shards".into(), self.shards.into()),
            (
                "batch_targets".into(),
                Value::Object(
                    self.batch_targets
                        .iter()
                        .map(|(lane, m)| (lane.clone(), (*m).into()))
                        .collect(),
                ),
            ),
            ("counts".into(), self.counts.to_json()),
        ];
        fields.extend(self.facts.iter().cloned());
        Value::Object(fields)
    }
}

/// The micro-kernel the kernel's `Auto` dispatch resolves to on this
/// machine: the 256-bit kernels when AVX2 and FMA are present, else the
/// portable loops.
fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2";
        }
    }
    "scalar"
}

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every answer checked agreed with the oracle (and `allnn` recall
    /// met its floor).
    pub correct: bool,
    pub record: Record,
    /// `(name, value)` of every metric the run measured.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// A named metric's value, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The metrics of the run's table (end-to-end or per-layer) in table
    /// order, with units. End-to-end metrics must all be measured; a
    /// per-layer metric of a layer the workload does not run is 0.
    pub fn table(&self) -> Vec<(&'static str, f64, &'static str)> {
        let (names, fill): (&[(&str, &str)], bool) = if self.record.traced {
            (&PER_LAYER, true)
        } else {
            (&END_TO_END, false)
        };
        names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or_else(|| {
                    assert!(fill, "end-to-end metric {name} not measured");
                    0.0
                });
                assert!(value.is_finite(), "{name} = {value}");
                (name, value, unit)
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .table()
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), value.into()),
                        ("unit".into(), unit.into()),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), self.correct.into()),
            ("attempted".into(), self.record.counts.attempted.into()),
            ("failed".into(), self.record.counts.failed().into()),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// Human-readable lines (every metric by name with its unit, and the
    /// record), then the result line last.
    pub fn print(&self) {
        for (name, value, unit) in self.table() {
            println!("{:<28} {value:>16.6} {unit}", format!("{name}:"));
        }
        println!("record {}", self.record.to_json());
        println!("{}", self.result_json());
    }
}
