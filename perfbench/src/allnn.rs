//! `allnn`: offline all-nearest-neighbours, `rkdt::AllNnSolver` with
//! `GsknnLeaf<f64>` leaves on `dataset::gaussian_embedded` points — the
//! paper's Table 1 integration. Solves of the whole point set repeat for
//! the run's length; the operation whose latency is reported is one leaf
//! kernel call, hundreds of which make up a solve, so a run holds enough
//! of them for a median and a tail percentile.

use crate::layers::{ledger_gap_pct, ratio, KernelReplay};
use crate::oracle::brute_force_rows;
use crate::stats::{median, peak_rss_mb, tail};
use crate::{Counts, Record, RunResult};
use dataset::{gaussian_embedded, DistanceKind, PointSet};
use gsknn_core::GsknnConfig;
use knn_select::Neighbor;
use knn_select::NeighborTable;
use rkdt::{build_leaf_partition, AllNnSolver, GsknnLeaf, LeafKernel, RkdtConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Problem size of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n: usize,
    pub d: usize,
    pub k: usize,
    pub leaf: usize,
    pub iterations: usize,
    /// Gaussian clusters in the latent space (Table 1 uses 8).
    pub clusters: usize,
    /// Points whose recall is checked against brute force.
    pub sample: usize,
    /// Recall below this fails the solve.
    pub recall_floor: f64,
}

/// The measured size: N = 100 000, d = 64, k = 16, leaf 2048, 3 trees.
pub const FULL: Shape = Shape {
    n: 100_000,
    d: 64,
    k: 16,
    leaf: 2048,
    iterations: 3,
    clusters: 8,
    sample: 256,
    recall_floor: 0.75,
};

/// A size that runs in well under a second.
pub const SMOKE: Shape = Shape {
    n: 4_000,
    d: 64,
    k: 16,
    leaf: 256,
    iterations: 3,
    clusters: 8,
    sample: 64,
    recall_floor: 0.75,
};

/// Times the set-up is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// `GsknnLeaf` with the wall time of every leaf call recorded.
struct TimedLeaf<'a> {
    inner: GsknnLeaf<f64>,
    times: &'a Mutex<Vec<f64>>,
}

impl LeafKernel<f64> for TimedLeaf<'_> {
    fn update_bucket(
        &mut self,
        x: &PointSet,
        q_ids: &[usize],
        r_ids: &[usize],
        local: &mut NeighborTable<f64>,
    ) {
        let t = Instant::now();
        self.inner.update_bucket(x, q_ids, r_ids, local);
        let dt = t.elapsed().as_secs_f64();
        self.times.lock().expect("no leaf panicked").push(dt);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Mean recall of the sampled rows `ids` of the solved table against
/// their oracle rows.
fn sample_recall(table: &NeighborTable<f64>, ids: &[usize], want: &[Vec<Neighbor<f64>>]) -> f64 {
    let per_row = ids.iter().zip(want).map(|(&id, truth)| {
        let got = table.row(id);
        let hit = truth
            .iter()
            .filter(|t| got.iter().any(|g| g.idx == t.idx))
            .count();
        hit as f64 / truth.len() as f64
    });
    per_row.sum::<f64>() / ids.len() as f64
}

/// Run the workload for about `seconds` of solving. With `baseline_ms`
/// (the untraced run's `latency_p50_ms`) it is the traced run.
pub fn run(shape: &Shape, seed: u64, seconds: f64, baseline_ms: Option<f64>) -> RunResult {
    let cfg = RkdtConfig {
        leaf_size: shape.leaf,
        iterations: shape.iterations,
        ..RkdtConfig::default()
    };
    let mut setups = Vec::new();
    let mut input: Option<(PointSet, AllNnSolver)> = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let t = Instant::now();
        let x = gaussian_embedded(shape.n, shape.d, shape.clusters, seed);
        let solver = AllNnSolver::new(cfg.clone());
        setups.push(t.elapsed().as_secs_f64());
        input = Some((x, solver));
    }
    let (x, solver) = input.expect("at least one set-up");

    let ids: Vec<usize> = (0..shape.sample)
        .map(|i| i * shape.n / shape.sample)
        .collect();
    let oracle = brute_force_rows(&x, &x, &ids, shape.k);

    // one untimed solve first: the allocator and caches warm up, and the
    // first leaves of a cold process would otherwise set the tail
    let leaf = || GsknnLeaf::<f64>::new(GsknnConfig::default(), DistanceKind::SqL2);
    std::hint::black_box(solver.solve(&x, shape.k, leaf, None));

    let mut counts = Counts::default();
    let (mut walls, mut recalls, mut kernel_s) = (Vec::new(), Vec::new(), Vec::new());
    let leaf_s = Mutex::new(Vec::new());
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= 2 && elapsed + elapsed / walls.len() as f64 > seconds {
            break;
        }
        let t = Instant::now();
        let (table, iters) = solver.solve(
            &x,
            shape.k,
            || TimedLeaf {
                inner: leaf(),
                times: &leaf_s,
            },
            None,
        );
        walls.push(t.elapsed().as_secs_f64());
        kernel_s.push(iters.iter().map(|s| s.kernel_seconds).sum::<f64>());
        let recall = sample_recall(&table, &ids, &oracle);
        counts.attempted += 1;
        if recall >= shape.recall_floor {
            counts.ok += 1;
        } else {
            counts.wrong += 1;
        }
        recalls.push(recall);
    }

    let leaf_s = leaf_s.into_inner().expect("no leaf panicked");
    let solve_s = median(&walls);
    let leaf_p50 = median(&leaf_s);
    let tl = tail(&leaf_s);
    let recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    let mut metrics = vec![
        ("latency_p50_ms", leaf_p50 * 1e3),
        ("latency_p95_ms", tl.value * 1e3),
        (
            "points_per_s",
            shape.n as f64 * walls.len() as f64 / walls.iter().sum::<f64>(),
        ),
        ("recall", recall),
        ("slo_met_frac", counts.ok as f64 / counts.attempted as f64),
        ("setup_s", median(&setups)),
    ];

    if let Some(base_ms) = baseline_ms {
        // the solver's own partitions, rebuilt with the same seeds
        let partition_s = median(
            &(0..3)
                .map(|_| {
                    let t = Instant::now();
                    for it in 0..shape.iterations {
                        std::hint::black_box(build_leaf_partition(
                            &x,
                            shape.leaf,
                            cfg.seed + it as u64,
                        ));
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        let kernel = median(&kernel_s);
        metrics.extend([
            ("rkdt.partition_s", partition_s),
            ("rkdt.kernel_s", kernel),
            ("rkdt.other_s", solve_s - partition_s - kernel),
            (
                "ledger.gap_pct",
                ledger_gap_pct(solve_s, &[partition_s, kernel]),
            ),
            (
                "trace.overhead_pct",
                ratio(100.0 * (leaf_p50 * 1e3 - base_ms), base_ms),
            ),
        ]);
        // the dominant kernel shape: one leaf against itself, gathered
        let leaf = build_leaf_partition(&x, shape.leaf, cfg.seed)
            .into_iter()
            .next()
            .expect("a partition has leaves");
        let mut replay = KernelReplay::default();
        replay.add(
            GsknnConfig::default(),
            &x,
            &leaf,
            &x,
            &leaf,
            shape.k,
            Duration::from_secs(1),
        );
        metrics.extend(replay.metrics());
    }
    metrics.push(("peak_rss_mb", peak_rss_mb()));

    RunResult {
        correct: counts.wrong == 0,
        record: Record {
            workload: "allnn",
            seed,
            traced: baseline_ms.is_some(),
            batch_targets: Vec::new(),
            shards: None,
            counts,
            facts: vec![
                ("solves".into(), walls.len().into()),
                ("solve_s".into(), solve_s.into()),
                ("leaf_calls".into(), leaf_s.len().into()),
                ("tail_pct".into(), tl.pct.into()),
                ("tail_beyond".into(), tl.beyond.into()),
                ("solve_kernel_s".into(), median(&kernel_s).into()),
            ],
        },
        metrics,
    }
}
