//! Per-layer measurements for the traced run: replays through each
//! layer's public functions at a workload's shape, and counters read
//! from the program's own exports (`Client::stats` JSON of servers and
//! the router).

use crate::stats::median;
use dataset::{DistanceKind, PointSet};
use gsknn_core::model::Approach;
use gsknn_core::obs::Phase;
use gsknn_core::{
    FusedScalar, Gsknn, GsknnConfig, GsknnScalar, KernelStats, MachineParams, Model, ProblemSize,
};
use gsknn_serve::wire::{self, QueryBody};
use gsknn_serve::{Precision, Request, Response, Status};
use knn_select::{Neighbor, NeighborTable};
use serde_json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sums over replayed kernel calls, possibly of both precisions.
#[derive(Default, Debug, Clone)]
pub struct KernelReplay {
    /// Useful flops per call, summed over the precisions replayed.
    pub flops: f64,
    /// Median wall seconds per call, summed over precisions.
    pub wall_s: f64,
    /// Mean seconds per call and phase ([`Phase::ALL`] order), summed.
    pub phase_s: [f64; 5],
    /// Kernel counters over every replayed call.
    pub stats: KernelStats,
    /// The §2.6 model's prediction per call, joined to the phases:
    /// pack R, pack Q, rank-dc (compute `Tf + To` plus `C` traffic),
    /// heap, and the whole call.
    pub predicted_s: [f64; 5],
}

impl KernelReplay {
    /// Replay `xq[q] × xr[r]` through [`Gsknn::run_cross`] for about
    /// `budget` (at least three calls) and fold it into the sums. The
    /// model uses the machine constants the program itself plans with.
    #[allow(clippy::too_many_arguments)]
    pub fn add<T: FusedScalar>(
        &mut self,
        cfg: GsknnConfig,
        xq: &PointSet<T>,
        q: &[usize],
        xr: &PointSet<T>,
        r: &[usize],
        k: usize,
        budget: Duration,
    ) {
        let mut exec = Gsknn::<T>::new(cfg);
        let mut walls = Vec::new();
        let mut phases = [0.0; 5];
        let start = Instant::now();
        while walls.len() < 3 || start.elapsed() < budget {
            let t = Instant::now();
            black_box(exec.run_cross(xq, q, xr, r, k, DistanceKind::SqL2));
            walls.push(t.elapsed().as_secs_f64());
            let ph = exec.last_phases();
            for (acc, p) in phases.iter_mut().zip(Phase::ALL) {
                *acc += ph.seconds(p);
            }
            self.stats.merge(&exec.last_stats());
        }
        let calls = walls.len() as f64;
        for (sum, p) in self.phase_s.iter_mut().zip(phases) {
            *sum += p / calls;
        }
        self.wall_s += median(&walls);

        let ps = ProblemSize {
            m: q.len(),
            n: r.len(),
            d: xq.dim(),
            k,
        };
        let model = Model::new(MachineParams::ivy_bridge_1core().for_scalar::<T>());
        let terms = model.tm_terms(&ps, Approach::Var1);
        let term = |name: &str| {
            terms
                .iter()
                .filter(|(t, _)| *t == name)
                .map(|&(_, v)| v)
                .sum::<f64>()
        };
        self.flops += model.flops(&ps);
        self.predicted_s[0] += term("pack Rc + R2c");
        self.predicted_s[1] += term("pack Qc + Qc2 (per jc block)");
        self.predicted_s[2] += model.t_compute(&ps) + term("Cc rank-dc spill") + term("store C");
        self.predicted_s[3] += term("heap (binary, random access)");
        self.predicted_s[4] += model.predict(&ps, Approach::Var1);
    }

    /// `(name, value)` rows of the `core.*` metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let pct = |s: f64| ratio(100.0 * s, self.wall_s);
        let [pack_r, pack_q, rank_dc, select, writeback] = self.phase_s;
        vec![
            ("core.gflops", ratio(self.flops, self.wall_s) / 1e9),
            ("core.pack_r_pct", pct(pack_r)),
            ("core.pack_q_pct", pct(pack_q)),
            ("core.rank_dc_pct", pct(rank_dc)),
            ("core.select_pct", pct(select)),
            ("core.writeback_pct", pct(writeback)),
            ("core.selection_rate", self.stats.selection_rate()),
            ("core.drift.pack_r", ratio(pack_r, self.predicted_s[0])),
            ("core.drift.pack_q", ratio(pack_q, self.predicted_s[1])),
            ("core.drift.rank_dc", ratio(rank_dc, self.predicted_s[2])),
            ("core.drift.heap", ratio(select, self.predicted_s[3])),
            (
                "core.drift.compute",
                ratio(self.wall_s, self.predicted_s[4]),
            ),
        ]
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer with no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median microseconds of `f` over about `budget` (at least 11 calls).
pub fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 11 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// A neighbour table of `rows` cast to `T`.
pub fn table_of<T: GsknnScalar>(rows: &[Vec<Neighbor<f64>>], k: usize) -> NeighborTable<T> {
    let mut t = NeighborTable::new(rows.len(), k);
    for (i, row) in rows.iter().enumerate() {
        let cast: Vec<Neighbor<T>> = row.iter().map(|n| n.cast()).collect();
        t.set_row(i, &cast);
    }
    t
}

/// Client-side wire cost of one of the workload's requests in precision
/// `T`: `(encode_us, decode_us)` — encoding the query frame, and
/// decoding the reply frame and its neighbour table.
pub fn wire_replay<T: GsknnScalar>(
    coords: &[f64],
    d: usize,
    rows: &[Vec<Neighbor<f64>>],
    k: usize,
    budget: Duration,
) -> (f64, f64) {
    let precision = if T::BYTES == 4 {
        Precision::F32
    } else {
        Precision::F64
    };
    let req = Request::Query(QueryBody {
        precision,
        k,
        deadline_ms: 50,
        trace_id: 1,
        dim: d,
        m: rows.len(),
        coords: coords.to_vec(),
    });
    let body = table_of::<T>(rows, k).to_bytes().to_vec();
    let reply = wire::encode_response(&Response {
        status: Status::Ok,
        trace_id: 1,
        body,
    });
    let encode = time_us(budget, || {
        black_box(wire::encode_request(black_box(&req)));
    });
    let decode = time_us(budget, || {
        let resp = wire::decode_response(black_box(&reply)).expect("own reply decodes");
        black_box(NeighborTable::<T>::from_bytes(&resp.body).expect("own table decodes"));
    });
    (encode, decode)
}

/// Median microseconds of `knn_select::merge_partial_tables` over the
/// given partials (one table per partition).
pub fn merge_replay<T: GsknnScalar>(parts: &[NeighborTable<T>], k: usize, budget: Duration) -> f64 {
    let refs: Vec<&NeighborTable<T>> = parts.iter().collect();
    time_us(budget, || {
        black_box(knn_select::merge_partial_tables(black_box(&refs), k));
    })
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Cumulative counters of one server's `Stats` JSON.
#[derive(Default, Debug, Clone, Copy, PartialEq)]
pub struct ServeCounters {
    pub queries: f64,
    pub batches: f64,
    pub busy: f64,
    pub flush_model: f64,
    pub flush_deadline: f64,
    pub measured_s: f64,
    pub predicted_s: f64,
    /// Requests answered `ok`, and their summed server-side latency.
    pub ok_count: f64,
    pub ok_sum_ns: f64,
}

impl ServeCounters {
    /// Parse a `Client::stats` body.
    pub fn parse(json: &str) -> Result<Self, String> {
        let v = serde_json::from_str(json).map_err(|e| format!("stats JSON: {e:?}"))?;
        let (mut ok_count, mut ok_sum_ns) = (0.0, 0.0);
        for row in v
            .get("latency")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            if row.get("status").and_then(Value::as_str) == Some("ok") {
                ok_count += num(row, "count");
                ok_sum_ns += num(row, "sum_ns");
            }
        }
        Ok(ServeCounters {
            queries: num(&v, "queries"),
            batches: num(&v, "batches"),
            busy: num(&v, "busy"),
            flush_model: num(&v, "flush_model"),
            flush_deadline: num(&v, "flush_deadline"),
            measured_s: num(&v, "measured_s"),
            predicted_s: num(&v, "predicted_s"),
            ok_count,
            ok_sum_ns,
        })
    }

    /// Counter growth from `before` to `self`, summed over servers.
    pub fn growth(after: &[Self], before: &[Self]) -> Self {
        let mut g = ServeCounters::default();
        for (a, b) in after.iter().zip(before) {
            g.queries += a.queries - b.queries;
            g.batches += a.batches - b.batches;
            g.busy += a.busy - b.busy;
            g.flush_model += a.flush_model - b.flush_model;
            g.flush_deadline += a.flush_deadline - b.flush_deadline;
            g.measured_s += a.measured_s - b.measured_s;
            g.predicted_s += a.predicted_s - b.predicted_s;
            g.ok_count += a.ok_count - b.ok_count;
            g.ok_sum_ns += a.ok_sum_ns - b.ok_sum_ns;
        }
        g
    }

    /// Mean server-side latency of an `ok` request, µs.
    pub fn server_us(&self) -> f64 {
        ratio(self.ok_sum_ns, self.ok_count) / 1e3
    }

    /// Mean kernel wall time of a batch, µs.
    pub fn kernel_us(&self) -> f64 {
        ratio(self.measured_s, self.batches) * 1e6
    }

    /// `(name, value)` rows of the `serve.*` counter metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let steady = self.flush_model + self.flush_deadline;
        vec![
            ("serve.server_us", self.server_us()),
            (
                "serve.kernel_us",
                ratio(self.measured_s, self.batches) * 1e6,
            ),
            ("serve.batch_m_mean", ratio(self.queries, self.batches)),
            (
                "serve.flush_deadline_frac",
                ratio(self.flush_deadline, steady),
            ),
            ("serve.flush_model_frac", ratio(self.flush_model, steady)),
            (
                "serve.batch_drift",
                ratio(self.measured_s, self.predicted_s),
            ),
            ("serve.refused", self.busy),
        ]
    }
}

/// Cumulative counters of the router's `Stats` JSON.
#[derive(Default, Debug, Clone, Copy, PartialEq)]
pub struct RouterCounters {
    pub queries: f64,
    pub hedges: f64,
    pub failovers: f64,
    /// Stage nanoseconds: network, backend wait, kernel, merge.
    pub stages_ns: [f64; 4],
}

impl RouterCounters {
    /// Parse a router's `Client::stats` body.
    pub fn parse(json: &str) -> Result<Self, String> {
        let v = serde_json::from_str(json).map_err(|e| format!("router stats JSON: {e:?}"))?;
        let stages = v.get("stages").ok_or("router stats without stages")?;
        Ok(RouterCounters {
            queries: num(&v, "queries"),
            hedges: num(&v, "hedges"),
            failovers: num(&v, "replica_failovers"),
            stages_ns: [
                num(stages, "network_ns"),
                num(stages, "backend_wait_ns"),
                num(stages, "kernel_ns"),
                num(stages, "merge_ns"),
            ],
        })
    }

    /// Counter growth from `before` to `self`.
    pub fn growth(&self, before: &Self) -> Self {
        let mut stages_ns = self.stages_ns;
        for (s, b) in stages_ns.iter_mut().zip(before.stages_ns) {
            *s -= b;
        }
        RouterCounters {
            queries: self.queries - before.queries,
            hedges: self.hedges - before.hedges,
            failovers: self.failovers - before.failovers,
            stages_ns,
        }
    }

    /// Mean routed time of a query (sum of the four stages), µs.
    pub fn routed_us(&self) -> f64 {
        ratio(self.stages_ns.iter().sum(), self.queries) / 1e3
    }

    /// `(name, value)` rows of the `router.*` metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let total: f64 = self.stages_ns.iter().sum();
        let pct = |i: usize| ratio(100.0 * self.stages_ns[i], total);
        vec![
            ("router.network_pct", pct(0)),
            ("router.backend_wait_pct", pct(1)),
            ("router.kernel_pct", pct(2)),
            ("router.merge_pct", pct(3)),
            ("router.hedges_per_query", ratio(self.hedges, self.queries)),
            ("router.failovers", self.failovers),
        ]
    }
}

/// How far the blocking-path layer times fall short of the end-to-end
/// time they should add up to, in percent of it (negative: they
/// overshoot it).
pub fn ledger_gap_pct(e2e: f64, layers: &[f64]) -> f64 {
    ratio(100.0 * (e2e - layers.iter().sum::<f64>()), e2e)
}

/// The bound on `|ledger.gap_pct|` the benchmark's tests hold each
/// workload to.
pub const LEDGER_BOUND_PCT: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sums() {
        assert_eq!(ledger_gap_pct(100.0, &[60.0, 30.0, 10.0]), 0.0);
        assert!((ledger_gap_pct(100.0, &[60.0, 30.0]) - 10.0).abs() < 1e-12);
        assert!((ledger_gap_pct(100.0, &[60.0, 50.0]) + 10.0).abs() < 1e-12);
        assert_eq!(ledger_gap_pct(0.0, &[1.0]), 0.0);
    }

    #[test]
    fn counters_grow_by_difference() {
        let json = |q: u64, ns: u64| {
            format!(
                r#"{{"queries":{q},"batches":2,"busy":0,"flush_model":1,"flush_deadline":1,
                "measured_s":0.5,"predicted_s":0.25,
                "latency":[{{"lane":"f64","status":"ok","count":{q},"sum_ns":{ns}}},
                           {{"lane":"f64","status":"busy","count":5,"sum_ns":9}}]}}"#
            )
        };
        let before = ServeCounters::parse(&json(4, 4000)).unwrap();
        let after = ServeCounters::parse(&json(10, 16000)).unwrap();
        let g = ServeCounters::growth(&[after], &[before]);
        assert_eq!(g.queries, 6.0);
        assert_eq!(g.batches, 0.0);
        assert_eq!(g.server_us(), 2.0);
        assert_eq!(after.server_us(), 1.6);
    }

    #[test]
    fn kernel_replay_reports_every_core_metric() {
        let x = dataset::uniform(300, 8, 5);
        let ids: Vec<usize> = (0..300).collect();
        let mut r = KernelReplay::default();
        r.add(
            GsknnConfig::default(),
            &x,
            &ids[..40],
            &x,
            &ids,
            4,
            Duration::ZERO,
        );
        let m = r.metrics();
        assert_eq!(m.len(), 12);
        assert!(m.iter().all(|(_, v)| v.is_finite()));
        assert!(r.flops > 0.0 && r.wall_s > 0.0);
        assert!(
            r.predicted_s.iter().all(|&p| p > 0.0),
            "{:?}",
            r.predicted_s
        );
    }
}
