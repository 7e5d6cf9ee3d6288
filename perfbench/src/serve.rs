//! The two serving workloads, both closed loops: each connection sends
//! its next request only after the previous reply, as `Client::query`
//! does, and precision alternates f64/f32 request by request.
//!
//! * `serve-point` — one exact single-node server (8192 uniform refs,
//!   d = 16, one tree with leaf ≥ n), two connections, m = 1, k = 8,
//!   deadline 200 ms.
//! * `routed-batch` — the same refs split over two `partition i/2`
//!   backends behind one `Router`, two connections, m = 256, k = 8,
//!   deadline 1 s, latency limit 50 ms.
//!
//! The deadlines leave room for the host's scheduling stalls, so that no
//! request of a healthy run times out or comes back degraded (at 50 ms a
//! few per run did; see `README.md`).
//!
//! Servers and the router run with `ServerConfig::default()` and
//! `RouterConfig::default()` plus deployment settings only: address,
//! index shape and partition map.

use crate::layers::{
    ledger_gap_pct, merge_replay, ratio, table_of, wire_replay, KernelReplay, RouterCounters,
    ServeCounters,
};
use crate::oracle::{agreeing_ranks, brute_force};
use crate::stats::{median, peak_rss_mb, tail};
use crate::{Counts, Record, RunResult};
use dataset::{uniform, PointSet};
use gsknn_core::{GsknnConfig, GsknnScalar};
use gsknn_router::{Router, RouterConfig};
use gsknn_serve::wire::decode_span_annex;
use gsknn_serve::{Client, Outcome, PartitionCfg, ServeIndex, Server, ServerConfig};
use knn_select::{Neighbor, NeighborTable};
use std::io;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A serving workload's traffic and deployment.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub refs: usize,
    pub d: usize,
    pub k: usize,
    /// Query points per request.
    pub m: usize,
    /// Backends the reference set is split over; 1 = a single server
    /// and no router.
    pub partitions: usize,
    /// Distinct requests in the query pool, cycled through.
    pub pool_requests: usize,
    pub conns: usize,
    /// Request deadline. The server's coalescing hold is half of it, and
    /// the router's per-backend budget is at most all of it.
    pub deadline_ms: u32,
    /// Latency limit of `slo_met_frac`: a correct reply slower than this
    /// is `slow`.
    pub slo_ms: u32,
    /// Untimed traffic before the measured window.
    pub warmup: Duration,
}

pub const SERVE_POINT: Shape = Shape {
    name: "serve-point",
    refs: 8192,
    d: 16,
    k: 8,
    m: 1,
    partitions: 1,
    pool_requests: 1024,
    conns: 2,
    deadline_ms: 200,
    slo_ms: 200,
    warmup: Duration::from_secs(1),
};

pub const ROUTED_BATCH: Shape = Shape {
    name: "routed-batch",
    refs: 8192,
    d: 16,
    k: 8,
    m: 256,
    partitions: 2,
    pool_requests: 16,
    conns: 2,
    deadline_ms: 1000,
    slo_ms: 50,
    warmup: Duration::from_secs(1),
};

impl Shape {
    /// The same workload at a size that runs in about a second.
    pub fn smoke(self) -> Shape {
        Shape {
            refs: 2048,
            pool_requests: self.pool_requests.min(64),
            warmup: Duration::from_millis(100),
            ..self
        }
    }
}

/// Times the set-up is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Seed of the (single-tree) index forest; with leaf ≥ n it only names
/// the one leaf.
const INDEX_SEED: u64 = 7;
/// Keeps the query pool's random stream apart from the references'.
const POOL_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Running servers and, with more than one partition, the router.
#[derive(Default)]
struct Deployment {
    /// The address clients talk to.
    entry: String,
    backends: Vec<String>,
    servers: Vec<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
    batch_targets: Vec<(String, usize)>,
    shards: usize,
}

impl Deployment {
    /// Stand up the deployment over `refs`: build every index, bind every
    /// server and the router, and start their threads. On error, whatever
    /// started is stopped again.
    fn start(shape: &Shape, refs: &PointSet) -> io::Result<Deployment> {
        let mut dep = Deployment::default();
        match dep.start_inner(shape, refs) {
            Ok(()) => Ok(dep),
            Err(e) => {
                dep.stop();
                Err(e)
            }
        }
    }

    fn start_inner(&mut self, shape: &Shape, refs: &PointSet) -> io::Result<()> {
        let (n, d, parts) = (refs.len(), refs.dim(), shape.partitions);
        let epoch = RouterConfig::default().epoch;
        for p in 0..parts {
            let (lo, hi) = (p * n / parts, (p + 1) * n / parts);
            let slice = PointSet::from_vec(d, hi - lo, refs.as_slice()[lo * d..hi * d].to_vec());
            let partition =
                (parts > 1).then(|| PartitionCfg::solo(p as u16, parts as u16, lo as u32, epoch));
            let cfg = ServerConfig {
                partition,
                ..ServerConfig::default()
            };
            self.shards = cfg.resolved_shards();
            let server = Server::bind(cfg, ServeIndex::build(slice, 1, hi - lo, INDEX_SEED))?;
            if p == 0 {
                self.batch_targets = server.batch_targets();
            }
            self.backends.push(server.local_addr()?.to_string());
            self.servers.push(std::thread::spawn(move || {
                server.run();
            }));
        }
        self.entry = if parts > 1 {
            let router = Router::bind(RouterConfig {
                backends: self.backends.clone(),
                ..RouterConfig::default()
            })?;
            let addr = router.local_addr()?.to_string();
            self.router = Some(std::thread::spawn(move || {
                router.run();
            }));
            addr
        } else {
            self.backends[0].clone()
        };
        Ok(())
    }

    /// A first round trip through the entry point.
    fn ping(&self) -> io::Result<()> {
        Client::connect(&self.entry)?.ping()
    }

    /// Drain the router, then every server, and wait for their threads.
    fn stop(self) {
        let drain = |addr: &str, handle: JoinHandle<()>| {
            if let Err(e) = Client::connect(addr).and_then(|mut c| c.shutdown()) {
                panic!("cannot shut down {addr}: {e}");
            }
            handle.join().expect("server thread panicked");
        };
        if let Some(h) = self.router {
            drain(&self.entry, h);
        }
        for (addr, h) in self.backends.iter().zip(self.servers) {
            drain(addr, h);
        }
    }

    /// `Stats` of every backend, and of the router if there is one.
    fn counters(&self) -> Result<(Vec<ServeCounters>, Option<RouterCounters>), String> {
        let stats = |addr: &str| {
            Client::connect(addr)
                .and_then(|mut c| c.stats())
                .map_err(|e| format!("stats of {addr}: {e}"))
        };
        let backends = self
            .backends
            .iter()
            .map(|a| ServeCounters::parse(&stats(a)?))
            .collect::<Result<_, _>>()?;
        let router = match self.router {
            Some(_) => Some(RouterCounters::parse(&stats(&self.entry)?)?),
            None => None,
        };
        Ok((backends, router))
    }
}

/// The fixed query pool and its brute-force answers.
struct Pool {
    queries: PointSet,
    oracle: Vec<Vec<Neighbor<f64>>>,
    coords64: Vec<Vec<f64>>,
    coords32: Vec<Vec<f32>>,
}

impl Pool {
    fn new(shape: &Shape, refs: &PointSet, seed: u64) -> Pool {
        let queries = uniform(shape.pool_requests * shape.m, shape.d, seed ^ POOL_SALT);
        let oracle = brute_force(refs, &queries, shape.k);
        let coords64: Vec<Vec<f64>> = queries
            .as_slice()
            .chunks(shape.m * shape.d)
            .map(<[f64]>::to_vec)
            .collect();
        let coords32 = coords64
            .iter()
            .map(|c| c.iter().map(|&v| v as f32).collect())
            .collect();
        Pool {
            queries,
            oracle,
            coords64,
            coords32,
        }
    }
}

/// One connection's closed loop.
#[derive(Default)]
struct Tally {
    counts: Counts,
    rtt_ms: Vec<f64>,
    ok_points: u64,
    ranks_ok: u64,
    ranks_total: u64,
    /// Per fetched span annex: the request's coalesce wait on a backend.
    coalesce_us: Vec<f64>,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.counts.add(&o.counts);
        self.rtt_ms.extend(o.rtt_ms);
        self.ok_points += o.ok_points;
        self.ranks_ok += o.ranks_ok;
        self.ranks_total += o.ranks_total;
    }

    /// Send request `req` of the pool in precision `T` and judge the
    /// reply; the trace id of a correct reply is returned.
    fn send<T: GsknnScalar>(
        &mut self,
        client: &mut Client,
        coords: &[T],
        req: usize,
        shape: &Shape,
        pool: &Pool,
        refs: &PointSet,
    ) -> Option<u64> {
        self.counts.attempted += 1;
        let reply = match client.query::<T>(coords, shape.m, shape.k, shape.deadline_ms) {
            Ok(r) => r,
            Err(_) => {
                self.counts.errors += 1;
                let _ = client.reconnect();
                return None;
            }
        };
        let rtt_ms = reply.rtt.as_secs_f64() * 1e3;
        self.rtt_ms.push(rtt_ms);
        let table: NeighborTable<T> = match reply.outcome {
            Outcome::Neighbors(t) => t,
            Outcome::Degraded(_) | Outcome::DegradedPartial { .. } => {
                self.counts.degraded += 1;
                return None;
            }
            Outcome::Busy => {
                self.counts.busy += 1;
                return None;
            }
            Outcome::TimedOut => {
                self.counts.timed_out += 1;
                return None;
            }
            _ => {
                self.counts.errors += 1;
                return None;
            }
        };
        let mut right = table.len() == shape.m;
        for i in 0..shape.m.min(table.len()) {
            let p = req * shape.m + i;
            let want = &pool.oracle[p];
            let agree = agreeing_ranks(table.row(i), want, pool.queries.point(p), refs);
            self.ranks_ok += agree as u64;
            self.ranks_total += want.len() as u64;
            right &= agree == want.len();
        }
        if !right {
            self.counts.wrong += 1;
            return None;
        }
        self.counts.ok += 1;
        self.ok_points += shape.m as u64;
        if rtt_ms > f64::from(shape.slo_ms) {
            self.counts.slow += 1;
        }
        Some(reply.trace_id)
    }
}

/// Closed loop of connection `conn` until `until`. The trace id of each
/// correct reply goes to every annex observer.
fn drive(
    shape: &Shape,
    dep: &Deployment,
    pool: &Pool,
    refs: &PointSet,
    conn: usize,
    until: Instant,
    observers: &[mpsc::Sender<u64>],
) -> Tally {
    let mut tally = Tally::default();
    let mut client = Client::connect(&dep.entry).expect("connect to a running deployment");
    let stride = (shape.pool_requests / shape.conns).max(1);
    let mut i = 0;
    while Instant::now() < until {
        let req = (conn * stride + i) % shape.pool_requests;
        let id = if (conn + i).is_multiple_of(2) {
            tally.send(&mut client, &pool.coords64[req], req, shape, pool, refs)
        } else {
            tally.send(&mut client, &pool.coords32[req], req, shape, pool, refs)
        };
        if let Some(id) = id {
            for tx in observers {
                let _ = tx.send(id);
            }
        }
        i += 1;
    }
    tally
}

/// Fetch traced requests' span annexes from one backend, on a
/// connection of its own so the closed loops are not delayed, and return
/// the coalesce wait the backend recorded for each, µs. A backend that
/// is busy in its kernel answers late; the observer then skips to the
/// newest id it has been sent, so the ids it fetches still sit in the
/// backend's bounded fragment ring. The sample size is in the record.
fn observe(backend: &str, ids: mpsc::Receiver<u64>) -> Vec<f64> {
    let mut client = Client::connect(backend).expect("connect to a running backend");
    let mut waits = Vec::new();
    while let Ok(mut id) = ids.recv() {
        while let Ok(newer) = ids.try_recv() {
            id = newer;
        }
        let spans = client
            .trace_fetch(id)
            .ok()
            .and_then(|b| decode_span_annex(&b).ok());
        if let Some(spans) = spans {
            let ns: u64 = spans
                .iter()
                .filter(|s| s.name == "coalesce wait")
                .map(|s| s.dur_ns)
                .sum();
            waits.push(ns as f64 / 1e3);
        }
    }
    waits
}

/// All connections' closed loops for `window`; returns the merged tally
/// and the window's wall time (until the last reply).
fn load(
    shape: &Shape,
    dep: &Deployment,
    pool: &Pool,
    refs: &PointSet,
    window: Duration,
    traced: bool,
) -> (Tally, f64) {
    let start = Instant::now();
    let until = start + window;
    let mut total = Tally::default();
    let mut elapsed = 0.0;
    std::thread::scope(|s| {
        let mut observers = Vec::new();
        let mut senders = Vec::new();
        if traced {
            for backend in &dep.backends {
                let (tx, rx) = mpsc::channel();
                senders.push(tx);
                observers.push(s.spawn(move || observe(backend, rx)));
            }
        }
        let loops: Vec<_> = (0..shape.conns)
            .map(|c| {
                let txs = senders.clone();
                s.spawn(move || drive(shape, dep, pool, refs, c, until, &txs))
            })
            .collect();
        drop(senders);
        for l in loops {
            total.add(l.join().expect("client loop panicked"));
        }
        elapsed = start.elapsed().as_secs_f64();
        for o in observers {
            total
                .coalesce_us
                .extend(o.join().expect("annex observer panicked"));
        }
    });
    (total, elapsed)
}

/// Run the workload for `seconds` of measured traffic. With
/// `baseline_ms` (the untraced run's `latency_p50_ms`) it is the traced
/// run.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    baseline_ms: Option<f64>,
) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut up: Option<(Deployment, PointSet)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((dep, _)) = up.take() {
            dep.stop();
        }
        let t = Instant::now();
        let refs = uniform(shape.refs, shape.d, seed);
        let dep =
            Deployment::start(shape, &refs).map_err(|e| format!("{}: set-up: {e}", shape.name))?;
        setups.push(t.elapsed().as_secs_f64());
        // untimed: the wait for the first reply is mostly an idle shard's
        // polling sleep, bimodal and at the mercy of the host's scheduler
        if let Err(e) = dep.ping() {
            dep.stop();
            return Err(format!("{}: first ping: {e}", shape.name));
        }
        up = Some((dep, refs));
    }
    let (dep, refs) = up.expect("at least one set-up");
    let pool = Pool::new(shape, &refs, seed);

    let traced = baseline_ms.is_some();
    load(shape, &dep, &pool, &refs, shape.warmup, false);
    let before = if traced { Some(dep.counters()?) } else { None };
    let (tally, elapsed) = load(
        shape,
        &dep,
        &pool,
        &refs,
        Duration::from_secs_f64(seconds),
        traced,
    );
    let after = if traced { Some(dep.counters()?) } else { None };
    let (batch_targets, shards, backends) =
        (dep.batch_targets.clone(), dep.shards, dep.backends.len());
    dep.stop();

    let c = tally.counts;
    if tally.rtt_ms.is_empty() {
        return Err(format!("{}: no request was answered", shape.name));
    }
    let rtt = &tally.rtt_ms;
    let p50 = median(rtt);
    let tl = tail(rtt);
    let mut metrics = vec![
        ("latency_p50_ms", p50),
        ("latency_p95_ms", tl.value),
        ("points_per_s", tally.ok_points as f64 / elapsed),
        (
            "recall",
            ratio(tally.ranks_ok as f64, tally.ranks_total as f64),
        ),
        ("slo_met_frac", (c.ok - c.slow) as f64 / c.attempted as f64),
        ("setup_s", median(&setups)),
    ];
    if let (Some((b_serve, b_router)), Some((a_serve, a_router)), Some(base_ms)) =
        (before, after, baseline_ms)
    {
        metrics.extend(layer_metrics(
            shape,
            &refs,
            &pool,
            &tally,
            ServeCounters::growth(&a_serve, &b_serve),
            a_router.zip(b_router).map(|(a, b)| a.growth(&b)),
        ));
        metrics.push((
            "trace.overhead_pct",
            ratio(100.0 * (p50 - base_ms), base_ms),
        ));
    }
    metrics.push(("peak_rss_mb", peak_rss_mb()));

    Ok(RunResult {
        correct: c.wrong == 0 && c.ok > 0,
        record: Record {
            workload: shape.name,
            seed,
            traced,
            batch_targets,
            shards: Some(shards),
            counts: c,
            facts: vec![
                ("backends".into(), backends.into()),
                ("deadline_ms".into(), shape.deadline_ms.into()),
                ("slo_ms".into(), shape.slo_ms.into()),
                ("samples".into(), rtt.len().into()),
                ("tail_pct".into(), tl.pct.into()),
                ("tail_beyond".into(), tl.beyond.into()),
                ("annexes".into(), tally.coalesce_us.len().into()),
            ],
        },
        metrics,
    })
}

/// The traced run's per-layer metrics of a serving workload.
fn layer_metrics(
    shape: &Shape,
    refs: &PointSet,
    pool: &Pool,
    tally: &Tally,
    serve: ServeCounters,
    router: Option<RouterCounters>,
) -> Vec<(&'static str, f64)> {
    let budget = Duration::from_millis(300);
    let (d, k, m) = (shape.d, shape.k, shape.m);
    let rows = &pool.oracle[..m];
    let coords = &pool.coords64[0];
    let (e64, d64) = wire_replay::<f64>(coords, d, rows, k, budget);
    let (e32, d32) = wire_replay::<f32>(coords, d, rows, k, budget);
    let (encode_us, decode_us) = ((e64 + e32) / 2.0, (d64 + d32) / 2.0);
    let rtt_us = 1e3 * tally.rtt_ms.iter().sum::<f64>() / tally.rtt_ms.len() as f64;
    let coalesce_us = if tally.coalesce_us.is_empty() {
        0.0
    } else {
        tally.coalesce_us.iter().sum::<f64>() / tally.coalesce_us.len() as f64
    };

    // the kernel at the backends' shape, both precisions
    let n_backend = refs.len() / shape.partitions;
    let xq32 = pool.queries.cast::<f32>();
    let xr32 = refs.cast::<f32>();
    let q: Vec<usize> = (0..m).collect();
    let r: Vec<usize> = (0..n_backend).collect();
    let mut replay = KernelReplay::default();
    let kb = Duration::from_millis(500);
    replay.add(
        GsknnConfig::for_scalar::<f64>(),
        &pool.queries,
        &q,
        refs,
        &r,
        k,
        kb,
    );
    replay.add(
        GsknnConfig::for_scalar::<f32>(),
        &xq32,
        &q,
        &xr32,
        &r,
        k,
        kb,
    );

    let mut out = replay.metrics();
    out.extend(serve.metrics());
    out.extend([
        ("wire.encode_us", encode_us),
        ("wire.decode_us", decode_us),
        ("serve.coalesce_wait_us", coalesce_us),
    ]);
    match router {
        None => {
            let kernel_us = serve.kernel_us();
            out.extend([
                ("net.residual_us", rtt_us - serve.server_us()),
                (
                    "ledger.gap_pct",
                    ledger_gap_pct(rtt_us, &[encode_us, coalesce_us, kernel_us, decode_us]),
                ),
            ]);
        }
        Some(router) => {
            // one partial per partition, as the router merges them
            let head = PointSet::from_vec(d, m, pool.queries.as_slice()[..m * d].to_vec());
            let partials: Vec<Vec<Vec<Neighbor<f64>>>> = (0..shape.partitions)
                .map(|p| {
                    let lo = p * n_backend;
                    let slice = PointSet::from_vec(
                        d,
                        n_backend,
                        refs.as_slice()[lo * d..(lo + n_backend) * d].to_vec(),
                    );
                    let mut rows = brute_force(&slice, &head, k);
                    for n in rows.iter_mut().flatten() {
                        n.idx += lo as u32;
                    }
                    rows
                })
                .collect();
            let p64: Vec<NeighborTable<f64>> = partials.iter().map(|r| table_of(r, k)).collect();
            let p32: Vec<NeighborTable<f32>> = partials.iter().map(|r| table_of(r, k)).collect();
            let merge_us = (merge_replay(&p64, k, budget) + merge_replay(&p32, k, budget)) / 2.0;
            let routed_us = router.routed_us();
            out.extend(router.metrics());
            out.extend([
                ("select.merge_us", merge_us),
                ("net.residual_us", rtt_us - routed_us),
                (
                    "ledger.gap_pct",
                    ledger_gap_pct(rtt_us, &[encode_us, routed_us, decode_us]),
                ),
            ]);
        }
    }
    out
}
