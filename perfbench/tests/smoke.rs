//! Smoke runs of every workload: zero wrong answers, recall above its
//! floor, every metric reported, and a traced ledger that sums to the
//! end-to-end time within [`LEDGER_BOUND_PCT`]. The traced half needs
//! the probes compiled in (`gsknn_core::obs::enabled()`); run with
//! `--features obs` to force them on.

use perfbench::{allnn, serve, RunResult, END_TO_END, LEDGER_BOUND_PCT, PER_LAYER, WORKLOADS};

fn check(untraced: &RunResult, traced: Option<RunResult>) {
    let name = untraced.record.workload;
    let c = untraced.record.counts;
    assert!(untraced.correct, "{name}: {c:?}");
    assert_eq!(c.wrong, 0, "{name}");
    assert!(c.ok > 0, "{name}");
    assert_eq!(untraced.table().len(), END_TO_END.len(), "{name}");
    let Some(traced) = traced else {
        eprintln!("{name}: probes compiled out, traced half skipped");
        return;
    };
    assert!(traced.correct, "{name} traced");
    assert_eq!(traced.table().len(), PER_LAYER.len(), "{name}");
    let gap = traced.get("ledger.gap_pct").expect("ledger measured");
    assert!(
        gap.abs() <= LEDGER_BOUND_PCT,
        "{name}: ledger misses the end-to-end time by {gap:.2}%"
    );
    assert!(traced.get("core.gflops").unwrap() > 0.0, "{name}");
}

/// The traced run, when this build can trace.
fn traced(run: impl FnOnce(f64) -> RunResult, untraced: &RunResult) -> Option<RunResult> {
    gsknn_core::obs::enabled().then(|| run(untraced.get("latency_p50_ms").unwrap()))
}

#[test]
fn allnn_smoke() {
    let shape = allnn::SMOKE;
    let r = allnn::run(&shape, 5, 0.3, None);
    assert!(r.get("recall").unwrap() >= shape.recall_floor);
    let t = traced(|b| allnn::run(&shape, 5, 0.3, Some(b)), &r);
    check(&r, t);
}

#[test]
fn serve_point_smoke() {
    let shape = serve::SERVE_POINT.smoke();
    let r = serve::run(&shape, 6, 1.0, None).unwrap();
    assert_eq!(r.get("recall"), Some(1.0));
    let t = traced(|b| serve::run(&shape, 6, 1.0, Some(b)).unwrap(), &r);
    check(&r, t);
}

#[test]
fn routed_batch_smoke() {
    let shape = serve::ROUTED_BATCH.smoke();
    let r = serve::run(&shape, 7, 1.0, None).unwrap();
    assert_eq!(r.get("recall"), Some(1.0));
    let t = traced(|b| serve::run(&shape, 7, 1.0, Some(b)).unwrap(), &r);
    check(&r, t);
}

/// `BENCHMARK.json` names exactly the workloads and metrics this code
/// reports, with the same units.
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let rows = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|m| {
                let s = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(rows("end_to_end"), own(&END_TO_END));
    assert_eq!(rows("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = rows("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
