//! Benchmarks of the `pvc-serve` query service: store hits vs cache
//! misses, hits from a store file, one cold profile atom, single-flight
//! batching, the sweep coalescing factor, and the start-up work a fresh
//! process does before it opens its store. Hits are timed through
//! `Service::handle_line`, the path the stdin and `POST /query`
//! frontends take.
//!
//! Run with `cargo bench -p pvc-bench --bench serve`. The warm/cold
//! latency table in EXPERIMENTS.md §Serving is produced by this bench.

use pvc_bench::{criterion_group, criterion_main, Criterion};
use pvc_report::serve::CatalogExecutor;
use pvc_serve::{ServeConfig, Service};
use std::hint::black_box;

const TABLE2: &str = r#"{"kind":"table","id":2}"#;
const SWEEP_A: &str = r#"{"kind":"pcie","system":"aurora","modes":["h2d","d2h"]}"#;
const SWEEP_B: &str = r#"{"kind":"pcie","system":"aurora","modes":["d2h","bidir"]}"#;
const EXPERIMENTS: &str = r#"{"kind":"experiments"}"#;
const CLOVERLEAF: &str = r#"{"kind":"profile","workload":"cloverleaf","system":"aurora"}"#;

fn fresh() -> Service<CatalogExecutor> {
    Service::new(CatalogExecutor, ServeConfig::default())
}

/// Cold path: every iteration starts an empty cache and recomputes the
/// Table II simulation from scratch.
fn serve_cache_miss(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function("table2_cold_miss", |b| {
        b.iter(|| {
            let s = fresh();
            black_box(s.handle_lines(&[TABLE2]));
        })
    });
    g.finish();
}

/// Warm path: one shared service, the request is answered from its
/// in-memory store. The miss/hit median ratio is the headline speedup
/// of the serving layer.
fn serve_cache_hit(c: &mut Criterion) {
    let s = fresh();
    s.handle_line(TABLE2); // warm
    let mut g = c.benchmark_group("serve");
    g.sample_size(50);
    g.bench_function("table2_warm_hit", |b| {
        b.iter(|| black_box(s.handle_line(TABLE2)))
    });
    g.finish();
    assert!(s.metrics().counter("serve.cache.hit") > 0);
}

/// Store file: every iteration is a fresh process standing in — a new
/// service opens the warmed store file and answers `request` from it
/// (open + index load + probe + splice), without computing it. `name`
/// is the bench name in group `serve`.
fn bench_store_hit(c: &mut Criterion, name: &str, request: &str) {
    let path = std::env::temp_dir().join(format!(
        "pvc-bench-serve-store-{name}-{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let fp = pvc_report::warm::build_fingerprint();
    // Warm once outside the timed loop.
    {
        let (store, report) = pvc_store::Store::open(&path, fp).unwrap();
        let mut s = fresh();
        s.attach_store(store, &report);
        s.handle_line(request);
    }
    let mut g = c.benchmark_group("serve");
    g.sample_size(50);
    g.bench_function(name, |b| {
        b.iter(|| {
            let (store, report) = pvc_store::Store::open(&path, fp).unwrap();
            let mut s = fresh();
            s.attach_store(store, &report);
            black_box(s.handle_line(request));
            assert_eq!(s.metrics().counter("serve.cache.hit"), 1);
        })
    });
    g.finish();
    let _ = std::fs::remove_file(&path);
}

/// Table II from disk. Sits between `table2_cold_miss` and
/// `table2_warm_hit` in the EXPERIMENTS.md three-row latency table.
fn serve_warm_from_disk(c: &mut Criterion) {
    bench_store_hit(c, "warm_from_disk", TABLE2);
}

/// The `experiments` record from disk: at about 24 KB the largest
/// stored catalog body, spliced into its answer as stored.
fn serve_experiments_from_disk(c: &mut Criterion) {
    bench_store_hit(c, "experiments_from_disk", EXPERIMENTS);
}

/// One cold profile atom: run Cloverleaf on Aurora under the tracer,
/// render its Chrome trace (about 142 KB) and validate it by parsing it
/// back.
fn serve_profile_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function("profile_cloverleaf_cold", |b| {
        b.iter(|| {
            let s = fresh();
            black_box(s.handle_lines(&[CLOVERLEAF]));
            assert_eq!(s.metrics().counter("serve.atoms.executed"), 1);
        })
    });
    g.finish();
}

/// Single-flight: a batch of eight identical cold requests costs one
/// computation, not eight.
fn serve_singleflight(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function("table2_batch8_singleflight", |b| {
        b.iter(|| {
            let s = fresh();
            black_box(s.handle_lines(&[TABLE2; 8]));
        })
    });
    g.finish();
}

/// Raw solver throughput: 1000 staggered flows contending on a small
/// shared-resource mesh, run to quiescence. Exercises the incremental
/// max–min solver (arrival calendar, component re-solve) directly,
/// without the serving layer in front.
fn flow_allocate_1k(c: &mut Criterion) {
    use pvc_simrt::{FlowNetwork, FlowSpec, Time};
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function("allocate_1k_flows", |b| {
        b.iter(|| {
            let mut net = FlowNetwork::new();
            let pools: Vec<_> = (0..8).map(|_| net.add_resource(100.0)).collect();
            let links: Vec<_> = (0..64).map(|_| net.add_resource(50.0)).collect();
            for i in 0..1000usize {
                net.add_flow(FlowSpec {
                    start: Time::from_secs(i as f64 * 0.01),
                    bytes: 40.0 + (i % 17) as f64,
                    path: vec![links[i % 64], pools[i % 8]],
                    latency: 0.0,
                });
            }
            black_box(net.run());
        })
    });
    g.finish();
}

/// Start-up: a fresh scenario registry per iteration (the standard grid
/// plus the figure pipeline), as every fresh `reproduce` process builds
/// before it can fingerprint and open its store.
fn serve_registry_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(50);
    g.bench_function("registry_build", |b| {
        b.iter(|| black_box(pvc_report::scenarios::build_registry()))
    });
    g.finish();
}

/// Start-up: the warm corpus enumerated and deduplicated by content
/// address, what `reproduce warm` does before its `store …` line.
fn serve_warm_corpus(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(50);
    g.bench_function("warm_corpus", |b| {
        b.iter(|| black_box(pvc_report::warm::warm_corpus()))
    });
    g.finish();
}

/// Overlapping PCIe sweeps: reports the measured coalescing factor
/// (atoms requested / atoms executed) alongside the timing.
fn serve_sweep_coalescing(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function("pcie_sweeps_coalesced", |b| {
        b.iter(|| {
            let s = fresh();
            black_box(s.handle_lines(&[SWEEP_A, SWEEP_B]));
        })
    });
    g.finish();
    let s = fresh();
    s.handle_lines(&[SWEEP_A, SWEEP_B]);
    let requested = s.metrics().counter("serve.atoms.requested");
    let executed = s.metrics().counter("serve.atoms.executed");
    println!(
        "serve/pcie_sweeps_coalesced: coalescing factor {requested}/{executed} = {:.2}x",
        requested as f64 / executed as f64
    );
}

criterion_group!(
    serve_benches,
    serve_cache_miss,
    serve_cache_hit,
    serve_warm_from_disk,
    serve_experiments_from_disk,
    serve_profile_cold,
    flow_allocate_1k,
    serve_singleflight,
    serve_sweep_coalescing,
    serve_registry_build,
    serve_warm_corpus,
);
criterion_main!(serve_benches);
