//! What a fresh process does before it can open its store runs no
//! simulation: the report registry, the build fingerprint and the warm
//! corpus read declared facts only.
//!
//! This binary holds one test, so the process-wide registry is built
//! here, under the installed sink, and not earlier by another test.

use pvc_arch::System;
use pvc_obs::Metrics;
use pvc_report::scenarios::registry;
use pvc_report::warm::{build_fingerprint, warm_corpus};
use pvc_scenario::Registry;

#[test]
fn start_up_runs_no_flow_simulation() {
    let metrics = Metrics::new();
    let _guard = metrics.install_ambient();
    let standard = Registry::standard();
    assert_eq!(registry().len(), standard.len() + 2);
    build_fingerprint();
    assert_eq!(warm_corpus().len(), 117);
    assert_eq!(metrics.counters("simrt.flow."), vec![]);
    // The sink sees flow runs as soon as a model does evaluate.
    registry().run("minigamess", System::Aurora).unwrap();
    assert!(metrics.counter("simrt.flow.runs") > 0);
}
