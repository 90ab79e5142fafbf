//! The engine's determinism contract, end to end: the experiment
//! matrix must render byte-identical artifacts for every `--jobs`
//! value, with or without metrics attached.

use spindle_bench::{matrix, ExpConfig};
use spindle_engine::{Pool, PoolMetrics};
use spindle_obs::MetricsRegistry;

/// A reduced-scale config: small enough to run the whole matrix three
/// times, large enough that every experiment produces real content.
fn tiny() -> ExpConfig {
    let mut cfg = ExpConfig::quick();
    cfg.ms_span_secs = 300.0;
    cfg.hour_weeks = 2;
    cfg.family_drives = 12;
    cfg
}

/// Renders the full matrix through a pool and concatenates the
/// artifacts in table order.
fn render(pool: &Pool) -> String {
    let ids: Vec<String> = matrix::EXPERIMENTS
        .iter()
        .map(|(id, _)| (*id).to_owned())
        .collect();
    let cfg = tiny();
    let mut out = String::new();
    for res in matrix::run_matrix(&ids, &cfg, pool) {
        let body = res
            .output
            .unwrap_or_else(|e| panic!("{} failed: {e}", res.id));
        out.push_str(&body);
        out.push('\n');
    }
    out
}

#[test]
fn matrix_artifacts_are_byte_identical_across_jobs() {
    let sequential = render(&Pool::new(1));
    assert!(!sequential.is_empty());
    for jobs in [2, 8] {
        let parallel = render(&Pool::new(jobs));
        assert_eq!(
            sequential, parallel,
            "experiment artifacts differ between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn engine_metrics_do_not_change_artifacts() {
    let plain = render(&Pool::new(2));
    let registry: &'static MetricsRegistry = Box::leak(Box::new(MetricsRegistry::new()));
    let observed = render(&Pool::new(2).metrics(PoolMetrics::new(registry)));
    assert_eq!(plain, observed, "attaching engine counters changed output");

    // The counters themselves did land in the registry: one task per
    // input group the plan builds (the four environment streams and the
    // family) plus one render task per experiment.
    let tasks = 5 + matrix::EXPERIMENTS.len() as u64;
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.tasks_executed"), Some(tasks));
    let per_worker: u64 = (0..2)
        .map(|w| {
            snap.counter(&format!("engine.worker.{w}.tasks_executed"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(per_worker, tasks);
    assert!(snap.span("engine.map").is_some());
}
