//! Integration: a full generate → simulate pipeline run with
//! observability enabled must account for every request, both in the
//! metrics registry and in the flight recorder's `drive.events`
//! instants, and the JSON export of that registry must round-trip
//! through the parser.

use spindle_bench::pipeline::EnvRun;
use spindle_bench::ExpConfig;
use spindle_disk::obs::{instant, track, SimObserver};
use spindle_disk::profile::DriveProfile;
use spindle_disk::sim::{DiskSim, SimConfig, SimFaults};
use spindle_obs::json::{self, Json};
use spindle_obs::sink::{JsonSink, MetricsSink};
use spindle_obs::{FlightRecorder, MetricsRegistry, ObsConfig};
use spindle_synth::presets::Environment;
use spindle_trace::OpKind;
use std::sync::Arc;

fn observed_run(env: Environment) -> (EnvRun, MetricsRegistry) {
    let mut cfg = ExpConfig::quick();
    cfg.ms_span_secs = 120.0;
    let registry = MetricsRegistry::new();
    let obs_cfg = ObsConfig::metrics_only();
    let run = EnvRun::observed(env, &cfg, SimConfig::default(), &obs_cfg, &registry)
        .expect("observed pipeline run succeeds");
    (run, registry)
}

#[test]
fn registry_accounts_for_every_request() {
    for env in [Environment::Mail, Environment::Web] {
        let (run, registry) = observed_run(env);
        let snap = registry.snapshot();
        let total = run.requests.len() as u64;
        assert!(total > 0, "{env}: empty run proves nothing");

        assert_eq!(
            snap.counter("disk.requests_completed"),
            Some(total),
            "{env}: every request must be counted exactly once"
        );

        let reads_issued = run.requests.iter().filter(|r| r.op == OpKind::Read).count() as u64;
        let hits = snap.counter("disk.read_hits").unwrap_or(0);
        let misses = snap.counter("disk.read_misses").unwrap_or(0);
        assert_eq!(
            hits + misses,
            reads_issued,
            "{env}: cache hits + misses must equal reads issued"
        );
        // Cross-check against the simulator's own accounting.
        assert_eq!(hits, run.sim.read_hits, "{env}");
        assert_eq!(misses, run.sim.read_misses, "{env}");

        let writes_issued = total - reads_issued;
        assert_eq!(
            snap.counter("disk.writes_cached").unwrap_or(0)
                + snap.counter("disk.writes_forced").unwrap_or(0),
            writes_issued,
            "{env}: every write is either cached or forced"
        );

        let resp = snap
            .histogram("disk.response_us")
            .expect("response histogram present");
        assert_eq!(resp.count, total, "{env}: one response sample per request");
        let depth = snap
            .histogram("disk.queue_depth")
            .expect("queue-depth histogram present");
        assert_eq!(depth.count, total, "{env}: one depth sample per dispatch");

        // Per-stage spans were timed.
        for stage in ["pipeline.generate", "pipeline.simulate"] {
            let s = snap
                .span(stage)
                .unwrap_or_else(|| panic!("{env}: missing span {stage}"));
            assert_eq!(s.count, 1, "{env}: {stage} runs once");
        }
    }
}

#[test]
fn event_log_is_consistent_with_the_metrics() {
    let (run, _) = observed_run(Environment::Web);
    // Replay the pipeline's stream, with injected media errors and a
    // timeout, on a simulator that also carries a private flight
    // recorder (the pipeline only reaches a recorder installed
    // process-wide, which concurrent tests would share).
    let registry = MetricsRegistry::new();
    let rec = Arc::new(FlightRecorder::new());
    let mut sim = DiskSim::new(DriveProfile::cheetah_15k(), SimConfig::default());
    sim.attach_observer(
        SimObserver::new(&registry, &ObsConfig::metrics_only()).with_flight(Arc::clone(&rec)),
    );
    sim.inject_faults(SimFaults {
        media_errors: (0..50).collect(),
        timeouts: [5].into(),
    });
    let faulted = sim.run(&run.requests).unwrap();
    assert_eq!(faulted.completed.len(), run.sim.completed.len());
    assert!(faulted.media_errors > 0 && faulted.timeouts == 1);
    let snap = registry.snapshot();
    let events: Vec<_> = rec
        .sim_slices()
        .into_iter()
        .filter(|e| e.track == track::EVENTS)
        .collect();
    let count = |k: &str| events.iter().filter(|e| e.name == k).count() as u64;
    let total = run.requests.len() as u64;

    assert_eq!(count(instant::REQUEST_ENQUEUE), total);
    assert_eq!(count(instant::REQUEST_DISPATCH), total);
    assert_eq!(count(instant::REQUEST_COMPLETE), total);
    assert_eq!(
        count(instant::CACHE_HIT),
        snap.counter("disk.read_hits").unwrap_or(0)
            + snap.counter("disk.writes_cached").unwrap_or(0)
    );
    assert_eq!(
        count(instant::CACHE_MISS),
        snap.counter("disk.read_misses").unwrap_or(0)
            + snap.counter("disk.writes_forced").unwrap_or(0)
    );
    assert_eq!(
        count(instant::DESTAGE),
        snap.counter("disk.destages").unwrap_or(0)
    );
    assert_eq!(
        count(instant::MEDIA_ERROR),
        snap.counter("disk.media_errors").unwrap_or(0)
    );
    assert_eq!(
        count(instant::TIMEOUT),
        snap.counter("disk.timeouts").unwrap_or(0)
    );
    assert_eq!(count(instant::IDLE_BEGIN), count(instant::IDLE_END));

    // Instants are recorded in simulation-time order, except that each
    // request's enqueue is recorded with its service, at its arrival.
    let timed: Vec<_> = events
        .iter()
        .filter(|e| e.name != instant::REQUEST_ENQUEUE)
        .collect();
    for w in timed.windows(2) {
        assert!(
            w[1].begin_ns >= w[0].begin_ns,
            "non-enqueue instants are recorded in simulation-time order"
        );
    }
}

#[test]
fn json_export_of_a_real_run_round_trips() {
    let (run, registry) = observed_run(Environment::Mail);
    let text = JsonSink
        .export_string(&registry.snapshot())
        .expect("export succeeds");
    let doc = json::parse(text.trim()).expect("export is valid JSON");

    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("disk.requests_completed"))
            .and_then(Json::as_u64),
        Some(run.requests.len() as u64)
    );
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("disk.response_us"))
        .expect("response-time histogram exported");
    let p50 = hist.get("p50").and_then(Json::as_f64).unwrap();
    let p95 = hist.get("p95").and_then(Json::as_f64).unwrap();
    let p99 = hist.get("p99").and_then(Json::as_f64).unwrap();
    assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
    assert!(doc
        .get("spans")
        .and_then(|s| s.get("pipeline.simulate"))
        .is_some());
    // Re-emitting the parsed document is a fixed point.
    assert_eq!(json::parse(&doc.to_string()).unwrap(), doc);
}

#[test]
fn disabled_observability_changes_nothing() {
    let mut cfg = ExpConfig::quick();
    cfg.ms_span_secs = 60.0;
    // Dev's session gate can draw a single off-sojourn covering a span
    // this short; this seed is known to produce traffic within 60s.
    cfg.seed = 20091;
    let registry = MetricsRegistry::new();
    let plain = EnvRun::new(Environment::Dev, &cfg).unwrap();
    let observed = EnvRun::observed(
        Environment::Dev,
        &cfg,
        SimConfig::default(),
        &ObsConfig::metrics_only(),
        &registry,
    )
    .unwrap();
    assert_eq!(plain.requests, observed.requests);
    assert_eq!(plain.sim, observed.sim);
}
