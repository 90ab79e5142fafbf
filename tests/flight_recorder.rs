//! Flight-recorder determinism across worker counts.
//!
//! The trace-event exporter promises that the simulated-time tracks
//! are a pure function of the workload: recording order (and therefore
//! pool width) must not leak into the exported bytes. This is checked
//! at two levels — library (several simulators sharing one recorder
//! across a work-stealing pool) and binary (`spindle simulate
//! --trace-out` at `--jobs 1/2/8`). Wall-clock tracks honestly differ
//! run to run and are excluded from the comparison.

use spindle_disk::obs::SimObserver;
use spindle_disk::profile::DriveProfile;
use spindle_disk::sim::{DiskSim, SimConfig};
use spindle_engine::Pool;
use spindle_obs::json::{self, Json};
use spindle_obs::{FlightRecorder, MetricsRegistry, ObsConfig, TraceEventSink};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

/// Serialized simulated-time events of one export.
fn sim_events(trace_text: &str) -> String {
    let doc = json::parse(trace_text.trim()).expect("trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    let sim: Vec<String> = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(spindle_obs::trace_event::SIM_PID))
        .map(Json::to_string)
        .collect();
    assert!(!sim.is_empty(), "export carries simulated-time events");
    sim.join("\n")
}

/// Runs four differently-seeded simulations across a `jobs`-wide pool,
/// all recording into one shared recorder, and returns the sim-only
/// export.
fn pooled_export(jobs: usize) -> String {
    let env = spindle_synth::presets::parse_environment("mail").expect("preset exists");
    let workloads: Vec<Vec<spindle_trace::Request>> = (0..4u64)
        .map(|i| {
            env.spec(60.0)
                .generate(100 + i)
                .expect("generation succeeds")
        })
        .collect();
    let rec = Arc::new(FlightRecorder::new());
    let registry = MetricsRegistry::new();
    let completed = Pool::new(jobs).map(workloads, |_ord, requests| {
        let mut sim = DiskSim::new(DriveProfile::cheetah_15k(), SimConfig::default());
        sim.attach_observer(
            SimObserver::new(&registry, &ObsConfig::metrics_only()).with_flight(Arc::clone(&rec)),
        );
        sim.run(&requests)
            .expect("simulation succeeds")
            .completed
            .len()
    });
    assert!(completed.iter().all(|&n| n > 0));
    TraceEventSink::sim_only()
        .export_string(&rec)
        .expect("export succeeds")
}

#[test]
fn pooled_sim_tracks_are_byte_identical_across_worker_counts() {
    let baseline = pooled_export(1);
    assert!(baseline.contains("drive.service"));
    assert!(baseline.contains("drive.events"));
    for jobs in [2, 8] {
        let export = pooled_export(jobs);
        assert_eq!(
            sim_events(&baseline),
            sim_events(&export),
            "sim-time tracks differ between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn cli_trace_export_sim_tracks_are_deterministic_across_jobs() {
    let bin = env!("CARGO_BIN_EXE_spindle");
    let dir = std::env::temp_dir().join("spindle-flight-recorder-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_in = dir.join("input.bin");
    let run = |args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spindle binary runs");
        assert!(
            out.status.success(),
            "spindle {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&[
        "generate",
        "--env=mail",
        "--span=60",
        "--seed=7",
        "--out",
        trace_in.to_str().unwrap(),
    ]);

    let mut exports = Vec::new();
    for jobs in ["1", "2", "8"] {
        let trace_out: PathBuf = dir.join(format!("trace-jobs{jobs}.json"));
        run(&[
            "simulate",
            "--in",
            trace_in.to_str().unwrap(),
            "--jobs",
            jobs,
            "--trace-out",
            trace_out.to_str().unwrap(),
        ]);
        exports.push(sim_events(&std::fs::read_to_string(&trace_out).unwrap()));
    }
    assert_eq!(exports[0], exports[1], "--jobs 1 vs --jobs 2");
    assert_eq!(exports[0], exports[2], "--jobs 1 vs --jobs 8");
    std::fs::remove_dir_all(&dir).unwrap();
}
