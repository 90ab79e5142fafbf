//! Panic isolation under injected faults, end to end: a worker panic
//! at a fixed ordinal must quarantine exactly that experiment while
//! every other shard completes, and the surviving output must be
//! byte-identical to a fault-free run at every `--jobs` value.

use spindle_bench::{matrix, ExpConfig};
use spindle_engine::Pool;
use std::sync::{Arc, Mutex, OnceLock};

/// The installed fault plan is process-global, so tests that install
/// one must not overlap.
fn plan_slot() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A reduced-scale config: small enough to run the matrix many times,
/// large enough that every experiment produces real content.
fn tiny() -> ExpConfig {
    let mut cfg = ExpConfig::quick();
    cfg.ms_span_secs = 300.0;
    cfg.hour_weeks = 2;
    cfg.family_drives = 12;
    cfg
}

fn ids(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_owned()).collect()
}

fn concat_outputs(results: &[matrix::MatrixResult]) -> String {
    let mut out = String::new();
    for res in results {
        out.push_str(res.output.as_ref().expect("surviving output"));
        out.push('\n');
    }
    out
}

#[test]
fn injected_panic_quarantines_one_shard_at_every_pool_width() {
    let _guard = plan_slot();
    let cfg = tiny();
    let ids = ids(&["t1", "t2", "t3", "t5"]);
    const VICTIM: usize = 2; // ids[2] == "t3"

    // Fault-free baseline of the survivors only.
    let survivors = [&ids[0], &ids[1], &ids[3]];
    let baseline: String = survivors
        .iter()
        .map(|id| matrix::run_one(id, &cfg).expect("baseline run") + "\n")
        .collect();

    for jobs in [1, 2, 8] {
        let plan = spindle_harden::FaultPlan::parse(&format!("panic@{VICTIM}")).unwrap();
        spindle_harden::install(Arc::new(plan));
        let outcome = matrix::run_matrix_isolated(&ids, &cfg, &Pool::new(jobs), |_| {});
        spindle_harden::uninstall();

        // Exactly the injected shard failed, and the report names it.
        assert_eq!(outcome.failures.len(), 1, "--jobs {jobs}");
        let failure = &outcome.failures[0];
        assert_eq!(failure.ordinal, VICTIM, "--jobs {jobs}");
        assert!(
            failure.payload.contains("injected fault"),
            "--jobs {jobs}: payload was {:?}",
            failure.payload
        );
        let report = failure.to_string();
        assert!(
            report.contains(&format!("shard {VICTIM} panicked")),
            "--jobs {jobs}: report was {report:?}"
        );

        // Every other shard completed, in request order, byte-identical
        // to the fault-free run.
        let survivor_ids: Vec<&str> = outcome.results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(survivor_ids, ["t1", "t2", "t5"], "--jobs {jobs}");
        assert_eq!(
            concat_outputs(&outcome.results),
            baseline,
            "--jobs {jobs}: surviving output diverged from the fault-free run"
        );
    }
}

#[test]
fn fault_free_isolated_matrix_matches_the_plain_matrix() {
    let _guard = plan_slot();
    spindle_harden::uninstall();
    let cfg = tiny();
    let ids = ids(&["t2", "t1", "f2"]);
    let pool = Pool::new(2);

    let plain = matrix::run_matrix(&ids, &cfg, &pool);
    let mut seen = Vec::new();
    let outcome = matrix::run_matrix_isolated(&ids, &cfg, &pool, |r| seen.push(r.id.clone()));

    assert!(outcome.failures.is_empty());
    assert_eq!(
        concat_outputs(&outcome.results),
        concat_outputs(&plain),
        "isolation layer changed fault-free output"
    );
    // The completion hook observed every shard in request order.
    assert_eq!(seen, ids);
}

#[test]
fn every_shard_panicking_still_drains_the_matrix() {
    let _guard = plan_slot();
    let cfg = tiny();
    let ids = ids(&["t1", "t2"]);

    let plan = spindle_harden::FaultPlan::parse("panic@0,panic@1").unwrap();
    spindle_harden::install(Arc::new(plan));
    let outcome = matrix::run_matrix_isolated(&ids, &cfg, &Pool::new(2), |_| {});
    spindle_harden::uninstall();

    assert!(outcome.results.is_empty());
    let ordinals: Vec<usize> = outcome.failures.iter().map(|f| f.ordinal).collect();
    assert_eq!(ordinals, [0, 1]);
}

#[test]
fn a_failing_input_fails_only_its_readers() {
    let _guard = plan_slot();
    spindle_harden::uninstall();
    // A zero span makes every environment stream fail to generate; the
    // family and the inventory do not read one.
    let mut cfg = tiny();
    cfg.ms_span_secs = 0.0;
    let all: Vec<String> = matrix::EXPERIMENTS
        .iter()
        .map(|(id, _)| (*id).to_owned())
        .collect();
    // The stream each environment reader reads first.
    let first_stream = |id: &str| match id {
        "t8" => Some("web"),
        "f11" => Some("archive"),
        "t1" | "t4" | "t5" | "f6" | "f7" | "f8" | "f9" => None,
        _ => Some("mail"),
    };

    for jobs in [1, 2, 8] {
        let outcome = matrix::run_matrix_isolated(&all, &cfg, &Pool::new(jobs), |_| {});
        assert!(
            outcome.failures.is_empty(),
            "--jobs {jobs}: {:?}",
            outcome.failures
        );
        assert_eq!(outcome.results.len(), all.len(), "--jobs {jobs}");
        for res in &outcome.results {
            match first_stream(&res.id) {
                Some(env) => {
                    let err = res
                        .output
                        .as_ref()
                        .expect_err(&format!("--jobs {jobs}: {} read a failed stream", res.id))
                        .to_string();
                    assert!(
                        err.starts_with(&format!("input `{env}` stream failed:")),
                        "--jobs {jobs}: {} error does not name its input: {err}",
                        res.id
                    );
                }
                None => assert_eq!(
                    res.output.as_ref().expect("no stream read"),
                    &matrix::run_one(&res.id, &cfg).expect("baseline run"),
                    "--jobs {jobs}: {} diverged from its one-id run",
                    res.id
                ),
            }
        }
    }
}
