//! `experiments` — regenerates every table and figure of the
//! evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] [--jobs N] [--metrics[=json|text]]
//!             [--trace-out FILE] [--timescales-out FILE] [--faults SPEC]
//!             [--resume FILE] [--serve [ADDR]] [--live] [--verbose|--quiet]
//!             [ids...]
//! experiments --quick t2 f5        # just T2 and F5, reduced scale
//! experiments                      # everything at paper scale
//! experiments --jobs 8             # fan the matrix across 8 workers
//! experiments --metrics=json t1    # T1 plus a JSON metrics dump on stderr
//! experiments --trace-out t.json  # export a Chrome trace-event timeline
//! experiments --faults panic@3    # quarantine the 4th experiment
//! experiments --resume run.jsonl  # journal completions; resume a killed run
//! experiments --serve 127.0.0.1:0 # scrape /metrics, /status mid-run
//! experiments --live              # ANSI progress dashboard on stderr
//! ```
//!
//! The accepted ids in the usage line are derived from the experiment
//! table in [`spindle_bench::matrix`], so the two cannot drift apart.
//!
//! The requested experiments run as one plan across a
//! [`spindle_engine::Pool`]: each input they read (an environment run,
//! the drive family) is built once, then each experiment renders from
//! what it kept. Inputs and experiments are pure functions of the
//! config, and outputs are merged back in table order, so the report
//! is byte-identical for every `--jobs` value (`--jobs 1` runs inline
//! on the main thread).
//!
//! A panicking experiment — its own bug or an injected `--faults`
//! panic — is quarantined rather than aborting the run: every other
//! experiment completes, the failure is reported on stderr, and the
//! exit status is 1. With `--resume FILE`, completions are journaled
//! (fsync'd JSON lines) as the matrix drains; re-running with the same
//! file replays finished experiments from the journal and executes
//! only the incomplete or failed ones, producing byte-identical
//! stdout to an uninterrupted run.

use spindle_bench::journal::{Journal, JournalEntry};
use spindle_bench::{matrix, ExpConfig};
use spindle_engine::{Pool, PoolMetrics};
use spindle_obs::progress;
use spindle_pulse::front::{self, Arity, Invocation, SHARED};
use std::collections::HashMap;

/// Exit status of a run killed by an injected `kill@N` fault, chosen
/// to look like SIGKILL so resume tests exercise the real path.
const KILL_STATUS: i32 = 137;

/// The options only `experiments` accepts.
const EXPERIMENTS_ONLY: &[(&str, Arity)] = &[
    ("quick", Arity::Flag),
    ("timescales-out", Arity::Value),
    ("resume", Arity::Value),
];

fn usage() -> String {
    format!
        ("usage: experiments [--quick] [--jobs N] [--metrics[=json|text]] [--trace-out FILE] [--timescales-out FILE] [--faults SPEC] [--resume FILE] [--serve [ADDR]] [--live] [--verbose|--quiet] [{}]",
        matrix::id_ranges()
    )
}

fn bad_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn main() {
    front::exit_quietly_on_closed_stdout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<(&str, Arity)> = SHARED.iter().chain(EXPERIMENTS_ONLY).copied().collect();
    let (opts, rest) = front::peel(&argv, &known).unwrap_or_else(|e| bad_usage(&e));
    let mut ids: Vec<String> = Vec::new();
    for arg in rest {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return;
            }
            other if other.starts_with("--") => bad_usage(&format!("unknown flag `{other}`")),
            other => {
                let id = other.to_ascii_lowercase();
                if ids.contains(&id) {
                    bad_usage(&format!("experiment `{id}` given more than once"));
                }
                ids.push(id);
            }
        }
    }
    let inv = Invocation::resolve(&opts, "# ").unwrap_or_else(|e| bad_usage(&e));
    let quick = opts.flag("quick");
    let timescales_out = opts.get("timescales-out");
    let jobs = inv.jobs.unwrap_or_else(spindle_engine::default_jobs);
    if ids.is_empty() {
        ids = matrix::EXPERIMENTS
            .iter()
            .map(|(id, _)| (*id).to_owned())
            .collect();
    }
    let mut cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    cfg.obs = inv.obs;
    // Resume: replay completed experiments from the journal; only
    // incomplete or failed ones execute in this process.
    let mut journal: Option<Journal> = None;
    let mut replayed: HashMap<String, JournalEntry> = HashMap::new();
    if let Some(path) = opts.get("resume") {
        match Journal::open_resume(path, quick, cfg.seed) {
            Ok((j, entries)) => {
                journal = Some(j);
                replayed = entries
                    .into_iter()
                    .filter(|e| e.ok)
                    .map(|e| (e.id.clone(), e))
                    .collect();
            }
            Err(e) => {
                eprintln!("# cannot resume: {e}");
                std::process::exit(2);
            }
        }
    }
    let todo: Vec<String> = ids
        .iter()
        .filter(|id| !replayed.contains_key(*id))
        .cloned()
        .collect();
    let run_start = std::time::Instant::now();
    let mut ran = false;
    let outcome = inv.run(
        "running",
        "experiments",
        ids.len() as u64,
        |run| -> Result<bool, String> {
            ran = true;
            // Notes go out once `run` has installed the log level, so
            // `--quiet` silences them.
            if !replayed.is_empty() {
                progress!(
                    "# resume: {} of {} experiments already journaled, running {}",
                    ids.len() - todo.len(),
                    ids.len(),
                    todo.len()
                );
            }
            progress!(
                "# config: seed={} ms_span={}s hour_weeks={} family_drives={} jobs={}",
                cfg.seed,
                cfg.ms_span_secs,
                cfg.hour_weeks,
                cfg.family_drives,
                jobs
            );
            // Journal-replayed experiments are already done.
            for _ in todo.len()..ids.len() {
                run.status.complete_one();
            }
            let mut pool = Pool::new(jobs);
            if run.watched {
                // Worker counters feed both the --metrics dump and the
                // live /status worker lanes.
                pool = pool.metrics(PoolMetrics::new(spindle_obs::global()));
            }
            let mut outcome = matrix::run_matrix_isolated(&todo, &cfg, &pool, |res| {
                run.status.complete_one();
                let Some(j) = journal.as_mut() else { return };
                let entry = JournalEntry {
                    id: res.id.clone(),
                    ok: res.output.is_ok(),
                    secs: res.secs,
                    output: match &res.output {
                        Ok(out) => out.clone(),
                        Err(e) => e.to_string(),
                    },
                };
                if let Err(e) = j.append(&entry) {
                    // A dead journal must not kill the run; it just cannot be
                    // resumed past this point.
                    eprintln!("# {e}");
                } else if inv
                    .faults
                    .as_ref()
                    .is_some_and(|p| p.kill_after(j.records() - 1))
                {
                    // Injected kill: simulate dying right after this record
                    // reached the disk.
                    eprintln!("# injected fault: killed after journaling {}", entry.id);
                    std::process::exit(KILL_STATUS);
                }
            });
            // Quarantined experiments are journaled as failures so a resumed
            // run retries them.
            if let Some(j) = journal.as_mut() {
                for fail in &outcome.failures {
                    let entry = JournalEntry {
                        id: todo[fail.ordinal].clone(),
                        ok: false,
                        secs: 0.0,
                        output: fail.payload.clone(),
                    };
                    if let Err(e) = j.append(&entry) {
                        eprintln!("# {e}");
                    }
                }
            }
            let quarantined: HashMap<String, String> = outcome
                .failures
                .drain(..)
                .map(|f| (todo[f.ordinal].clone(), f.to_string()))
                .collect();
            let mut fresh: HashMap<String, matrix::MatrixResult> = outcome
                .results
                .drain(..)
                .map(|r| (r.id.clone(), r))
                .collect();
            let mut failures = 0;
            for id in &ids {
                if let Some(entry) = replayed.remove(id) {
                    println!("{}", entry.output);
                    progress!("# {id} replayed from journal");
                } else if let Some(res) = fresh.remove(id) {
                    match res.output {
                        Ok(output) => {
                            println!("{output}");
                            progress!("# {} done", res.id);
                        }
                        Err(e) => {
                            // Failures stay visible even under --quiet.
                            eprintln!("# {} FAILED: {e}", res.id);
                            failures += 1;
                        }
                    }
                } else if let Some(failure) = quarantined.get(id) {
                    eprintln!("# {id} FAILED: {failure}");
                    failures += 1;
                }
            }
            run.status.set_phase("exporting");
            if failures > 0 {
                eprintln!(
                    "# {failures} of {} experiments failed; surviving output is complete",
                    ids.len()
                );
            }
            Ok(failures > 0)
        },
    );
    let (mut failed, rollups) = outcome.unwrap_or_else(|e| {
        eprintln!("# {e}");
        // A failure before the matrix ran (an unbindable --serve
        // address) is a usage error; one after it fails the run.
        std::process::exit(if ran { 1 } else { 2 });
    });
    if let Some(path) = timescales_out {
        let doc = match &rollups {
            Some(r) => r.to_json(),
            None => {
                // No live session was running: bank one final snapshot
                // so the file still carries the exact lifetime totals
                // (a single-window document on each resolution).
                let set = spindle_obs::RollupSet::wall();
                set.ingest_snapshot(
                    u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    &spindle_obs::global().snapshot(),
                );
                set.to_json()
            }
        };
        match front::write_output_file(path, &format!("{doc}\n")) {
            Ok(()) => progress!("# wrote timescale rollups to {path}"),
            Err(e) => {
                eprintln!("# timescale export failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
