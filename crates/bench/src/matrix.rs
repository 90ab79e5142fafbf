//! The experiment matrix: the id → experiment table shared by the
//! `experiments` binary, the determinism integration test, and the
//! benches, and the entry points that run it.
//!
//! Every call is one [`plan`]: the inputs the requested experiments
//! read are built once, across an engine [`Pool`], then each
//! experiment renders from its own parts as one task, and the outputs
//! are merged back in request order. Inputs and parts are pure
//! functions of the [`ExpConfig`], so the rendered report is
//! bit-identical for every `--jobs` value.

use crate::plan::{self, Experiment, Pending};
use crate::{figures, tables, ExpConfig, Result};
use spindle_engine::Pool;

/// Every experiment in presentation order.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("t1", tables::T1),
    ("t2", tables::T2),
    ("t3", tables::T3),
    ("t4", tables::T4),
    ("t5", tables::T5),
    ("t6", tables::T6),
    ("t7", tables::T7),
    ("t8", tables::T8),
    ("f1", figures::F1),
    ("f2", figures::F2),
    ("f3", figures::F3),
    ("f4", figures::F4),
    ("f5", figures::F5),
    ("f6", figures::F6),
    ("f7", figures::F7),
    ("f8", figures::F8),
    ("f9", figures::F9),
    ("f10", figures::F10),
    ("f11", figures::F11),
    ("f12", figures::F12),
    ("f13", figures::F13),
];

/// The experiment with this id, if there is one.
#[must_use]
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, exp)| exp)
}

/// Runs a single experiment by id: a one-id plan on the calling
/// thread.
///
/// # Errors
///
/// Returns an error for unknown ids and propagates experiment failures.
pub fn run_one(id: &str, cfg: &ExpConfig) -> Result<String> {
    Ok(plan::artifact(id, cfg)?.to_string())
}

/// One finished experiment: its id, rendered output (or error), and
/// its own wall-clock seconds.
#[derive(Debug)]
pub struct MatrixResult {
    /// The experiment id.
    pub id: String,
    /// Rendered output, or the failure.
    pub output: Result<String>,
    /// Seconds of this experiment's own work: its parts and its
    /// render. Building an input it shares is timed by that input's
    /// `matrix.input.*` span instead.
    pub secs: f64,
}

fn finish(pending: Pending, cfg: &ExpConfig) -> MatrixResult {
    let id = pending.id.clone();
    let (artifact, secs) = pending.render(cfg);
    MatrixResult {
        id,
        output: artifact.map(|a| a.to_string()),
        secs,
    }
}

/// Runs the listed experiment ids across `pool`, returning results in
/// the order the ids were given regardless of completion order.
///
/// Experiments are pure functions of `cfg`, so the concatenated output
/// is identical for every pool width. A panicking experiment panics
/// the caller.
#[must_use]
pub fn run_matrix(ids: &[String], cfg: &ExpConfig, pool: &Pool) -> Vec<MatrixResult> {
    pool.map(plan::prepare(ids, cfg, pool), |_, p| finish(p, cfg))
}

/// One quarantined experiment: its task panicked and its result was
/// discarded while the rest of the matrix completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The failed experiment's position in the `ids` the matrix ran.
    pub ordinal: usize,
    /// The panic payload, rendered to a string.
    pub payload: String,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} panicked: {}", self.ordinal, self.payload)
    }
}

/// The result of a panic-isolated matrix run: every surviving
/// experiment in request order, plus one [`ShardFailure`] per
/// quarantined (panicked) experiment. A failure's `ordinal` indexes
/// the `ids` slice the matrix was launched with.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Surviving experiments, in request order (gaps at failures).
    pub results: Vec<MatrixResult>,
    /// Experiments whose task panicked, in ordinal order.
    pub failures: Vec<ShardFailure>,
}

/// Panic-isolated [`run_matrix`]: a panicking experiment (whether its
/// own bug, a panic while one of its parts was built, or an injected
/// fault from [`spindle_harden::FaultPlan`](spindle_harden)) is
/// quarantined while every other experiment completes, and `on_done`
/// observes each surviving result in request order as the matrix
/// drains — the hook the `--resume` journal hangs off, so completion
/// records hit disk before the run finishes. Injected `panic@N` and
/// `hang@N` faults hit experiment `N`'s render task.
///
/// Surviving results are byte-identical to a fault-free run of the
/// same ids at any `--jobs` value.
pub fn run_matrix_isolated(
    ids: &[String],
    cfg: &ExpConfig,
    pool: &Pool,
    mut on_done: impl FnMut(&MatrixResult),
) -> MatrixOutcome {
    let mut outcome = MatrixOutcome {
        results: Vec::with_capacity(ids.len()),
        failures: Vec::new(),
    };
    pool.run(
        plan::prepare(ids, cfg, pool),
        |ordinal, pending| {
            spindle_harden::maybe_task_panic(ordinal);
            spindle_harden::maybe_task_hang(ordinal);
            finish(pending, cfg)
        },
        |ordinal, res| match res {
            Ok(result) => {
                on_done(&result);
                outcome.results.push(result);
            }
            Err(payload) => outcome.failures.push(ShardFailure { ordinal, payload }),
        },
    );
    outcome
}

/// Renders the id list by collapsing consecutive runs sharing an
/// alphabetic prefix: `t1..t8 f1..f13`.
#[must_use]
pub fn id_ranges() -> String {
    let mut groups: Vec<(&str, u32, u32)> = Vec::new();
    for (id, _) in EXPERIMENTS {
        let split = id.find(|c: char| c.is_ascii_digit()).unwrap_or(id.len());
        let (prefix, digits) = id.split_at(split);
        let num: u32 = digits.parse().unwrap_or(0);
        match groups.last_mut() {
            Some((p, _, hi)) if *p == prefix && num == *hi + 1 => *hi = num,
            _ => groups.push((prefix, num, num)),
        }
    }
    groups
        .iter()
        .map(|(p, lo, hi)| {
            if lo == hi {
                format!("{p}{lo}")
            } else {
                format!("{p}{lo}..{p}{hi}")
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_ranges_collapse() {
        assert_eq!(id_ranges(), "t1..t8 f1..f13");
    }

    #[test]
    fn unknown_id_is_an_error() {
        let cfg = ExpConfig::quick();
        assert!(run_one("t99", &cfg).is_err());
    }

    #[test]
    fn isolated_matrix_quarantines_injected_panics() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 30.0;
        cfg.family_drives = 6;
        cfg.hour_weeks = 1;
        let ids: Vec<String> = ["t2", "t1"].iter().map(|s| (*s).to_owned()).collect();

        let plan = spindle_harden::FaultPlan::parse("panic@0").unwrap();
        spindle_harden::install(std::sync::Arc::new(plan));
        let mut seen = Vec::new();
        let outcome = run_matrix_isolated(&ids, &cfg, &Pool::new(2), |r| seen.push(r.id.clone()));
        spindle_harden::uninstall();

        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].ordinal, 0);
        assert!(outcome.failures[0].payload.contains("injected fault"));
        assert_eq!(outcome.results.len(), 1);
        assert_eq!(outcome.results[0].id, "t1");
        assert_eq!(seen, vec!["t1".to_owned()], "on_done sees survivors");
        // The surviving output is identical to a fault-free run.
        let clean = run_one("t1", &cfg).unwrap();
        assert_eq!(outcome.results[0].output.as_ref().unwrap(), &clean);
    }

    #[test]
    fn shard_failure_display_names_the_site() {
        let fail = ShardFailure {
            ordinal: 4,
            payload: "boom".to_owned(),
        };
        assert_eq!(fail.to_string(), "shard 4 panicked: boom");
    }

    #[test]
    fn matrix_results_keep_request_order() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 30.0;
        cfg.family_drives = 6;
        cfg.hour_weeks = 1;
        let ids: Vec<String> = ["t2", "t1"].iter().map(|s| (*s).to_owned()).collect();
        let out = run_matrix(&ids, &cfg, &Pool::new(2));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, "t2");
        assert_eq!(out[1].id, "t1");
    }
}
