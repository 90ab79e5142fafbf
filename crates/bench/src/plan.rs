//! The experiment plan: each requested experiment declares the inputs
//! it reads, each distinct input is built once per call, and every
//! artifact it feeds is computed while it is live.
//!
//! An input is a pure function of `(cfg, key)`: an environment's stream
//! simulated under one [`SimConfig`], or the drive family. The runs of
//! one environment form a group that generates the stream once. A
//! worker takes a whole group and works input-major: it simulates the
//! stream under each configuration in turn, hands the run to every
//! experiment that reads it, and drops it before the next. So at most
//! one full environment run is live per worker. What each experiment
//! keeps is a small owned `Part` (table rows, figure series, shares),
//! never a view into the run. Experiments then render from their parts
//! in request order.
//!
//! Nothing is cached across calls. A failing input fails only the
//! experiments that read it, and a panic in one experiment's part fails
//! only that experiment: it resumes when that experiment renders.

use crate::pipeline::{standard_family, stream, EnvRun};
use crate::{ExpConfig, Result};
use spindle_core::multiscale::RwShares;
use spindle_core::report::{Figure, Series, Table};
use spindle_disk::sim::SimConfig;
use spindle_engine::Pool;
use spindle_synth::family::DriveRecord;
use spindle_synth::presets::Environment;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// An input experiments read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Input {
    /// An environment's stream simulated under one configuration.
    Run(Environment, SimConfig),
    /// The standard drive family ([`standard_family`]).
    Family,
}

/// Reads every environment once, simulated under the default
/// configuration, in [`Environment::all`] order.
#[must_use]
pub(crate) fn each_env(_: &ExpConfig) -> Vec<Input> {
    envs(&Environment::all())
}

/// Reads the listed environments, simulated under the default
/// configuration.
#[must_use]
pub(crate) fn envs(list: &[Environment]) -> Vec<Input> {
    list.iter()
        .map(|&env| Input::Run(env, SimConfig::default()))
        .collect()
}

/// Reads the drive family.
#[must_use]
pub(crate) fn family(_: &ExpConfig) -> Vec<Input> {
    vec![Input::Family]
}

/// What one experiment keeps from one of its inputs.
#[derive(Debug)]
pub(crate) enum Part {
    /// Table rows.
    Rows(Vec<Vec<String>>),
    /// Figure series.
    Series(Vec<Series>),
    /// Read/write shares, one per time scale.
    Shares(Vec<RwShares>),
}

impl Part {
    /// A single table row.
    #[must_use]
    pub(crate) fn row(cells: Vec<String>) -> Self {
        Part::Rows(vec![cells])
    }

    /// A single figure series.
    #[must_use]
    pub(crate) fn series(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Part::Series(vec![series(label, points)])
    }

    /// The rows of a table part; panics on another kind.
    #[must_use]
    pub(crate) fn into_rows(self) -> Vec<Vec<String>> {
        match self {
            Part::Rows(rows) => rows,
            other => panic!("expected table rows, got {other:?}"),
        }
    }

    /// The series of a figure part; panics on another kind.
    #[must_use]
    pub(crate) fn into_series(self) -> Vec<Series> {
        match self {
            Part::Series(series) => series,
            other => panic!("expected figure series, got {other:?}"),
        }
    }

    /// The shares of a shares part; panics on another kind.
    #[must_use]
    pub(crate) fn into_shares(self) -> Vec<RwShares> {
        match self {
            Part::Shares(shares) => shares,
            other => panic!("expected read/write shares, got {other:?}"),
        }
    }
}

/// A named figure series.
#[must_use]
pub(crate) fn series(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
    Series {
        label: label.into(),
        points,
    }
}

/// A rendered experiment.
#[derive(Debug)]
pub(crate) enum Artifact {
    /// A table experiment.
    Table(Table),
    /// A figure experiment.
    Figure(Figure),
}

impl std::fmt::Display for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Artifact::Table(t) => t.fmt(f),
            Artifact::Figure(fig) => fig.fmt(f),
        }
    }
}

/// A figure with its title and axis labels, holding the series of
/// `parts` in order.
#[must_use]
pub(crate) fn figure(title: &str, x_label: &str, y_label: &str, parts: Vec<Part>) -> Figure {
    let mut fig = Figure::new(title, x_label, y_label);
    fig.series
        .extend(parts.into_iter().flat_map(Part::into_series));
    fig
}

/// How an experiment renders from its parts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Render {
    /// A table with this title and these headers, holding the rows of
    /// every part in order.
    Table(&'static str, &'static [&'static str]),
    /// A figure with this title and these x and y labels, holding the
    /// series of every part in order.
    Figure(&'static str, &'static str, &'static str),
    /// A function of the config and the parts.
    With(fn(&ExpConfig, Vec<Part>) -> Result<Artifact>),
}

/// One experiment: the inputs it reads, what it keeps from each, and
/// how it renders from what it kept.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The inputs it reads; its parts reach `render` in this order.
    pub(crate) reads: fn(&ExpConfig) -> Vec<Input>,
    /// Its part of an environment run it reads.
    pub(crate) from_run: fn(&ExpConfig, &EnvRun) -> Result<Part>,
    /// Its part of the family, if it reads the family.
    pub(crate) from_family: fn(&ExpConfig, &[DriveRecord]) -> Result<Part>,
    /// How it renders.
    pub(crate) render: Render,
}

impl Experiment {
    /// An experiment that reads no input and renders as `render` says;
    /// experiments that read inputs set the other fields on top.
    #[must_use]
    pub(crate) const fn rendered(render: Render) -> Self {
        Experiment {
            reads: |_| Vec::new(),
            from_run: |_, run| Err(format!("does not read the {} run", run.env.name()).into()),
            from_family: |_, _| Err("does not read the family".into()),
            render,
        }
    }

    fn render(&self, cfg: &ExpConfig, parts: Vec<Part>) -> Result<Artifact> {
        Ok(match self.render {
            Render::Table(title, headers) => {
                let mut t = Table::new(title, headers);
                for row in parts.into_iter().flat_map(Part::into_rows) {
                    t.push_row(row);
                }
                Artifact::Table(t)
            }
            Render::Figure(title, x, y) => Artifact::Figure(figure(title, x, y, parts)),
            Render::With(render) => render(cfg, parts)?,
        })
    }
}

/// Why an input or a part is missing; cloned to every consumer.
#[derive(Debug, Clone)]
enum Missing {
    Error(String),
    Panic(String),
}

impl Missing {
    /// Names the failed input in an error (a panic payload is kept as
    /// it was, so a quarantine report shows the original message).
    fn of_input(self, input: &str) -> Self {
        match self {
            Missing::Error(e) => Missing::Error(format!("input {input} failed: {e}")),
            panic => panic,
        }
    }
}

/// Runs `f`, turning its error or panic into a [`Missing`].
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> std::result::Result<T, Missing> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(Missing::Error(e.to_string())),
        Err(payload) => Err(Missing::Panic(spindle_engine::panic_text(&*payload))),
    }
}

/// Slot `slot` of requested experiment `ordinal`.
#[derive(Debug, Clone, Copy)]
struct Consumer {
    ordinal: usize,
    slot: usize,
    exp: &'static Experiment,
}

/// The inputs one worker builds in one task: the runs of one
/// environment, which share its stream, or the family.
#[derive(Debug)]
struct Group {
    env: Option<Environment>,
    inputs: Vec<(Input, Vec<Consumer>)>,
}

/// One part delivered to its consumer, with the seconds it took.
type Delivery = (Consumer, std::result::Result<Part, Missing>, f64);

impl Group {
    fn build(&self, cfg: &ExpConfig) -> Vec<Delivery> {
        let registry = spindle_obs::global();
        let requests = self.env.map(|env| {
            guarded(|| {
                let _span = registry.span("matrix.input.stream");
                stream(env, cfg, registry)
            })
            .map(Arc::new)
            .map_err(|m| m.of_input(&format!("`{}` stream", env.name())))
        });
        let mut out = Vec::new();
        for (input, consumers) in &self.inputs {
            match *input {
                Input::Run(env, sim_cfg) => {
                    let requests = requests.clone().expect("runs are grouped by stream");
                    let run = requests.and_then(|requests| {
                        guarded(|| {
                            let _span = registry.span("matrix.input.env_run");
                            EnvRun::simulate(env, requests, sim_cfg, &cfg.obs, registry)
                        })
                        .map_err(|m| m.of_input(&run_label(env, &sim_cfg)))
                    });
                    feed(&run, consumers, &mut out, |exp, run| {
                        (exp.from_run)(cfg, run)
                    });
                }
                Input::Family => {
                    let family = guarded(|| {
                        let _span = registry.span("matrix.input.family");
                        standard_family(cfg)
                    })
                    .map_err(|m| m.of_input("`family`"));
                    feed(&family, consumers, &mut out, |exp, family| {
                        (exp.from_family)(cfg, family)
                    });
                }
            }
        }
        out
    }
}

fn run_label(env: Environment, sim_cfg: &SimConfig) -> String {
    if *sim_cfg == SimConfig::default() {
        format!("`{}` run", env.name())
    } else {
        format!("`{}` run under {sim_cfg:?}", env.name())
    }
}

/// Computes every consumer's part of one built input, timing each
/// against its own experiment.
fn feed<T>(
    input: &std::result::Result<T, Missing>,
    consumers: &[Consumer],
    out: &mut Vec<Delivery>,
    part: impl Fn(&Experiment, &T) -> Result<Part>,
) {
    for &consumer in consumers {
        let start = Instant::now();
        let made = match input {
            Ok(value) => guarded(|| part(consumer.exp, value)),
            Err(missing) => Err(missing.clone()),
        };
        out.push((consumer, made, start.elapsed().as_secs_f64()));
    }
}

/// The consumer list of `input`, adding its group and entry on first
/// sight.
fn consumers_of(groups: &mut Vec<Group>, input: Input) -> &mut Vec<Consumer> {
    let env = match input {
        Input::Run(env, _) => Some(env),
        Input::Family => None,
    };
    let g = groups.iter().position(|g| g.env == env).unwrap_or_else(|| {
        groups.push(Group {
            env,
            inputs: Vec::new(),
        });
        groups.len() - 1
    });
    let inputs = &mut groups[g].inputs;
    let i = inputs
        .iter()
        .position(|(k, _)| *k == input)
        .unwrap_or_else(|| {
            inputs.push((input, Vec::new()));
            inputs.len() - 1
        });
    &mut inputs[i].1
}

/// One requested experiment with its parts built, ready to render.
#[derive(Debug)]
pub(crate) struct Pending {
    /// The requested id.
    pub(crate) id: String,
    exp: Option<&'static Experiment>,
    parts: Vec<Option<std::result::Result<Part, Missing>>>,
    secs: f64,
}

impl Pending {
    /// Renders the experiment from its parts. Returns the artifact and
    /// the experiment's own seconds: its parts plus this render, not
    /// the inputs it shared. A panic caught while one of its parts or
    /// inputs was built resumes here, so it fails this experiment
    /// alone.
    pub(crate) fn render(self, cfg: &ExpConfig) -> (Result<Artifact>, f64) {
        let start = Instant::now();
        let _span = spindle_obs::global().span("matrix.render");
        let artifact = (|| {
            let exp = self
                .exp
                .ok_or_else(|| format!("unknown experiment id `{}`", self.id))?;
            let mut parts = Vec::with_capacity(self.parts.len());
            for part in self.parts {
                match part.expect("every read was delivered") {
                    Ok(part) => parts.push(part),
                    Err(Missing::Error(e)) => return Err(e.into()),
                    Err(Missing::Panic(payload)) => std::panic::resume_unwind(Box::new(payload)),
                }
            }
            exp.render(cfg, parts)
        })();
        (artifact, self.secs + start.elapsed().as_secs_f64())
    }
}

/// Builds every input the requested experiments read, on `pool`, and
/// computes their parts. Entry `i` of the result is `ids[i]`.
#[must_use]
pub(crate) fn prepare(ids: &[String], cfg: &ExpConfig, pool: &Pool) -> Vec<Pending> {
    let pending = ids
        .iter()
        .map(|id| Pending {
            id: id.clone(),
            exp: crate::matrix::experiment(id),
            parts: Vec::new(),
            secs: 0.0,
        })
        .collect();
    build_inputs(pending, cfg, pool)
}

fn build_inputs(mut pending: Vec<Pending>, cfg: &ExpConfig, pool: &Pool) -> Vec<Pending> {
    let mut groups = Vec::new();
    for (ordinal, p) in pending.iter_mut().enumerate() {
        let Some(exp) = p.exp else { continue };
        let reads = (exp.reads)(cfg);
        p.parts = reads.iter().map(|_| None).collect();
        for (slot, input) in reads.into_iter().enumerate() {
            consumers_of(&mut groups, input).push(Consumer { ordinal, slot, exp });
        }
    }
    if groups.is_empty() {
        return pending;
    }
    // Heaviest groups first, for longest-first list scheduling: workers
    // take tasks in order from one queue, so the two nine-simulation
    // ablation groups start at once instead of last. Among one-input
    // groups the family (every drive's weeks of hours) goes before a
    // single environment run, which costs less.
    groups.sort_by_key(|g| (std::cmp::Reverse(g.inputs.len()), g.env.is_some()));
    for deliveries in pool.map(groups, |_, group| group.build(cfg)) {
        for (consumer, made, secs) in deliveries {
            let p = &mut pending[consumer.ordinal];
            p.parts[consumer.slot] = Some(made);
            p.secs += secs;
        }
    }
    pending
}

/// Builds and renders one experiment on the calling thread: a one-id
/// plan.
///
/// # Errors
///
/// Returns an error for unknown ids and propagates experiment failures.
pub(crate) fn artifact(id: &str, cfg: &ExpConfig) -> Result<Artifact> {
    let pending = prepare(&[id.to_owned()], cfg, &Pool::sequential());
    let [one] = <[Pending; 1]>::try_from(pending).expect("one id, one plan entry");
    one.render(cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 120.0;
        cfg.family_drives = 6;
        cfg.hour_weeks = 1;
        cfg
    }

    #[test]
    fn shared_inputs_form_one_group_per_stream() {
        let cfg = tiny();
        let mut groups = Vec::new();
        for (ordinal, id) in ["t2", "t6", "f10", "t4"].iter().enumerate() {
            let exp = crate::matrix::experiment(id).unwrap();
            for (slot, input) in (exp.reads)(&cfg).into_iter().enumerate() {
                consumers_of(&mut groups, input).push(Consumer { ordinal, slot, exp });
            }
        }
        // Four environment streams plus the family.
        let envs: Vec<_> = groups.iter().map(|g| g.env).collect();
        assert_eq!(envs[0], Some(Environment::Mail));
        assert_eq!(envs[4], None);
        assert_eq!(envs.len(), 5);
        // Mail: the default run (t2, f10) plus the eight T6 ablations.
        assert_eq!(groups[0].inputs.len(), 9);
        assert_eq!(groups[0].inputs[0].1.len(), 2);
        // The family, read by f10 and t4.
        assert_eq!(groups[4].inputs[0].1.len(), 2);
    }

    #[test]
    fn a_panicking_part_fails_only_its_experiment() {
        const BOOM: Experiment = Experiment {
            reads: each_env,
            from_run: |_, _| panic!("boom"),
            ..Experiment::rendered(Render::Table("", &[]))
        };
        let cfg = tiny();
        let requested = ["boom", "t2"].map(|id| Pending {
            id: id.to_owned(),
            exp: Some(crate::matrix::experiment(id).unwrap_or(&BOOM)),
            parts: Vec::new(),
            secs: 0.0,
        });
        let pending = build_inputs(requested.into(), &cfg, &Pool::new(2));
        let mut seen = Vec::new();
        Pool::new(2).run(
            pending,
            |_, p| p.render(&cfg).0.unwrap().to_string(),
            |ordinal, res| seen.push((ordinal, res)),
        );
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, Err("boom".to_owned())));
        // The experiment sharing the runs renders as on its own.
        assert_eq!(
            seen[1],
            (1, Ok(crate::matrix::run_one("t2", &cfg).unwrap()))
        );
    }
}
