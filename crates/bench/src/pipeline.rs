//! Shared generate → simulate → analyze plumbing used by the
//! experiments.

use crate::{ExpConfig, Result};
use spindle_core::idle::IdleAnalysis;
use spindle_core::millisecond::{MillisecondAnalysis, WorkloadSummary};
use spindle_disk::obs::SimObserver;
use spindle_disk::profile::DriveProfile;
use spindle_disk::sim::{DiskSim, SimConfig, SimResult};
use spindle_obs::{EventLog, MetricsRegistry, ObsConfig, ObsSpan};
use spindle_synth::family::{DriveRecord, FamilySpec};
use spindle_synth::hourgen::{HourSeriesSpec, WEEK_HOURS};
use spindle_synth::presets::Environment;
use spindle_trace::Request;
use std::sync::Arc;

/// One environment's generated trace and simulation outcome.
#[derive(Debug)]
pub struct EnvRun {
    /// The environment it came from.
    pub env: Environment,
    /// The synthetic request stream.
    pub requests: Vec<Request>,
    /// The disk simulation result.
    pub sim: SimResult,
    /// Simulation event log, populated when observability with event
    /// tracing was enabled for this run.
    pub events: Option<Arc<EventLog>>,
}

impl EnvRun {
    /// Generates and simulates one environment under `cfg`; the
    /// simulator records what `cfg.obs` asks for into
    /// [`spindle_obs::global()`].
    ///
    /// # Errors
    ///
    /// Propagates generation and simulation errors.
    pub fn new(env: Environment, cfg: &ExpConfig) -> Result<Self> {
        Self::with_sim_config(env, cfg, SimConfig::default())
    }

    /// Same as [`EnvRun::new`] with an explicit simulator configuration
    /// (used by the ablation experiment).
    ///
    /// # Errors
    ///
    /// Propagates generation and simulation errors.
    pub fn with_sim_config(env: Environment, cfg: &ExpConfig, sim_cfg: SimConfig) -> Result<Self> {
        Self::build(env, cfg, sim_cfg, None)
    }

    /// Same as [`EnvRun::with_sim_config`] with observability wired to an
    /// explicit registry: disk counters/histograms resolve against
    /// `registry`, and when `obs_cfg.events` is set the returned run
    /// carries the simulation event log.
    ///
    /// # Errors
    ///
    /// Propagates generation and simulation errors.
    pub fn observed(
        env: Environment,
        cfg: &ExpConfig,
        sim_cfg: SimConfig,
        obs_cfg: &ObsConfig,
        registry: &MetricsRegistry,
    ) -> Result<Self> {
        Self::build(env, cfg, sim_cfg, Some((obs_cfg, registry)))
    }

    fn build(
        env: Environment,
        cfg: &ExpConfig,
        sim_cfg: SimConfig,
        obs: Option<(&ObsConfig, &MetricsRegistry)>,
    ) -> Result<Self> {
        let (obs_cfg, registry) = obs.unwrap_or((&cfg.obs, spindle_obs::global()));

        let spec = env.spec(cfg.ms_span_secs);
        let requests = {
            let _span = ObsSpan::new(registry, "pipeline.generate");
            spec.generate(cfg.seed ^ env_seed(env))?
        };

        let mut sim = DiskSim::new(DriveProfile::cheetah_15k(), sim_cfg);
        let mut events = None;
        if obs_cfg.metrics || obs_cfg.events {
            let mut observer = SimObserver::new(registry, obs_cfg);
            // A globally installed flight recorder (the binary's
            // `--trace-out`) gets the sim-time tracks of every run.
            if let Some(rec) = spindle_obs::recorder::installed() {
                observer = observer.with_flight(rec);
            }
            events = observer.event_log();
            sim.attach_observer(observer);
        }
        let result = {
            let _span = ObsSpan::new(registry, "pipeline.simulate");
            sim.run(&requests)?
        };
        Ok(EnvRun {
            env,
            requests,
            sim: result,
            events,
        })
    }

    /// The per-request analysis view.
    ///
    /// # Errors
    ///
    /// Propagates analysis construction errors.
    pub fn millisecond(&self) -> Result<MillisecondAnalysis<'_>> {
        Ok(MillisecondAnalysis::new(&self.requests, &self.sim)?)
    }

    /// The workload summary row.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn summary(&self) -> Result<WorkloadSummary> {
        Ok(self.millisecond()?.summary()?)
    }

    /// The busy/idle analysis view.
    ///
    /// # Errors
    ///
    /// Propagates analysis construction errors.
    pub fn idle(&self) -> Result<IdleAnalysis> {
        Ok(IdleAnalysis::new(&self.sim.busy)?)
    }
}

fn env_seed(env: Environment) -> u64 {
    match env {
        Environment::Mail => 0x11,
        Environment::Web => 0x22,
        Environment::Dev => 0x33,
        Environment::Archive => 0x44,
    }
}

/// Generates the standard drive family used by the hour- and
/// lifetime-scale experiments.
///
/// # Errors
///
/// Propagates generation errors.
pub fn standard_family(cfg: &ExpConfig) -> Result<Vec<DriveRecord>> {
    let spec = FamilySpec {
        drives: cfg.family_drives,
        template: HourSeriesSpec {
            hours: cfg.hour_weeks * WEEK_HOURS,
            ..Default::default()
        },
        ..Default::default()
    };
    Ok(spec.generate(cfg.seed ^ 0xFA31)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_run_produces_consistent_views() {
        let cfg = ExpConfig::quick();
        let run = EnvRun::new(Environment::Web, &cfg).unwrap();
        assert_eq!(run.requests.len(), run.sim.completed.len());
        let s = run.summary().unwrap();
        assert!(s.mean_utilization > 0.0 && s.mean_utilization < 1.0);
        let idle = run.idle().unwrap();
        assert!(idle.idle_fraction() > 0.0);
    }

    #[test]
    fn observed_run_collects_metrics_events_and_spans() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 60.0;
        let registry = MetricsRegistry::new();
        let run = EnvRun::observed(
            Environment::Web,
            &cfg,
            SimConfig::default(),
            &ObsConfig::enabled(),
            &registry,
        )
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("disk.requests_completed"),
            Some(run.requests.len() as u64)
        );
        assert!(run.events.is_some(), "event tracing was requested");
        assert!(run.events.unwrap().total_recorded() > 0);
        assert!(snap.span("pipeline.generate").is_some());
        assert!(snap.span("pipeline.simulate").is_some());
    }

    #[test]
    fn config_observability_reaches_the_simulator() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 60.0;
        cfg.obs = ObsConfig::enabled();
        let run = EnvRun::new(Environment::Web, &cfg).unwrap();
        assert!(run.events.is_some(), "cfg.obs asked for event tracing");
    }

    #[test]
    fn unobserved_run_carries_no_event_log() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 30.0;
        let run = EnvRun::new(Environment::Dev, &cfg).unwrap();
        assert!(run.events.is_none());
    }

    #[test]
    fn standard_family_matches_config() {
        let cfg = ExpConfig::quick();
        let fam = standard_family(&cfg).unwrap();
        assert_eq!(fam.len(), cfg.family_drives as usize);
        assert_eq!(fam[0].series.len(), (cfg.hour_weeks * WEEK_HOURS) as usize);
    }
}
