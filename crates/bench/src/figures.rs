//! Figure experiments `F1`–`F13`: what each reads, the series it
//! keeps from each input, and its rendered figure.

use crate::pipeline::EnvRun;
use crate::plan::{
    each_env, envs, family, figure, series, Artifact, Experiment, Input, Part, Render,
};
use crate::{ExpConfig, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spindle_core::burstiness::BurstinessAnalysis;
use spindle_core::hour::HourAnalysis;
use spindle_core::lifetime::{saturation_curve, FamilyAnalysis};
use spindle_core::multiscale::{rw_shares_hour, rw_shares_lifetime, rw_shares_ms};
use spindle_core::report::Figure;
use spindle_disk::sim::SimConfig;
use spindle_synth::arrival::ArrivalModel;
use spindle_synth::family::DriveRecord;
use spindle_synth::presets::Environment;

/// F1 — drive utilization over time (per-minute windows, mail
/// workload).
pub(crate) const F1: Experiment = Experiment {
    reads: |_| envs(&[Environment::Mail]),
    from_run: f1_series,
    ..Experiment::rendered(Render::Figure(
        "F1: utilization over time (mail, per-minute)",
        "time (minutes)",
        "utilization",
    ))
};

fn f1_series(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let series = run.millisecond()?.utilization_series(60.0)?;
    Ok(Part::series(
        "mail",
        series
            .iter()
            .enumerate()
            .map(|(i, &u)| (i as f64, u))
            .collect(),
    ))
}

/// F2 — CDF of idle-interval lengths per environment (log-x plotted
/// data; x in seconds).
pub(crate) const F2: Experiment = Experiment {
    reads: each_env,
    from_run: f2_series,
    ..Experiment::rendered(Render::Figure(
        "F2: idle interval CDF",
        "idle interval length (s)",
        "P[length <= x]",
    ))
};

fn f2_series(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let cdf = run.idle()?.idle_cdf()?;
    Ok(Part::series(run.env.name(), log_grid_cdf(&cdf, false)))
}

/// F3 — CCDF of busy-period lengths per environment.
pub(crate) const F3: Experiment = Experiment {
    reads: each_env,
    from_run: f3_series,
    ..Experiment::rendered(Render::Figure(
        "F3: busy period CCDF",
        "busy period length (s)",
        "P[length > x]",
    ))
};

fn f3_series(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let cdf = run.idle()?.busy_cdf()?;
    Ok(Part::series(run.env.name(), log_grid_cdf(&cdf, true)))
}

/// Evaluates a CDF (or its complement) on a geometric grid from 0.1 ms
/// up to and including the sample maximum.
fn log_grid_cdf(cdf: &spindle_stats::ecdf::Ecdf, complement: bool) -> Vec<(f64, f64)> {
    let eval = |x: f64| if complement { cdf.ccdf(x) } else { cdf.cdf(x) };
    let max = cdf.max().max(1e-3);
    let mut points = Vec::new();
    let mut x = 1e-4f64;
    while x < max {
        points.push((x, eval(x)));
        x *= 1.5;
    }
    points.push((max, eval(max)));
    points
}

/// Lags of the F4 autocorrelation.
const F4_MAX_LAG: usize = 100;

/// F4 — autocorrelation of per-second arrival counts for the bursty
/// environments against a Poisson control.
pub(crate) const F4: Experiment = Experiment {
    reads: |_| envs(&[Environment::Mail, Environment::Web]),
    from_run: f4_series,
    ..Experiment::rendered(Render::With(f4))
};

fn f4_series(cfg: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let events = run.millisecond()?.arrival_times_secs();
    let b = BurstinessAnalysis::new(&events, cfg.ms_span_secs, 1.0)?;
    let r = b.acf(F4_MAX_LAG)?;
    Ok(Part::series(
        run.env.name(),
        r.iter().enumerate().map(|(k, &v)| (k as f64, v)).collect(),
    ))
}

fn f4(cfg: &ExpConfig, parts: Vec<Part>) -> Result<Artifact> {
    let mut fig = figure(
        "F4: ACF of arrival counts (1 s intervals)",
        "lag (s)",
        "autocorrelation",
        parts,
    );
    // Poisson control at the mail rate.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF4);
    let control = ArrivalModel::Poisson {
        rate: Environment::Mail.mean_rate(),
    }
    .generate(cfg.ms_span_secs, &mut rng)?;
    let b = BurstinessAnalysis::new(&control, cfg.ms_span_secs, 1.0)?;
    let r = b.acf(F4_MAX_LAG)?;
    fig.push_series(
        "poisson-control",
        r.iter().enumerate().map(|(k, &v)| (k as f64, v)).collect(),
    );
    Ok(Artifact::Figure(fig))
}

/// F5 — variance–time plot (log10 scale vs log10 variance of the
/// aggregated counts) for the mail workload against a Poisson control,
/// with all three Hurst estimates in the series labels.
pub(crate) const F5: Experiment = Experiment {
    reads: |_| envs(&[Environment::Mail]),
    from_run: f5_series,
    ..Experiment::rendered(Render::With(f5))
};

fn f5_series(cfg: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let events = run.millisecond()?.arrival_times_secs();
    let b = BurstinessAnalysis::new(&events, cfg.ms_span_secs, 1.0)?;
    let est = spindle_stats::hurst::aggregated_variance(b.counts())?;
    let h = b.hurst()?;
    Ok(Part::series(
        format!(
            "mail (H: rs={:.2} var={:.2} per={:.2} wav={:.2})",
            h.rs, h.aggregated_variance, h.periodogram, h.wavelet
        ),
        est.points,
    ))
}

fn f5(cfg: &ExpConfig, parts: Vec<Part>) -> Result<Artifact> {
    let mut fig = figure(
        "F5: variance-time plot and Hurst estimates",
        "log10(aggregation scale)",
        "log10(variance of aggregated counts)",
        parts,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF5);
    let control = ArrivalModel::Poisson {
        rate: Environment::Mail.mean_rate(),
    }
    .generate(cfg.ms_span_secs, &mut rng)?;
    let bc = BurstinessAnalysis::new(&control, cfg.ms_span_secs, 1.0)?;
    let estc = spindle_stats::hurst::aggregated_variance(bc.counts())?;
    let hc = bc.hurst()?;
    fig.push_series(
        format!(
            "poisson (H: rs={:.2} var={:.2} per={:.2} wav={:.2})",
            hc.rs, hc.aggregated_variance, hc.periodogram, hc.wavelet
        ),
        estc.points,
    );
    Ok(Artifact::Figure(fig))
}

/// F6 — hour-trace activity over the observation window for four
/// drives of the family.
pub(crate) const F6: Experiment = Experiment {
    reads: family,
    from_family: f6_series,
    ..Experiment::rendered(Render::Figure(
        "F6: hourly operations over time (4 family drives)",
        "hour",
        "operations per hour",
    ))
};

fn f6_series(_: &ExpConfig, family: &[DriveRecord]) -> Result<Part> {
    Ok(Part::Series(
        family
            .iter()
            .take(4)
            .map(|d| {
                let ops = d.series.operations_series();
                series(
                    d.series.drive().to_string(),
                    ops.iter()
                        .enumerate()
                        .map(|(h, &o)| (h as f64, o))
                        .collect(),
                )
            })
            .collect(),
    ))
}

/// F7 — read/write dynamics at the hour scale: the write-fraction
/// series of one drive and its distribution (CDF) across active hours.
pub(crate) const F7: Experiment = Experiment {
    reads: family,
    from_family: f7_series,
    ..Experiment::rendered(Render::Figure(
        "F7: per-hour write fraction (drive-0)",
        "hour (series) / write fraction (cdf)",
        "write fraction / P[wf <= x]",
    ))
};

fn f7_series(_: &ExpConfig, family: &[DriveRecord]) -> Result<Part> {
    let a = HourAnalysis::new(&family[0].series)?;
    let wf: Vec<(f64, f64)> = a
        .write_fraction_series()
        .iter()
        .enumerate()
        .filter_map(|(h, wf)| wf.map(|v| (h as f64, v)))
        .collect();
    let cdf = a.write_fraction_cdf()?;
    Ok(Part::Series(vec![
        series("write-fraction(t)", wf),
        series("cdf", cdf.curve(50)),
    ]))
}

/// F8 — CDF across the drive family of lifetime mean utilization.
pub(crate) const F8: Experiment = Experiment {
    reads: family,
    from_family: f8_series,
    ..Experiment::rendered(Render::Figure(
        "F8: lifetime utilization CDF across the family",
        "lifetime mean utilization",
        "fraction of drives",
    ))
};

fn f8_series(_: &ExpConfig, family: &[DriveRecord]) -> Result<Part> {
    let lifetimes: Vec<_> = family.iter().map(|d| d.lifetime).collect();
    let a = FamilyAnalysis::new(&lifetimes)?;
    let utilization = series("family", a.utilization_cdf()?.curve(100));
    let mb_per_hour = series("MB-per-hour (scaled x)", {
        let cdf = a.mb_per_hour_cdf()?;
        // Normalize x to [0, 1] so both series share an axis scale.
        let max = cdf.max();
        cdf.curve(100)
            .into_iter()
            .map(|(x, y)| (x / max, y))
            .collect()
    });
    Ok(Part::Series(vec![utilization, mb_per_hour]))
}

/// F9 — fraction of drives with at least `k` consecutive saturated
/// hours, `k = 1..=24`.
pub(crate) const F9: Experiment = Experiment {
    reads: family,
    from_family: f9_series,
    ..Experiment::rendered(Render::Figure(
        "F9: drives with >= k consecutive saturated hours",
        "k (hours)",
        "fraction of drives",
    ))
};

fn f9_series(_: &ExpConfig, family: &[DriveRecord]) -> Result<Part> {
    let hours: Vec<_> = family.iter().map(|d| d.series.clone()).collect();
    let mut curves = Vec::new();
    for (label, threshold) in [("util >= 0.99", 0.99), ("util >= 0.90", 0.90)] {
        let curve = saturation_curve(&hours, threshold, 24)?;
        curves.push(series(
            label,
            curve
                .iter()
                .map(|p| (p.run_hours as f64, p.fraction_of_drives))
                .collect(),
        ));
    }
    Ok(Part::Series(curves))
}

/// F10 — read/write share measured at each time scale (0 = ms, 1 =
/// hour, 2 = lifetime), by operations and by bytes. Reads the mail run
/// for the millisecond scale and the family for the other two.
pub(crate) const F10: Experiment = Experiment {
    reads: |_| {
        vec![
            Input::Run(Environment::Mail, SimConfig::default()),
            Input::Family,
        ]
    },
    from_run: |_, run| Ok(Part::Shares(vec![rw_shares_ms(&run.requests)?])),
    from_family: f10_shares,
    render: Render::With(f10),
};

fn f10_shares(_: &ExpConfig, family: &[DriveRecord]) -> Result<Part> {
    let lifetimes: Vec<_> = family.iter().map(|d| d.lifetime).collect();
    Ok(Part::Shares(vec![
        rw_shares_hour(&family[0].series)?,
        rw_shares_lifetime(&lifetimes)?,
    ]))
}

fn f10(_: &ExpConfig, parts: Vec<Part>) -> Result<Artifact> {
    // Millisecond, hour and lifetime scale, in that order.
    let shares: Vec<_> = parts.into_iter().flat_map(Part::into_shares).collect();
    let mut fig = Figure::new(
        "F10: write share across time scales (0=ms, 1=hour, 2=lifetime)",
        "scale",
        "write share",
    );
    fig.push_series(
        "write-ops-share",
        shares
            .iter()
            .enumerate()
            .map(|(scale, s)| (scale as f64, s.write_ops_share))
            .collect(),
    );
    fig.push_series(
        "write-bytes-share",
        shares
            .iter()
            .enumerate()
            .map(|(scale, s)| (scale as f64, s.write_bytes_share))
            .collect(),
    );
    Ok(Artifact::Figure(fig))
}

/// F11 (extension) — spatial structure: CCDF of sequential run lengths
/// and of seek (jump) distances for the archive vs. mail environments.
pub(crate) const F11: Experiment = Experiment {
    reads: |_| envs(&[Environment::Archive, Environment::Mail]),
    from_run: f11_series,
    ..Experiment::rendered(Render::Figure(
        "F11: sequential run lengths and jump distances",
        "run length (requests) / jump distance (sectors)",
        "P[X > x]",
    ))
};

fn f11_series(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    use spindle_core::spatial::SpatialAnalysis;
    let name = run.env.name();
    let a = SpatialAnalysis::new(&run.requests)?;
    let runs = a.run_length_cdf()?;
    let runs = series(
        format!("{name}-runs (mean {:.1})", a.mean_run_length()),
        log_grid_cdf(&runs, true),
    );
    let jumps = a.jump_distance_cdf()?;
    let jumps = series(format!("{name}-jumps"), log_grid_cdf(&jumps, true));
    Ok(Part::Series(vec![runs, jumps]))
}

/// F12 (extension) — background-work feasibility: productive scrub
/// seconds per hour as a function of the idle-wait threshold, per
/// environment.
pub(crate) const F12: Experiment = Experiment {
    reads: each_env,
    from_run: f12_series,
    ..Experiment::rendered(Render::Figure(
        "F12: background-work budget vs idle-wait threshold",
        "idle wait (s)",
        "productive seconds per hour",
    ))
};

fn f12_series(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    use spindle_core::background::idle_wait_sweep;
    let waits = [0.0, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];
    let sweep = idle_wait_sweep(&run.sim.busy, &waits, 0.1, 1.0)?;
    Ok(Part::series(
        run.env.name(),
        sweep
            .iter()
            .map(|(w, s)| (*w, s.productive_secs_per_hour()))
            .collect(),
    ))
}

/// F13 (extension) — power management on measured idleness: mean power
/// and added foreground delay versus the standby timeout, per
/// environment.
pub(crate) const F13: Experiment = Experiment {
    reads: each_env,
    from_run: f13_series,
    ..Experiment::rendered(Render::Figure(
        "F13: mean power vs standby timeout",
        "standby timeout (s)",
        "mean power (W) / recovery delay (s per hour)",
    ))
};

fn f13_series(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    use spindle_disk::power::{timeout_sweep, PowerModel};
    let timeouts = [1.0, 5.0, 20.0, 60.0, 300.0, 1800.0];
    let model = PowerModel::enterprise_15k();
    let name = run.env.name();
    let sweep = timeout_sweep(&model, &run.sim.busy, &timeouts)?;
    Ok(Part::Series(vec![
        series(
            format!("{name}-watts"),
            sweep.iter().map(|(t, o)| (*t, o.mean_watts())).collect(),
        ),
        series(
            format!("{name}-recovery-s-per-h"),
            sweep
                .iter()
                .map(|(t, o)| (*t, o.recovery_delay_secs / o.span_secs * 3600.0))
                .collect(),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExpConfig {
        ExpConfig::quick()
    }

    /// Runs experiment `id` through a one-id plan at quick scale.
    fn fig(id: &str) -> Figure {
        match crate::plan::artifact(id, &cfg()).unwrap() {
            Artifact::Figure(f) => f,
            other => panic!("{id} rendered a table: {other}"),
        }
    }

    #[test]
    fn f13_power_tradeoff_has_the_right_shape() {
        let fig = fig("f13");
        assert_eq!(fig.series.len(), 8);
        for s in &fig.series {
            if s.label.ends_with("-watts") {
                // Power vs timeout is U-shaped, NOT monotone: very
                // aggressive timeouts pay spin-up energy on every short
                // gap. The minimum over the sweep must beat the
                // longest-timeout (≈ always-on) setting.
                let first = s.points.first().unwrap().1;
                let last = s.points.last().unwrap().1;
                let min = s.points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
                assert!(min < last, "{}: no savings anywhere in the sweep", s.label);
                assert!(first > 0.0 && last > 0.0);
            } else {
                // Recovery delay shrinks monotonically with the timeout.
                for w in s.points.windows(2) {
                    assert!(w[1].1 <= w[0].1 + 1e-6, "{}: recovery increased", s.label);
                }
            }
        }
        // A well-chosen timeout on the idle-heavy archive profile must
        // land well below the always-on idle draw of ~9 W.
        let archive_watts = fig
            .series
            .iter()
            .find(|s| s.label == "archive-watts")
            .unwrap();
        let best = archive_watts
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 7.0, "archive best mean power {best} W");
    }

    #[test]
    fn f1_utilization_is_bounded() {
        let fig = fig("f1");
        let pts = &fig.series[0].points;
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|&(_, u)| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn f2_cdfs_are_monotone_and_reach_one() {
        let fig = fig("f2");
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12, "{} CDF not monotone", s.label);
            }
            assert!((s.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn f3_ccdfs_are_decreasing() {
        let fig = fig("f3");
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-12);
            }
        }
    }

    #[test]
    fn f4_environments_are_more_correlated_than_poisson() {
        let fig = fig("f4");
        assert_eq!(fig.series.len(), 3);
        // Mean ACF over lags 1..20.
        let mean_acf = |s: &spindle_core::report::Series| {
            s.points[1..=20].iter().map(|p| p.1).sum::<f64>() / 20.0
        };
        let mail = mean_acf(&fig.series[0]);
        let poisson = mean_acf(&fig.series[2]);
        assert!(mail > poisson + 0.1, "mail ACF {mail} vs poisson {poisson}");
    }

    #[test]
    fn f5_mail_slope_is_shallower_than_poisson() {
        // Variance of the m-aggregated series decays like m^(2H-2):
        // shallower slope = higher H = burstier.
        let fig = fig("f5");
        let slope = |pts: &[(f64, f64)]| {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            spindle_stats::regression::fit_line(&xs, &ys).unwrap().slope
        };
        let mail = slope(&fig.series[0].points);
        let poisson = slope(&fig.series[1].points);
        assert!(
            mail > poisson + 0.3,
            "mail slope {mail} vs poisson {poisson}"
        );
    }

    #[test]
    fn f6_has_four_drives_with_cycles() {
        let fig = fig("f6");
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert_eq!(s.points.len(), (cfg().hour_weeks * 168) as usize);
        }
    }

    #[test]
    fn f7_write_fractions_are_valid() {
        let fig = fig("f7");
        let wf = &fig.series[0].points;
        assert!(wf.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn f8_family_cdf_reaches_one() {
        let fig = fig("f8");
        assert!((fig.series[0].points.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn f9_a_portion_saturates_for_hours() {
        let fig = fig("f9");
        let at_2h = fig.series[0].points[1].1;
        assert!(at_2h > 0.02, "fraction with >=2h saturation {at_2h}");
        assert!(at_2h < 0.5);
        // Monotone non-increasing in k.
        for w in fig.series[0].points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }

    #[test]
    fn f11_archive_runs_dominate_mail_runs() {
        let fig = fig("f11");
        assert_eq!(fig.series.len(), 4);
        // Mean run length is embedded in the label; parse it back out.
        let mean_of = |label_prefix: &str| -> f64 {
            let s = fig
                .series
                .iter()
                .find(|s| s.label.starts_with(label_prefix))
                .unwrap();
            s.label
                .split("mean ")
                .nth(1)
                .unwrap()
                .trim_end_matches(')')
                .parse()
                .unwrap()
        };
        assert!(mean_of("archive-runs") > mean_of("mail-runs") * 2.0);
    }

    #[test]
    fn f12_budget_decreases_with_idle_wait() {
        let fig = fig("f12");
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 1e-9,
                    "{}: budget grew with the wait",
                    s.label
                );
            }
            // Even a 0.5 s wait leaves a large budget (long idleness):
            // at least a third of every wall-clock hour.
            let at_half_sec = s.points.iter().find(|(x, _)| *x == 0.5).unwrap().1;
            assert!(
                at_half_sec > 1200.0,
                "{}: only {at_half_sec}s/hour at 0.5s wait",
                s.label
            );
        }
    }

    #[test]
    fn f10_write_shares_are_consistent_across_scales() {
        let fig = fig("f10");
        let ops = &fig.series[0].points;
        for &(_, share) in ops {
            assert!((0.3..0.9).contains(&share), "write share {share}");
        }
        // All three scales agree within 0.25.
        let min = ops.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let max = ops.iter().map(|p| p.1).fold(0.0f64, f64::max);
        assert!(max - min < 0.25, "cross-scale spread {}", max - min);
    }
}
