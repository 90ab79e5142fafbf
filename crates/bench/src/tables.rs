//! Table experiments `T1`–`T8`: what each reads, the rows it keeps
//! from each input, and its rendered table.

use crate::pipeline::EnvRun;
use crate::plan::{each_env, family, Artifact, Experiment, Input, Part, Render};
use crate::{ExpConfig, Result};
use spindle_core::hour::HourAnalysis;
use spindle_core::idle::AVAILABILITY_THRESHOLDS;
use spindle_core::lifetime::FamilyAnalysis;
use spindle_core::report::{cell, Table};
use spindle_disk::cache::CacheConfig;
use spindle_disk::scheduler::SchedulerKind;
use spindle_disk::sim::SimConfig;
use spindle_synth::family::DriveRecord;
use spindle_synth::hourgen::WEEK_HOURS;
use spindle_synth::presets::Environment;
use spindle_trace::{Granularity, TraceMeta};

/// T1 — trace-set inventory: the three granularities, what each
/// records, and the synthetic spans/drive counts generated for this
/// reproduction. Reads no input.
pub(crate) const T1: Experiment = Experiment::rendered(Render::With(t1));

fn t1(cfg: &ExpConfig, _: Vec<Part>) -> Result<Artifact> {
    let metas = [
        (
            TraceMeta::new(
                "millisecond",
                Granularity::Millisecond,
                Environment::all().len() as u32,
                cfg.ms_span_secs,
                "per-request records (arrival ns, LBA, length, R/W)",
            ),
            "mail / web / dev / archive servers",
        ),
        (
            TraceMeta::new(
                "hour",
                Granularity::Hour,
                cfg.family_drives,
                (cfg.hour_weeks * WEEK_HOURS) as f64 * 3600.0,
                "per-hour counters (reads, writes, sectors, busy time)",
            ),
            "drive-resident field monitoring",
        ),
        (
            TraceMeta::new(
                "lifetime",
                Granularity::Lifetime,
                cfg.family_drives,
                (cfg.hour_weeks * WEEK_HOURS) as f64 * 3600.0,
                "cumulative lifetime counters",
            ),
            "entire drive family",
        ),
    ];
    let mut t = Table::new(
        "T1: trace set inventory",
        &["set", "granularity", "drives", "span", "records", "source"],
    );
    for (m, source) in metas {
        let span = if m.span_days() >= 1.0 {
            format!("{:.1} days", m.span_days())
        } else {
            format!("{:.1} hours", m.span_hours())
        };
        t.push_row(vec![
            m.name.clone(),
            m.granularity.to_string(),
            m.drives.to_string(),
            span,
            m.environment.clone(),
            source.to_owned(),
        ]);
    }
    Ok(Artifact::Table(t))
}

/// T2 — millisecond-trace workload summary per environment. The
/// "moderate utilization" claim shows up in the `util` column.
pub(crate) const T2: Experiment = Experiment {
    reads: each_env,
    from_run: t2_row,
    ..Experiment::rendered(Render::Table(
        "T2: millisecond-trace workload summary",
        &[
            "env", "reqs", "rate/s", "iat-scv", "KB/req", "write%", "seq%", "util", "resp-ms",
        ],
    ))
};

fn t2_row(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let s = run.summary()?;
    Ok(Part::row(vec![
        run.env.name().to_owned(),
        s.requests.to_string(),
        cell(s.arrival_rate, 1),
        cell(s.interarrival_scv, 1),
        cell(s.mean_request_kb, 1),
        cell(s.write_fraction * 100.0, 1),
        cell(s.sequential_fraction * 100.0, 1),
        cell(s.mean_utilization, 3),
        cell(s.mean_response_ms, 2),
    ]))
}

/// T3 — idleness availability: fraction of idle time in intervals at
/// least 10 ms / 100 ms / 1 s / 10 s / 60 s long, per environment.
pub(crate) const T3: Experiment = Experiment {
    reads: each_env,
    from_run: t3_row,
    ..Experiment::rendered(Render::Table(
        "T3: idleness availability (fraction of idle time in intervals >= threshold)",
        &[
            "env", "idle%", ">=10ms", ">=100ms", ">=1s", ">=10s", ">=60s",
        ],
    ))
};

fn t3_row(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let idle = run.idle()?;
    let rows = idle.availability(&AVAILABILITY_THRESHOLDS);
    let mut cells = vec![
        run.env.name().to_owned(),
        cell(idle.idle_fraction() * 100.0, 1),
    ];
    cells.extend(rows.iter().map(|r| cell(r.fraction_of_idle_time, 3)));
    Ok(Part::row(cells))
}

/// T4 — hour-scale statistics across drives: burstiness and
/// concentration of hourly activity, per drive plus the family mean.
pub(crate) const T4: Experiment = Experiment {
    reads: family,
    from_family: t4_rows,
    ..Experiment::rendered(Render::Table(
        "T4: hour-scale statistics across drives",
        &[
            "drive",
            "ops/h",
            "cov",
            "peak/mean",
            "idc",
            "util",
            "top10%share",
            "acf24",
        ],
    ))
};

fn t4_rows(cfg: &ExpConfig, family: &[DriveRecord]) -> Result<Part> {
    let shown = cfg.t4_drives.min(family.len() as u32) as usize;
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 7];
    let mut analyzed = 0usize;
    for d in family {
        let a = HourAnalysis::new(&d.series)?;
        let Ok(s) = a.summary() else {
            continue; // fully idle drive: no hour-scale statistics
        };
        let vals = [
            s.mean_ops,
            s.cov_ops,
            s.peak_to_mean,
            s.idc,
            s.mean_utilization,
            s.top_decile_share,
            s.acf_24h,
        ];
        for (acc, v) in sums.iter_mut().zip(vals) {
            *acc += v;
        }
        if analyzed < shown {
            rows.push(vec![
                d.series.drive().to_string(),
                cell(vals[0], 0),
                cell(vals[1], 2),
                cell(vals[2], 1),
                cell(vals[3], 0),
                cell(vals[4], 3),
                cell(vals[5], 2),
                cell(vals[6], 2),
            ]);
        }
        analyzed += 1;
    }
    let n = analyzed.max(1) as f64;
    rows.push(vec![
        format!("mean({analyzed})"),
        cell(sums[0] / n, 0),
        cell(sums[1] / n, 2),
        cell(sums[2] / n, 1),
        cell(sums[3] / n, 0),
        cell(sums[4] / n, 3),
        cell(sums[5] / n, 2),
        cell(sums[6] / n, 2),
    ]);
    Ok(Part::Rows(rows))
}

/// T5 — lifetime percentile table across the family.
pub(crate) const T5: Experiment = Experiment {
    reads: family,
    from_family: t5_rows,
    ..Experiment::rendered(Render::Table(
        "T5: lifetime percentiles across the drive family",
        &["percentile", "utilization", "MB/hour", "ops/hour"],
    ))
};

fn t5_rows(_: &ExpConfig, family: &[DriveRecord]) -> Result<Part> {
    let lifetimes: Vec<_> = family.iter().map(|d| d.lifetime).collect();
    let a = FamilyAnalysis::new(&lifetimes)?;
    let mut rows: Vec<Vec<String>> = a
        .percentiles()?
        .into_iter()
        .map(|p| {
            vec![
                format!("p{:.0}", p.level * 100.0),
                cell(p.utilization, 4),
                cell(p.mb_per_hour, 1),
                cell(p.ops_per_hour, 0),
            ]
        })
        .collect();
    rows.push(vec![
        "p95/p50".to_owned(),
        cell(a.tail_to_median_ratio()?, 2),
        String::new(),
        String::new(),
    ]);
    Ok(Part::Rows(rows))
}

/// T6 — ablation: how the scheduler and write-back caching reshape
/// utilization, response time, and the idle structure on the mail
/// workload. Reads the mail stream under each scheduler with
/// write-back on, then off.
pub(crate) const T6: Experiment = Experiment {
    reads: t6_reads,
    from_run: t6_row,
    ..Experiment::rendered(Render::Table(
        "T6: scheduler / write-back ablation (mail workload)",
        &[
            "scheduler",
            "write-back",
            "util",
            "resp-ms",
            "idle%",
            "mean-idle-s",
            "destages",
        ],
    ))
};

fn t6_reads(_: &ExpConfig) -> Vec<Input> {
    let mut reads = Vec::new();
    for scheduler in SchedulerKind::all() {
        for write_back in [true, false] {
            let mut cache = CacheConfig::default();
            cache.write_back = write_back;
            let sim_cfg = SimConfig {
                scheduler,
                cache: Some(cache),
                flush_at_end: true,
            };
            reads.push(Input::Run(Environment::Mail, sim_cfg));
        }
    }
    reads
}

fn t6_row(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let s = run.summary()?;
    let idle = run.idle()?;
    let write_back = run.sim_cfg.cache.unwrap_or_default().write_back;
    Ok(Part::row(vec![
        run.sim_cfg.scheduler.to_string(),
        if write_back { "on" } else { "off" }.to_owned(),
        cell(s.mean_utilization, 3),
        cell(s.mean_response_ms, 2),
        cell(idle.idle_fraction() * 100.0, 1),
        cell(idle.mean_idle_secs().unwrap_or(0.0), 3),
        run.sim.destages.to_string(),
    ]))
}

/// T7 (extension) — response-time percentiles per environment, with the
/// p99/p50 tail amplification that burstiness induces.
pub(crate) const T7: Experiment = Experiment {
    reads: each_env,
    from_run: t7_row,
    ..Experiment::rendered(Render::Table(
        "T7: response-time percentiles (ms) per environment",
        &[
            "env", "mean", "p50", "p90", "p99", "p99.9", "max", "p99/p50",
        ],
    ))
};

fn t7_row(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    use spindle_core::response::ResponseAnalysis;
    let a = ResponseAnalysis::new(&run.sim)?;
    let classes = a.classes()?;
    let all = classes
        .iter()
        .find(|c| c.label == "all")
        .expect("`all` class always present");
    let pick = |level: f64| {
        all.percentiles
            .iter()
            .find(|(l, _)| (l - level).abs() < 1e-9)
            .expect("level in RESPONSE_LEVELS")
            .1
    };
    Ok(Part::row(vec![
        run.env.name().to_owned(),
        cell(all.mean_ms, 2),
        cell(pick(0.50), 2),
        cell(pick(0.90), 2),
        cell(pick(0.99), 2),
        cell(pick(0.999), 2),
        cell(all.max_ms, 1),
        cell(a.tail_amplification()?, 1),
    ]))
}

/// T8 (extension) — cache ablation sweep on the web workload: read-ahead
/// depth × dirty-segment capacity, reporting hit ratio and response
/// time.
pub(crate) const T8: Experiment = Experiment {
    reads: t8_reads,
    from_run: t8_row,
    ..Experiment::rendered(Render::Table(
        "T8: cache ablation (web workload)",
        &[
            "read-ahead(KiB)",
            "dirty-segs",
            "read-hit%",
            "writes-cached%",
            "resp-ms",
            "util",
        ],
    ))
};

fn t8_reads(_: &ExpConfig) -> Vec<Input> {
    let mut reads = Vec::new();
    for read_ahead_sectors in [0u32, 64, 256, 1024] {
        for max_dirty in [1usize, 16] {
            let mut cache = CacheConfig::default();
            cache.read_ahead_sectors = read_ahead_sectors;
            cache.max_dirty_segments = max_dirty;
            let sim_cfg = SimConfig {
                cache: Some(cache),
                ..SimConfig::default()
            };
            reads.push(Input::Run(Environment::Web, sim_cfg));
        }
    }
    reads
}

fn t8_row(_: &ExpConfig, run: &EnvRun) -> Result<Part> {
    let s = run.summary()?;
    let cache = run.sim_cfg.cache.unwrap_or_default();
    let writes = run.sim.writes_cached + run.sim.writes_forced;
    Ok(Part::row(vec![
        (cache.read_ahead_sectors / 2).to_string(),
        cache.max_dirty_segments.to_string(),
        cell(run.sim.read_hit_ratio().unwrap_or(0.0) * 100.0, 1),
        cell(
            run.sim.writes_cached as f64 / writes.max(1) as f64 * 100.0,
            1,
        ),
        cell(s.mean_response_ms, 2),
        cell(s.mean_utilization, 3),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs experiment `id` through a one-id plan at quick scale.
    fn table(id: &str) -> Table {
        match crate::plan::artifact(id, &ExpConfig::quick()).unwrap() {
            Artifact::Table(t) => t,
            other => panic!("{id} rendered a figure: {other}"),
        }
    }

    #[test]
    fn t1_lists_three_sets() {
        let t = table("t1");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn t2_shows_moderate_utilization_everywhere() {
        let t = table("t2");
        assert_eq!(t.len(), 4);
        for row in t.rows() {
            let util: f64 = row[7].parse().unwrap();
            assert!(util < 0.35, "{}: utilization {util} not moderate", row[0]);
            assert!(util > 0.0);
        }
    }

    #[test]
    fn t3_idle_time_is_dominated_by_long_intervals() {
        let t = table("t3");
        for row in t.rows() {
            let idle_pct: f64 = row[1].parse().unwrap();
            assert!(idle_pct > 60.0, "{}: only {idle_pct}% idle", row[0]);
            let ge_1s: f64 = row[4].parse().unwrap();
            assert!(
                ge_1s > 0.4,
                "{}: only {ge_1s} of idle time in >=1s intervals",
                row[0]
            );
            let ge_10s: f64 = row[5].parse().unwrap();
            assert!(
                ge_10s > 0.1,
                "{}: only {ge_10s} of idle time in >=10s intervals",
                row[0]
            );
        }
    }

    #[test]
    fn t4_shows_hour_scale_burstiness() {
        let t = table("t4");
        let mean_row = t.rows().last().unwrap();
        let p2m: f64 = mean_row[3].parse().unwrap();
        assert!(p2m > 1.5, "family mean peak-to-mean {p2m}");
        let idc: f64 = mean_row[4].parse().unwrap();
        assert!(idc > 10.0, "family mean IDC {idc}");
    }

    #[test]
    fn t5_percentiles_are_monotone_with_heavy_tail() {
        let t = table("t5");
        let utils: Vec<f64> = t
            .rows()
            .iter()
            .take(7)
            .map(|r| r[1].parse().unwrap())
            .collect();
        for w in utils.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let ratio: f64 = t.rows().last().unwrap()[1].parse().unwrap();
        assert!(ratio > 2.0, "p95/p50 {ratio}");
    }

    #[test]
    fn t7_tails_are_amplified_by_burstiness() {
        let t = table("t7");
        assert_eq!(t.len(), 4);
        for row in t.rows() {
            let p50: f64 = row[2].parse().unwrap();
            let p99: f64 = row[4].parse().unwrap();
            assert!(p99 >= p50, "{}", row[0]);
            let amp: f64 = row[7].parse().unwrap();
            assert!(amp >= 1.0, "{}: amplification {amp}", row[0]);
        }
    }

    #[test]
    fn t8_read_ahead_earns_hits_on_web() {
        let t = table("t8");
        assert_eq!(t.len(), 8);
        // No read-ahead rows come first; deep read-ahead rows last.
        let no_ra: f64 = t.rows()[0][2].parse().unwrap();
        let deep_ra: f64 = t.rows()[6][2].parse().unwrap();
        assert!(
            deep_ra > no_ra + 5.0,
            "read-ahead hit% {deep_ra} vs none {no_ra}"
        );
        // A single dirty segment caches fewer writes than sixteen.
        let one_seg: f64 = t.rows()[0][3].parse().unwrap();
        let sixteen: f64 = t.rows()[1][3].parse().unwrap();
        assert!(sixteen >= one_seg, "{sixteen} vs {one_seg}");
    }

    #[test]
    fn t6_write_back_reduces_response_time() {
        let t = table("t6");
        assert_eq!(t.len(), 8);
        // Compare write-back on/off for each scheduler.
        for pair in t.rows().chunks(2) {
            let on: f64 = pair[0][3].parse().unwrap();
            let off: f64 = pair[1][3].parse().unwrap();
            assert!(
                on < off,
                "{}: write-back response {on} !< write-through {off}",
                pair[0][0]
            );
            let destages_on: u64 = pair[0][6].parse().unwrap();
            let destages_off: u64 = pair[1][6].parse().unwrap();
            assert!(destages_on > 0);
            assert_eq!(destages_off, 0);
        }
    }
}
