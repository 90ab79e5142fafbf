//! `spindle report` — renders one run into a self-contained HTML
//! summary.
//!
//! The report answers the paper's central question — "what does this
//! workload look like at each time-scale?" — in one file: utilization
//! per time-scale bucket from the busy log, read/write mix and arrival
//! burstiness per bucket over every window of the span, the
//! idle-interval availability table, the tail-latency attribution
//! table, and a link to the Chrome trace-event timeline when the
//! invocation also asked for `--trace-out`. The output embeds its own
//! styling, so it opens anywhere without a network.

use crate::args::Options;
use crate::commands::{build_sim, read_trace, write_output_file, CmdResult};
use spindle_core::idle::{IdleAnalysis, AVAILABILITY_THRESHOLDS};
use spindle_core::millisecond::MillisecondAnalysis;
use spindle_disk::obs::SimObserver;
use spindle_disk::sim::SimResult;
use spindle_obs::{progress, Exemplar, MetricsRegistry, ObsSpan};
use spindle_pulse::front::Invocation;
use spindle_trace::Request;
use std::path::{Component, Path, PathBuf};

/// Time-scale buckets the report aggregates over: label and window
/// length in seconds.
const TIME_SCALES: &[(&str, f64)] = &[
    ("100 ms", 0.1),
    ("1 s", 1.0),
    ("10 s", 10.0),
    ("60 s", 60.0),
];

/// Utilization considered "saturated" for the per-bucket share column.
const SATURATION: f64 = 0.9;

/// The simulator's latency-attribution histograms the tail table rows
/// over, host-visible first.
const ATTRIBUTION: &[(&str, &str)] = &[
    ("disk.response_us", "response (host-visible)"),
    ("disk.queue_us", "queue wait"),
    ("disk.seek_us", "seek"),
    ("disk.rotation_us", "rotational wait"),
    ("disk.transfer_us", "media transfer"),
    (DESTAGE_US, "idle-time destage"),
];

/// Destages serve no request, so their row names no request id.
const DESTAGE_US: &str = "disk.destage_us";

pub(crate) fn report(opts: &Options, inv: &Invocation) -> CmdResult {
    let in_path = opts.required("in")?;
    let out_path = opts.get("out").unwrap_or("spindle-report.html");
    let requests = read_trace(in_path, inv)?;
    let mut sim = build_sim(opts, inv)?;
    // The attribution table reads the observer's histograms, so the run
    // is observed even when no metrics dump was asked for.
    if !inv.obs.metrics {
        sim.attach_observer(SimObserver::new(spindle_obs::global(), &inv.obs));
    }
    let result = {
        let _span = ObsSpan::new(spindle_obs::global(), "cli.simulate");
        sim.run(&requests)?
    };
    let profile = opts.get("profile").unwrap_or("cheetah-15k");
    let trace_href = inv
        .trace_out
        .as_deref()
        .map(|t| relative_href(Path::new(out_path), Path::new(t)));
    let html = render(
        in_path,
        profile,
        trace_href.as_deref(),
        &requests,
        &result,
        spindle_obs::global(),
    )?;
    write_output_file(out_path, &html)?;
    progress!("wrote report to {out_path}");
    Ok(())
}

/// The link from the report file `report` to `target`: the target's
/// path relative to the report's directory, so it resolves wherever
/// the pair is opened from. Both paths are as given on the command
/// line (relative ones against the working directory).
fn relative_href(report: &Path, target: &Path) -> String {
    let parts = |p: &Path| {
        let mut out = Vec::new();
        for c in std::path::absolute(p)
            .unwrap_or_else(|_| p.to_path_buf())
            .components()
        {
            match c {
                Component::Normal(s) => out.push(s.to_owned()),
                Component::ParentDir => {
                    out.pop();
                }
                _ => {}
            }
        }
        out
    };
    let mut dir = parts(report);
    dir.pop();
    let target = parts(target);
    let common = dir.iter().zip(&target).take_while(|(a, b)| a == b).count();
    let mut href: PathBuf = dir[common..].iter().map(|_| "..").collect();
    href.extend(&target[common..]);
    href.to_string_lossy().into_owned()
}

/// Escapes text for interpolation into HTML body text and
/// double-quoted attribute values.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// One `<table>` with a caption; every cell is escaped here, so callers
/// pass raw values.
fn html_table(caption: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut t = String::new();
    t.push_str("<table><caption>");
    t.push_str(&esc(caption));
    t.push_str("</caption><thead><tr>");
    for h in headers {
        t.push_str("<th>");
        t.push_str(&esc(h));
        t.push_str("</th>");
    }
    t.push_str("</tr></thead><tbody>");
    for row in rows {
        t.push_str("<tr>");
        for cell in row {
            t.push_str("<td>");
            t.push_str(&esc(cell));
            t.push_str("</td>");
        }
        t.push_str("</tr>");
    }
    t.push_str("</tbody></table>\n");
    t
}

/// Read/write mix and arrival burstiness of the windows at one time
/// scale.
#[derive(Debug, PartialEq, Eq)]
struct MixRow {
    windows: usize,
    read_only: usize,
    write_only: usize,
    mixed: usize,
    empty: usize,
    /// Arrivals in the busiest window.
    peak: u64,
    /// Arrivals over all windows.
    arrivals: u64,
}

impl MixRow {
    /// The busiest window's arrivals over the mean per window.
    fn peak_to_mean(&self) -> Option<f64> {
        (self.arrivals > 0).then(|| self.peak as f64 * self.windows as f64 / self.arrivals as f64)
    }
}

/// Buckets request arrival times into `window_secs`-wide windows and
/// classifies each window by the operations it received.
fn mix_at(reads: &[f64], writes: &[f64], span_secs: f64, window_secs: f64) -> MixRow {
    let n = ((span_secs / window_secs).ceil() as usize).max(1);
    let mut r = vec![0u64; n];
    let mut w = vec![0u64; n];
    let idx = |t: f64| ((t.max(0.0) / window_secs) as usize).min(n - 1);
    for &t in reads {
        r[idx(t)] += 1;
    }
    for &t in writes {
        w[idx(t)] += 1;
    }
    let mut row = MixRow {
        windows: n,
        read_only: 0,
        write_only: 0,
        mixed: 0,
        empty: 0,
        peak: 0,
        arrivals: (reads.len() + writes.len()) as u64,
    };
    for i in 0..n {
        row.peak = row.peak.max(r[i] + w[i]);
        match (r[i] > 0, w[i] > 0) {
            (true, true) => row.mixed += 1,
            (true, false) => row.read_only += 1,
            (false, true) => row.write_only += 1,
            (false, false) => row.empty += 1,
        }
    }
    row
}

fn pct(part: usize, whole: usize) -> String {
    if whole == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

/// The slowest exemplar kept for `metric`: each bucket keeps its
/// largest observation, so across buckets this is the overall maximum,
/// deterministically.
fn slowest_exemplar(
    exemplars: &[(String, Vec<Option<Exemplar>>)],
    metric: &str,
) -> Option<Exemplar> {
    let (_, slots) = exemplars.iter().find(|(name, _)| name == metric)?;
    slots.iter().flatten().copied().max_by_key(|e| e.value)
}

/// One row per non-empty attribution histogram in `registry`. The
/// quantiles are bucket estimates, clamped to the row's slowest
/// observation: a bucket's upper bound can lie above it.
fn attribution_rows(registry: &MetricsRegistry) -> Vec<Vec<String>> {
    let snap = registry.snapshot();
    let exemplars = registry.exemplars().snapshot();
    ATTRIBUTION
        .iter()
        .filter_map(|&(metric, label)| {
            let h = snap.histogram(metric).filter(|h| h.count > 0)?;
            // Every observation offers an exemplar, so a non-empty
            // histogram has a slowest one.
            let slowest = slowest_exemplar(&exemplars, metric)?;
            let q = |p: f64| format!("{:.0}", h.quantile(p).min(slowest.value as f64));
            let id = if metric == DESTAGE_US {
                "—".to_owned()
            } else {
                slowest.id.to_string()
            };
            Some(vec![
                label.to_owned(),
                h.count.to_string(),
                format!("{:.0}", h.mean()),
                q(0.50),
                q(0.95),
                q(0.99),
                slowest.value.to_string(),
                id,
                slowest.op.to_owned(),
                format!("{:.3}", slowest.t_ns as f64 / 1e9),
            ])
        })
        .collect()
}

fn render(
    in_path: &str,
    profile: &str,
    trace_href: Option<&str>,
    requests: &[Request],
    result: &SimResult,
    registry: &MetricsRegistry,
) -> Result<String, Box<dyn std::error::Error>> {
    let analysis = MillisecondAnalysis::new(requests, result)?;
    let s = analysis.summary()?;

    let summary_table = html_table(
        "run summary",
        &["metric", "value"],
        &[
            vec!["trace".to_owned(), in_path.to_owned()],
            vec!["profile".to_owned(), profile.to_owned()],
            vec!["requests".to_owned(), s.requests.to_string()],
            vec!["span (s)".to_owned(), format!("{:.1}", s.span_secs)],
            vec![
                "arrival rate (req/s)".to_owned(),
                format!("{:.2}", s.arrival_rate),
            ],
            vec![
                "mean request (KB)".to_owned(),
                format!("{:.1}", s.mean_request_kb),
            ],
            vec![
                "write fraction".to_owned(),
                format!("{:.3}", s.write_fraction),
            ],
            vec![
                "sequential fraction".to_owned(),
                format!("{:.3}", s.sequential_fraction),
            ],
            vec![
                "mean utilization".to_owned(),
                format!("{:.4}", s.mean_utilization),
            ],
            vec![
                "mean response (ms)".to_owned(),
                format!("{:.2}", s.mean_response_ms),
            ],
        ],
    );

    // Utilization statistics per time-scale bucket: the same busy log
    // looks saturated at 100 ms and nearly idle at 60 s — that contrast
    // is the whole point of the table.
    let mut util_rows = Vec::new();
    for &(label, window_secs) in TIME_SCALES {
        let window_ns = (window_secs * 1e9) as u64;
        let Ok(series) = result.busy.utilization_series(window_ns) else {
            continue;
        };
        if series.is_empty() {
            continue;
        }
        let n = series.len();
        let mean = series.iter().sum::<f64>() / n as f64;
        let max = series.iter().copied().fold(0.0_f64, f64::max);
        let idle = series.iter().filter(|&&u| u == 0.0).count();
        let saturated = series.iter().filter(|&&u| u >= SATURATION).count();
        util_rows.push(vec![
            label.to_owned(),
            n.to_string(),
            format!("{mean:.4}"),
            format!("{max:.4}"),
            pct(idle, n),
            pct(saturated, n),
        ]);
    }
    let util_table = html_table(
        "utilization by time-scale",
        &[
            "window",
            "windows",
            "mean util",
            "max util",
            "idle windows",
            "windows ≥ 0.9 util",
        ],
        &util_rows,
    );

    let (reads, writes) = analysis.arrivals_by_op();
    let mut mix_rows = Vec::new();
    for &(label, window_secs) in TIME_SCALES {
        let m = mix_at(&reads, &writes, s.span_secs, window_secs);
        mix_rows.push(vec![
            label.to_owned(),
            m.windows.to_string(),
            pct(m.read_only, m.windows),
            pct(m.write_only, m.windows),
            pct(m.mixed, m.windows),
            pct(m.empty, m.windows),
            m.peak.to_string(),
            m.peak_to_mean()
                .map_or_else(|| "n/a".to_owned(), |r| format!("{r:.2}")),
        ]);
    }
    let mix_table = html_table(
        "read/write mix by time-scale",
        &[
            "window",
            "windows",
            "read-only",
            "write-only",
            "mixed",
            "empty",
            "peak arrivals/window",
            "peak-to-mean",
        ],
        &mix_rows,
    );

    let idle = IdleAnalysis::new(&result.busy)?;
    let idle_rows: Vec<Vec<String>> = idle
        .availability(&AVAILABILITY_THRESHOLDS)
        .into_iter()
        .map(|row| {
            vec![
                format!("{:.2}", row.threshold_secs),
                format!("{:.3}", row.fraction_of_idle_time),
                format!("{:.3}", row.fraction_of_intervals),
            ]
        })
        .collect();
    let idle_table = html_table(
        "idle-interval availability",
        &["threshold (s)", "idle-time share", "interval share"],
        &idle_rows,
    );

    let tail_table = html_table(
        "tail latency attribution (µs; the slowest request per component)",
        &[
            "component",
            "observations",
            "mean",
            "p50",
            "p95",
            "p99",
            "slowest",
            "id",
            "op",
            "at (sim s)",
        ],
        &attribution_rows(registry),
    );

    let timeline = match trace_href {
        Some(path) => format!(
            "<p>Timeline: <a href=\"{0}\"><code>{0}</code></a> — open it in \
             <a href=\"https://ui.perfetto.dev\">Perfetto</a> or \
             <code>chrome://tracing</code> to see the simulated-time drive \
             tracks alongside the wall-clock worker tracks.</p>",
            esc(path)
        ),
        None => "<p>No timeline was exported with this report; rerun with \
                 <code>--trace-out FILE</code> to capture one.</p>"
            .to_owned(),
    };

    Ok(format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>spindle report — {title}</title>\n\
         <style>\n\
         body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; }}\n\
         table {{ border-collapse: collapse; margin: 1rem 0; }}\n\
         caption {{ text-align: left; font-weight: 600; padding: 0.25rem 0; }}\n\
         th, td {{ border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: right; }}\n\
         th:first-child, td:first-child {{ text-align: left; }}\n\
         </style></head><body>\n\
         <h1>spindle run report</h1>\n\
         {summary_table}{util_table}{mix_table}{idle_table}{tail_table}{timeline}\n\
         </body></html>\n",
        title = esc(in_path),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_html_metacharacters() {
        assert_eq!(
            esc(r#"<a b="c&d">'"#),
            "&lt;a b=&quot;c&amp;d&quot;&gt;&#39;"
        );
        assert_eq!(esc("plain/path_1.json"), "plain/path_1.json");
    }

    #[test]
    fn tables_escape_cell_content() {
        let t = html_table("cap<tion", &["h&1"], &[vec!["<script>".to_owned()]]);
        assert!(t.contains("cap&lt;tion"));
        assert!(t.contains("h&amp;1"));
        assert!(t.contains("&lt;script&gt;"));
        assert!(!t.contains("<script>"));
    }

    #[test]
    fn mix_classifies_windows() {
        // 4 windows of 1 s over a 4 s span: reads in w0, writes in w1,
        // both in w2, nothing in w3.
        let reads = [0.1, 0.2, 2.5];
        let writes = [1.5, 2.9];
        let m = mix_at(&reads, &writes, 4.0, 1.0);
        assert_eq!(
            m,
            MixRow {
                windows: 4,
                read_only: 1,
                write_only: 1,
                mixed: 1,
                empty: 1,
                peak: 2,
                arrivals: 5,
            }
        );
        assert_eq!(m.peak_to_mean(), Some(1.6));
        assert_eq!(mix_at(&[], &[], 4.0, 1.0).peak_to_mean(), None);
    }

    #[test]
    fn mix_clamps_out_of_range_arrivals() {
        // An arrival exactly at the span boundary lands in the last
        // window instead of indexing out of bounds.
        let m = mix_at(&[4.0], &[], 4.0, 1.0);
        assert_eq!(m.read_only, 1);
        assert_eq!(m.windows, 4);
    }

    #[test]
    fn trace_href_is_relative_to_the_report_directory() {
        let href = |report: &str, target: &str| relative_href(Path::new(report), Path::new(target));
        assert_eq!(href("out/r.html", "out/t.json"), "t.json");
        assert_eq!(href("out/nested/r.html", "out/t.json"), "../t.json");
        assert_eq!(href("r.html", "out/t.json"), "out/t.json");
        assert_eq!(href("./out/r.html", "out/../out/t.json"), "t.json");
        assert_eq!(href("/a/b/r.html", "/a/c/t.json"), "../c/t.json");
        let cwd = std::env::current_dir().unwrap();
        let absolute = cwd.join("out/t.json");
        assert_eq!(
            href("out/nested/r.html", absolute.to_str().unwrap()),
            "../t.json"
        );
    }

    #[test]
    fn slowest_exemplar_is_the_global_maximum() {
        let store = spindle_obs::ExemplarStore::new();
        let h = store.handle("disk.response_us", 8);
        for (bucket, value, id) in [(1, 3, 10), (4, 900, 7), (2, 30, 2)] {
            h.offer(
                bucket,
                Exemplar {
                    value,
                    id,
                    t_ns: 1_000,
                    op: "read",
                },
            );
        }
        let snap = store.snapshot();
        let ex = slowest_exemplar(&snap, "disk.response_us").expect("kept");
        assert_eq!((ex.value, ex.id), (900, 7));
        assert!(slowest_exemplar(&snap, "disk.queue_us").is_none());
    }

    #[test]
    fn attribution_quantiles_never_exceed_the_slowest() {
        use spindle_disk::profile::DriveProfile;
        use spindle_disk::sim::{DiskSim, SimConfig};
        use spindle_synth::presets::parse_environment;

        let requests = parse_environment("mail")
            .unwrap()
            .spec(600.0)
            .generate(7)
            .unwrap();
        let profile = DriveProfile::cheetah_15k();
        let cfg = SimConfig {
            cache: Some(profile.cache),
            ..SimConfig::default()
        };
        assert!(cfg.cache.as_ref().is_some_and(|c| c.write_back));
        let registry = MetricsRegistry::new();
        let mut sim = DiskSim::new(profile, cfg);
        sim.attach_observer(SimObserver::new(
            &registry,
            &spindle_obs::ObsConfig::metrics_only(),
        ));
        let result = sim.run(&requests).unwrap();
        assert!(result.destages > 0, "the stream exercises write-back");

        let rows = attribution_rows(&registry);
        assert_eq!(rows.len(), ATTRIBUTION.len(), "every component observed");
        for row in &rows {
            let num = |i: usize| row[i].parse::<f64>().unwrap();
            let (p50, p95, p99, slowest) = (num(3), num(4), num(5), num(6));
            assert!(p50 <= p95 && p95 <= p99 && p99 <= slowest, "{row:?}");
        }
        let destage = rows.last().unwrap();
        assert_eq!(destage[0], "idle-time destage");
        assert_eq!((destage[7].as_str(), destage[8].as_str()), ("—", "destage"));
        assert!(rows[..rows.len() - 1]
            .iter()
            .all(|r| r[7].parse::<u64>().is_ok()));
    }

    #[test]
    fn percentage_handles_empty_denominator() {
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(0, 0), "n/a");
    }
}
