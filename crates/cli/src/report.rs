//! `spindle report` — renders one run into a self-contained HTML
//! summary.
//!
//! The report answers the paper's central question — "what does this
//! workload look like at each time-scale?" — in one file: utilization
//! and read/write-mix tables per time-scale bucket, the idle-interval
//! availability table, and a link to the Chrome trace-event timeline
//! when the invocation also asked for `--trace-out`. The output embeds
//! its own styling, so it opens anywhere without a network.

use crate::args::Options;
use crate::commands::{read_trace, run_simulation, write_output_file, CmdResult};
use spindle_core::idle::{IdleAnalysis, AVAILABILITY_THRESHOLDS};
use spindle_core::millisecond::MillisecondAnalysis;
use spindle_disk::sim::SimResult;
use spindle_obs::progress;
use spindle_pulse::front::Invocation;
use spindle_trace::Request;

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

pub(crate) fn report(opts: &Options, inv: &Invocation) -> CmdResult {
    let in_path = opts.required("in")?;
    let out_path = opts.get("out").unwrap_or("spindle-report.html");
    let requests = read_trace(in_path, inv)?;
    let result = run_simulation(opts, inv, &requests)?;
    let profile = opts.get("profile").unwrap_or("cheetah-15k");
    let html = render(
        in_path,
        profile,
        inv.trace_out.as_deref(),
        &requests,
        &result,
    )?;
    write_output_file(out_path, &html)?;
    progress!("wrote report to {out_path}");
    Ok(())
}

/// Escapes text for interpolation into HTML body text and
/// double-quoted attribute values.
pub(crate) fn esc(s: &str) -> String {
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
pub(crate) fn html_table(caption: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
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

/// Read/write mix of the windows at one time scale.
#[derive(Debug, PartialEq, Eq)]
struct MixRow {
    windows: usize,
    read_only: usize,
    write_only: usize,
    mixed: usize,
    empty: usize,
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
    };
    for i in 0..n {
        match (r[i] > 0, w[i] > 0) {
            (true, true) => row.mixed += 1,
            (true, false) => row.read_only += 1,
            (false, true) => row.write_only += 1,
            (false, false) => row.empty += 1,
        }
    }
    row
}

pub(crate) fn pct(part: usize, whole: usize) -> String {
    if whole == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

fn render(
    in_path: &str,
    profile: &str,
    trace_out: Option<&str>,
    requests: &[Request],
    result: &SimResult,
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

    let timeline = match trace_out {
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
         {summary_table}{util_table}{mix_table}{idle_table}{timeline}\n\
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
                empty: 1
            }
        );
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
    fn percentage_handles_empty_denominator() {
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(0, 0), "n/a");
    }
}
