//! `spindle observe` — the multi-time-scale telemetry "observatory".
//!
//! Runs a trace through the disk simulator with the full telemetry
//! stack attached — a simulated-time [`RollupSet`] wheel plus the
//! per-request latency attribution histograms and their exemplars —
//! then renders everything the paper's multi-time-scale analysis asks
//! about into one self-contained report: utilization per time-scale,
//! read/write mix per time-scale, per-window burstiness and
//! idle-interval statistics straight off the rollup wheel, and the
//! tail-latency attribution table whose exemplars link the slowest
//! buckets back to concrete request ids (the same ids the
//! flight-recorder slices carry, so `--trace-out` timelines line up).
//!
//! Output is HTML by default; `--format md` (or an `--out` path ending
//! in `.md`) renders the same tables as GitHub-flavored markdown.

use crate::args::Options;
use crate::commands::{build_sim, read_trace, write_output_file, CmdResult};
use crate::report::{esc, html_table, pct};
use spindle_disk::sim::SimResult;
use spindle_obs::exemplar::Exemplar;
use spindle_obs::registry::Snapshot;
use spindle_obs::rollup::ResolutionSnapshot;
use spindle_obs::rollup::RollupSnapshot;
use spindle_obs::{progress, ObsSpan, RollupSet};
use spindle_pulse::front::Invocation;
use std::sync::Arc;

/// The attribution histograms the tail table rows over, in
/// presentation order (host-visible first, then the decomposition).
const ATTRIBUTION_METRICS: &[(&str, &str)] = &[
    ("disk.response_us", "response (host-visible)"),
    ("disk.queue_us", "queue wait"),
    ("disk.seek_us", "seek"),
    ("disk.rotation_us", "rotational wait"),
    ("disk.transfer_us", "media transfer"),
    ("disk.destage_us", "idle-time destage"),
];

pub(crate) fn observe(opts: &Options, inv: &Invocation) -> CmdResult {
    let in_path = opts.required("in")?;
    let format = match opts.get("format") {
        Some("html") | None => Format::Html,
        Some("md" | "markdown") => Format::Markdown,
        Some(other) => return Err(format!("bad --format `{other}` (expected html or md)").into()),
    };
    let default_out = match format {
        Format::Html => "spindle-observatory.html",
        Format::Markdown => "spindle-observatory.md",
    };
    let out_path = opts.get("out").unwrap_or(default_out);
    // An `--out foo.md` without `--format` still means markdown.
    let format = if out_path.ends_with(".md") {
        Format::Markdown
    } else {
        format
    };

    let requests = read_trace(in_path, inv)?;
    let rollups = Arc::new(RollupSet::sim());
    let result = {
        let mut sim = build_sim(opts, inv, Some(Arc::clone(&rollups)))?;
        let _span = ObsSpan::new(spindle_obs::global(), "cli.simulate");
        sim.run(&requests)?
    };
    let registry = spindle_obs::global();
    let report = Observatory::build(
        in_path,
        opts.get("profile").unwrap_or("cheetah-15k"),
        opts.get("scheduler").unwrap_or("sptf"),
        &result,
        &rollups.snapshot(),
        &registry.snapshot(),
        &registry.exemplars().snapshot(),
    );
    let rendered = match format {
        Format::Html => report.to_html(),
        Format::Markdown => report.to_markdown(),
    };
    write_output_file(out_path, &rendered)?;
    progress!("wrote observatory to {out_path}");
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Html,
    Markdown,
}

/// One rendered table: the same data feeds the HTML and markdown
/// back ends.
#[derive(Debug)]
struct Section {
    caption: String,
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

/// The assembled observatory document.
#[derive(Debug)]
struct Observatory {
    title: String,
    sections: Vec<Section>,
}

/// Read/write mix of one resolution's retained windows.
#[derive(Debug, Default, PartialEq, Eq)]
struct RwMix {
    spanned: u64,
    read_only: u64,
    write_only: u64,
    mixed: u64,
    /// Spanned windows with neither a read nor a write completion
    /// (implicit absent windows included).
    quiet: u64,
}

/// Classifies each retained window of `r` by the read/write
/// completions banked into it; windows the ring spans but nothing
/// landed in count as quiet.
fn rw_mix(r: &ResolutionSnapshot) -> RwMix {
    let mut m = RwMix::default();
    let (Some(first), Some(last)) = (r.windows.first(), r.windows.last()) else {
        return m;
    };
    m.spanned = last.index - first.index + 1;
    for w in &r.windows {
        let get = |name: &str| w.accum.counters.get(name).copied().unwrap_or(0);
        let reads = get("disk.reads");
        let writes = get("disk.writes");
        match (reads > 0, writes > 0) {
            (true, true) => m.mixed += 1,
            (true, false) => m.read_only += 1,
            (false, true) => m.write_only += 1,
            (false, false) => {}
        }
    }
    m.quiet = m.spanned - m.read_only - m.write_only - m.mixed;
    m
}

/// Human-readable window label for a resolution (`"run"` for the
/// whole-run window).
fn window_label(r: &ResolutionSnapshot) -> String {
    match r.resolution.window_secs() {
        Some(s) if s < 1.0 => format!("{:.0} ms", s * 1e3),
        Some(s) => format!("{s:.0} s"),
        None => "run".to_owned(),
    }
}

/// The slowest exemplar kept for `metric`: across buckets the
/// keep-max-per-bucket policy makes this the overall maximum
/// observation, deterministically.
fn slowest_exemplar(
    exemplars: &[(String, Vec<Option<Exemplar>>)],
    metric: &str,
) -> Option<Exemplar> {
    let (_, slots) = exemplars.iter().find(|(name, _)| name == metric)?;
    slots.iter().flatten().copied().max_by_key(|e| e.value)
}

impl Observatory {
    #[allow(clippy::too_many_arguments)]
    fn build(
        in_path: &str,
        profile: &str,
        scheduler: &str,
        result: &SimResult,
        rollups: &RollupSnapshot,
        snap: &Snapshot,
        exemplars: &[(String, Vec<Option<Exemplar>>)],
    ) -> Observatory {
        let mut sections = Vec::new();

        sections.push(Section {
            caption: "run summary".to_owned(),
            headers: vec!["metric", "value"],
            rows: vec![
                vec!["trace".to_owned(), in_path.to_owned()],
                vec!["profile".to_owned(), profile.to_owned()],
                vec!["scheduler".to_owned(), scheduler.to_owned()],
                vec!["requests".to_owned(), result.completed.len().to_string()],
                vec![
                    "simulated span (s)".to_owned(),
                    format!("{:.1}", result.busy.span_ns() as f64 / 1e9),
                ],
                vec![
                    "utilization".to_owned(),
                    format!("{:.4}", result.utilization()),
                ],
                vec![
                    "mean response (ms)".to_owned(),
                    format!("{:.2}", result.mean_response_ms()),
                ],
                vec![
                    "rollup axis".to_owned(),
                    format!(
                        "{} ({} resolutions)",
                        rollups.axis,
                        rollups.resolutions.len()
                    ),
                ],
            ],
        });

        // Utilization per time-scale: the same busy log, sliced at
        // each rollup resolution's window width — the paper's "looks
        // saturated at 10 ms, idle at 1 min" contrast.
        let mut util_rows = Vec::new();
        for r in &rollups.resolutions {
            let Some(window_ns) = r.resolution.window_ns else {
                continue;
            };
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
            util_rows.push(vec![
                window_label(r).to_string(),
                n.to_string(),
                format!("{mean:.4}"),
                format!("{max:.4}"),
                pct(idle, n),
            ]);
        }
        sections.push(Section {
            caption: "utilization by time-scale".to_owned(),
            headers: vec!["window", "windows", "mean util", "max util", "idle windows"],
            rows: util_rows,
        });

        // Read/write mix straight off the rollup wheel's retained
        // windows, one row per resolution.
        let mix_rows = rollups
            .resolutions
            .iter()
            .filter(|r| r.resolution.window_ns.is_some())
            .map(|r| {
                let m = rw_mix(r);
                let spanned = usize::try_from(m.spanned).unwrap_or(usize::MAX);
                vec![
                    window_label(r),
                    m.spanned.to_string(),
                    pct(usize::try_from(m.read_only).unwrap_or(0), spanned),
                    pct(usize::try_from(m.write_only).unwrap_or(0), spanned),
                    pct(usize::try_from(m.mixed).unwrap_or(0), spanned),
                    pct(usize::try_from(m.quiet).unwrap_or(0), spanned),
                ]
            })
            .collect();
        sections.push(Section {
            caption: "read/write mix by time-scale (retained rollup windows)".to_owned(),
            headers: vec![
                "window",
                "windows",
                "read-only",
                "write-only",
                "mixed",
                "quiet",
            ],
            rows: mix_rows,
        });

        // Burstiness and idle-interval statistics of the completion
        // stream, per resolution.
        let burst_rows = rollups
            .resolutions
            .iter()
            .map(|r| {
                let merged = r.merged();
                let total = merged
                    .counters
                    .get("disk.requests_completed")
                    .copied()
                    .unwrap_or(0);
                let idle = r.idle_stats();
                let (peak, mean, ratio) = match r.burstiness("disk.requests_completed") {
                    Some(b) => (
                        b.peak.to_string(),
                        format!("{:.2}", b.mean),
                        format!("{:.2}", b.peak_to_mean),
                    ),
                    None => ("n/a".to_owned(), "n/a".to_owned(), "n/a".to_owned()),
                };
                vec![
                    window_label(r),
                    r.windows.len().to_string(),
                    r.evicted_windows.to_string(),
                    total.to_string(),
                    peak,
                    mean,
                    ratio,
                    idle.idle.to_string(),
                    idle.longest_idle_streak.to_string(),
                ]
            })
            .collect();
        sections.push(Section {
            caption: "completion burstiness and idle intervals by time-scale".to_owned(),
            headers: vec![
                "window",
                "retained",
                "evicted",
                "completions",
                "peak/window",
                "mean/window",
                "peak-to-mean",
                "idle windows",
                "longest idle streak",
            ],
            rows: burst_rows,
        });

        // Tail attribution: where each request's latency went, with
        // the slowest concrete request per component.
        let tail_rows = ATTRIBUTION_METRICS
            .iter()
            .filter_map(|&(metric, label)| {
                let h = snap.histogram(metric)?;
                if h.count == 0 {
                    return None;
                }
                let mean = h.sum as f64 / h.count as f64;
                let (slowest, id, op, at) = match slowest_exemplar(exemplars, metric) {
                    Some(ex) => (
                        ex.value.to_string(),
                        ex.id.to_string(),
                        ex.op.to_owned(),
                        format!("{:.3}", ex.t_ns as f64 / 1e9),
                    ),
                    None => (
                        "n/a".to_owned(),
                        "n/a".to_owned(),
                        "n/a".to_owned(),
                        "n/a".to_owned(),
                    ),
                };
                Some(vec![
                    label.to_owned(),
                    h.count.to_string(),
                    format!("{mean:.0}"),
                    format!("{:.0}", h.quantile(0.50)),
                    format!("{:.0}", h.quantile(0.95)),
                    format!("{:.0}", h.quantile(0.99)),
                    slowest,
                    id,
                    op,
                    at,
                ])
            })
            .collect();
        sections.push(Section {
            caption: "tail latency attribution (µs; exemplars name the slowest request)".to_owned(),
            headers: vec![
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
            rows: tail_rows,
        });

        Observatory {
            title: in_path.to_owned(),
            sections,
        }
    }

    fn to_html(&self) -> String {
        let tables: String = self
            .sections
            .iter()
            .map(|s| html_table(&s.caption, &s.headers, &s.rows))
            .collect();
        format!(
            "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
             <title>spindle observatory — {title}</title>\n\
             <style>\n\
             body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; }}\n\
             table {{ border-collapse: collapse; margin: 1rem 0; }}\n\
             caption {{ text-align: left; font-weight: 600; padding: 0.25rem 0; }}\n\
             th, td {{ border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: right; }}\n\
             th:first-child, td:first-child {{ text-align: left; }}\n\
             </style></head><body>\n\
             <h1>spindle observatory</h1>\n\
             <p>Multi-time-scale view of one simulated run: the rollup \
             wheel's windows at every resolution, and the per-request \
             latency attribution whose exemplar ids match the \
             <code>drive.queue</code>/<code>drive.service</code> slices \
             of a <code>--trace-out</code> timeline.</p>\n\
             {tables}\
             </body></html>\n",
            title = esc(&self.title),
        )
    }

    fn to_markdown(&self) -> String {
        let mut out = format!("# spindle observatory — {}\n", self.title);
        for s in &self.sections {
            out.push_str(&format!("\n## {}\n\n", s.caption));
            out.push_str(&md_table(&s.headers, &s.rows));
        }
        out
    }
}

/// One GitHub-flavored markdown table (pipes escaped in cells).
fn md_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cell = |s: &str| s.replace('|', "\\|");
    let mut t = String::new();
    t.push_str("| ");
    t.push_str(
        &headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(" | "),
    );
    t.push_str(" |\n|");
    t.push_str(&" --- |".repeat(headers.len()));
    t.push('\n');
    for row in rows {
        t.push_str("| ");
        t.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(" | "));
        t.push_str(" |\n");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_obs::exemplar::ExemplarStore;
    use spindle_obs::rollup::RollupSet;

    #[test]
    fn rw_mix_classifies_rollup_windows() {
        let set = RollupSet::sim();
        // 1s windows: reads in window 0, writes in window 1, both in
        // window 2, window 3 spanned but quiet, destage-only window 4.
        set.add_counter("disk.reads", 100, 1);
        set.add_counter("disk.writes", 1_500_000_000, 1);
        set.add_counter("disk.reads", 2_100_000_000, 1);
        set.add_counter("disk.writes", 2_200_000_000, 1);
        set.add_counter("disk.destages", 4_500_000_000, 1);
        let snap = set.snapshot();
        let r = snap.resolution("1s").unwrap();
        let m = rw_mix(r);
        assert_eq!(
            m,
            RwMix {
                spanned: 5,
                read_only: 1,
                write_only: 1,
                mixed: 1,
                quiet: 2,
            }
        );
    }

    #[test]
    fn rw_mix_of_an_empty_resolution_is_zero() {
        let set = RollupSet::sim();
        let snap = set.snapshot();
        let m = rw_mix(snap.resolution("1s").unwrap());
        assert_eq!(m, RwMix::default());
    }

    #[test]
    fn window_labels_cover_the_ladder() {
        let set = RollupSet::sim();
        let snap = set.snapshot();
        let labels: Vec<String> = snap.resolutions.iter().map(window_label).collect();
        assert_eq!(labels, vec!["10 ms", "1 s", "60 s", "run"]);
    }

    #[test]
    fn slowest_exemplar_is_the_global_maximum() {
        let store = ExemplarStore::new();
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
    fn markdown_tables_escape_pipes() {
        let t = md_table(&["a", "b"], &[vec!["1|2".to_owned(), "3".to_owned()]]);
        assert!(t.starts_with("| a | b |\n| --- | --- |\n"));
        assert!(t.contains("| 1\\|2 | 3 |"));
    }
}
