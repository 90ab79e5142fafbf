//! `--live` terminal dashboard.
//!
//! [`LiveDashboard`] spawns a `pulse-live` thread that renders run
//! progress to **stderr** a few times a second: a progress bar,
//! experiments/sec and ETA from the sampler's recent-rate window (the
//! ETA waits for the steady-rate gate, so it never whipsaws in the
//! first seconds of a run), a throughput sparkline over the 1 s
//! windows of the sampler's wall rollup wheel, per-worker
//! utilization lanes, and the top-k hottest spans by total time.
//!
//! On a TTY the dashboard redraws in place with ANSI cursor movement
//! (`ESC[nA` up, `ESC[J` clear-below). When stderr is not a TTY —
//! CI logs, `2>file` — it degrades to plain line output at a much
//! lower cadence so logs stay readable and diffable.
//!
//! Rendering only ever *reads* the registry and writes to stderr, so
//! `--live` cannot perturb computed results or experiment stdout.

use crate::sampler::Sampler;
use crate::status::{worker_stats, RunStatus, PROGRESS_METRIC};
use spindle_obs::{MetricsRegistry, Snapshot};
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Redraw cadence on a TTY.
const TTY_CADENCE: Duration = Duration::from_millis(250);

/// Line cadence when stderr is not a TTY (plain mode).
const PLAIN_CADENCE: Duration = Duration::from_secs(2);

/// How many of the hottest spans the dashboard shows.
const TOP_SPANS: usize = 3;

/// Width of the progress bar in characters.
const BAR_WIDTH: usize = 30;

/// The background dashboard renderer.
///
/// Dropping the dashboard stops the thread after a final frame.
#[derive(Debug)]
pub struct LiveDashboard {
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl LiveDashboard {
    /// Starts rendering `status`, `registry` and the throughput
    /// sparkline of `sampler`'s rollup wheel to stderr. TTY detection
    /// picks in-place redraw or plain line mode automatically.
    #[must_use]
    pub fn start(
        registry: &'static MetricsRegistry,
        status: Arc<RunStatus>,
        sampler: Arc<Sampler>,
    ) -> LiveDashboard {
        let tty = std::io::stderr().is_terminal();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pulse-live".to_owned())
            .spawn(move || {
                let cadence = if tty { TTY_CADENCE } else { PLAIN_CADENCE };
                let mut last_lines = 0usize;
                loop {
                    let done = thread_stop.load(Ordering::Acquire);
                    let frame = render_frame(&status, &registry.snapshot(), &sampler);
                    let mut err = std::io::stderr().lock();
                    if tty {
                        if last_lines > 0 {
                            // Move up over the previous frame and clear
                            // it before redrawing.
                            let _ = write!(err, "\x1b[{last_lines}A\x1b[J");
                        }
                        let _ = err.write_all(frame.as_bytes());
                        last_lines = frame.lines().count();
                    } else {
                        // Plain mode: one status line per tick.
                        let _ = writeln!(err, "{}", summary_line(&status, &sampler));
                    }
                    let _ = err.flush();
                    drop(err);
                    if done {
                        break;
                    }
                    std::thread::park_timeout(cadence);
                }
            })
            .expect("dashboard thread spawns");
        LiveDashboard {
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Stops the dashboard after one final frame. Idempotent; also
    /// called on drop.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = self.handle.lock().expect("dashboard handle lock").take();
        if let Some(h) = handle {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for LiveDashboard {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `[#####....]`-style progress bar.
fn progress_bar(completed: u64, total: u64) -> String {
    let filled = if total == 0 {
        0
    } else {
        (completed.min(total) as usize * BAR_WIDTH) / total as usize
    };
    let mut bar = String::with_capacity(BAR_WIDTH + 2);
    bar.push('[');
    for i in 0..BAR_WIDTH {
        bar.push(if i < filled { '#' } else { '.' });
    }
    bar.push(']');
    bar
}

/// `mm:ss` rendering of a second count; `--:--` when unknown.
fn fmt_eta(secs: Option<f64>) -> String {
    match secs {
        Some(s) if s.is_finite() && s >= 0.0 => {
            let s = s.round() as u64;
            format!("{:02}:{:02}", s / 60, s % 60)
        }
        _ => "--:--".to_owned(),
    }
}

/// The one-line summary shared by both modes. The displayed rate is
/// the plain recent rate; the ETA waits for the steady-rate gate so it
/// shows `--:--` instead of a wild guess while the window is thin.
fn summary_line(status: &RunStatus, sampler: &Sampler) -> String {
    let completed = status.completed();
    let total = status.total();
    let window = sampler.progress();
    let rate = window.rate_per_sec().filter(|r| *r > 0.0);
    let eta = window.eta_secs(completed, total);
    format!(
        "spindle {} {}/{} ({:.1}/s, eta {})",
        status.phase(),
        completed,
        total,
        rate.unwrap_or(0.0),
        fmt_eta(eta),
    )
}

/// Block-character sparkline of a per-window series; empty when the
/// series has no activity yet.
fn sparkline(series: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = series.iter().copied().max().unwrap_or(0);
    if peak == 0 {
        return String::new();
    }
    series
        .iter()
        .map(|&v| {
            // Map 0..=peak onto the block ramp; zero stays the lowest.
            let idx = ((v as f64 / peak as f64) * (BLOCKS.len() - 1) as f64).round() as usize;
            BLOCKS[idx.min(BLOCKS.len() - 1)]
        })
        .collect()
}

/// The sparkline row driven by the sampler wheel's 1 s windows: recent
/// completion throughput at a glance. `None` until something completed.
fn sparkline_row(sampler: &Sampler) -> Option<String> {
    let snap = sampler.rollups().snapshot();
    let res = snap.resolution("1s")?;
    let series = res.series(PROGRESS_METRIC);
    // Show the most recent windows that fit a dashboard row.
    const SPARK_WIDTH: usize = 30;
    let tail = &series[series.len().saturating_sub(SPARK_WIDTH)..];
    let spark = sparkline(tail);
    if spark.is_empty() {
        return None;
    }
    Some(format!("  1s {spark}\n"))
}

/// Renders one full dashboard frame (TTY mode).
fn render_frame(status: &RunStatus, snapshot: &Snapshot, sampler: &Sampler) -> String {
    let mut out = String::new();
    let completed = status.completed();
    let total = status.total();
    out.push_str(&format!(
        "{} {}\n",
        progress_bar(completed, total),
        summary_line(status, sampler)
    ));
    if let Some(row) = sparkline_row(sampler) {
        out.push_str(&row);
    }

    for w in worker_stats(snapshot) {
        let util = w.utilization().unwrap_or(0.0);
        let lane = (util * 10.0).round() as usize;
        let mut bar = String::with_capacity(10);
        for i in 0..10 {
            bar.push(if i < lane { '|' } else { ' ' });
        }
        out.push_str(&format!(
            "  w{} [{}] {:>3.0}% busy, {} tasks\n",
            w.worker,
            bar,
            util * 100.0,
            w.tasks_executed
        ));
    }

    let mut spans: Vec<_> = snapshot.spans.iter().collect();
    spans.sort_by_key(|s| std::cmp::Reverse(s.1.total_ns));
    for (name, s) in spans.into_iter().take(TOP_SPANS) {
        out.push_str(&format!(
            "  span {name}: {} calls, {:.2}ms mean, {:.2}ms max\n",
            s.count,
            s.mean_ms(),
            s.max_ns as f64 / 1e6
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::PROGRESS_METRIC;

    #[test]
    fn progress_bar_fills_proportionally() {
        assert_eq!(progress_bar(0, 10).matches('#').count(), 0);
        assert_eq!(progress_bar(5, 10).matches('#').count(), BAR_WIDTH / 2);
        assert_eq!(progress_bar(10, 10).matches('#').count(), BAR_WIDTH);
        // Degenerate totals never panic or overflow the bar.
        assert_eq!(progress_bar(3, 0).matches('#').count(), 0);
        assert_eq!(progress_bar(99, 10).matches('#').count(), BAR_WIDTH);
    }

    #[test]
    fn eta_formats_and_handles_unknowns() {
        assert_eq!(fmt_eta(Some(0.0)), "00:00");
        assert_eq!(fmt_eta(Some(61.0)), "01:01");
        assert_eq!(fmt_eta(Some(3599.6)), "60:00");
        assert_eq!(fmt_eta(None), "--:--");
        assert_eq!(fmt_eta(Some(f64::NAN)), "--:--");
        assert_eq!(fmt_eta(Some(-1.0)), "--:--");
    }

    #[test]
    fn frame_shows_progress_workers_and_spans() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        registry.counter("engine.worker.0.busy_us").add(75);
        registry.counter("engine.worker.0.idle_us").add(25);
        registry.counter("engine.worker.0.tasks_executed").add(4);
        registry.record_span("phase.run", Duration::from_millis(8));
        let status = RunStatus::new(8);
        status.set_phase("running");
        status.complete_one();
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        let frame = render_frame(&status, &registry.snapshot(), &sampler);
        assert!(frame.contains("1/8"), "{frame}");
        assert!(frame.contains("w0 ["), "{frame}");
        assert!(frame.contains("75% busy"), "{frame}");
        assert!(frame.contains("span phase.run: 1 calls"), "{frame}");
        assert!(!frame.contains('\x1b'), "frames carry no ANSI themselves");
        sampler.stop();
    }

    #[test]
    fn hottest_spans_are_capped_and_sorted() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        for (name, ms) in [("a", 1), ("b", 50), ("c", 10), ("d", 30), ("e", 2)] {
            registry.record_span(name, Duration::from_millis(ms));
        }
        let status = RunStatus::new(1);
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        let frame = render_frame(&status, &registry.snapshot(), &sampler);
        assert!(frame.contains("span b:"), "{frame}");
        assert!(frame.contains("span d:"), "{frame}");
        assert!(frame.contains("span c:"), "{frame}");
        assert!(!frame.contains("span a:"), "{frame}");
        assert!(!frame.contains("span e:"), "{frame}");
        let b = frame.find("span b:").unwrap();
        let d = frame.find("span d:").unwrap();
        assert!(b < d, "hotter span renders first:\n{frame}");
        sampler.stop();
    }

    #[test]
    fn sparkline_scales_to_the_peak() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "", "no activity, no sparkline");
        let s = sparkline(&[0, 1, 4, 8]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'), "{s}");
        assert!(s.ends_with('█'), "{s}");
    }

    #[test]
    fn frame_includes_sparkline_from_one_second_windows() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let status = RunStatus::new(8);
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        // Nothing completed yet: no row.
        let plain = render_frame(&status, &registry.snapshot(), &sampler);
        assert!(!plain.contains("  1s "), "{plain}");
        // Bank completions into three 1s windows directly.
        let rollups = sampler.rollups();
        rollups.add_counter(PROGRESS_METRIC, 100, 2);
        rollups.add_counter(PROGRESS_METRIC, 1_200_000_000, 6);
        rollups.add_counter(PROGRESS_METRIC, 2_900_000_000, 3);
        let frame = render_frame(&status, &registry.snapshot(), &sampler);
        let row = frame
            .lines()
            .find(|l| l.trim_start().starts_with("1s "))
            .expect("sparkline row rendered");
        assert_eq!(
            row.trim_start().trim_start_matches("1s ").chars().count(),
            3
        );
        sampler.stop();
    }

    #[test]
    fn dashboard_thread_starts_and_stops_cleanly() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let status = Arc::new(RunStatus::new(2));
        status.set_progress_counter(registry.counter(PROGRESS_METRIC));
        let sampler = Sampler::start(registry, Duration::from_millis(10), 8);
        let dash = LiveDashboard::start(registry, Arc::clone(&status), Arc::clone(&sampler));
        status.complete_one();
        std::thread::sleep(Duration::from_millis(20));
        dash.stop();
        dash.stop();
        sampler.stop();
    }
}
