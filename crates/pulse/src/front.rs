//! The command-line front end `spindle` and `experiments` share.
//!
//! Both binaries wrap their command in the same machinery, so it lives
//! here once, in three parts:
//!
//! * **One parser.** [`parse`] reads a subcommand's `--key value` /
//!   `--key=value` options; [`peel`] applies the same rules to lift the
//!   global options ([`SHARED`] plus a binary's own) out of a command
//!   line wherever they appear, leaving every other token in order.
//! * **One resolution.** [`Invocation::resolve`] turns those options and
//!   the environment (`SPINDLE_FAULTS`, `SPINDLE_TELEMETRY_SINK`,
//!   `SPINDLE_JOBS`) into one value: the fault plan, the observer
//!   config, the flight recorder, the lenient setting and the export
//!   destinations. Code below the front end receives that value instead
//!   of consulting process-wide switches.
//! * **One lifecycle.** [`Invocation::run`] installs what other crates
//!   read process-wide (fault plan, flight recorder, log level, worker
//!   count), starts the live [`Session`] and the frame [`Exporter`],
//!   runs the command, finishes the session before the exporter,
//!   writes the trace and the metrics dump, and uninstalls.
//!
//! A reader that closes stdout early ends either binary quietly (see
//! [`exit_quietly_on_closed_stdout`] and [`stdout`]). SIGPIPE stays
//! ignored, so a peer that drops a socket mid-write is still an `EPIPE`
//! error to the server that wrote it, not a killed daemon.

use crate::{Exporter, RunStatus, Session};
use spindle_harden::FaultPlan;
use spindle_obs::sink::{JsonSink, MetricsSink, TextSink};
use spindle_obs::{progress, FlightRecorder, LogLevel, ObsConfig, RollupSet, TraceEventSink};
use std::io::{self, Write};
use std::iter::Peekable;
use std::slice::Iter;
use std::sync::Arc;

/// How an option takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A bare `--flag`.
    Flag,
    /// `--key VALUE` or `--key=VALUE`.
    Value,
    /// `--key` or `--key=VALUE`; the next token is never taken.
    Attached,
    /// `--key`, `--key=ADDR`, or `--key ADDR` when the next token
    /// passes [`is_addr`].
    Addr,
}

/// The global options both binaries accept.
pub const SHARED: &[(&str, Arity)] = &[
    ("jobs", Arity::Value),
    ("metrics", Arity::Attached),
    ("metrics-out", Arity::Value),
    ("trace-out", Arity::Value),
    ("faults", Arity::Value),
    ("serve", Arity::Addr),
    ("live", Arity::Flag),
    ("verbose", Arity::Flag),
    ("quiet", Arity::Flag),
];

/// Whether an operand names a socket address rather than the next
/// option, subcommand or experiment id (addresses carry a `:port`).
#[must_use]
pub fn is_addr(s: &str) -> bool {
    !s.starts_with('-') && s.contains(':')
}

/// Parsed options in command-line order; the last occurrence of a
/// repeated option wins.
#[derive(Debug, Default)]
pub struct Options {
    given: Vec<(String, Option<String>)>,
}

/// Parses `--key value` / `--key=value` pairs and bare `--flag`s from
/// `argv`.
///
/// `boolean_flags` lists the options that take no value.
///
/// # Errors
///
/// Returns a message for unknown syntax (non-`--` tokens), a missing
/// value, or a value attached to a boolean flag.
pub fn parse(argv: &[String], boolean_flags: &[&str]) -> Result<Options, String> {
    let mut out = Options::default();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let Some((key, inline)) = split(arg) else {
            return Err(format!(
                "unexpected argument `{arg}` (options start with --)"
            ));
        };
        let arity = if boolean_flags.contains(&key) {
            Arity::Flag
        } else {
            Arity::Value
        };
        let value = take(key, inline, arity, &mut it)?;
        out.given.push((key.to_owned(), value));
    }
    Ok(out)
}

/// Lifts the `known` options out of `argv` wherever they appear and
/// returns them with the remaining tokens, in order. A `--flag=VALUE`
/// token is not the flag and stays in the remainder.
///
/// # Errors
///
/// Returns a message when a known option lacks its value.
pub fn peel(argv: &[String], known: &[(&str, Arity)]) -> Result<(Options, Vec<String>), String> {
    let mut out = Options::default();
    let mut rest = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let ours = split(arg).and_then(|(key, inline)| {
            let &(_, arity) = known.iter().find(|(name, _)| *name == key)?;
            (arity != Arity::Flag || inline.is_none()).then_some((key, inline, arity))
        });
        match ours {
            Some((key, inline, arity)) => {
                let value = take(key, inline, arity, &mut it)?;
                out.given.push((key.to_owned(), value));
            }
            None => rest.push(arg.clone()),
        }
    }
    Ok((out, rest))
}

/// Splits an option token into its key and any `=value`.
fn split(arg: &str) -> Option<(&str, Option<&str>)> {
    let body = arg.strip_prefix("--")?;
    Some(match body.split_once('=') {
        Some((key, value)) => (key, Some(value)),
        None => (body, None),
    })
}

/// The value of one option, taking the next token when `arity` calls
/// for it.
fn take(
    key: &str,
    inline: Option<&str>,
    arity: Arity,
    next: &mut Peekable<Iter<'_, String>>,
) -> Result<Option<String>, String> {
    match (arity, inline) {
        (Arity::Flag, Some(_)) => Err(format!("flag --{key} takes no value")),
        (_, Some(value)) => Ok(Some(value.to_owned())),
        (Arity::Flag | Arity::Attached, None) => Ok(None),
        (Arity::Value, None) => next
            .next()
            .map(|v| Some(v.clone()))
            .ok_or_else(|| format!("option --{key} needs a value")),
        (Arity::Addr, None) => Ok(next.next_if(|t| is_addr(t)).cloned()),
    }
}

impl Options {
    /// The last occurrence of `--key`: `Some(None)` when it was bare.
    fn last(&self, key: &str) -> Option<&Option<String>> {
        self.given
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// String value of `--key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.last(key)?.as_deref()
    }

    /// Whether `--key` was given bare (for flags: whether it was given).
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.last(key), Some(None))
    }

    /// Parsed value of `--key`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad value for --{key}: {e}")),
        }
    }

    /// Required value of `--key`.
    ///
    /// # Errors
    ///
    /// Returns a message when the option is absent.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }
}

/// One invocation's global options and environment, resolved once.
#[derive(Debug)]
pub struct Invocation {
    /// Worker count from `--jobs`; without it parallel stages fall back
    /// to [`spindle_engine::default_jobs`].
    pub jobs: Option<usize>,
    /// Metrics dump format, `"text"` or `"json"`.
    pub metrics: Option<&'static str>,
    /// Metrics dump destination (`--metrics-out`; stderr when absent).
    pub metrics_out: Option<String>,
    /// Chrome trace-event export destination (`--trace-out`).
    pub trace_out: Option<String>,
    /// The fault plan: `--faults`, else `SPINDLE_FAULTS`.
    pub faults: Option<Arc<FaultPlan>>,
    /// Skip malformed trace records instead of failing (`--lenient`).
    pub lenient: bool,
    /// What the simulator observers record.
    pub obs: ObsConfig,
    /// The flight recorder: a full one when the run writes a trace, a
    /// wall-only one when it streams to a telemetry sink, else none.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// `--serve`: `Some(None)` bare, `Some(Some(addr))` explicit.
    pub serve: Option<Option<String>>,
    /// `--live`.
    pub live: bool,
    /// `--verbose` or `--quiet`, whichever came last.
    pub level: Option<LogLevel>,
    /// Prefix of the binary's stderr notes.
    note: &'static str,
}

impl Invocation {
    /// Resolves peeled global options and the environment. `note`
    /// prefixes the notes the lifecycle prints on stderr.
    ///
    /// The observer config and the recorder follow one table:
    ///
    /// | condition                           | `obs`            | recorder  |
    /// |-------------------------------------|------------------|-----------|
    /// | `--trace-out`                       | `metrics_only()` | full      |
    /// | otherwise `--metrics` and a sink    | `metrics_only()` | wall-only |
    /// | otherwise `--metrics`               | `metrics_only()` | none      |
    /// | otherwise a telemetry sink in env   | `disabled()`     | wall-only |
    /// | otherwise                           | `disabled()`     | none      |
    ///
    /// The simulator reaches a recorder through its metrics observer
    /// and holds only a full one; a sink's wall-only recorder carries
    /// the run's wall spans upstream at exporter shutdown. A sink reads
    /// no registry numbers, so it turns no observer on.
    ///
    /// # Errors
    ///
    /// Returns a message for a bad `--metrics` format, `--jobs` value,
    /// or fault spec.
    pub fn resolve(opts: &Options, note: &'static str) -> Result<Invocation, String> {
        let metrics_out = opts.get("metrics-out").map(str::to_owned);
        let metrics = match opts.last("metrics") {
            // `--metrics-out FILE` alone implies a text dump.
            None => metrics_out.is_some().then_some("text"),
            Some(Some(f)) if f == "json" => Some("json"),
            Some(Some(f)) if f != "text" => {
                return Err(format!("bad metrics format `{f}` (expected text or json)"))
            }
            Some(_) => Some("text"),
        };
        let jobs = opts
            .get("jobs")
            .map(spindle_engine::parse_jobs)
            .transpose()
            .map_err(|e| format!("bad value for --jobs: {e}"))?;
        let faults = match opts.get("faults") {
            Some(spec) => FaultPlan::parse(spec)
                .map(Some)
                .map_err(|e| format!("bad value for --faults: {e}")),
            None => spindle_harden::plan_from_env()
                .map_err(|e| format!("bad {}: {e}", spindle_harden::FAULTS_ENV)),
        }?;
        let trace_out = opts.get("trace-out").map(str::to_owned);
        let sink = std::env::var(spindle_obs::frame::SINK_ENV).is_ok_and(|v| !v.is_empty());
        let (obs, recorder) = observers(trace_out.is_some(), metrics.is_some(), sink);
        let level = opts.given.iter().rev().find_map(|(k, _)| match k.as_str() {
            "verbose" => Some(LogLevel::Verbose),
            "quiet" => Some(LogLevel::Quiet),
            _ => None,
        });
        Ok(Invocation {
            jobs,
            metrics,
            metrics_out,
            trace_out,
            faults: faults.map(Arc::new),
            lenient: opts.flag("lenient"),
            obs,
            recorder: recorder.map(Arc::new),
            serve: opts.last("serve").cloned(),
            live: opts.flag("live"),
            level,
            note,
        })
    }

    /// Runs `command` inside the invocation's lifecycle and returns its
    /// value plus the live session's wall-axis rollup wheel, when a
    /// session ran. `phase` names the run in `/status`, `label` in the
    /// exporter's hello frame, and `total` counts the work units the
    /// progress status tracks. The trace export and the metrics dump
    /// follow only a successful command; what was installed is
    /// uninstalled either way.
    ///
    /// Telemetry is read-only over the registry and writes only to
    /// stderr and sockets, so stdout and every artifact are the same
    /// with it on or off.
    ///
    /// # Errors
    ///
    /// The command's error, an unbindable `--serve` address, or a
    /// failed export.
    pub fn run<T, E: From<String>>(
        &self,
        phase: &str,
        label: &str,
        total: u64,
        command: impl FnOnce(&Run) -> Result<T, E>,
    ) -> Result<(T, Option<Arc<RollupSet>>), E> {
        self.install();
        let result = self.observed(phase, label, total, command);
        self.uninstall();
        result
    }

    fn install(&self) {
        if let Some(level) = self.level {
            spindle_obs::logger::set_level(level);
        }
        if let Some(jobs) = self.jobs {
            // Parallel stages size their default pools from this
            // variable, so one flag governs the whole process.
            std::env::set_var(spindle_engine::JOBS_ENV, jobs.to_string());
        }
        // The matrix's panic/hang/kill hooks and the exporter's stall
        // check read the installed plan; spans and pool workers read
        // the installed recorder.
        if let Some(plan) = &self.faults {
            progress!("{}fault plan: {}", self.note, plan.spec());
            spindle_harden::install(Arc::clone(plan));
        }
        if let Some(rec) = &self.recorder {
            spindle_obs::recorder::install(Arc::clone(rec));
        }
    }

    fn uninstall(&self) {
        if self.recorder.is_some() {
            spindle_obs::recorder::uninstall();
        }
        if self.faults.is_some() {
            spindle_harden::uninstall();
        }
    }

    fn observed<T, E: From<String>>(
        &self,
        phase: &str,
        label: &str,
        total: u64,
        command: impl FnOnce(&Run) -> Result<T, E>,
    ) -> Result<(T, Option<Arc<RollupSet>>), E> {
        let registry = spindle_obs::global();
        let serve = self.serve.as_ref().map(Option::as_deref);
        let session = Session::start(registry, serve, self.live, total, phase)?;
        // An exporter-only run gets a private status that never
        // registers the progress counter, which keeps the registry
        // byte-identical with telemetry off.
        let status = session.as_ref().map_or_else(
            || {
                let s = Arc::new(RunStatus::new(total));
                s.set_phase(phase);
                s
            },
            |s| Arc::clone(&s.status),
        );
        let exporter = Exporter::from_env(Arc::clone(&status), label);
        let run = Run {
            status,
            watched: self.metrics.is_some() || session.is_some(),
        };
        let value = command(&run);
        let rollups = session.map(|s| {
            let rollups = Arc::clone(s.rollups());
            s.finish();
            rollups
        });
        if let Some(e) = exporter {
            e.finish();
        }
        let value = value?;
        self.export()?;
        Ok((value, rollups))
    }

    fn export(&self) -> Result<(), String> {
        if let (Some(rec), Some(path)) = (&self.recorder, &self.trace_out) {
            TraceEventSink::full()
                .export_string(rec)
                .map_err(|e| e.to_string())
                .and_then(|json| write_output_file(path, &json))
                .map_err(|e| format!("trace export failed: {e}"))?;
            progress!(
                "{}wrote trace to {path} (load it in Perfetto or chrome://tracing)",
                self.note
            );
        }
        if let Some(format) = self.metrics {
            let snapshot = spindle_obs::global().snapshot();
            let rendered = match format {
                "json" => JsonSink.export_string(&snapshot),
                _ => TextSink.export_string(&snapshot),
            }
            .map_err(|e| format!("metrics export failed: {e}"))?;
            match &self.metrics_out {
                Some(path) => {
                    write_output_file(path, &rendered)?;
                    progress!("{}wrote metrics to {path}", self.note);
                }
                None => eprint!("{rendered}"),
            }
        }
        Ok(())
    }
}

/// The observer config and flight recorder of [`Invocation::resolve`]'s
/// table, from whether the run writes a trace, dumps metrics, and
/// streams to a telemetry sink.
fn observers(trace: bool, metrics: bool, sink: bool) -> (ObsConfig, Option<FlightRecorder>) {
    let obs = if trace || metrics {
        ObsConfig::metrics_only()
    } else {
        ObsConfig::disabled()
    };
    let recorder = if trace {
        Some(FlightRecorder::new())
    } else {
        sink.then(FlightRecorder::wall_only)
    };
    (obs, recorder)
}

/// The live side of a run, as the command sees it.
#[derive(Debug)]
pub struct Run {
    /// Progress shared with `/status`, the dashboard and the exporter.
    pub status: Arc<RunStatus>,
    /// Whether anything reads the registry during or after the run: a
    /// metrics dump or a live session.
    pub watched: bool,
}

/// Writes `contents` to `path`, creating any missing parent
/// directories.
///
/// # Errors
///
/// Returns a message naming the offending path.
pub fn write_output_file(path: &str, contents: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() && !parent.exists() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create directory `{}` for output file `{path}`: {e}",
                    parent.display()
                )
            })?;
        }
    }
    std::fs::write(p, contents.as_bytes())
        .map_err(|e| format!("cannot write output file `{path}`: {e}"))
}

/// Makes a reader that closes stdout early (`spindle analyze … |
/// head`) end the process quietly with status 0 instead of a panic and
/// a backtrace. `print!` reports a failed write by panicking with
/// `failed printing to stdout: ERROR`; the hook installed here turns
/// that panic into the exit when ERROR is a broken pipe and hands every
/// other panic to the previous hook. Output keeps going through
/// `print!`, so test harnesses still capture it. Both binaries call
/// this first thing in `main`.
pub fn exit_quietly_on_closed_stdout() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let closed = info.payload_as_str().is_some_and(|m| {
            m.strip_prefix("failed printing to stdout: ")
                .is_some_and(|e| e.starts_with("Broken pipe"))
        });
        if closed {
            std::process::exit(0);
        }
        previous(info);
    }));
}

/// Locked stdout for streaming command output, with the closed-pipe
/// rule of [`exit_quietly_on_closed_stdout`]: a broken pipe ends the
/// process quietly with status 0, other write errors are returned.
#[derive(Debug)]
pub struct Stdout(io::StdoutLock<'static>);

/// Locks stdout for streaming command output (see [`Stdout`]).
#[must_use]
pub fn stdout() -> Stdout {
    Stdout(io::stdout().lock())
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf).map_err(exit_on_closed_pipe)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush().map_err(exit_on_closed_pipe)
    }
}

fn exit_on_closed_pipe(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| (*v).to_owned()).collect()
    }

    #[test]
    fn peel_lifts_known_options_and_keeps_the_rest_in_order() {
        let (opts, rest) = peel(
            &argv(&[
                "t2",
                "--jobs",
                "4",
                "--quick",
                "--metrics=json",
                "f5",
                "--live=1",
            ]),
            SHARED,
        )
        .unwrap();
        assert_eq!(opts.get("jobs"), Some("4"));
        assert_eq!(opts.get("metrics"), Some("json"));
        // Unknown options and a flag given a value are not ours.
        assert_eq!(rest, argv(&["t2", "--quick", "f5", "--live=1"]));
        assert!(peel(&argv(&["--trace-out"]), SHARED).is_err());
    }

    #[test]
    fn the_last_occurrence_wins() {
        let (opts, _) = peel(
            &argv(&["--metrics=json", "--metrics", "--quiet", "--verbose"]),
            SHARED,
        )
        .unwrap();
        let inv = Invocation::resolve(&opts, "").unwrap();
        assert_eq!(inv.metrics, Some("text"));
        assert_eq!(inv.level, Some(LogLevel::Verbose));
    }

    #[test]
    fn observer_config_follows_the_resolution_table() {
        // Tests run without the serve daemon's environment variables.
        if std::env::var(spindle_obs::frame::SINK_ENV).is_ok() {
            return;
        }
        let resolve = |args: &[&str]| {
            let (opts, _) = peel(&argv(args), SHARED).unwrap();
            Invocation::resolve(&opts, "").unwrap()
        };
        let off = resolve(&[]);
        assert_eq!(off.obs, ObsConfig::disabled());
        assert!(off.recorder.is_none());
        let metered = resolve(&["--metrics"]);
        assert_eq!(metered.obs, ObsConfig::metrics_only());
        assert!(metered.recorder.is_none());
        // A trace alone turns the observer on: the simulator reaches the
        // recorder through it.
        let traced = resolve(&["--trace-out", "t.json"]);
        assert_eq!(traced.obs, ObsConfig::metrics_only());
        assert!(traced.recorder.as_ref().is_some_and(|r| r.records_sim()));
        // A sink alone reads no registry numbers: the observer stays
        // off, and a wall-only recorder carries the spans upstream.
        let (obs, recorder) = observers(false, false, true);
        assert_eq!(obs, ObsConfig::disabled());
        assert!(recorder.is_some_and(|r| !r.records_sim()));
        let (obs, recorder) = observers(false, true, true);
        assert_eq!(obs, ObsConfig::metrics_only());
        assert!(recorder.is_some_and(|r| !r.records_sim()));
    }

    #[test]
    fn output_files_create_parents_and_name_failures() {
        let dir = std::env::temp_dir().join(format!("spindle-front-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("x/y/out.txt");
        write_output_file(nested.to_str().unwrap(), "hi").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "hi");
        let blocker = dir.join("plain");
        std::fs::write(&blocker, "f").unwrap();
        let err = write_output_file(blocker.join("out.txt").to_str().unwrap(), "x").unwrap_err();
        assert!(err.contains("out.txt"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
