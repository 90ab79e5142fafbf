//! Subcommand implementations.

use crate::args::{parse, Options};
use spindle_core::burstiness::BurstinessAnalysis;
use spindle_core::idle::{IdleAnalysis, AVAILABILITY_THRESHOLDS};
use spindle_core::lifetime::{saturation_curve, FamilyAnalysis};
use spindle_core::millisecond::MillisecondAnalysis;
use spindle_core::report::{cell, Table};
use spindle_disk::obs::SimObserver;
use spindle_disk::profile::DriveProfile;
use spindle_disk::scheduler::SchedulerKind;
use spindle_disk::sim::{DiskSim, SimConfig, SimResult};
use spindle_harden::io::FaultyReader;
use spindle_obs::{progress, ObsSpan};
use spindle_pulse::front::{self, Arity, Invocation, SHARED};
use spindle_synth::family::FamilySpec;
use spindle_synth::hourgen::{HourSeriesSpec, WEEK_HOURS};
use spindle_synth::presets::parse_environment;
use spindle_trace::{binary, csv, text, Request, SkipReport};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::sync::Arc;

pub(crate) use spindle_pulse::front::write_output_file;

pub(crate) type CmdResult = Result<(), Box<dyn std::error::Error>>;

const HELP: &str = "\
spindle — disk workload characterization toolkit

USAGE:
  spindle generate --env <mail|web|dev|archive> [--span SECS] [--seed N]
                   [--out FILE]
  spindle simulate --in FILE [--profile NAME] [--scheduler POLICY]
                   [--no-write-back]
  spindle analyze  --in FILE [--profile NAME]
  spindle report   --in FILE [--profile NAME] [--scheduler POLICY]
                   [--out FILE]
  spindle family   [--drives N] [--weeks N] [--seed N]
  spindle hourgen  [--drives N] [--weeks N] [--seed N]
                   [--hours-out FILE] [--lifetimes-out FILE]
  spindle power    --in FILE [--profile NAME]
  spindle anonymize --in FILE --out FILE [--key N] [--extent SECTORS]
  spindle trace assemble --dir JOBDIR [--out FILE]
  spindle trace check FILE
  spindle serve    [ADDR] [--queue-bound N] [--parallel N]
                   [--dir DIR | --resume-dir DIR]
                   [--default-deadline SECS] [--max-deadline SECS]
                   [--stall-timeout SECS] [--max-retries N]
                   [--retry-base-ms MS] [--drain-timeout SECS]
  spindle loadtest URL [--clients N] [--jobs M] [--span SECS]
                   [--out FILE]
  spindle chaos    URL [--seed N] [--daemon-pid PID] [--input FILE]
                   [--out FILE]
  spindle help

Global options (accepted before or after any command):
  --jobs N               worker threads for parallel stages
                         (default: the SPINDLE_JOBS variable, else all
                         cores; --jobs 1 forces the sequential path)
  --metrics[=text|json]  dump the metrics registry after the command
  --metrics-out FILE     write the dump to FILE instead of stderr
  --trace-out FILE       record the run in a flight recorder and export
                         it as Chrome trace-event JSON (open the file in
                         Perfetto or chrome://tracing)
  --lenient              skip malformed trace records instead of failing;
                         skips are counted (trace.records_skipped) and a
                         bounded sample of line numbers is reported
  --faults SPEC          inject deterministic faults (testing); SPEC is
                         comma-separated KIND@SITE tokens, e.g.
                         io@4096,short@8192,media@3,timeout@5, or seeded
                         scatter like seed@7,media%2/100 (also read from
                         the SPINDLE_FAULTS environment variable)
  --serve [ADDR]         serve live telemetry over HTTP while the
                         command runs: GET /metrics (Prometheus text
                         format), /healthz, /status (JSON progress);
                         ADDR defaults to the SPINDLE_SERVE variable,
                         else 127.0.0.1:9184; port 0 picks a free port
                         (the bound address is printed to stderr)
  --live                 redraw a progress dashboard on stderr (plain
                         line output when stderr is not a TTY)
  --verbose              include detail messages on stderr
  --quiet                suppress progress messages on stderr

`spindle report` runs a trace through the simulator and renders the
run at 100 ms, 1 s, 10 s and 60 s windows into one self-contained
HTML page: utilization, read/write mix with peak and peak-to-mean
arrivals per window, idle-interval availability, and the tail-latency
attribution table whose slowest entries name concrete request ids.

`spindle serve` runs the simulation-as-a-service daemon: POST a JSON
job spec to /jobs (kinds: generate, simulate, analyze, matrix),
poll GET /jobs/ID for status and ETA, fetch outputs from
/jobs/ID/artifacts/NAME, DELETE /jobs/ID to cancel. A full queue
answers 429 with a Retry-After hint. Jobs and their artifacts live
under --dir (default spindle-jobs); restarting with --resume-dir DIR
re-adopts the journal's incomplete jobs. ADDR defaults to
127.0.0.1:9185; port 0 picks a free port (printed to stderr).

Serve jobs are supervised: a job may carry `deadline_secs` (clamped
to --max-deadline; --default-deadline applies when the spec is
silent) and is killed with state `timed_out` when it overruns; a
child that stops streaming telemetry for --stall-timeout seconds
(0 disables) is killed as `stalled`. Kills and signal deaths retry
up to --max-retries times with exponential backoff (seeded jitter
over --retry-base-ms); a spec that fails every attempt lands in
`quarantined` and identical resubmissions are fast-rejected (409)
until a 60-second cooldown expires. SIGTERM drains gracefully: new
submissions get 503 + Retry-After, running jobs get --drain-timeout
seconds to finish, and unfinished work is left journaled for the
next --resume-dir restart.

`spindle trace assemble` rebuilds a serve job's causal trace offline:
point --dir at a job's artifact directory (holding the spans.jsonl
the daemon persisted) and get the same self-contained Chrome
trace-event document GET /jobs/ID/trace serves — daemon lifecycle
spans, the child's clock-aligned wall spans, and its sim-time tracks.
`spindle trace check` structurally validates any trace-event JSON
file and exits non-zero on the first violation.

`spindle chaos` runs a seeded fault campaign against a serve daemon:
scripted kill/hang/stall/io faults drive jobs through the retry,
deadline, stall, and poison paths, then the harness checks that
every admitted job reached exactly one terminal state the journal
explains. With --daemon-pid it also SIGTERMs the daemon and verifies
the drain contract; --input FILE enables the io-fault scenario
(an analyze job over that trace); --out also writes the report as
JSON. Any failed scenario or invariant makes the exit non-zero.

`spindle loadtest` hammers a running serve daemon: --clients
concurrent submitters race through --jobs total submissions (here
--jobs means submissions, not worker threads), then the harness waits
for the server to drain and prints submit-latency percentiles,
throughput, and the accepted/rejected/error split; --out also writes
the report as JSON.

Profiles: cheetah-15k (default), savvio-10k, barracuda-es
Schedulers: fcfs, sstf, look, sptf (default)
Trace files ending in .bin are read/written in the binary format;
files ending in .csv are read as MSR-Cambridge block traces
(timestamp,hostname,disk,type,offset,size,latency — streamed at fixed
memory during simulate); anything else uses the text format.
Options accept both `--key value` and `--key=value`.
";

/// The global options only `spindle` accepts.
const SPINDLE_ONLY: &[(&str, Arity)] = &[("lenient", Arity::Flag)];

/// Peels the global options off `argv` and resolves them.
fn globals(argv: &[String]) -> Result<(Invocation, Vec<String>), String> {
    // `spindle loadtest --jobs M` means total submissions, not worker
    // threads; leave the option for the subcommand parser there.
    let loadtest = argv.first().is_some_and(|cmd| cmd == "loadtest");
    let known: Vec<(&str, Arity)> = SHARED
        .iter()
        .chain(SPINDLE_ONLY)
        .filter(|(name, _)| !(loadtest && *name == "jobs"))
        .copied()
        .collect();
    let (opts, rest) = front::peel(argv, &known)?;
    Ok((Invocation::resolve(&opts, "")?, rest))
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for any failure.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let (inv, argv) = globals(argv)?;
    let phase = argv.first().map_or("idle", String::as_str);
    inv.run(phase, phase, 0, |_| dispatch_command(&argv, &inv))?;
    Ok(())
}

fn dispatch_command(argv: &[String], inv: &Invocation) -> CmdResult {
    let Some((cmd, rest)) = argv.split_first() else {
        print!("{HELP}");
        return Ok(());
    };
    match cmd.as_str() {
        "generate" => generate(&parse(rest, &[])?),
        "simulate" => simulate(&parse(rest, &["no-write-back"])?, inv),
        "analyze" => analyze(&parse(rest, &[])?, inv),
        "report" => crate::report::report(&parse(rest, &[])?, inv),
        "family" => family(&parse(rest, &[])?),
        "hourgen" => hourgen(&parse(rest, &[])?),
        "power" => power(&parse(rest, &["no-write-back"])?, inv),
        "anonymize" => anonymize(&parse(rest, &[])?, inv),
        "trace" => trace_cmd(rest),
        "serve" => serve_cmd(rest),
        "loadtest" => loadtest_cmd(rest),
        "chaos" => chaos_cmd(rest),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `spindle help`)").into()),
    }
}

fn trace_cmd(rest: &[String]) -> CmdResult {
    const USAGE: &str = "usage: spindle trace assemble --dir JOBDIR [--out FILE]\n\
                         \x20      spindle trace check FILE";
    let Some((sub, rest)) = rest.split_first() else {
        return Err(USAGE.into());
    };
    match sub.as_str() {
        "assemble" => trace_assemble(rest),
        "check" => trace_check(rest),
        other => Err(format!("unknown trace subcommand `{other}` ({USAGE})").into()),
    }
}

/// `spindle trace assemble --dir JOBDIR`: rebuilds a job's Chrome
/// trace-event document offline from the `spans.jsonl` the serve
/// daemon persisted — the same document `GET /jobs/ID/trace` serves,
/// available after the daemon is gone.
fn trace_assemble(rest: &[String]) -> CmdResult {
    let opts = parse(rest, &[])?;
    let Some(dir) = opts.get("dir") else {
        return Err("trace assemble needs --dir JOBDIR (a job's artifact directory)".into());
    };
    let doc = spindle_serve::trace::assemble_dir(std::path::Path::new(dir))?;
    spindle_obs::trace_event::check_document(&doc)
        .map_err(|e| format!("assembled document failed its own structural check: {e}"))?;
    let rendered = format!("{doc}\n");
    match opts.get("out") {
        Some(path) => {
            write_output_file(path, &rendered)?;
            progress!("wrote trace to {path} (load it in Perfetto or chrome://tracing)");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// `spindle trace check FILE`: structural validation of a Chrome
/// trace-event JSON document (ours or anyone's), exit non-zero on the
/// first violation.
fn trace_check(rest: &[String]) -> CmdResult {
    let [path] = rest else {
        return Err("trace check needs exactly one FILE".into());
    };
    let text =
        std::fs::read_to_string(path.as_str()).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = spindle_obs::json::parse(&text).map_err(|e| format!("`{path}` is not JSON: {e}"))?;
    spindle_obs::trace_event::check_document(&doc)
        .map_err(|e| format!("`{path}` is not a valid trace document: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(spindle_obs::json::Json::Arr(events)) => events.len(),
        _ => 0,
    };
    progress!("{path}: ok ({events} trace events)");
    Ok(())
}

/// SIGTERM latch for the serve daemon's graceful drain. The handler
/// only stores an atomic flag (async-signal-safe); the serve loop
/// polls it. Lives here rather than in spindle-serve because that
/// crate forbids unsafe code and signal installation needs an FFI
/// call.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Release);
    }

    pub(crate) fn install() {
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    pub(crate) fn received() -> bool {
        TERM.load(Ordering::Acquire)
    }
}

/// `spindle serve [ADDR]`: the simulation-as-a-service daemon. Runs
/// until SIGTERM (graceful drain) or SIGKILL; jobs execute as child
/// `spindle` processes.
fn serve_cmd(rest: &[String]) -> CmdResult {
    let (config, drain_timeout) = serve_config(rest)?;
    let handle = spindle_serve::serve(config)?;
    // The announce line mirrors the pulse server's, so scripts can
    // scrape the bound address when port 0 was requested.
    eprintln!("# serving jobs on http://{}", handle.local_addr());
    #[cfg(unix)]
    {
        sigterm::install();
        while !sigterm::received() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        eprintln!("# SIGTERM: draining (up to {drain_timeout}s for running jobs)");
        handle.drain(std::time::Duration::from_secs(drain_timeout));
        eprintln!("# drained; unfinished work is journaled for --resume-dir");
        Ok(())
    }
    #[cfg(not(unix))]
    {
        let _ = drain_timeout;
        handle.park()
    }
}

/// The daemon's configuration and SIGTERM drain timeout (seconds)
/// from `spindle serve`'s arguments.
fn serve_config(
    rest: &[String],
) -> Result<(spindle_serve::ServeConfig, u64), Box<dyn std::error::Error>> {
    const USAGE: &str = "usage: spindle serve [ADDR] [--queue-bound N] [--parallel N] \
                         [--dir DIR | --resume-dir DIR] [--default-deadline SECS] \
                         [--max-deadline SECS] [--stall-timeout SECS] [--max-retries N] \
                         [--retry-base-ms MS] [--drain-timeout SECS]";
    // One optional leading positional: the bind address.
    let (addr, rest) = match rest.first() {
        Some(first) if front::is_addr(first) => (first.clone(), &rest[1..]),
        Some(first) if !first.starts_with("--") => {
            return Err(
                format!("bad serve address `{first}` (expected HOST:PORT; {USAGE})").into(),
            );
        }
        _ => (spindle_serve::DEFAULT_ADDR.to_owned(), rest),
    };
    let opts = parse(rest, &[])?;
    let queue_bound: usize = opts.get_or("queue-bound", spindle_serve::DEFAULT_QUEUE_BOUND)?;
    if queue_bound == 0 {
        return Err("bad value for --queue-bound: needs at least 1".into());
    }
    let parallel: usize = opts.get_or("parallel", spindle_serve::DEFAULT_PARALLEL)?;
    if parallel == 0 {
        return Err("bad value for --parallel: needs at least 1".into());
    }
    let (dir, resume) = match (opts.get("dir"), opts.get("resume-dir")) {
        (Some(_), Some(_)) => {
            return Err("pass --dir or --resume-dir, not both".into());
        }
        (None, Some(dir)) => (dir.to_owned(), true),
        (dir, None) => (dir.unwrap_or("spindle-jobs").to_owned(), false),
    };
    let mut config = spindle_serve::ServeConfig::new(&addr, dir);
    config.queue_bound = queue_bound;
    config.parallel = parallel;
    config.resume = resume;
    // Supervision knobs. A deadline of 0 means "no default"; a stall
    // timeout of 0 disables the liveness watchdog entirely.
    let default_deadline: u64 = opts.get_or("default-deadline", 0)?;
    config.default_deadline_secs = (default_deadline > 0).then_some(default_deadline);
    config.max_deadline_secs =
        opts.get_or("max-deadline", spindle_serve::DEFAULT_MAX_DEADLINE_SECS)?;
    if config.max_deadline_secs == 0 {
        return Err("bad value for --max-deadline: needs at least 1".into());
    }
    let stall: u64 = opts.get_or("stall-timeout", spindle_serve::DEFAULT_STALL_TIMEOUT_SECS)?;
    config.stall_timeout_secs = (stall > 0).then_some(stall);
    config.max_retries = opts.get_or("max-retries", spindle_serve::DEFAULT_MAX_RETRIES)?;
    config.retry_base_ms = opts.get_or("retry-base-ms", spindle_serve::DEFAULT_RETRY_BASE_MS)?;
    if config.retry_base_ms == 0 {
        return Err("bad value for --retry-base-ms: needs at least 1".into());
    }
    let drain_timeout: u64 = opts.get_or("drain-timeout", 30)?;
    Ok((config, drain_timeout))
}

/// `spindle chaos URL`: seeded fault campaign against a running serve
/// daemon; exits non-zero when a scenario or the terminal-state
/// invariant fails.
fn chaos_cmd(rest: &[String]) -> CmdResult {
    const USAGE: &str =
        "usage: spindle chaos URL [--seed N] [--daemon-pid PID] [--input FILE] [--out FILE]";
    let Some((url, rest)) = rest.split_first() else {
        return Err(USAGE.into());
    };
    if url.starts_with('-') {
        return Err(format!("chaos needs the server URL first ({USAGE})").into());
    }
    let opts = parse(rest, &[])?;
    let mut config = spindle_serve::chaos::ChaosConfig::new(url);
    config.seed = opts.get_or("seed", config.seed)?;
    if let Some(pid) = opts.get("daemon-pid") {
        config.daemon_pid = Some(
            pid.parse()
                .map_err(|_| format!("bad value for --daemon-pid: `{pid}` (needs a PID)"))?,
        );
    }
    config.input = opts.get("input").map(str::to_owned);
    let report = spindle_serve::chaos::run(&config)?;
    println!("{}", report.render());
    // The report is written even when the campaign fails, so CI can
    // upload it as an artifact alongside the red build.
    if let Some(path) = opts.get("out") {
        write_output_file(path, &format!("{}\n", report.to_json()))?;
        progress!("wrote chaos report to {path}");
    }
    if !report.ok() {
        return Err("chaos campaign failed (see the scenario report above)".into());
    }
    Ok(())
}

/// `spindle loadtest URL`: drives a running serve daemon with
/// concurrent clients and reports latency/throughput/rejections.
fn loadtest_cmd(rest: &[String]) -> CmdResult {
    const USAGE: &str =
        "usage: spindle loadtest URL [--clients N] [--jobs M] [--span SECS] [--out FILE]";
    let Some((url, rest)) = rest.split_first() else {
        return Err(USAGE.into());
    };
    if url.starts_with('-') {
        return Err(format!("loadtest needs the server URL first ({USAGE})").into());
    }
    let opts = parse(rest, &[])?;
    let mut config = spindle_serve::loadtest::LoadConfig::new(url);
    config.clients = opts.get_or("clients", config.clients)?;
    config.jobs = opts.get_or("jobs", config.jobs)?;
    config.span_secs = opts.get_or("span", config.span_secs)?;
    if config.clients == 0 || config.jobs == 0 {
        return Err("loadtest needs --clients >= 1 and --jobs >= 1".into());
    }
    let report = spindle_serve::loadtest::run(&config)?;
    println!("{}", report.render());
    if let Some(path) = opts.get("out") {
        write_output_file(path, &format!("{}\n", report.to_json()))?;
        progress!("wrote loadtest report to {path}");
    }
    Ok(())
}

fn profile_by_name(name: &str) -> Result<DriveProfile, String> {
    DriveProfile::all()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| {
            format!("unknown profile `{name}` (try cheetah-15k, savvio-10k, barracuda-es)")
        })
}

/// Publishes a non-empty [`SkipReport`] to the metrics registry and
/// the progress stream so lenient parsing is never silent.
fn publish_skips(skips: &SkipReport, path: &str) {
    if skips.is_empty() {
        return;
    }
    let registry = spindle_obs::global();
    registry.counter("trace.records_skipped").add(skips.skipped);
    registry
        .counter("harden.records_skipped")
        .add(skips.skipped);
    progress!("lenient: {skips} in {path}");
}

/// Opens a trace file behind the invocation's reader faults: a
/// pass-through unless the plan carries io@/short@ sites.
fn open_trace(path: &str, inv: &Invocation) -> std::io::Result<FaultyReader<File>> {
    let plan = inv.faults.as_deref().cloned().unwrap_or_default();
    Ok(FaultyReader::new(File::open(path)?, &plan))
}

pub(crate) fn read_trace(
    path: &str,
    inv: &Invocation,
) -> Result<Vec<Request>, Box<dyn std::error::Error>> {
    let _span = ObsSpan::new(spindle_obs::global(), "cli.read_trace");
    let lenient = inv.lenient;
    let file = open_trace(path, inv)?;
    let (requests, skips) = if path.ends_with(".bin") {
        // The binary codec has no record-level recovery: a damaged
        // length prefix poisons everything after it.
        (binary::read_requests(BufReader::new(file))?, None)
    } else if path.ends_with(".csv") {
        if lenient {
            let (requests, skips) = csv::read_msr_requests_lenient(file)?;
            (requests, Some(skips))
        } else {
            (csv::read_msr_requests(file)?, None)
        }
    } else if lenient {
        let (requests, skips) = text::read_requests_lenient(BufReader::new(file))?;
        (requests, Some(skips))
    } else {
        (text::read_requests(BufReader::new(file))?, None)
    };
    if let Some(skips) = skips {
        publish_skips(&skips, path);
    }
    spindle_obs::detail!("read {} requests from {path}", requests.len());
    Ok(requests)
}

fn generate(opts: &Options) -> CmdResult {
    let env = parse_environment(opts.required("env")?)?;
    let span: f64 = opts.get_or("span", 3600.0)?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let requests = {
        let _span = ObsSpan::new(spindle_obs::global(), "cli.generate");
        env.spec(span).generate(seed)?
    };
    let summary = spindle_trace::transform::summarize(&requests);

    match opts.get("out") {
        Some(path) => {
            let mut w = BufWriter::new(File::create(path)?);
            if path.ends_with(".bin") {
                binary::write_requests(&mut w, &requests)?;
            } else {
                text::write_requests(&mut w, &requests)?;
            }
            w.flush()?;
            progress!(
                "wrote {} requests ({:.1} MB moved) over {:.0}s to {path}",
                summary.requests,
                summary.bytes as f64 / 1e6,
                span
            );
        }
        None => {
            text::write_requests(front::stdout(), &requests)?;
        }
    }
    Ok(())
}

/// The simulator the options describe, observed as the invocation
/// asks.
pub(crate) fn build_sim(
    opts: &Options,
    inv: &Invocation,
) -> Result<DiskSim, Box<dyn std::error::Error>> {
    let profile = profile_by_name(opts.get("profile").unwrap_or("cheetah-15k"))?;
    let scheduler = SchedulerKind::parse(opts.get("scheduler").unwrap_or("sptf"))?;
    let mut cache = profile.cache;
    if opts.flag("no-write-back") {
        cache.write_back = false;
    }
    let cfg = SimConfig {
        scheduler,
        cache: Some(cache),
        flush_at_end: true,
    };
    let mut sim = DiskSim::new(profile, cfg);
    if let Some(plan) = &inv.faults {
        sim.inject_faults(spindle_disk::sim::SimFaults {
            media_errors: plan.media_errors().clone(),
            timeouts: plan.timeouts().clone(),
        });
    }
    if inv.obs.metrics {
        let mut observer = SimObserver::new(spindle_obs::global(), &inv.obs);
        if let Some(rec) = &inv.recorder {
            observer = observer.with_flight(Arc::clone(rec));
        }
        sim.attach_observer(observer);
    }
    Ok(sim)
}

pub(crate) fn run_simulation(
    opts: &Options,
    inv: &Invocation,
    requests: &[Request],
) -> Result<SimResult, Box<dyn std::error::Error>> {
    let mut sim = build_sim(opts, inv)?;
    let _span = ObsSpan::new(spindle_obs::global(), "cli.simulate");
    Ok(sim.run(requests)?)
}

/// Replays an MSR-style CSV trace without materializing it: a reader
/// thread parses rows into a bounded channel and the simulator consumes
/// the other end, so memory stays fixed regardless of trace length.
fn run_simulation_streamed(
    opts: &Options,
    inv: &Invocation,
    path: &str,
) -> Result<SimResult, Box<dyn std::error::Error>> {
    let mut sim = build_sim(opts, inv)?;
    let _span = ObsSpan::new(spindle_obs::global(), "cli.simulate");
    let lenient = inv.lenient;
    let file = open_trace(path, inv)?;
    let (tx, rx) = spindle_engine::channel::bounded::<Request>(1024);
    let (sim_result, parse_result) = std::thread::scope(|s| {
        let reader = s.spawn(
            move || -> Result<(u64, SkipReport), spindle_trace::TraceError> {
                let mut fed = 0u64;
                let mut reader = csv::MsrReader::new(file);
                if lenient {
                    reader = reader.lenient();
                }
                let mut it = reader.requests();
                for item in it.by_ref() {
                    // A send failure means the simulator stopped
                    // consuming (it hit an error); its result carries
                    // the reason.
                    if tx.send(item?).is_err() {
                        break;
                    }
                    fed += 1;
                }
                Ok((fed, it.skip_report().clone()))
            },
        );
        let sim_result = sim.run_stream(rx.iter());
        // Unblock a producer stuck on a full channel before joining.
        drop(rx);
        let parse_result = reader.join().expect("trace reader thread does not panic");
        (sim_result, parse_result)
    });
    let (fed, skips) = parse_result?; // a malformed row explains any sim error
    let result = sim_result?;
    publish_skips(&skips, path);
    spindle_obs::detail!("streamed {fed} requests from {path}");
    Ok(result)
}

fn simulate(opts: &Options, inv: &Invocation) -> CmdResult {
    let path = opts.required("in")?;
    let result = if path.ends_with(".csv") {
        // MSR-style CSV traces can dwarf memory; stream them through a
        // bounded channel instead of materializing the request vector.
        run_simulation_streamed(opts, inv, path)?
    } else {
        let requests = read_trace(path, inv)?;
        run_simulation(opts, inv, &requests)?
    };
    let mut t = Table::new("simulation summary", &["metric", "value"]);
    let mut rows: Vec<(&str, String)> = vec![
        ("requests", result.completed.len().to_string()),
        ("span (s)", cell(result.busy.span_ns() as f64 / 1e9, 1)),
        ("utilization", cell(result.utilization(), 4)),
        ("mean response (ms)", cell(result.mean_response_ms(), 2)),
        (
            "read hit ratio",
            result
                .read_hit_ratio()
                .map_or_else(|| "n/a".to_owned(), |r| cell(r, 3)),
        ),
        ("writes cached", result.writes_cached.to_string()),
        ("writes forced", result.writes_forced.to_string()),
        ("destages", result.destages.to_string()),
    ];
    // Injected-fault counters appear only when faults actually fired,
    // so fault-free output is unchanged.
    if result.media_errors > 0 {
        rows.push(("media errors (injected)", result.media_errors.to_string()));
    }
    if result.timeouts > 0 {
        rows.push(("timeouts (injected)", result.timeouts.to_string()));
    }
    for (k, v) in rows {
        t.push_row(vec![k.to_owned(), v]);
    }
    println!("{t}");
    Ok(())
}

fn analyze(opts: &Options, inv: &Invocation) -> CmdResult {
    let requests = read_trace(opts.required("in")?, inv)?;
    let result = run_simulation(opts, inv, &requests)?;
    let analysis = MillisecondAnalysis::new(&requests, &result)?;
    let s = analysis.summary()?;

    let mut t = Table::new("workload summary", &["metric", "value"]);
    for (k, v) in [
        ("requests", s.requests.to_string()),
        ("span (s)", cell(s.span_secs, 1)),
        ("arrival rate (req/s)", cell(s.arrival_rate, 2)),
        ("interarrival SCV", cell(s.interarrival_scv, 1)),
        ("mean request (KB)", cell(s.mean_request_kb, 1)),
        ("write fraction", cell(s.write_fraction, 3)),
        ("sequential fraction", cell(s.sequential_fraction, 3)),
        ("mean utilization", cell(s.mean_utilization, 4)),
        ("mean response (ms)", cell(s.mean_response_ms, 2)),
    ] {
        t.push_row(vec![k.to_owned(), v]);
    }
    println!("{t}");

    let idle = IdleAnalysis::new(&result.busy)?;
    let mut t = Table::new(
        "idleness availability",
        &["threshold (s)", "idle-time share", "interval share"],
    );
    for row in idle.availability(&AVAILABILITY_THRESHOLDS) {
        t.push_row(vec![
            cell(row.threshold_secs, 2),
            cell(row.fraction_of_idle_time, 3),
            cell(row.fraction_of_intervals, 3),
        ]);
    }
    println!("{t}");

    let events = analysis.arrival_times_secs();
    match burstiness_table(&events, s.span_secs) {
        Ok(t) => println!("{t}"),
        // Short traces legitimately lack the data for multi-scale
        // estimation; report and continue.
        Err(e) => eprintln!("burstiness analysis skipped: {e}"),
    }
    Ok(())
}

fn burstiness_table(events: &[f64], span_secs: f64) -> Result<Table, Box<dyn std::error::Error>> {
    let b = BurstinessAnalysis::new(events, span_secs, 1.0)?;
    let h = b.hurst()?;
    let (run, band) = b.correlation_horizon(100.min(events.len() / 2))?;
    let mut t = Table::new("burstiness", &["metric", "value"]);
    for (k, v) in [
        ("Hurst (R/S)", cell(h.rs, 3)),
        ("Hurst (agg. variance)", cell(h.aggregated_variance, 3)),
        ("Hurst (periodogram)", cell(h.periodogram, 3)),
        ("Hurst (wavelet)", cell(h.wavelet, 3)),
        ("significant ACF lags", run.to_string()),
        ("white-noise band", cell(band, 4)),
        (
            "bursty across scales",
            b.is_bursty_across_scales()?.to_string(),
        ),
    ] {
        t.push_row(vec![k.to_owned(), v]);
    }
    Ok(t)
}

fn family(opts: &Options) -> CmdResult {
    let drives: u32 = opts.get_or("drives", 200)?;
    let weeks: u32 = opts.get_or("weeks", 4)?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let spec = FamilySpec {
        drives,
        template: HourSeriesSpec {
            hours: weeks * WEEK_HOURS,
            ..Default::default()
        },
        ..Default::default()
    };
    let fam = spec.generate(seed)?;
    let lifetimes: Vec<_> = fam.iter().map(|d| d.lifetime).collect();
    let a = FamilyAnalysis::new(&lifetimes)?;

    let mut t = Table::new(
        "family percentiles",
        &["percentile", "utilization", "MB/hour", "ops/hour"],
    );
    for p in a.percentiles()? {
        t.push_row(vec![
            format!("p{:.0}", p.level * 100.0),
            cell(p.utilization, 4),
            cell(p.mb_per_hour, 1),
            cell(p.ops_per_hour, 0),
        ]);
    }
    println!("{t}");

    let series: Vec<_> = fam.iter().map(|d| d.series.clone()).collect();
    let curve = saturation_curve(&series, 0.99, 24)?;
    let mut t = Table::new(
        "saturated-run curve (util >= 0.99)",
        &["k (hours)", "fraction of drives"],
    );
    for p in curve
        .iter()
        .filter(|p| [1, 2, 4, 8, 12, 24].contains(&p.run_hours))
    {
        t.push_row(vec![p.run_hours.to_string(), cell(p.fraction_of_drives, 3)]);
    }
    println!("{t}");
    Ok(())
}

fn power(opts: &Options, inv: &Invocation) -> CmdResult {
    use spindle_disk::power::{timeout_sweep, PowerModel, PowerPolicy};
    let requests = read_trace(opts.required("in")?, inv)?;
    let result = run_simulation(opts, inv, &requests)?;
    let model = PowerModel::enterprise_15k();
    let baseline =
        spindle_disk::power::evaluate_policy(&model, &PowerPolicy::always_on(), &result.busy)?;
    let mut t = Table::new(
        "power policy sweep (enterprise-15k model)",
        &[
            "standby timeout (s)",
            "mean W",
            "savings %",
            "spin-ups",
            "recovery s/h",
        ],
    );
    t.push_row(vec![
        "always-on".to_owned(),
        cell(baseline.mean_watts(), 2),
        cell(0.0, 1),
        "0".to_owned(),
        cell(0.0, 1),
    ]);
    for (timeout, o) in timeout_sweep(&model, &result.busy, &[1.0, 5.0, 20.0, 60.0, 300.0])? {
        t.push_row(vec![
            cell(timeout, 0),
            cell(o.mean_watts(), 2),
            cell(o.savings_vs(&baseline) * 100.0, 1),
            o.spinups.to_string(),
            cell(o.recovery_delay_secs / o.span_secs * 3600.0, 1),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn anonymize(opts: &Options, inv: &Invocation) -> CmdResult {
    use spindle_trace::anonymize::Anonymizer;
    let requests = read_trace(opts.required("in")?, inv)?;
    let out_path = opts.required("out")?;
    let key: u64 = opts.get_or("key", 0xC0FF_EE00)?;
    let extent: u64 = opts.get_or("extent", 262_144)?;
    // Size the permutation domain to the trace's address span.
    let capacity = requests
        .iter()
        .map(spindle_trace::Request::end_lba)
        .max()
        .unwrap_or(0)
        .max(2 * extent);
    let anon = Anonymizer::new(key, capacity, extent)?;
    let scrambled = anon.anonymize(&requests);
    let mut w = BufWriter::new(File::create(out_path)?);
    if out_path.ends_with(".bin") {
        binary::write_requests(&mut w, &scrambled)?;
    } else {
        text::write_requests(&mut w, &scrambled)?;
    }
    w.flush()?;
    progress!("anonymized {} requests to {out_path}", scrambled.len());
    Ok(())
}

fn hourgen(opts: &Options) -> CmdResult {
    let drives: u32 = opts.get_or("drives", 8)?;
    let weeks: u32 = opts.get_or("weeks", 2)?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let spec = FamilySpec {
        drives,
        template: HourSeriesSpec {
            hours: weeks * WEEK_HOURS,
            ..Default::default()
        },
        ..Default::default()
    };
    let fam = spec.generate(seed)?;

    let hours: Vec<&spindle_trace::HourRecord> =
        fam.iter().flat_map(|d| d.series.records()).collect();
    match opts.get("hours-out") {
        Some(path) => {
            let mut w = BufWriter::new(File::create(path)?);
            spindle_trace::csv::write_hours(&mut w, hours.iter().copied())?;
            w.flush()?;
            progress!("wrote {} hour records to {path}", hours.len());
        }
        None => {
            spindle_trace::csv::write_hours(front::stdout(), hours.iter().copied())?;
        }
    }
    if let Some(path) = opts.get("lifetimes-out") {
        let lifetimes: Vec<spindle_trace::LifetimeRecord> =
            fam.iter().map(|d| d.lifetime).collect();
        let mut w = BufWriter::new(File::create(path)?);
        spindle_trace::csv::write_lifetimes(&mut w, lifetimes.iter())?;
        w.flush()?;
        progress!("wrote {} lifetime records to {path}", lifetimes.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| (*v).to_owned()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&[]).is_ok());
    }

    #[test]
    fn generate_requires_env() {
        assert!(dispatch(&argv(&["generate"])).is_err());
        assert!(dispatch(&argv(&["generate", "--env", "nosuch"])).is_err());
    }

    #[test]
    fn generate_simulate_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("spindle-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mail.bin");
        let path_str = path.to_str().unwrap();
        dispatch(&argv(&[
            "generate", "--env", "mail", "--span", "120", "--seed", "3", "--out", path_str,
        ]))
        .unwrap();
        dispatch(&argv(&["simulate", "--in", path_str])).unwrap();
        dispatch(&argv(&["analyze", "--in", path_str])).unwrap();
        dispatch(&argv(&[
            "simulate",
            "--in",
            path_str,
            "--scheduler",
            "fcfs",
            "--no-write-back",
            "--profile",
            "barracuda-es",
        ]))
        .unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hourgen_writes_readable_csv() {
        let dir = std::env::temp_dir().join("spindle-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let hours = dir.join("hours.csv");
        let lifetimes = dir.join("lifetimes.csv");
        dispatch(&argv(&[
            "hourgen",
            "--drives",
            "3",
            "--weeks",
            "1",
            "--seed",
            "5",
            "--hours-out",
            hours.to_str().unwrap(),
            "--lifetimes-out",
            lifetimes.to_str().unwrap(),
        ]))
        .unwrap();
        let parsed = spindle_trace::csv::read_hours(std::fs::File::open(&hours).unwrap()).unwrap();
        assert_eq!(parsed.len(), 3 * 168);
        let lt =
            spindle_trace::csv::read_lifetimes(std::fs::File::open(&lifetimes).unwrap()).unwrap();
        assert_eq!(lt.len(), 3);
        std::fs::remove_file(hours).unwrap();
        std::fs::remove_file(lifetimes).unwrap();
    }

    #[test]
    fn power_and_anonymize_commands_run() {
        let dir = std::env::temp_dir().join("spindle-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.bin");
        let anon = dir.join("anon.bin");
        dispatch(&argv(&[
            "generate",
            "--env",
            "web",
            "--span",
            "120",
            "--seed",
            "6",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&["power", "--in", trace.to_str().unwrap()])).unwrap();
        dispatch(&argv(&[
            "anonymize",
            "--in",
            trace.to_str().unwrap(),
            "--out",
            anon.to_str().unwrap(),
            "--key",
            "77",
        ]))
        .unwrap();
        // The anonymized trace simulates like any other trace.
        dispatch(&argv(&["simulate", "--in", anon.to_str().unwrap()])).unwrap();
        std::fs::remove_file(trace).unwrap();
        std::fs::remove_file(anon).unwrap();
    }

    #[test]
    fn obs_args_are_peeled_off_before_subcommand_parsing() {
        let (inv, rest) = globals(&argv(&[
            "simulate",
            "--metrics=json",
            "--in",
            "t.bin",
            "--metrics-out",
            "m.json",
        ]))
        .unwrap();
        assert_eq!(inv.metrics, Some("json"));
        assert_eq!(inv.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(rest, argv(&["simulate", "--in", "t.bin"]));

        // --metrics-out alone implies a text dump.
        let (inv, _) = globals(&argv(&["help", "--metrics-out=m.txt"])).unwrap();
        assert_eq!(inv.metrics, Some("text"));
        assert_eq!(inv.metrics_out.as_deref(), Some("m.txt"));

        let err = globals(&argv(&["--metrics=xml"])).unwrap_err();
        assert!(err.contains("bad metrics format `xml`"), "{err}");
        assert!(globals(&argv(&["--metrics-out"])).is_err());
    }

    #[test]
    fn simulate_streams_msr_csv() {
        let dir = std::env::temp_dir().join("spindle-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("msr.csv");
        let mut body =
            String::from("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
        for i in 0..64u64 {
            body.push_str(&format!(
                "{},usr,0,{},{},{},100\n",
                128_000_000_000_000_000 + i * 40_000, // 4 ms apart
                if i % 2 == 0 { "Read" } else { "Write" },
                (i * 7_919 * 512) % 8_000_000_000,
                4096
            ));
        }
        std::fs::write(&trace, body).unwrap();
        dispatch(&argv(&["simulate", "--in", trace.to_str().unwrap()])).unwrap();
        // The same file also reads back as a batch for analyze.
        dispatch(&argv(&["analyze", "--in", trace.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn faults_and_lenient_flags_are_peeled() {
        let (inv, rest) = globals(&argv(&[
            "simulate",
            "--faults",
            "io@64",
            "--lenient",
            "--in",
            "x",
        ]))
        .unwrap();
        assert_eq!(inv.faults.map(|p| p.spec()).as_deref(), Some("io@64"));
        assert!(inv.lenient);
        assert_eq!(rest, argv(&["simulate", "--in", "x"]));
        let (inv, _) = globals(&argv(&["--faults=short@10"])).unwrap();
        assert_eq!(inv.faults.map(|p| p.spec()).as_deref(), Some("short@10"));
        assert!(globals(&argv(&["--faults"])).is_err());
        // A malformed spec is rejected at dispatch with a clear message.
        let err = dispatch(&argv(&["help", "--faults", "bogus@x"])).unwrap_err();
        assert!(err.to_string().contains("--faults"), "{err}");
    }

    #[test]
    fn lenient_mode_skips_damage_strict_mode_rejects_it() {
        let dir = std::env::temp_dir().join("spindle-cli-lenient");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("damaged.txt");
        let body = "1000000,0,R,2048,16\nnot,a,request,line,?\n2000000,0,W,4096,8\n";
        std::fs::write(&trace, body).unwrap();
        let path = trace.to_str().unwrap();
        // Strict (default): the damaged line fails the command.
        let err = dispatch(&argv(&["simulate", "--in", path])).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Lenient: the damage is skipped and the simulation completes.
        dispatch(&argv(&["simulate", "--in", path, "--lenient"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_reader_faults_surface_the_byte_offset() {
        let dir = std::env::temp_dir().join("spindle-cli-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("clean.txt");
        dispatch(&argv(&[
            "generate",
            "--env",
            "mail",
            "--span",
            "120",
            "--seed",
            "3",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let path = trace.to_str().unwrap();
        assert!(
            std::fs::metadata(path).unwrap().len() > 128,
            "trace must extend past the fault sites"
        );
        // An injected I/O error at byte 64 kills the read and names
        // the offset.
        let err = dispatch(&argv(&["simulate", "--in", path, "--faults", "io@64"])).unwrap_err();
        assert!(err.to_string().contains("byte 64"), "{err}");
        // A short read at byte 0 is an empty trace.
        let err = dispatch(&argv(&["simulate", "--in", path, "--faults", "short@0"])).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        // Disk faults perturb timing only: the command still succeeds.
        dispatch(&argv(&[
            "simulate",
            "--in",
            path,
            "--faults",
            "media@0,timeout@1",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_and_live_flags_are_peeled() {
        // Bare --serve followed by the subcommand: no address consumed.
        let (inv, rest) = globals(&argv(&["--serve", "simulate", "--in", "x"])).unwrap();
        assert_eq!(inv.serve, Some(None));
        assert!(!inv.live);
        assert_eq!(rest, argv(&["simulate", "--in", "x"]));

        // --serve with a host:port operand consumes it.
        let (inv, rest) = globals(&argv(&["--serve", "127.0.0.1:0", "--live", "help"])).unwrap();
        assert_eq!(inv.serve, Some(Some("127.0.0.1:0".to_owned())));
        assert!(inv.live);
        assert_eq!(rest, argv(&["help"]));

        // The equals form always binds.
        let (inv, _) = globals(&argv(&["--serve=0.0.0.0:9999"])).unwrap();
        assert_eq!(inv.serve, Some(Some("0.0.0.0:9999".to_owned())));
    }

    #[test]
    fn serve_invocation_runs_and_keeps_stdout_clean() {
        // A full command with --serve on an ephemeral port must succeed
        // and shut the server down cleanly at exit.
        dispatch(&argv(&[
            "--serve",
            "127.0.0.1:0",
            "family",
            "--drives",
            "10",
            "--weeks",
            "1",
        ]))
        .unwrap();
        // An unbindable address fails with a clear message.
        let err = dispatch(&argv(&["--serve", "256.0.0.1:1", "help"])).unwrap_err();
        assert!(err.to_string().contains("telemetry"), "{err}");
    }

    #[test]
    fn jobs_flag_is_peeled_and_validated() {
        let (inv, rest) = globals(&argv(&["family", "--jobs", "4"])).unwrap();
        assert_eq!(inv.jobs, Some(4));
        assert_eq!(rest, argv(&["family"]));

        let (inv, _) = globals(&argv(&["--jobs=2", "analyze"])).unwrap();
        assert_eq!(inv.jobs, Some(2));

        // Friendly rejections: zero, garbage, missing value.
        let err = globals(&argv(&["--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = globals(&argv(&["--jobs=two"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert!(globals(&argv(&["--jobs"])).is_err());

        // `loadtest --jobs M` counts submissions: the subcommand keeps it.
        let (inv, rest) = globals(&argv(&["loadtest", "http://x", "--jobs", "9"])).unwrap();
        assert_eq!(inv.jobs, None);
        assert_eq!(rest, argv(&["loadtest", "http://x", "--jobs", "9"]));
    }

    #[test]
    fn metrics_dump_is_valid_json_with_disk_counters() {
        let dir = std::env::temp_dir().join("spindle-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("m.bin");
        let metrics = dir.join("metrics.json");
        dispatch(&argv(&[
            "generate",
            "--env=dev",
            "--span=120",
            // Dev's session gate can spend a whole span this short in an
            // off-sojourn; this seed is known to produce traffic.
            "--seed=9",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--in",
            trace.to_str().unwrap(),
            "--metrics=json",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        let doc = spindle_obs::json::parse(text.trim()).expect("dump is valid JSON");
        let completed = doc
            .get("counters")
            .and_then(|c| c.get("disk.requests_completed"))
            .and_then(spindle_obs::json::Json::as_u64)
            .unwrap();
        assert!(completed > 0);
        assert!(doc
            .get("histograms")
            .and_then(|h| h.get("disk.response_us"))
            .is_some());
        assert!(doc
            .get("spans")
            .and_then(|s| s.get("cli.simulate"))
            .is_some());
        std::fs::remove_file(trace).unwrap();
        std::fs::remove_file(metrics).unwrap();
    }

    #[test]
    fn trace_out_is_peeled_and_validated() {
        let (inv, rest) =
            globals(&argv(&["simulate", "--trace-out", "t.json", "--in", "x"])).unwrap();
        assert_eq!(inv.trace_out.as_deref(), Some("t.json"));
        assert!(inv.recorder.is_some(), "a trace export records the run");
        assert_eq!(rest, argv(&["simulate", "--in", "x"]));
        let (inv, _) = globals(&argv(&["--trace-out=d/t.json"])).unwrap();
        assert_eq!(inv.trace_out.as_deref(), Some("d/t.json"));
        assert!(globals(&argv(&["--trace-out"])).is_err());
    }

    #[test]
    fn output_files_create_missing_parent_directories() {
        let dir = std::env::temp_dir().join("spindle-cli-test7");
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("a/b/out.txt");
        write_output_file(nested.to_str().unwrap(), "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "hello");

        // A parent that exists as a *file* cannot become a directory;
        // the error names the offending path instead of a bare io::Error.
        let blocker = dir.join("file");
        std::fs::write(&blocker, "x").unwrap();
        let target = blocker.join("out.txt");
        let err = write_output_file(target.to_str().unwrap(), "y").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out.txt"), "error names the path: {msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_exports_a_loadable_trace() {
        let dir = std::env::temp_dir().join("spindle-cli-test8");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_in = dir.join("t.bin");
        // Exercises satellite parent-dir creation on --trace-out too.
        let trace_out = dir.join("traces/run.json");
        let _ = std::fs::remove_dir_all(dir.join("traces"));
        dispatch(&argv(&[
            "generate",
            "--env=web",
            "--span=60",
            "--seed=11",
            "--out",
            trace_in.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--in",
            trace_in.to_str().unwrap(),
            "--trace-out",
            trace_out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace_out).unwrap();
        let doc = spindle_obs::json::parse(text.trim()).expect("trace is valid JSON");
        let spindle_obs::json::Json::Arr(events) =
            doc.get("traceEvents").expect("traceEvents present")
        else {
            panic!("traceEvents is an array");
        };
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("ph").is_some(), "every event has a phase");
            assert!(e.get("pid").is_some(), "every event has a pid");
        }
        // Simulated-time drive tracks made it into the export.
        assert!(text.contains("drive.service"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_writes_self_contained_html() {
        let dir = std::env::temp_dir().join("spindle-cli-test9");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_in = dir.join("r.bin");
        let report_out = dir.join("report.html");
        dispatch(&argv(&[
            "generate",
            "--env=mail",
            "--span=120",
            "--seed=4",
            "--out",
            trace_in.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "report",
            "--in",
            trace_in.to_str().unwrap(),
            "--out",
            report_out.to_str().unwrap(),
        ]))
        .unwrap();
        let html = std::fs::read_to_string(&report_out).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("utilization by time-scale"));
        assert!(html.contains("read/write mix by time-scale"));
        assert!(html.contains("idle-interval availability"));
        assert!(html.contains("tail latency attribution"));
        for scale in ["100 ms", "1 s", "10 s", "60 s"] {
            assert!(html.contains(&format!("<td>{scale}</td>")), "{scale}");
        }
        // Self-contained: no external stylesheet or script references.
        assert!(!html.contains("<link"));
        assert!(!html.contains("<script"));
        assert!(dispatch(&argv(&["report"])).is_err(), "--in is required");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_usage_errors() {
        assert!(dispatch(&argv(&["chaos"])).is_err());
        assert!(dispatch(&argv(&["chaos", "--seed", "1"])).is_err());
        let err = dispatch(&argv(&["chaos", "127.0.0.1:9", "--daemon-pid", "x"])).unwrap_err();
        assert!(err.to_string().contains("--daemon-pid"), "{err}");
        // An unreachable daemon fails the preflight, not a scenario.
        let err = dispatch(&argv(&["chaos", "127.0.0.1:9"])).unwrap_err();
        assert!(err.to_string().contains("cannot reach"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_supervision_flags() {
        assert!(dispatch(&argv(&["serve", "--max-deadline", "0"])).is_err());
        assert!(dispatch(&argv(&["serve", "--retry-base-ms", "0"])).is_err());
        assert!(dispatch(&argv(&["serve", "--max-retries", "lots"])).is_err());
    }

    #[test]
    fn serve_deadline_flags_set_the_default_and_the_ceiling() {
        let (config, drain) = serve_config(&argv(&["127.0.0.1:0"])).unwrap();
        assert_eq!(config.default_deadline_secs, None, "no default deadline");
        assert_eq!(
            config.max_deadline_secs,
            spindle_serve::DEFAULT_MAX_DEADLINE_SECS
        );
        assert_eq!(drain, 30);
        let (config, _) =
            serve_config(&argv(&["--default-deadline", "5", "--max-deadline=10"])).unwrap();
        assert_eq!(config.default_deadline_secs, Some(5));
        assert_eq!(config.max_deadline_secs, 10);
        // A zero default deadline means none.
        let (config, _) = serve_config(&argv(&["--default-deadline", "0"])).unwrap();
        assert_eq!(config.default_deadline_secs, None);
        assert!(serve_config(&argv(&["--default-deadline", "soon"])).is_err());
    }

    #[test]
    fn anonymize_key_and_extent_shape_the_permutation() {
        let dir = std::env::temp_dir().join("spindle-cli-anonymize");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.txt");
        let trace_s = trace.to_str().unwrap();
        dispatch(&argv(&[
            "generate", "--env", "web", "--span", "120", "--seed", "6", "--out", trace_s,
        ]))
        .unwrap();
        let read = |path: &std::path::Path| {
            text::read_requests(BufReader::new(File::open(path).unwrap())).unwrap()
        };
        let anonymize = |name: &str, extra: &[&str]| {
            let out = dir.join(name);
            let mut args = vec!["anonymize", "--in", trace_s, "--out", out.to_str().unwrap()];
            args.extend_from_slice(extra);
            dispatch(&argv(&args)).unwrap();
            read(&out)
        };
        let original = read(&trace);
        let keyed = anonymize("a.txt", &["--key", "77"]);
        assert_eq!(keyed, anonymize("b.txt", &["--key", "77"]), "same key");
        assert_ne!(keyed, anonymize("c.txt", &["--key", "78"]), "other key");
        let small = anonymize("d.txt", &["--key", "77", "--extent", "64"]);
        assert_ne!(keyed, small, "the extent size changes the permutation");
        assert_eq!(small.len(), original.len());
        for (o, a) in original.iter().zip(&small) {
            assert_eq!(o.lba % 64, a.lba % 64, "offsets within an extent survive");
            assert_eq!(
                (o.arrival_ns, o.sectors, o.op),
                (a.arrival_ns, a.sectors, a.op)
            );
        }
        let out = dir.join("e.txt");
        assert!(dispatch(&argv(&[
            "anonymize",
            "--in",
            trace_s,
            "--out",
            out.to_str().unwrap(),
            "--extent",
            "0",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_assemble_rebuilds_a_job_trace_offline() {
        use spindle_serve::trace::{SpanOrigin, TraceSpan};
        let dir = std::env::temp_dir().join("spindle-cli-assemble");
        let _ = std::fs::remove_dir_all(&dir);
        let job_dir = dir.join("job-0001");
        std::fs::create_dir_all(&job_dir).unwrap();
        let span = |origin, track: &str, name: &str, begin_ns| TraceSpan {
            origin,
            track: track.to_owned(),
            name: name.to_owned(),
            begin_ns,
            dur_ns: Some(5_000),
            args: String::new(),
        };
        let job = spindle_serve::trace::JobSpans {
            id: "job-0001".to_owned(),
            spans: vec![
                span(SpanOrigin::Daemon, "daemon", "queue.wait", 1_000),
                span(SpanOrigin::ChildWall, "main", "cli.simulate", 2_000),
            ],
            offset_ns: Some(10_000),
            dropped: 0,
        };
        spindle_serve::trace::write_spans(&job_dir.join(spindle_serve::trace::SPANS_FILE), &job)
            .unwrap();
        let out = dir.join("trace.json");
        let out_s = out.to_str().unwrap();
        dispatch(&argv(&[
            "trace",
            "assemble",
            "--dir",
            job_dir.to_str().unwrap(),
            "--out",
            out_s,
        ]))
        .unwrap();
        dispatch(&argv(&["trace", "check", out_s])).unwrap();
        // The same document the daemon serves at GET /jobs/ID/trace.
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            format!("{}\n", spindle_serve::trace::job_trace_doc(&job))
        );
        assert!(dispatch(&argv(&["trace", "assemble"])).is_err(), "--dir");
        let missing = dir.join("job-0002");
        assert!(dispatch(&argv(&[
            "trace",
            "assemble",
            "--dir",
            missing.to_str().unwrap()
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn family_command_runs_small() {
        dispatch(&argv(&[
            "family", "--drives", "15", "--weeks", "1", "--seed", "5",
        ]))
        .unwrap();
    }

    #[test]
    fn bad_profile_and_scheduler_error() {
        let dir = std::env::temp_dir().join("spindle-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        let path_str = path.to_str().unwrap();
        dispatch(&argv(&[
            "generate", "--env", "web", "--span", "60", "--out", path_str,
        ]))
        .unwrap();
        assert!(dispatch(&argv(&["simulate", "--in", path_str, "--profile", "nope"])).is_err());
        assert!(dispatch(&argv(&[
            "simulate",
            "--in",
            path_str,
            "--scheduler",
            "nope"
        ]))
        .is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
