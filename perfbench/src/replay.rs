//! The saturated MSR replay: what `spindle simulate --scheduler fcfs
//! --in X.csv --trace-out --timescales-out` does, on a saturated drive.
//! It runs inside the traced `paper_matrix` run and reports per-layer
//! figures only (see [`measure`]).
//!
//! Set-up generates a Mail stream, compresses its arrivals 10x (the
//! paper's drives that saturate bandwidth for hours) and writes it as
//! MSR-Cambridge CSV. A timed pass streams the CSV through `MsrReader`
//! into a bounded engine channel and `DiskSim::run_stream`, with the
//! full observer stack (registry, event ring, flight recorder, sim
//! rollups), then exports the Chrome trace and the rollup JSON. Deep
//! queues stress the scheduler and dispatch path and the observer
//! stack stresses obs; `paper_matrix` bypasses both.

use crate::spans::{span, SpanId, Tracer};
use crate::{cli_sim, mail_prefix, median, print_sim_digest, Ctx, Outcome};
use spindle_core::response::ResponseAnalysis;
use spindle_disk::obs::SimObserver;
use spindle_disk::scheduler::SchedulerKind;
use spindle_disk::sim::{DiskSim, SimResult};
use spindle_obs::{FlightRecorder, MetricsRegistry, ObsConfig, RollupSet, TraceEventSink};
use spindle_trace::csv::{read_msr_requests, MsrReader, MSR_HEADER};
use spindle_trace::{OpKind, Request};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows replayed per pass. The flight-trace export holds every
/// request's slices in memory at once, which is what limits it.
const ROWS: usize = 40_000;

/// Independent saturated episodes the rows are split into. The cost of
/// one episode depends on how bursty its long-range-dependent stream
/// is; summing several independent ones keeps the work per pass nearly
/// the same for every seed.
const EPISODES: usize = 8;

/// Simulated time between the last arrival of one episode and the
/// first of the next. The queue carries over, so the stream stays
/// saturated and its time-averaged statistics stay representative.
const EPISODE_GAP_NS: u64 = 1_000_000_000;

/// Arrival-time compression that saturates the drive.
const COMPRESSION: u64 = 10;

/// Capacity of the reader → simulator channel (as in `spindle simulate`).
const CHANNEL_CAP: usize = 1024;

/// The replay's simulator: `spindle simulate --scheduler fcfs`. FCFS
/// keeps the deep dispatch queue (and its O(n) removal) on the hot path
/// while leaving out SPTF's per-dispatch positioning scan over the whole
/// queue, whose floating-point cost swung by up to 1.8x with host load
/// on the 2-vCPU reference VM; the SPTF deep-queue rate is reported per
/// layer as `disk.req_per_s.off_sptf`.
fn replay_sim() -> DiskSim {
    cli_sim(SchedulerKind::Fcfs)
}

/// Observer tiers, cumulative: each adds one sink to the one before.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Off,
    Registry,
    Flight,
    Rollups,
}

impl Tier {
    fn name(self) -> &'static str {
        match self {
            Tier::Off => "off",
            Tier::Registry => "registry",
            Tier::Flight => "flight",
            Tier::Rollups => "rollups",
        }
    }
}

/// Sinks of one observed run, kept so the pass can export them.
struct Sinks {
    recorder: Arc<FlightRecorder>,
    rollups: Arc<RollupSet>,
}

fn observed_sim(tier: Tier, registry: &MetricsRegistry) -> (DiskSim, Sinks) {
    let sinks = Sinks {
        recorder: Arc::new(FlightRecorder::new()),
        rollups: Arc::new(RollupSet::sim()),
    };
    let mut sim = replay_sim();
    let observer = match tier {
        Tier::Off => None,
        Tier::Registry => Some(SimObserver::new(registry, &ObsConfig::metrics_only())),
        Tier::Flight => Some(
            SimObserver::new(registry, &ObsConfig::enabled())
                .with_flight(Arc::clone(&sinks.recorder)),
        ),
        Tier::Rollups => Some(
            SimObserver::new(registry, &ObsConfig::enabled())
                .with_flight(Arc::clone(&sinks.recorder))
                .with_rollups(Arc::clone(&sinks.rollups)),
        ),
    };
    if let Some(o) = observer {
        sim.attach_observer(o);
    }
    (sim, sinks)
}

/// Generates [`EPISODES`] Mail streams from seeds derived from `seed`,
/// compresses their arrivals, lays them end to end and writes the
/// [`ROWS`] requests as MSR CSV; returns the row count.
fn write_csv(seed: u64, path: &Path) -> Result<usize, String> {
    let mut requests = Vec::with_capacity(ROWS);
    let mut offset_ns = 0;
    for episode in 0..EPISODES as u64 {
        let sub_seed = (seed ^ 0x11).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ episode;
        let mut last = offset_ns;
        for mut r in mail_prefix(sub_seed, ROWS / EPISODES)? {
            r.arrival_ns = offset_ns + r.arrival_ns / COMPRESSION;
            last = r.arrival_ns;
            requests.push(r);
        }
        offset_ns = last + EPISODE_GAP_NS;
    }
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(w, "{MSR_HEADER}").map_err(io)?;
    for r in &requests {
        // 100 ns filetime ticks.
        let ticks = r.arrival_ns / 100;
        let op = if r.op == OpKind::Read {
            "Read"
        } else {
            "Write"
        };
        writeln!(
            w,
            "{ticks},bench,{},{op},{},{},0",
            r.drive.0,
            r.lba * 512,
            u64::from(r.sectors) * 512
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(requests.len())
}

/// Per-pass host-time figures of the traced run.
#[derive(Debug, Default)]
struct PassTimes {
    parse_s: f64,
    channel_wait_s: f64,
    trace_export_s: f64,
    rollup_export_s: f64,
    trace_bytes: usize,
}

/// Iterator adapter timing the simulator's waits on the channel.
struct TimedRecv<I> {
    inner: I,
    waited: Duration,
}

impl<I: Iterator<Item = Request>> Iterator for TimedRecv<I> {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        let t = Instant::now();
        let item = self.inner.next();
        self.waited += t.elapsed();
        item
    }
}

/// One timed pass: CSV row to exported trace and rollup document.
/// Returns the simulation result, rows fed, the exported trace (for the
/// document check) and, when traced, the pass's host-time breakdown.
fn pass(
    csv: &Path,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Result<(SimResult, u64, String, PassTimes), String> {
    let registry = MetricsRegistry::new();
    let (mut sim, sinks) = observed_sim(Tier::Rollups, &registry);
    let file = File::open(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    let traced = tracer.is_some();
    let mut times = PassTimes::default();
    let (tx, rx) = spindle_engine::channel::bounded::<Request>(CHANNEL_CAP);
    let (sim_result, read_result, waited) = std::thread::scope(|s| {
        // The reader thread gets no span: it interleaves parsing with
        // blocking sends, so its parse time is summed per row instead.
        let reader = s.spawn(move || {
            let mut it = MsrReader::new(file).requests();
            let (mut fed, mut parse) = (0u64, Duration::ZERO);
            loop {
                let t = traced.then(Instant::now);
                let Some(item) = it.next() else { break };
                if let Some(t) = t {
                    parse += t.elapsed();
                }
                if tx.send(item?).is_err() {
                    break;
                }
                fed += 1;
            }
            Ok::<_, spindle_trace::TraceError>((fed, parse))
        });
        let (result, waited) = span(tracer, "disk.run_stream", parent, |_| {
            if traced {
                let mut timed = TimedRecv {
                    inner: rx.iter(),
                    waited: Duration::ZERO,
                };
                let result = sim.run_stream(&mut timed);
                (result, timed.waited)
            } else {
                (sim.run_stream(rx.iter()), Duration::ZERO)
            }
        });
        drop(rx);
        let read = reader.join().expect("reader thread does not panic");
        (result, read, waited)
    });
    let (fed, parse) = read_result.map_err(|e| format!("parse: {e}"))?;
    let result = sim_result.map_err(|e| format!("simulate: {e}"))?;
    let t = Instant::now();
    let trace = span(tracer, "obs.trace_export", parent, |_| {
        TraceEventSink::full().export_string(&sinks.recorder)
    })
    .map_err(|e| format!("trace export: {e}"))?;
    times.trace_export_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let rollup_doc = span(tracer, "obs.rollup_export", parent, |_| {
        sinks.rollups.to_json().to_string()
    });
    times.rollup_export_s = t.elapsed().as_secs_f64();
    std::hint::black_box(rollup_doc);
    times.parse_s = parse.as_secs_f64();
    times.channel_wait_s = waited.as_secs_f64();
    times.trace_bytes = trace.len();
    Ok((result, fed, trace, times))
}

/// Replays `requests` in memory at one observer tier; returns
/// requests simulated per host second.
fn tier_rate(tier: Tier, requests: &[Request], expected: &SimResult, out: &mut Outcome) -> f64 {
    let registry = MetricsRegistry::new();
    let (mut sim, _sinks) = observed_sim(tier, &registry);
    let t = Instant::now();
    let result = sim.run(requests);
    let secs = t.elapsed().as_secs_f64();
    out.check(
        result.as_ref().is_ok_and(|r| r == expected),
        &format!("tier {} replay equals the unobserved result", tier.name()),
    );
    requests.len() as f64 / secs
}

/// Traced passes whose medians give the per-layer figures.
const TRACED_PASSES: usize = 3;

/// Measures the saturated replay's per-layer figures into `out`: set-up,
/// an unobserved reference, a warm-up pass, one checked pass whose
/// exported document is validated, [`TRACED_PASSES`] traced passes and
/// the tier ladder.
pub fn measure(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let csv: PathBuf = ctx.out_dir.join("replay.csv");
    let rows = span(Some(tracer), "synth.replay_input", None, |_| {
        write_csv(ctx.seed, &csv)
    })?;
    // The reference: the same parsed stream through an unobserved
    // `run_stream`.
    let parsed = read_msr_requests(File::open(&csv).map_err(|e| e.to_string())?)
        .map_err(|e| format!("parse: {e}"))?;
    out.check(parsed.len() == rows, "every written row parses back");
    let expected = replay_sim()
        .run_stream(parsed.iter().copied())
        .map_err(|e| format!("reference simulate: {e}"))?;
    print_sim_digest("replay", &expected);

    let check_pass = |out: &mut Outcome, r: &SimResult, fed: u64| {
        out.check(
            r == &expected,
            "observed replay equals the unobserved run_stream",
        );
        out.check(
            r.completed.len() as u64 == fed && fed as usize == parsed.len(),
            "completed requests equal the rows fed",
        );
        let u = r.utilization();
        out.check(
            (0.0..=1.0).contains(&u),
            &format!("utilization {u} in [0, 1]"),
        );
    };

    // Warm-up pass, whose exported document is also validated.
    let (r, fed, trace, _) = pass(&csv, None, None)?;
    check_pass(out, &r, fed);
    let valid = spindle_obs::json::parse(&trace)
        .map_err(|e| e.to_string())
        .and_then(|d| spindle_obs::trace_event::check_document(&d));
    out.check(
        valid.is_ok(),
        &format!("exported trace document: {valid:?}"),
    );
    drop(trace);

    {
        let mut traced_s = Vec::new();
        let mut all = Vec::new();
        for _ in 0..TRACED_PASSES {
            let t = Instant::now();
            let (r, fed, trace, times) = span(Some(tracer), "bench.replay_pass", None, |p| {
                pass(&csv, Some(tracer), p)
            })?;
            traced_s.push(t.elapsed().as_secs_f64());
            drop(trace);
            check_pass(out, &r, fed);
            all.push(times);
        }
        let pass_s = median(&traced_s);
        println!(
            "replay_req_per_s = {:.1} 1/s (traced; {rows} rows per pass, median of {TRACED_PASSES} passes, {pass_s:.4} s each)",
            rows as f64 / pass_s
        );
        let m = |f: fn(&PassTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        let run_stream = median(&tracer.durations("disk.run_stream"));
        out.layer("trace.parse_s", m(|p| p.parse_s));
        out.layer("engine.channel_wait_s", m(|p| p.channel_wait_s));
        out.layer("disk.replay_s", run_stream - m(|p| p.channel_wait_s));
        out.layer("obs.trace_export_s", m(|p| p.trace_export_s));
        out.layer("obs.trace_bytes", m(|p| p.trace_bytes as f64));
        out.layer("obs.rollup_export_s", m(|p| p.rollup_export_s));

        // Tier ladder: the same parsed stream, in memory, per tier.
        let ladder = tracer.open("bench.tier_ladder", None);
        let mut off = 0.0;
        for (tier, reps) in [
            (Tier::Off, 7),
            (Tier::Registry, 5),
            (Tier::Flight, 3),
            (Tier::Rollups, 3),
        ] {
            let rates: Vec<f64> = (0..reps)
                .map(|_| {
                    span(
                        Some(tracer),
                        &format!("disk.tier.{}", tier.name()),
                        Some(ladder),
                        |_| tier_rate(tier, &parsed, &expected, out),
                    )
                })
                .collect();
            let rate = median(&rates);
            out.layer(&format!("disk.req_per_s.{}", tier.name()), rate);
            match tier {
                Tier::Off => off = rate,
                _ => out.layer(&format!("obs.overhead_ratio.{}", tier.name()), off / rate),
            }
        }
        let sptf: Vec<f64> = (0..5)
            .map(|_| {
                span(Some(tracer), "disk.tier.off_sptf", Some(ladder), |_| {
                    let t = Instant::now();
                    std::hint::black_box(
                        cli_sim(SchedulerKind::Sptf)
                            .run(&parsed)
                            .map_or(0, |r| r.destages),
                    );
                    parsed.len() as f64 / t.elapsed().as_secs_f64()
                })
            })
            .collect();
        out.layer("disk.req_per_s.off_sptf", median(&sptf));
        tracer.close(ladder);

        let depth = ResponseAnalysis::queue_depth(&expected).map_err(|e| e.to_string())?;
        out.layer("disk.mean_queue_depth", depth.mean);
        out.layer("disk.max_queue_depth", depth.max as f64);
        out.layer("disk.utilization", expected.utilization());
        out.layer(
            "disk.read_hit_ratio",
            expected.read_hit_ratio().unwrap_or(0.0),
        );
        out.layer("disk.destages", expected.destages as f64);
    }
    Ok(())
}
