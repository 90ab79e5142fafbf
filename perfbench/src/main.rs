//! `spindle-perfbench`: the layered benchmark of the spindle workspace.
//!
//! ```text
//! spindle-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                   --spindle-bin PATH --out-dir DIR
//! ```
//!
//! Workloads (why each was chosen is recorded in `BENCHMARK.json`):
//!
//! - `paper_matrix`: the full-scale experiment matrix on an engine pool.
//!   Its traced run also measures the saturated MSR replay ([`replay`]).
//! - `served_jobs`: one closed-loop client submitting `analyze` jobs to
//!   a `spindle serve --parallel 1` daemon.
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones, measured untraced; with `--trace 1` they are
//! the per-layer ones, taken from spans this crate records around its
//! calls into each layer, and a Chrome trace of those spans is written
//! to the output directory.

mod matrix;
mod replay;
mod served;
mod spans;

use spindle_obs::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Every end-to-end metric, in output order, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Every per-layer metric, with its unit. A workload reports 0 for the
/// metrics of layers it does not exercise (listed on stdout).
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.host_ref_s", "s"),
    ("self.bench_s", "s"),
    ("self.engine_s", "s"),
    ("self.synth_s", "s"),
    ("self.disk_s", "s"),
    ("self.core_s", "s"),
    ("self.trace_s", "s"),
    ("self.obs_s", "s"),
    ("self.serve_s", "s"),
    ("self.cli_s", "s"),
    ("bench.t1_s", "s"),
    ("bench.t2_s", "s"),
    ("bench.t3_s", "s"),
    ("bench.t4_s", "s"),
    ("bench.t5_s", "s"),
    ("bench.t6_s", "s"),
    ("bench.t7_s", "s"),
    ("bench.t8_s", "s"),
    ("bench.f1_s", "s"),
    ("bench.f2_s", "s"),
    ("bench.f3_s", "s"),
    ("bench.f4_s", "s"),
    ("bench.f5_s", "s"),
    ("bench.f6_s", "s"),
    ("bench.f7_s", "s"),
    ("bench.f8_s", "s"),
    ("bench.f9_s", "s"),
    ("bench.f10_s", "s"),
    ("bench.f11_s", "s"),
    ("bench.f12_s", "s"),
    ("bench.f13_s", "s"),
    ("engine.busy_ratio", "ratio"),
    ("engine.critical_path_s", "s"),
    ("synth.generate_s", "s"),
    ("synth.requests", "count"),
    ("disk.simulate_s", "s"),
    ("core.ms_analysis_s", "s"),
    ("synth.family_s", "s"),
    ("core.family_analysis_s", "s"),
    ("trace.parse_s", "s"),
    ("engine.channel_wait_s", "s"),
    ("disk.replay_s", "s"),
    ("obs.trace_export_s", "s"),
    ("obs.trace_bytes", "bytes"),
    ("obs.rollup_export_s", "s"),
    ("disk.req_per_s.off", "1/s"),
    ("disk.req_per_s.registry", "1/s"),
    ("disk.req_per_s.flight", "1/s"),
    ("disk.req_per_s.rollups", "1/s"),
    ("disk.req_per_s.off_sptf", "1/s"),
    ("obs.overhead_ratio.registry", "ratio"),
    ("obs.overhead_ratio.flight", "ratio"),
    ("obs.overhead_ratio.rollups", "ratio"),
    ("disk.mean_queue_depth", "count"),
    ("disk.max_queue_depth", "count"),
    ("disk.utilization", "ratio"),
    ("disk.read_hit_ratio", "ratio"),
    ("disk.destages", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("cli.direct_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.phase.admit_ms", "ms"),
    ("serve.phase.queue_wait_ms", "ms"),
    ("serve.phase.spawn_ms", "ms"),
    ("serve.phase.attempt_ms", "ms"),
    ("serve.phase.finalize_ms", "ms"),
    ("frame.frames_per_job", "count"),
    ("frame.bytes_per_job", "bytes"),
    ("frame.errors", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
];

/// Settings shared by every workload.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the timed passes run, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `spindle` binary (served jobs and the direct-CLI baseline).
    pub spindle_bin: PathBuf,
    /// Scratch directory inside the checkout for inputs and outputs.
    pub out_dir: PathBuf,
    /// Threads the load may use: at most the machine's parallelism,
    /// and at most 2.
    pub workers: usize,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or were refused, and failed checks.
    pub failed: u64,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed, untraced pass.
    pub pass_s: Vec<f64>,
    /// Peak resident set of the process that ran the workload, in MB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics of the traced run.
    pub layer: Vec<(String, f64)>,
    /// Median traced over median untraced pass time.
    pub trace_overhead_ratio: Option<f64>,
}

impl Outcome {
    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("check failed: {what}");
        }
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.push((name.to_owned(), value));
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of a fixed ladder of percentiles that has at least ten
/// samples beyond it, as `(level, value, samples beyond)`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].iter().find_map(|&p| {
        // Nearest-rank percentile: the sample at rank ceil(p/100 * n).
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        let beyond = n.saturating_sub(rank);
        (beyond >= 10).then(|| (p, v[rank - 1], beyond))
    })
}

/// Peak resident set size of process `pid` in MB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Seconds a fixed CPU-and-cache loop takes: FNV-1a over 8 MiB, eight
/// times. It does not touch the program; comparing it across runs shows
/// how much of a change in the other figures is the host's.
fn host_reference_s() -> f64 {
    let buf: Vec<u8> = (0..8u32 << 20).map(|i| (i % 251) as u8).collect();
    let t = Instant::now();
    let mut h = FNV_BASIS;
    for _ in 0..8 {
        h = fnv1a(h, std::hint::black_box(&buf));
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64()
}

/// The first `rows` requests of the Mail stream seeded by `seed`. The
/// generator's volume over a fixed span swings widely from seed to
/// seed (long-range-dependent rates, heavy-tailed on/off gates), so
/// inputs are cut to a fixed request count instead.
pub fn mail_prefix(seed: u64, rows: usize) -> Result<Vec<spindle_trace::Request>, String> {
    let mut span = 3_600.0;
    loop {
        let mut requests = spindle_synth::presets::Environment::Mail
            .spec(span)
            .generate(seed)
            .map_err(|e| format!("generate: {e}"))?;
        if requests.len() >= rows {
            requests.truncate(rows);
            return Ok(requests);
        }
        if span > 64.0 * 86_400.0 {
            return Err(format!(
                "a Mail stream of {span} s has fewer than {rows} requests"
            ));
        }
        span *= 2.0;
    }
}

/// The simulator `spindle simulate` and `spindle analyze` build for
/// `--scheduler` (SPTF when the flag is absent).
pub fn cli_sim(scheduler: spindle_disk::scheduler::SchedulerKind) -> spindle_disk::sim::DiskSim {
    let profile = spindle_disk::profile::DriveProfile::cheetah_15k();
    let cache = profile.cache;
    spindle_disk::sim::DiskSim::new(
        profile,
        spindle_disk::sim::SimConfig {
            scheduler,
            cache: Some(cache),
            flush_at_end: true,
        },
    )
}

/// Prints the simulated-statistics digest of one simulation result.
pub fn print_sim_digest(label: &str, sim: &spindle_disk::sim::SimResult) {
    println!(
        "digest {label}: completed={} busy_ns={} mean_response_ms={:.6} destages={} \
         read_hits={} read_misses={} writes_cached={} writes_forced={}",
        sim.completed.len(),
        sim.total_busy_ns(),
        sim.mean_response_ms(),
        sim.destages,
        sim.read_hits,
        sim.read_misses,
        sim.writes_cached,
        sim.writes_forced,
    );
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spindle_bin, mut out_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--spindle-bin" => spindle_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let need = |name: &str| format!("missing --{name}");
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    Ok((
        workload.ok_or_else(|| need("workload"))?,
        Ctx {
            seed: seed.ok_or_else(|| need("seed"))?,
            seconds: seconds.ok_or_else(|| need("seconds"))?,
            trace: trace.ok_or_else(|| need("trace"))?,
            spindle_bin: spindle_bin.ok_or_else(|| need("spindle-bin"))?,
            out_dir: out_dir.ok_or_else(|| need("out-dir"))?,
            workers,
        },
    ))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_owned(), Json::Num(value)),
        ("unit".to_owned(), Json::Str(unit.to_owned())),
    ])
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("spindle-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Family generation sizes nested pools from this variable; pinning
    // it to 1 keeps a 2-worker matrix within the thread budget.
    std::env::set_var(spindle_engine::JOBS_ENV, "1");
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!(
            "spindle-perfbench: cannot create {}: {e}",
            ctx.out_dir.display()
        );
        std::process::exit(2);
    }
    println!(
        "# workload {workload} seed {} seconds {} trace {} workers {} (available parallelism {})",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.workers,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let host_before = host_reference_s();
    let tracer = ctx.trace.then(spans::Tracer::new);
    let started = Instant::now();
    let result = match workload.as_str() {
        "paper_matrix" => matrix::run(&ctx, tracer.as_ref()),
        "served_jobs" => served::run(&ctx, tracer.as_ref()),
        other => Err(format!(
            "unknown workload `{other}` (expected paper_matrix or served_jobs)"
        )),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("spindle-perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "note: the disk model has no real-drive reference in this repository; \
         it is unvalidated, so no accuracy error is reported"
    );
    let host_ref_s = median(&[host_before, host_reference_s()]);
    println!("host reference loop: {host_ref_s:.4} s (compare across runs for host drift)");
    out.layer("bench.host_ref_s", host_ref_s);

    let metrics = if let Some(tracer) = &tracer {
        let path = ctx.out_dir.join(format!("trace-{workload}.json"));
        let doc = tracer.chrome_trace();
        let text = doc.to_string();
        let valid = spindle_obs::json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|d| spindle_obs::trace_event::check_document(&d));
        out.check(
            valid.is_ok(),
            &format!("benchmark trace document: {valid:?}"),
        );
        out.check(
            std::fs::write(&path, text).is_ok(),
            &format!("write {}", path.display()),
        );
        println!("wrote trace {}", path.display());
        for (layer, secs) in tracer.self_time_by_layer() {
            out.layer(&format!("self.{layer}_s"), secs);
        }
        if let Some(r) = out.trace_overhead_ratio {
            out.layer("bench.trace_overhead_ratio", r);
        }
        let mut missing = Vec::new();
        let members = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out.layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                if value.is_none() {
                    missing.push(name);
                }
                (name.to_owned(), metric(value.unwrap_or(0.0), unit))
            })
            .collect();
        println!(
            "reported as 0 (layer not exercised by {workload}, or no span of its own): {}",
            missing.join(" ")
        );
        for (name, value) in &out.layer {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                println!("extra layer figure {name} = {value}");
            }
        }
        members
    } else {
        let ok_ratio = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "pass_s" => median(&out.pass_s),
                    "setup_s" => median(&out.setup_s),
                    "peak_rss_mb" => out.peak_rss_mb,
                    "ok_ratio" => ok_ratio,
                    _ => unreachable!("every end-to-end metric is computed"),
                };
                (name.to_owned(), metric(value, unit))
            })
            .collect()
    };
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("untraced pass seconds: {}", list(&out.pass_s));
    println!("set-up seconds: {}", list(&out.setup_s));
    println!(
        "failed_ratio = {} ({} failed of {} attempted); run took {:.1} s",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        started.elapsed().as_secs_f64()
    );
    let line = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(out.failed == 0)),
        ("attempted".to_owned(), Json::Uint(out.attempted.max(1))),
        ("failed".to_owned(), Json::Uint(out.failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0, 10)));
        assert_eq!(tail(&xs[..15]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
