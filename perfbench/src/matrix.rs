//! `paper_matrix`: the full-scale experiment matrix, observer off.
//!
//! This is what a reproduction user runs. It exercises synth, disk
//! (shallow queues, the T6/T8 ablations), core/stats, engine and bench,
//! and no obs or serve. The matrix regenerates and re-simulates the same
//! environment streams many times, so a change that shares inputs
//! between experiments shows here and nowhere else.
//!
//! The workload seed does not change this workload's inputs: see
//! [`run`].

use crate::spans::{span, Tracer};
use crate::{fnv1a, median, print_sim_digest, Ctx, Outcome, FNV_BASIS};
use spindle_bench::matrix::{run_matrix_isolated, run_one, EXPERIMENTS};
use spindle_bench::pipeline::standard_family;
use spindle_bench::ExpConfig;
use spindle_core::burstiness::BurstinessAnalysis;
use spindle_core::hour::HourAnalysis;
use spindle_core::idle::IdleAnalysis;
use spindle_core::lifetime::{saturation_curve, FamilyAnalysis};
use spindle_core::millisecond::MillisecondAnalysis;
use spindle_core::response::ResponseAnalysis;
use spindle_disk::profile::DriveProfile;
use spindle_disk::sim::{DiskSim, SimConfig};
use spindle_engine::Pool;
use spindle_synth::presets::Environment;
use std::time::Instant;

type BoxResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// One pass over the matrix: wall seconds, per-experiment seconds, and
/// the digest of every rendered output in table order.
struct Pass {
    wall_s: f64,
    exp_s: Vec<(String, f64)>,
    digest: u64,
}

fn ids() -> Vec<String> {
    EXPERIMENTS.iter().map(|(id, _)| (*id).to_owned()).collect()
}

/// The untraced path: exactly what `experiments --jobs N` runs.
fn untraced_pass(cfg: &ExpConfig, pool: &Pool, out: &mut Outcome) -> Pass {
    let ids = ids();
    let start = Instant::now();
    let outcome = run_matrix_isolated(&ids, cfg, pool, |_| {});
    let wall_s = start.elapsed().as_secs_f64();
    for f in &outcome.failures {
        out.check(
            false,
            &format!("experiment #{} panicked: {}", f.ordinal, f.payload),
        );
    }
    let mut digest = FNV_BASIS;
    let mut exp_s = Vec::new();
    for r in outcome.results {
        match &r.output {
            Ok(text) => {
                out.check(true, "");
                digest = fnv1a(fnv1a(digest, r.id.as_bytes()), text.as_bytes());
            }
            Err(e) => out.check(false, &format!("experiment {} failed: {e}", r.id)),
        }
        exp_s.push((r.id, r.secs));
    }
    Pass {
        wall_s,
        exp_s,
        digest,
    }
}

/// The traced path: the same experiments on the same pool, each inside
/// a span on the worker thread that ran it.
fn traced_pass(cfg: &ExpConfig, pool: &Pool, tracer: &Tracer, out: &mut Outcome) -> Pass {
    let start = Instant::now();
    let results = span(Some(tracer), "engine.map", None, |parent| {
        pool.map(ids(), |_, id| {
            let t = Instant::now();
            let output = span(Some(tracer), &format!("bench.{id}"), parent, |_| {
                run_one(&id, cfg)
            });
            (id, output, t.elapsed().as_secs_f64())
        })
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut digest = FNV_BASIS;
    let mut exp_s = Vec::new();
    for (id, output, secs) in results {
        match &output {
            Ok(text) => {
                out.check(true, "");
                digest = fnv1a(fnv1a(digest, id.as_bytes()), text.as_bytes());
            }
            Err(e) => out.check(false, &format!("experiment {id} failed: {e}")),
        }
        exp_s.push((id, secs));
    }
    Pass {
        wall_s,
        exp_s,
        digest,
    }
}

/// Mirrors the per-environment seed offsets of the experiment pipeline,
/// so the unit costs below rebuild the matrix's own streams.
fn env_seed(env: Environment) -> u64 {
    match env {
        Environment::Mail => 0x11,
        Environment::Web => 0x22,
        Environment::Dev => 0x33,
        Environment::Archive => 0x44,
    }
}

/// Unit costs of the inputs the matrix rebuilds, each measured once at
/// full scale, plus the simulated-statistics digest of every
/// environment stream.
fn unit_costs(cfg: &ExpConfig, tracer: Option<&Tracer>, out: &mut Outcome) -> BoxResult<()> {
    let root = tracer.map(|t| t.open("bench.unit_costs", None));
    let mut totals = [0.0f64; 3];
    let mut requests_total = 0u64;
    for env in Environment::all() {
        let t = Instant::now();
        let requests = span(tracer, "synth.generate", root, |_| {
            env.spec(cfg.ms_span_secs)
                .generate(cfg.seed ^ env_seed(env))
        })?;
        totals[0] += t.elapsed().as_secs_f64();
        requests_total += requests.len() as u64;

        let t = Instant::now();
        let sim = span(tracer, "disk.simulate", root, |_| {
            DiskSim::new(DriveProfile::cheetah_15k(), SimConfig::default()).run(&requests)
        })?;
        totals[1] += t.elapsed().as_secs_f64();
        print_sim_digest(&format!("sim.{}", format!("{env:?}").to_lowercase()), &sim);
        out.check(
            sim.completed.len() == requests.len(),
            &format!("{env:?}: every generated request completes"),
        );

        let t = Instant::now();
        span(tracer, "core.ms_analysis", root, |_| -> BoxResult<()> {
            let ms = MillisecondAnalysis::new(&requests, &sim)?;
            let summary = ms.summary()?;
            let idle = IdleAnalysis::new(&sim.busy)?;
            let response = ResponseAnalysis::new(&sim)?;
            let tail = response.tail_amplification()?;
            let bursts = BurstinessAnalysis::new(&ms.arrival_times_secs(), summary.span_secs, 1.0)?;
            let hurst = bursts.hurst()?;
            std::hint::black_box((summary, idle.idle_fraction(), tail, hurst));
            Ok(())
        })?;
        totals[2] += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let family = span(tracer, "synth.family", root, |_| standard_family(cfg))?;
    let family_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    span(tracer, "core.family_analysis", root, |_| -> BoxResult<()> {
        let lifetimes: Vec<_> = family.iter().map(|d| d.lifetime).collect();
        let percentiles = FamilyAnalysis::new(&lifetimes)?.percentiles()?;
        let series: Vec<_> = family.iter().map(|d| d.series.clone()).collect();
        let curve = saturation_curve(&series, 0.99, 24)?;
        for d in family.iter().take(cfg.t4_drives as usize) {
            std::hint::black_box(HourAnalysis::new(&d.series)?.summary()?);
        }
        std::hint::black_box((percentiles, curve));
        Ok(())
    })?;
    let family_analysis_s = t.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    out.layer("synth.generate_s", totals[0]);
    out.layer("disk.simulate_s", totals[1]);
    out.layer("core.ms_analysis_s", totals[2]);
    out.layer("synth.family_s", family_s);
    out.layer("core.family_analysis_s", family_analysis_s);
    out.layer("synth.requests", requests_total as f64);
    Ok(())
}

fn layer_from_pass(pass: &Pass, workers: usize, out: &mut Outcome) {
    let busy: f64 = pass.exp_s.iter().map(|(_, s)| s).sum();
    let critical = pass.exp_s.iter().map(|(_, s)| *s).fold(0.0, f64::max);
    for (id, secs) in &pass.exp_s {
        out.layer(&format!("bench.{id}_s"), *secs);
    }
    out.layer("engine.busy_ratio", busy / (pass.wall_s * workers as f64));
    out.layer("engine.critical_path_s", critical);
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The paper's configuration, seed included, for every workload
    // seed: the environment streams are long-range dependent with
    // heavy-tailed on/off gates, so their volume (and the matrix's
    // work) swings by a quarter from one seed to the next, more than
    // any regression bound could absorb.
    let cfg = ExpConfig::full();
    let warm_cfg = ExpConfig::quick();
    println!(
        "paper_matrix runs the paper configuration (seed {}) whatever the workload seed",
        cfg.seed
    );
    // Set-up: the worker pool plus a warm-up pass of the quick-scale
    // matrix through the same path, repeated so its median is stable.
    let mut pool = None;
    for _ in 0..3 {
        let t = Instant::now();
        let p = Pool::new(ctx.workers);
        let warm = untraced_pass(&warm_cfg, &p, &mut out);
        std::hint::black_box(warm.digest);
        out.setup_s.push(t.elapsed().as_secs_f64());
        pool = Some(p);
    }
    let pool = pool.expect("set-up ran");

    let mut passes = Vec::new();
    if let Some(tracer) = tracer {
        // One untraced and one traced pass; their ratio is the cost of
        // the spans themselves.
        passes.push(untraced_pass(&cfg, &pool, &mut out));
        let traced = traced_pass(&cfg, &pool, tracer, &mut out);
        out.trace_overhead_ratio = Some(traced.wall_s / passes[0].wall_s);
        layer_from_pass(&traced, ctx.workers, &mut out);
        passes.push(traced);
    } else {
        let start = Instant::now();
        while passes.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
            passes.push(untraced_pass(&cfg, &pool, &mut out));
        }
    }
    out.peak_rss_mb = crate::peak_rss_mb("self").unwrap_or(0.0);
    let first = passes[0].digest;
    for (i, p) in passes.iter().enumerate().skip(1) {
        out.check(
            p.digest == first,
            &format!(
                "pass {i} rendered output digest {:016x} != {first:016x}",
                p.digest
            ),
        );
    }
    // A traced pass is not an end-to-end sample.
    let untraced = if tracer.is_some() { 1 } else { passes.len() };
    out.pass_s = passes[..untraced].iter().map(|p| p.wall_s).collect();
    println!("digest matrix_output: fnv1a64={first:016x}");
    unit_costs(&cfg, tracer, &mut out).map_err(|e| format!("unit costs: {e}"))?;
    if let Some(tracer) = tracer {
        crate::replay::measure(ctx, tracer, &mut out)?;
    }

    let matrix_s = median(&out.pass_s);
    println!(
        "matrix_s = {matrix_s:.4} s (median of {} full-scale passes at {} workers; {:.3} experiments/s)",
        out.pass_s.len(),
        ctx.workers,
        EXPERIMENTS.len() as f64 / matrix_s
    );
    println!("peak_rss_mb = {:.1} MB", out.peak_rss_mb);
    Ok(out)
}
