//! `spindle` — command-line front end for the disk workload
//! characterization toolkit.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a millisecond trace for an environment.
//! * `simulate` — run a trace through the disk simulator.
//! * `analyze`  — full millisecond-scale characterization of a trace.
//! * `report`   — render a run into a self-contained HTML summary.
//! * `observe`  — render the multi-time-scale telemetry "observatory"
//!   report (per-time-scale rollups, burstiness, tail attribution).
//! * `family`   — generate and characterize a drive family.
//!
//! Run `spindle help` for the option reference.

mod args;
mod commands;
mod observe;
mod report;

use std::process::ExitCode;

fn main() -> ExitCode {
    spindle_pulse::front::exit_quietly_on_closed_stdout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spindle: {e}");
            ExitCode::FAILURE
        }
    }
}
