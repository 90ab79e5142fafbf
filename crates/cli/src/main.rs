//! `spindle` — command-line front end for the disk workload
//! characterization toolkit.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a millisecond trace for an environment.
//! * `simulate` — run a trace through the disk simulator.
//! * `analyze`  — full millisecond-scale characterization of a trace.
//! * `report`   — render a run's multi-time-scale view (utilization,
//!   R/W mix, burstiness, idleness, tail attribution) as one HTML page.
//! * `family`   — generate and characterize a drive family.
//!
//! Run `spindle help` for the option reference.

mod args;
mod commands;
mod report;

use std::process::ExitCode;

fn main() -> ExitCode {
    spindle_pulse::front::exit_quietly_on_closed_stdout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spindle: {e}");
            if e.is::<commands::Usage>() {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
