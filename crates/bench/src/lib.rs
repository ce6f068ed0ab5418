//! Shared helpers for the experiment harness.
//!
//! Every figure/experiment scenario of the `dynplat-bench` binary (see
//! DESIGN.md §4) prints a TSV table via [`Table`] so EXPERIMENTS.md can
//! quote machine-readable rows, plus a human-readable header. All of its
//! stdout goes through one writer, [`outln!`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod chaos;
pub mod detect;
pub mod fleet;
pub mod platoon;
pub mod telemetry;

use dynplat_common::time::SimDuration;
use dynplat_common::{AppId, AppKind, Asil};
use dynplat_model::ir::AppModel;
use std::fmt;
use std::io::{self, Write as _};

/// Prints one line to stdout like `println!`, through [`write_line`].
///
/// A reader that closes the pipe early (`dynplat-bench micro | head -3`)
/// ends the process quietly, where `println!` panics.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_line(::std::format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::write_line(::std::format_args!($($arg)*))
    };
}

/// Writes `line` and a newline to stdout: the one writer behind [`Table`]
/// and [`outln!`]. On a closed pipe the process exits with status 0; on
/// any other write error it says why on stderr and exits with status 1.
pub fn write_line(line: fmt::Arguments<'_>) {
    match writeln!(io::stdout().lock(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("dynplat-bench: cannot write stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// A TSV table printer for experiment outputs.
#[derive(Debug)]
pub struct Table {
    columns: Vec<String>,
}

impl Table {
    /// Starts a table, printing the header row.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        outln!("# {title}");
        outln!("{}", columns.join("\t"));
        Table {
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Prints one row.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the header.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        outln!("{}", cells.join("\t"));
    }
}

/// Formats a duration as fractional milliseconds for table cells.
pub fn ms(d: SimDuration) -> String {
    format!("{:.3}", d.as_nanos() as f64 / 1e6)
}

/// Formats a duration as fractional microseconds for table cells.
pub fn us(d: SimDuration) -> String {
    format!("{:.2}", d.as_nanos() as f64 / 1e3)
}

/// Generates a mixed vehicle function set: deterministic control/ADAS
/// functions (motor, suspension, ADAS domains) and non-deterministic
/// infotainment, with realistic period/work/memory spreads.
pub fn vehicle_functions(n: u32) -> Vec<AppModel> {
    (0..n)
        .map(|i| {
            let det = i % 3 != 2; // two thirds deterministic
            let period_ms = match i % 4 {
                0 => 5,
                1 => 10,
                2 => 20,
                _ => 50,
            };
            AppModel {
                id: AppId(i + 1),
                name: format!("fn{}", i + 1),
                kind: if det {
                    AppKind::Deterministic
                } else {
                    AppKind::NonDeterministic
                },
                asil: Asil::ALL[(i % 5) as usize],
                provides: vec![],
                consumes: vec![],
                period: SimDuration::from_millis(period_ms),
                work_mi: 0.5 + f64::from(i % 5) * 0.4,
                memory_kib: 128 + (i % 8) * 128,
                needs_gpu: false,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vehicle_functions_mix_kinds() {
        let fns = vehicle_functions(30);
        assert_eq!(fns.len(), 30);
        let det = fns
            .iter()
            .filter(|f| f.kind == AppKind::Deterministic)
            .count();
        assert!(det > 15 && det < 25);
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(SimDuration::from_micros(1500)), "1.500");
        assert_eq!(us(SimDuration::from_nanos(2500)), "2.50");
    }
}
