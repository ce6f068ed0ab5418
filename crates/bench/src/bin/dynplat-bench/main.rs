//! `dynplat-bench <scenario> [flags]`: every figure and experiment of the
//! reproduction, and the `bench` performance gate, in one binary. Each
//! scenario is the module of the same name. With no arguments, an unknown
//! scenario or flag, or a missing or malformed value, the binary prints
//! the usage (every scenario and its flags) to stderr and exits 2.

// Not `forbid`: the allocation gate's allocator must opt back in.
#![deny(unsafe_code)]

mod ablation_dse;
mod bench;
mod e10_dse_admission;
mod e11_xil;
mod e12_chaos;
mod e13_detection_latency;
mod e14_uncertainty_adaptation;
mod e15_fleet_campaign;
mod e16_slo_telemetry;
mod e4_hw_access;
mod e5_update_safety;
mod e6_failover;
mod e7_monitoring;
mod e8_package_security;
mod e9_authorization;
mod fig1_consolidation;
mod fig2_interference;
mod fig3_paradigms;
mod micro;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Hermetic allocation counter: wraps the system allocator and counts
/// allocation events (alloc / realloc / alloc_zeroed) while a phase has
/// switched counting on. Counting is armed only for single-thread runs —
/// under `--threads N` the workers' warmup batches would interleave with
/// other workers' timed windows and the count would be meaningless.
#[allow(unsafe_code)] // `GlobalAlloc` is an unsafe trait
mod alloc_gate {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ARMED: AtomicBool = AtomicBool::new(false);
    static COUNTING: AtomicBool = AtomicBool::new(false);
    static COUNT: AtomicU64 = AtomicU64::new(0);

    /// The `#[global_allocator]` shim. Pure pass-through to [`System`]
    /// plus one relaxed flag load per call when idle.
    pub struct CountingAlloc;

    // SAFETY: delegates every operation unchanged to `System`; the only
    // extra work is updating atomics, which cannot allocate or unwind.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // relaxed: the count is only read in single-thread mode, so
            // flag and tally are same-thread; nothing is published.
            if COUNTING.load(Ordering::Relaxed) {
                COUNT.fetch_add(1, Ordering::Relaxed); // relaxed: see above
            }
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // relaxed: the count is only read in single-thread mode, so
            // flag and tally are same-thread; nothing is published.
            if COUNTING.load(Ordering::Relaxed) {
                COUNT.fetch_add(1, Ordering::Relaxed); // relaxed: see above
            }
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // relaxed: the count is only read in single-thread mode, so
            // flag and tally are same-thread; nothing is published.
            if COUNTING.load(Ordering::Relaxed) {
                COUNT.fetch_add(1, Ordering::Relaxed); // relaxed: see above
            }
            System.alloc_zeroed(layout)
        }
    }

    /// Arms the gate; phases' [`set_counting`] calls are no-ops until then.
    pub fn arm() {
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Turns counting on/off around a steady-state loop (if armed).
    pub fn set_counting(on: bool) {
        if ARMED.load(Ordering::SeqCst) {
            COUNTING.store(on, Ordering::SeqCst);
        }
    }

    /// Allocation events observed across all counted windows so far.
    pub fn total() -> u64 {
        COUNT.load(Ordering::SeqCst)
    }
}

#[global_allocator]
static GLOBAL: alloc_gate::CountingAlloc = alloc_gate::CountingAlloc;

/// A scenario's outcome; `Err` is a usage error (exit 2 with the usage).
type Outcome = Result<ExitCode, String>;

/// Lists each scenario under its module's name with its accepted flags: a
/// `plain` module's `run()` takes none, a flagged one's `run(&Flags)` takes
/// those its specs name. A spec with a value name (`"--out PATH"`) takes a
/// value; one without (`"--quick"`) is a switch.
macro_rules! scenarios {
    (plain: $($p:ident),*; flagged: $($f:ident [$($spec:literal),*]),*;) => {
        const SCENARIOS: &[(&str, &[&str], fn(&Flags) -> Outcome)] = &[
            $((stringify!($p), &[], |_| { $p::run(); Ok(ExitCode::SUCCESS) }),)*
            $((stringify!($f), &[$($spec),*], $f::run),)*
        ];
    };
}

scenarios! {
    plain: fig1_consolidation, fig2_interference, fig3_paradigms, e4_hw_access,
        e5_update_safety, e6_failover, e7_monitoring, e8_package_security,
        e9_authorization, e10_dse_admission, e11_xil, e12_chaos, ablation_dse;
    flagged:
        e13_detection_latency ["--horizon-ms N", "--dump PATH"],
        e14_uncertainty_adaptation ["--horizon-ms N", "--out PATH"],
        e15_fleet_campaign ["--vehicles N", "--shards N", "--out PATH"],
        e16_slo_telemetry ["--vehicles N", "--shards N", "--out PATH", "--telemetry DIR"],
        bench ["--out PATH", "--check BASELINE", "--quick", "--threads N"],
        micro ["--quick"];
}

/// One invocation's flags, checked against the scenario's specs. A
/// repeated flag keeps its last value; a switch maps to `""`.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn from_args(specs: &[&str], mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        while let Some(arg) = args.next() {
            let spec = specs
                .iter()
                .find(|spec| spec.split(' ').next() == Some(arg.as_str()))
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match spec.split_once(' ') {
                Some((_, meta)) => args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value ({meta})"))?,
                None => String::new(),
            };
            values.insert(arg, value);
        }
        Ok(Flags(values))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The value of `name` parsed as a `T`, or `default` when absent.
    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} needs a number, got {v:?}"))
        })
    }

    /// [`Flags::parse`] for a count that must be positive.
    fn positive(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.parse(name, default)? {
            0 => Err(format!("{name} needs a positive integer")),
            n => Ok(n),
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let outcome = match SCENARIOS.iter().find(|(n, ..)| *n == name) {
        Some((_, specs, run)) => Flags::from_args(specs, args).and_then(|flags| run(&flags)),
        None if name.is_empty() => Err("no scenario given".to_owned()),
        None => Err(format!("unknown scenario {name}")),
    };
    outcome.unwrap_or_else(|err| {
        eprintln!("dynplat-bench: {err}\nusage: dynplat-bench <scenario> [flags]\n\nscenarios:");
        for (name, specs, _) in SCENARIOS {
            let flags: String = specs.iter().map(|s| format!(" [{s}]")).collect();
            eprintln!("  {}", format!("{name:<26}{flags}").trim_end());
        }
        ExitCode::from(2)
    })
}
