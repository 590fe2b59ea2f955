//! Figure 8 (incremental variant): the rewrite freeze window measured in
//! the page bytes a pre-dump protocol leaves for the freeze — full dumps
//! vs the two-phase incremental pre-dump — over repeated disable/enable
//! cycles against Redis.
//!
//! Downtime is charged to the kernel clock in proportion to those bytes
//! ([`freeze_window_ns`]), so the incremental series also shows up as
//! shorter guest-visible stalls. The incremental freeze copies no clean
//! page: the pre-dump leaves each one a shared frame, which the frozen
//! dump hands out without a copy.

use crate::report::{fmt_bytes, Table};
use crate::workloads::{boot_server, Server, Workload};
use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::redis;

/// Disable/enable cycles per series (SET toggled each cycle).
pub const CYCLES: usize = 6;
/// Fixed freeze overhead (signal delivery, register/sigaction/TCP-repair
/// capture) in simulated nanoseconds.
pub const FREEZE_BASE_NS: u64 = 50_000;
/// Modeled copy cost per KiB moved while frozen.
pub const COPY_NS_PER_KIB: u64 = 400;

/// Guest-visible freeze window for a cycle that copied
/// `frozen_page_bytes` under the freeze.
pub fn freeze_window_ns(frozen_page_bytes: usize) -> u64 {
    FREEZE_BASE_NS + (frozen_page_bytes as u64 / 1024) * COPY_NS_PER_KIB
}

/// Per-cycle measurements of one series.
#[derive(Debug, Clone, Copy)]
pub struct CycleStats {
    /// Cycle index.
    pub cycle: usize,
    /// `"disable SET"` or `"re-enable SET"`.
    pub action: &'static str,
    /// Page bytes left for the freeze, which the modeled window charges.
    pub frozen_page_bytes: usize,
    /// Page bytes the pre-dump moved while the guest still ran.
    pub prewritten_page_bytes: usize,
    /// Page bytes this checkpoint adds over the previous one: the full
    /// image for the full series and the first incremental cycle, the
    /// pages changed since the previous baseline afterwards.
    pub stored_page_bytes: usize,
}

/// Both series of the figure.
#[derive(Debug, Clone)]
pub struct Fig8IncrementalSeries {
    /// Full dump every cycle (the default pipeline).
    pub full: Vec<CycleStats>,
    /// Pre-dump + flat checkpoint store ([`DynaCut::with_incremental`]).
    pub incremental: Vec<CycleStats>,
}

impl Fig8IncrementalSeries {
    /// Sum of a series' [`CycleStats::stored_page_bytes`]: for the
    /// incremental series, the first image plus the pages each later
    /// cycle changed. This is not what the store holds: every stored
    /// entry keeps a full key list, and the page bytes physically held
    /// are `CheckpointStore::unique_pages_bytes`.
    pub fn total_stored(series: &[CycleStats]) -> usize {
        series.iter().map(|s| s.stored_page_bytes).sum()
    }

    /// Worst freeze window of a series.
    pub fn worst_freeze_ns(series: &[CycleStats]) -> u64 {
        series
            .iter()
            .map(|s| freeze_window_ns(s.frozen_page_bytes))
            .max()
            .unwrap_or(0)
    }
}

fn run_series(incremental: bool) -> Vec<CycleStats> {
    let mut workload = boot_server(Server::Redis, false);
    let mut dynacut = DynaCut::new(workload.registry.clone());
    if incremental {
        dynacut = dynacut.with_incremental();
    }
    let set_feature = |workload: &Workload| {
        Feature::from_function("SET", &workload.exe, "rd_cmd_set")
            .unwrap()
            .redirect_to_function(&workload.exe, redis::ERROR_HANDLER)
            .unwrap()
    };

    let mut series = Vec::with_capacity(CYCLES);
    for cycle in 0..CYCLES {
        // Client traffic between cycles dirties a handful of heap/stack
        // pages — the residue an incremental checkpoint has to move.
        workload.exercise_redis_workload(12);

        let disable = cycle % 2 == 0;
        let feature = set_feature(&workload);
        let plan = if disable {
            RewritePlan::new().disable(feature)
        } else {
            RewritePlan::new().enable(feature)
        }
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
        let pids = workload.kernel.pids();
        let report = dynacut
            .customize(&mut workload.kernel, &pids, &plan)
            .expect("customize");
        // Charge the modeled freeze window to the guest clock.
        workload
            .kernel
            .advance_clock(freeze_window_ns(report.frozen_page_bytes));

        series.push(CycleStats {
            cycle,
            action: if disable {
                "disable SET"
            } else {
                "re-enable SET"
            },
            frozen_page_bytes: report.frozen_page_bytes,
            prewritten_page_bytes: report.prewritten_page_bytes,
            stored_page_bytes: report.stored_page_bytes.unwrap_or(report.frozen_page_bytes),
        });
    }
    series
}

/// Runs both series.
pub fn run() -> Fig8IncrementalSeries {
    Fig8IncrementalSeries {
        full: run_series(false),
        incremental: run_series(true),
    }
}

/// Prints the per-cycle comparison and the store-footprint totals.
pub fn print() {
    println!("== Figure 8 (incremental): freeze-window bytes, full vs pre-dump + flat store ==\n");
    let series = run();
    let mut table = Table::new(&[
        "cycle",
        "action",
        "full: frozen",
        "incr: frozen",
        "incr: pre-copied",
        "full window",
        "incr window",
    ]);
    for (full, incr) in series.full.iter().zip(&series.incremental) {
        table.row(&[
            full.cycle.to_string(),
            full.action.to_string(),
            fmt_bytes(full.frozen_page_bytes as u64),
            fmt_bytes(incr.frozen_page_bytes as u64),
            fmt_bytes(incr.prewritten_page_bytes as u64),
            crate::report::fmt_duration(std::time::Duration::from_nanos(freeze_window_ns(
                full.frozen_page_bytes,
            ))),
            crate::report::fmt_duration(std::time::Duration::from_nanos(freeze_window_ns(
                incr.frozen_page_bytes,
            ))),
        ]);
    }
    print!("{}", table.render());
    let full_stored = Fig8IncrementalSeries::total_stored(&series.full);
    let incr_stored = Fig8IncrementalSeries::total_stored(&series.incremental);
    println!(
        "\nstore footprint over {CYCLES} cycles: full images {} vs pages new to each baseline (1 full + {} changed sets) {} ({:.1}x smaller)",
        fmt_bytes(full_stored as u64),
        CYCLES - 1,
        fmt_bytes(incr_stored as u64),
        full_stored as f64 / incr_stored.max(1) as f64,
    );
    println!(
        "worst freeze window: full {} vs incremental {}",
        crate::report::fmt_duration(std::time::Duration::from_nanos(
            Fig8IncrementalSeries::worst_freeze_ns(&series.full)
        )),
        crate::report::fmt_duration(std::time::Duration::from_nanos(
            Fig8IncrementalSeries::worst_freeze_ns(&series.incremental)
        )),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance property of the incremental pipeline: after a small
    /// rewrite, the incremental checkpoint moves strictly fewer page
    /// bytes than a full dump — both inside the freeze window and into
    /// the store.
    #[test]
    fn incremental_moves_strictly_fewer_bytes_than_full() {
        let series = run();
        assert_eq!(series.full.len(), CYCLES);
        assert_eq!(series.incremental.len(), CYCLES);

        for (full, incr) in series.full.iter().zip(&series.incremental) {
            // The full series leaves the entire payload for the freeze;
            // the pre-dump protocol leaves at most the dirty residue,
            // which is what the modeled window charges.
            assert!(full.frozen_page_bytes > 0, "cycle {}", full.cycle);
            assert!(
                incr.frozen_page_bytes < full.frozen_page_bytes,
                "cycle {}: frozen {} !< {}",
                full.cycle,
                incr.frozen_page_bytes,
                full.frozen_page_bytes
            );
            assert!(incr.prewritten_page_bytes > 0, "cycle {}", full.cycle);
        }
        // Every incremental cycle after the first adds only its changed
        // pages, strictly fewer than the full image of the default
        // pipeline.
        for (full, incr) in series.full.iter().zip(&series.incremental).skip(1) {
            assert!(
                incr.stored_page_bytes < full.stored_page_bytes,
                "cycle {}: stored {} !< {}",
                full.cycle,
                incr.stored_page_bytes,
                full.stored_page_bytes
            );
        }
        assert!(
            Fig8IncrementalSeries::total_stored(&series.incremental)
                < Fig8IncrementalSeries::total_stored(&series.full)
        );
        assert!(
            Fig8IncrementalSeries::worst_freeze_ns(&series.incremental)
                < Fig8IncrementalSeries::worst_freeze_ns(&series.full)
        );
    }
}
