//! Ablations of DynaCut's design choices (DESIGN.md §6):
//!
//! 1. **exec-page dumping** (the paper's criu/mem.c patch) vs stock CRIU:
//!    image-size cost paid so text rewrites survive restore,
//! 2. **block policies**: bytes written / pages unmapped per policy for
//!    the same feature,
//! 3. **downtime accounting**: the guest-visible freeze window under each
//!    mode.

use crate::workloads::{boot_server, Server};
use dynacut::{
    disable_in_image, BlockPolicy, Downtime, DynaCut, FaultPolicy, Feature, RewritePlan,
};
use dynacut_criu::{dump_many, DumpOptions};

/// Image sizes with and without exec-page dumping, per server.
#[derive(Debug, Clone)]
pub struct DumpAblation {
    /// Server name.
    pub app: String,
    /// Serialized size with DynaCut's exec-page dumping.
    pub dynacut_bytes: usize,
    /// Serialized size with stock-CRIU options.
    pub stock_bytes: usize,
}

/// Per-policy effects of disabling the same feature.
#[derive(Debug, Clone)]
pub struct PolicyAblation {
    /// Policy name.
    pub policy: &'static str,
    /// `int3` bytes written.
    pub bytes_written: u64,
    /// Pages unmapped.
    pub pages_unmapped: u64,
    /// Redirect-table entries produced.
    pub redirect_entries: usize,
}

/// Runs ablation 1.
pub fn dump_ablation() -> Vec<DumpAblation> {
    [Server::Lighttpd, Server::Nginx, Server::Redis]
        .into_iter()
        .map(|server| {
            let measure = |options: DumpOptions| {
                let mut workload = boot_server(server, false);
                for &pid in &workload.pids.clone() {
                    workload.kernel.freeze(pid).unwrap();
                }
                dump_many(&mut workload.kernel, &workload.pids.clone(), &options)
                    .expect("dump")
                    .to_bytes()
                    .len()
            };
            DumpAblation {
                app: server.module().to_owned(),
                dynacut_bytes: measure(DumpOptions::default()),
                stock_bytes: measure(DumpOptions::stock_criu()),
            }
        })
        .collect()
}

/// Runs ablation 2 on the Lighttpd PUT feature.
pub fn policy_ablation() -> Vec<PolicyAblation> {
    [
        ("entry-byte", BlockPolicy::EntryByte),
        ("wipe-blocks", BlockPolicy::WipeBlocks),
        ("unmap-pages", BlockPolicy::UnmapPages),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let mut workload = boot_server(Server::Lighttpd, false);
        let pid = workload.pids[0];
        workload.kernel.freeze(pid).unwrap();
        let mut image =
            dynacut_criu::dump(&mut workload.kernel, pid, &DumpOptions::default()).unwrap();
        // A page-spanning target: all the cold modules.
        let mut blocks = Vec::new();
        for func in &workload.exe.functions {
            if func.name.starts_with("lt_cgi")
                || func.name.starts_with("lt_rewrite")
                || func.name.starts_with("lt_auth")
                || func.name.starts_with("lt_ssi")
                || func.name.starts_with("lt_fastcgi")
            {
                blocks.extend(workload.exe.blocks_of_function(&func.name));
            }
        }
        let feature = Feature::new("cold modules", "lighttpd", blocks).redirect_to_offset(0);
        let outcome = disable_in_image(&mut image, &feature, policy).expect("disable");
        PolicyAblation {
            policy: name,
            bytes_written: outcome.bytes_written,
            pages_unmapped: outcome.pages_unmapped,
            redirect_entries: outcome.redirects.len(),
        }
    })
    .collect()
}

/// Runs ablation 3: guest-clock downtime per accounting mode.
pub fn downtime_ablation() -> Vec<(&'static str, u64)> {
    [
        ("none", Downtime::None),
        ("fixed 400ms", Downtime::Fixed(400_000_000)),
        ("measured ×1000", Downtime::MeasuredTimes(1000)),
    ]
    .into_iter()
    .map(|(name, downtime)| {
        let mut workload = boot_server(Server::Redis, false);
        let mut dynacut = DynaCut::new(workload.registry.clone());
        let feature = Feature::from_function("SET", &workload.exe, "rd_cmd_set")
            .unwrap()
            .redirect_to_function(&workload.exe, dynacut_apps::redis::ERROR_HANDLER)
            .unwrap();
        let before = workload.kernel.clock_ns();
        let plan = RewritePlan::new()
            .disable(feature)
            .with_fault_policy(FaultPolicy::Redirect)
            .with_downtime(downtime);
        dynacut
            .customize(&mut workload.kernel, &workload.pids.clone(), &plan)
            .expect("customize");
        (name, workload.kernel.clock_ns() - before)
    })
    .collect()
}

/// Prints all three ablations.
pub fn print() {
    println!("== Ablations of DynaCut's design choices ==\n");

    println!("1. exec-page dumping (criu/mem.c patch) vs stock CRIU image size:");
    for row in dump_ablation() {
        println!(
            "   {:<9} {:>10} (dynacut)  vs {:>10} (stock)  — +{:.0}% for rewritable text",
            row.app,
            crate::report::fmt_bytes(row.dynacut_bytes as u64),
            crate::report::fmt_bytes(row.stock_bytes as u64),
            100.0 * (row.dynacut_bytes as f64 / row.stock_bytes as f64 - 1.0)
        );
    }

    println!("\n2. block policies on the same (page-spanning) feature:");
    for row in policy_ablation() {
        println!(
            "   {:<11} {:>8} int3 bytes, {:>3} pages unmapped, {:>3} redirect entries",
            row.policy, row.bytes_written, row.pages_unmapped, row.redirect_entries
        );
    }

    println!("\n3. downtime accounting (guest-clock ns charged per customize):");
    for (name, ns) in downtime_ablation() {
        println!(
            "   {:<15} {}",
            name,
            crate::report::fmt_duration(std::time::Duration::from_nanos(ns))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_page_dumping_costs_image_size() {
        for row in dump_ablation() {
            assert!(
                row.dynacut_bytes > row.stock_bytes,
                "{}: {} vs {}",
                row.app,
                row.dynacut_bytes,
                row.stock_bytes
            );
        }
    }

    #[test]
    fn policies_trade_bytes_for_pages() {
        let rows = policy_ablation();
        let by_name = |name: &str| rows.iter().find(|r| r.policy == name).unwrap();
        let entry = by_name("entry-byte");
        let wipe = by_name("wipe-blocks");
        let unmap = by_name("unmap-pages");
        assert_eq!(entry.bytes_written, 1, "one byte for the entry policy");
        assert!(wipe.bytes_written > 1000, "wipe rewrites whole blocks");
        assert_eq!(entry.pages_unmapped, 0);
        assert_eq!(wipe.pages_unmapped, 0);
        assert!(unmap.pages_unmapped >= 1, "unmap removes whole pages");
        assert!(
            unmap.bytes_written < wipe.bytes_written,
            "unmap only wipes page remainders"
        );
    }

    #[test]
    fn downtime_modes_charge_the_guest_clock_as_configured() {
        let rows = downtime_ablation();
        let by_name = |name: &str| rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(by_name("none"), 0);
        assert!(by_name("fixed 400ms") >= 400_000_000);
        let measured = by_name("measured ×1000");
        assert!(measured > 0, "measured mode charges something");
    }
}
