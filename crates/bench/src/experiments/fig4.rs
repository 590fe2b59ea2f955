//! Figure 4: diff-based feature-related basic block discovery — the
//! `tracediff.py` output for the Redis analogue, annotated with the
//! functions the discovered blocks belong to.

use crate::workloads::{boot_server, Server};
use dynacut_analysis::{
    annotate_functions, feature_blocks, tracediff_report, CovGraph, FunctionCoverage,
};
use dynacut_apps::redis;

/// Results of the discovery run.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The Figure-4-style per-block report.
    pub report: String,
    /// Per-function aggregation of the discovered feature blocks.
    pub functions: Vec<FunctionCoverage>,
    /// Blocks discovered in the application module.
    pub app_blocks: usize,
    /// Blocks the diff found in libc before filtering (the paper filters
    /// library blocks out).
    pub libc_blocks_filtered: usize,
}

/// Runs the discovery: wanted = GET/PING traffic, undesired = SET
/// traffic; the diff pinpoints the `SET` handler.
pub fn run() -> Fig4Result {
    let mut workload = boot_server(Server::Redis, true);
    let tracer = workload.tracer.clone().expect("tracer installed");
    tracer.nudge(); // discard initialization coverage

    // Wanted requests.
    for request in [&b"GET k\n"[..], b"PING\n", b"GET other\n", b"DEL k\n"] {
        let reply = workload.request(request);
        assert!(!reply.is_empty());
    }
    let wanted = CovGraph::from_log(&tracer.nudge());

    // Undesired requests (the SET feature).
    for request in [&b"SET k v\n"[..], b"SET k2 v2\n"] {
        let reply = workload.request(request);
        assert!(!reply.is_empty());
    }
    let undesired = CovGraph::from_log(&tracer.snapshot());

    let raw_diff = feature_blocks(&undesired, &wanted);
    let libc_blocks_filtered = raw_diff.module_blocks("libc").len();
    let app_diff = raw_diff.retain_modules(&[redis::MODULE]);

    Fig4Result {
        report: tracediff_report(&app_diff, &workload.exe, redis::MODULE),
        functions: annotate_functions(&app_diff, &workload.exe, redis::MODULE),
        app_blocks: app_diff.len(),
        libc_blocks_filtered,
    }
}

/// Prints the figure.
pub fn print() {
    println!("== Figure 4: diff-based feature-related block discovery (Redis SET) ==\n");
    let result = run();
    print!("{}", result.report);
    println!(
        "\n({} libc blocks appeared in the raw diff and were filtered out,",
        result.libc_blocks_filtered
    );
    println!("as tracediff.py filters blocks that appear in program libraries)\n");
    println!("per-function aggregation:");
    for fc in &result.functions {
        println!(
            "  {:<24} {:>2}/{:<2} blocks ({:.0}%)",
            fc.function,
            fc.covered_blocks,
            fc.total_blocks,
            100.0 * fc.fraction()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_pinpoints_the_set_handler() {
        let result = run();
        assert!(result.app_blocks > 0, "feature blocks discovered");
        // The SET handler dominates the discovery.
        let set_fn = result
            .functions
            .iter()
            .find(|fc| fc.function == "rd_cmd_set")
            .expect("rd_cmd_set discovered");
        assert!(set_fn.covered_blocks > 0);
        // And nothing from the wanted features leaked in.
        for forbidden in ["rd_cmd_get", "rd_cmd_ping", "rd_cmd_del"] {
            assert!(
                !result.functions.iter().any(|fc| fc.function == forbidden),
                "{forbidden} must not appear in the undesired diff"
            );
        }
        // The report names the handler.
        assert!(result.report.contains("rd_cmd_set"));
    }
}
