//! Figure 7: DynaCut's overhead for removing initialization code from
//! process images — checkpoint/restore vs code-update time, with the
//! text-size and image-size table, for Lighttpd, Nginx and six SPEC
//! programs (the paper's Figure 7 omits `631.deepsjeng_s`).

use crate::workloads::{boot_server, boot_spec, Server, Workload};
use dynacut::{Downtime, DynaCut, RewritePlan};
use dynacut_analysis::{init_only_blocks, CovGraph};
use dynacut_apps::spec;
use dynacut_isa::BasicBlock;
use std::time::Duration;

/// One bar (plus table column) of the figure.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Program name.
    pub app: String,
    /// Checkpoint + restore time.
    pub checkpoint_restore: Duration,
    /// Image code-update time (replacing all init-block instructions).
    pub code_update: Duration,
    /// `.text` size of the binary.
    pub code_size: u64,
    /// Serialized checkpoint size.
    pub image_size: usize,
    /// Init-only basic blocks removed.
    pub blocks_removed: usize,
    /// Bytes of init code removed.
    pub init_bytes_removed: u64,
}

fn init_blocks_of(workload: &mut Workload, module: &str) -> Vec<BasicBlock> {
    let tracer = workload.tracer.clone().expect("tracer installed");
    let init = CovGraph::from_log(&tracer.nudge());
    // Post-init phase: run the serving/computing phase briefly.
    if workload.port != 0 {
        workload.exercise_http_full_workload(2);
    } else {
        // SPEC: run a slice of the main loop.
        workload.kernel.run_for(2_000_000);
    }
    let serving = CovGraph::from_log(&tracer.snapshot());
    init_only_blocks(&init, &serving)
        .retain_modules(&[module])
        .module_blocks(module)
        .into_iter()
        .map(|(offset, size)| BasicBlock::new(offset, size))
        .collect()
}

fn measure(mut workload: Workload, module: &str) -> Fig7Row {
    let blocks = init_blocks_of(&mut workload, module);
    let mut dynacut = DynaCut::new(workload.registry.clone());
    let plan = RewritePlan::new()
        .remove_init_blocks(module, blocks.clone())
        .with_downtime(Downtime::None);
    let report = dynacut
        .customize(&mut workload.kernel, &workload.pids, &plan)
        .expect("customize succeeds");
    let timings = report.timings();
    Fig7Row {
        app: module.to_owned(),
        checkpoint_restore: timings.checkpoint + timings.restore,
        code_update: timings.disable_code + timings.insert_sighandler,
        code_size: workload.exe.text_size(),
        image_size: report.image_bytes,
        blocks_removed: blocks.len(),
        init_bytes_removed: blocks.iter().map(|b| u64::from(b.size)).sum(),
    }
}

/// Programs in the paper's Figure 7, in its order.
pub fn programs() -> Vec<&'static str> {
    vec![
        "lighttpd",
        "nginx",
        "600.perlbench_s",
        "605.mcf_s",
        "620.omnetpp_s",
        "623.xalancbmk_s",
        "625.x264_s",
        "641.leela_s",
    ]
}

/// Runs the full experiment.
pub fn run() -> Vec<Fig7Row> {
    programs()
        .into_iter()
        .map(|name| match name {
            "lighttpd" => measure(boot_server(Server::Lighttpd, true), "lighttpd"),
            "nginx" => measure(boot_server(Server::Nginx, true), "nginx"),
            other => {
                let program = spec::by_name(other).expect("known benchmark");
                measure(boot_spec(&program), other)
            }
        })
        .collect()
}

/// Prints the figure as a table.
pub fn print() {
    println!("== Figure 7: initialization-code-removal overhead ==\n");
    let rows = run();
    let mut table = crate::report::Table::new(&[
        "app",
        "checkpoint/restore",
        "code update",
        "code size",
        "image size",
        "init BBs removed",
        "init code removed",
    ]);
    for row in &rows {
        table.row(&[
            row.app.clone(),
            crate::report::fmt_duration(row.checkpoint_restore),
            crate::report::fmt_duration(row.code_update),
            crate::report::fmt_bytes(row.code_size),
            crate::report::fmt_bytes(row.image_size as u64),
            row.blocks_removed.to_string(),
            crate::report::fmt_bytes(row.init_bytes_removed),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper shape: total time scales with image size and with the number of");
    println!("init blocks removed; perlbench (deep init point) has the most blocks and");
    println!("takes the longest among the SPEC programs; mcf is negligible.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_removal_costs_have_paper_shape() {
        let rows = run();
        let by_name = |name: &str| rows.iter().find(|r| r.app == name).unwrap();
        // Everyone removed a meaningful number of init blocks.
        for row in &rows {
            assert!(row.blocks_removed > 0, "{} removed none", row.app);
        }
        // perlbench removes the most init blocks among SPEC programs
        // (paper: 10,808, ~60% more than xalancbmk's 6,497).
        let perl = by_name("600.perlbench_s");
        let xalan = by_name("623.xalancbmk_s");
        let mcf = by_name("605.mcf_s");
        assert!(perl.blocks_removed > xalan.blocks_removed);
        assert!(
            perl.blocks_removed as f64 >= 1.3 * xalan.blocks_removed as f64,
            "perl {} vs xalan {}",
            perl.blocks_removed,
            xalan.blocks_removed
        );
        // mcf is the smallest benchmark by code size and removes the
        // fewest blocks; leela's checkpoint is the smallest image (the
        // paper's 9.7 MB vs mcf's 28 MB).
        for row in &rows {
            if row.app != "605.mcf_s" && row.app.contains('.') {
                assert!(mcf.code_size <= row.code_size, "{}", row.app);
                assert!(mcf.blocks_removed <= row.blocks_removed, "{}", row.app);
            }
        }
        let leela = by_name("641.leela_s");
        for row in &rows {
            if row.app.contains('.') {
                assert!(leela.image_size <= row.image_size, "{}", row.app);
            }
        }
        // Image sizes order: omnetpp largest (paper: 214 MB).
        let omnetpp = by_name("620.omnetpp_s");
        for row in &rows {
            assert!(omnetpp.image_size >= row.image_size, "{}", row.app);
        }
    }
}
