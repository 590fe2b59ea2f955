//! Figure 9: number of executed basic blocks, number of initialization
//! blocks removed by DynaCut, and the total-blocks / code-size /
//! init-code-size table — for Lighttpd, Nginx and all seven SPEC
//! programs.

use crate::workloads::{boot_server, boot_spec, Server, Workload};
use dynacut_analysis::{init_only_blocks, CovGraph};
use dynacut_apps::spec;

/// One bar pair (plus table column) of the figure.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Program name.
    pub app: String,
    /// Distinct basic blocks executed (deduplicated drcov count, app
    /// module only).
    pub executed: usize,
    /// Initialization-only blocks removed.
    pub removed: usize,
    /// Total blocks in the binary (the paper gets this from angr; we get
    /// it from the linker).
    pub total_blocks: usize,
    /// `.text` size.
    pub code_size: u64,
    /// Bytes of init code removed.
    pub init_code_removed: u64,
}

impl Fig9Row {
    /// Fraction of executed blocks that were removed (the headline
    /// percentages: up to 56 % for Nginx, 46 % Lighttpd, 8.4–41.4 % SPEC).
    pub fn removed_fraction(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        self.removed as f64 / self.executed as f64
    }
}

fn measure(mut workload: Workload, module: &str) -> Fig9Row {
    let tracer = workload.tracer.clone().expect("tracer installed");
    let init = CovGraph::from_log(&tracer.nudge());
    if workload.port != 0 {
        workload.exercise_http_full_workload(2);
    } else {
        workload.kernel.run_for(2_000_000);
    }
    let serving = CovGraph::from_log(&tracer.snapshot());
    let executed = init.union(&serving).retain_modules(&[module]);
    let removed = init_only_blocks(&init, &serving).retain_modules(&[module]);
    Fig9Row {
        app: module.to_owned(),
        executed: executed.len(),
        removed: removed.len(),
        total_blocks: workload.exe.total_blocks(),
        code_size: workload.exe.text_size(),
        init_code_removed: removed.covered_bytes(),
    }
}

/// Programs in the paper's Figure 9 order.
pub fn programs() -> Vec<&'static str> {
    vec![
        "lighttpd",
        "nginx",
        "600.perlbench_s",
        "605.mcf_s",
        "620.omnetpp_s",
        "623.xalancbmk_s",
        "625.x264_s",
        "631.deepsjeng_s",
        "641.leela_s",
    ]
}

/// Runs the full experiment.
pub fn run() -> Vec<Fig9Row> {
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
    println!("== Figure 9: executed vs removed basic blocks ==\n");
    let rows = run();
    let mut table = crate::report::Table::new(&[
        "app",
        "BBs executed",
        "BBs removed",
        "removed %",
        "total BB #",
        "code size",
        "init code rm",
    ]);
    for row in &rows {
        table.row(&[
            row.app.clone(),
            row.executed.to_string(),
            row.removed.to_string(),
            format!("{:.1}%", 100.0 * row.removed_fraction()),
            row.total_blocks.to_string(),
            crate::report::fmt_bytes(row.code_size),
            crate::report::fmt_bytes(row.init_code_removed),
        ]);
    }
    print!("{}", table.render());
    let spec_rows: Vec<&Fig9Row> = rows.iter().filter(|r| r.app.contains('.')).collect();
    let avg: f64 =
        spec_rows.iter().map(|r| r.removed_fraction()).sum::<f64>() / spec_rows.len() as f64;
    println!(
        "\nSPEC average removed fraction: {:.1}% (paper: 22.3%)",
        100.0 * avg
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removal_fractions_have_paper_shape() {
        let rows = run();
        let by_name = |name: &str| rows.iter().find(|r| r.app == name).unwrap();

        // Servers remove a large share of executed blocks (paper: Nginx up
        // to 56 %, Lighttpd ≈46 %): both > 35 % here.
        assert!(by_name("nginx").removed_fraction() > 0.35);
        assert!(by_name("lighttpd").removed_fraction() > 0.35);

        // perlbench is the highest SPEC remover (paper: 41.4 %), and every
        // SPEC fraction stays in the paper's 8.4–41.4 % band (±0.05 of
        // slack for the scaled-down block counts).
        let spec_rows: Vec<&Fig9Row> = rows.iter().filter(|r| r.app.contains('.')).collect();
        let perl = by_name("600.perlbench_s").removed_fraction();
        for row in &spec_rows {
            assert!(perl >= row.removed_fraction(), "{}", row.app);
            assert!(
                (0.034..=0.464).contains(&row.removed_fraction()),
                "{}: {}",
                row.app,
                row.removed_fraction()
            );
        }
        // SPEC average close to the paper's 22.3 %.
        let avg: f64 =
            spec_rows.iter().map(|r| r.removed_fraction()).sum::<f64>() / spec_rows.len() as f64;
        assert!((0.15..=0.32).contains(&avg), "average {avg}");

        // Total-block ordering: xalancbmk > perlbench > omnetpp > x264 >
        // leela > deepsjeng > mcf.
        let total = |name: &str| by_name(name).total_blocks;
        assert!(total("623.xalancbmk_s") > total("600.perlbench_s"));
        assert!(total("600.perlbench_s") > total("620.omnetpp_s"));
        assert!(total("620.omnetpp_s") > total("625.x264_s"));
        assert!(total("625.x264_s") > total("641.leela_s"));
        assert!(total("641.leela_s") > total("631.deepsjeng_s"));
        assert!(total("631.deepsjeng_s") > total("605.mcf_s"));
    }
}
