//! Synthetic SPEC INTspeed 2017 analogues.
//!
//! The paper evaluates seven C/C++ INTspeed benchmarks (it excludes
//! `602.gcc_s` and `657.xz_s`, §4.1 footnote 4). Each analogue here is a
//! generated program with an initialization phase, a heap footprint and a
//! compute loop, parameterised so the **relative** orderings of the
//! paper's Figure 7/9 table hold after ~50× downscaling:
//!
//! * text size / total block count: `xalancbmk > perlbench > omnetpp >
//!   x264 > leela > deepsjeng > mcf`,
//! * checkpoint image size (heap pages): `omnetpp > xalancbmk >
//!   perlbench > x264 > mcf > leela`,
//! * fraction of executed blocks that are initialization-only:
//!   `perlbench` highest (paper: 41.4 %), `mcf` lowest (≈8 %), average
//!   ≈22 %.

use crate::util::*;
use crate::EVENT_READY;
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};

/// Parameters of one synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecProgram {
    /// Program name (module name of the built image).
    pub name: &'static str,
    /// Initialization functions (run once before the ready event).
    pub init_funcs: usize,
    /// Hot functions (run every main-loop iteration).
    pub hot_funcs: usize,
    /// Cold functions (never executed — the gray blocks of Figure 2).
    pub cold_funcs: usize,
    /// Basic blocks per generated function.
    pub blocks_per_func: usize,
    /// Heap pages touched at startup (drives the image size).
    pub heap_pages: u64,
    /// Main-loop iterations.
    pub iterations: u64,
}

impl SpecProgram {
    /// Expected fraction of *executed* blocks that are
    /// initialization-only, approximately `init / (init + hot)`.
    pub fn expected_init_fraction(&self) -> f64 {
        let init = self.init_funcs as f64;
        let hot = self.hot_funcs as f64;
        init / (init + hot)
    }

    /// Builds the benchmark binary, linked against the guest libc.
    pub fn image(&self, libc: &Image) -> Image {
        let prefix = self.name.replace('.', "_");
        let mut asm = Assembler::new();

        asm.func("_start");
        let init_names: Vec<String> = (0..self.init_funcs)
            .map(|i| format!("{prefix}_init_{i:03}"))
            .collect();
        emit_calls(&mut asm, &init_names);
        emit_touch_heap(&mut asm, self.heap_pages, Reg::R9);
        emit_event(&mut asm, EVENT_READY);
        // Main compute loop.
        asm.push(Insn::Movi(Reg::R13, self.iterations));
        asm.label("spec_loop");
        asm.push(Insn::Cmpi(Reg::R13, 0));
        asm.jcc(Cond::Eq, "spec_done");
        let hot_names: Vec<String> = (0..self.hot_funcs)
            .map(|i| format!("{prefix}_hot_{i:03}"))
            .collect();
        emit_calls(&mut asm, &hot_names);
        asm.push(Insn::Addi(Reg::R13, -1));
        asm.jmp("spec_loop");
        asm.label("spec_done");
        asm.push(Insn::Movi(Reg::R1, 0));
        asm.call_ext("libc_exit");

        for name in &init_names {
            emit_busy_func(&mut asm, name, self.blocks_per_func);
        }
        for i in 0..self.hot_funcs {
            emit_busy_func(
                &mut asm,
                &format!("{prefix}_hot_{i:03}"),
                self.blocks_per_func,
            );
        }
        for i in 0..self.cold_funcs {
            emit_busy_func(
                &mut asm,
                &format!("{prefix}_cold_{i:03}"),
                self.blocks_per_func,
            );
        }

        let mut builder = ModuleBuilder::new(self.name, ObjectKind::Executable);
        builder.text(asm.finish().expect("spec program assembles"));
        builder.entry("_start");
        builder.link(&[libc]).expect("spec program links")
    }
}

/// The seven benchmarks the paper evaluates, with paper-shaped relative
/// parameters.
pub fn suite() -> Vec<SpecProgram> {
    vec![
        SpecProgram {
            name: "600.perlbench_s",
            init_funcs: 60,
            hot_funcs: 85,
            cold_funcs: 202,
            blocks_per_func: 8,
            heap_pages: 450,
            iterations: 5000,
        },
        SpecProgram {
            name: "605.mcf_s",
            init_funcs: 1,
            hot_funcs: 10,
            cold_funcs: 0,
            blocks_per_func: 8,
            heap_pages: 68,
            iterations: 20000,
        },
        SpecProgram {
            name: "620.omnetpp_s",
            init_funcs: 40,
            hot_funcs: 120,
            cold_funcs: 127,
            blocks_per_func: 8,
            heap_pages: 523,
            iterations: 5000,
        },
        SpecProgram {
            name: "623.xalancbmk_s",
            init_funcs: 25,
            hot_funcs: 140,
            cold_funcs: 610,
            blocks_per_func: 8,
            heap_pages: 467,
            iterations: 5000,
        },
        SpecProgram {
            name: "625.x264_s",
            init_funcs: 17,
            hot_funcs: 40,
            cold_funcs: 0,
            blocks_per_func: 8,
            heap_pages: 381,
            iterations: 10000,
        },
        SpecProgram {
            name: "631.deepsjeng_s",
            init_funcs: 2,
            hot_funcs: 8,
            cold_funcs: 2,
            blocks_per_func: 8,
            heap_pages: 30,
            iterations: 30000,
        },
        SpecProgram {
            name: "641.leela_s",
            init_funcs: 3,
            hot_funcs: 22,
            cold_funcs: 1,
            blocks_per_func: 8,
            heap_pages: 24,
            iterations: 15000,
        },
    ]
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str) -> Option<SpecProgram> {
    suite().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libc::guest_libc;
    use dynacut_vm::{Kernel, LoadSpec};

    #[test]
    fn suite_has_the_papers_seven_benchmarks() {
        let names: Vec<&str> = suite().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "600.perlbench_s",
                "605.mcf_s",
                "620.omnetpp_s",
                "623.xalancbmk_s",
                "625.x264_s",
                "631.deepsjeng_s",
                "641.leela_s",
            ]
        );
    }

    #[test]
    fn text_size_ordering_matches_paper() {
        let libc = guest_libc();
        let size = |name: &str| by_name(name).unwrap().image(&libc).text_size();
        // xalancbmk > perlbench > omnetpp > x264 > leela > deepsjeng > mcf
        assert!(size("623.xalancbmk_s") > size("600.perlbench_s"));
        assert!(size("600.perlbench_s") > size("620.omnetpp_s"));
        assert!(size("620.omnetpp_s") > size("625.x264_s"));
        assert!(size("625.x264_s") > size("641.leela_s"));
        assert!(size("641.leela_s") > size("631.deepsjeng_s"));
        assert!(size("631.deepsjeng_s") > size("605.mcf_s"));
    }

    #[test]
    fn perlbench_has_highest_init_fraction_mcf_lowest() {
        let fractions: Vec<(&str, f64)> = suite()
            .iter()
            .map(|p| (p.name, p.expected_init_fraction()))
            .collect();
        let perl = fractions
            .iter()
            .find(|(n, _)| n.contains("perl"))
            .unwrap()
            .1;
        let mcf = fractions.iter().find(|(n, _)| n.contains("mcf")).unwrap().1;
        for (name, fraction) in &fractions {
            if !name.contains("perl") {
                assert!(perl > *fraction, "perlbench deepest init ({name})");
            }
            if !name.contains("mcf") {
                assert!(mcf < *fraction, "mcf shallowest init ({name})");
            }
        }
        // Average ≈ paper's 22.3 %.
        let avg: f64 = fractions.iter().map(|(_, f)| f).sum::<f64>() / fractions.len() as f64;
        assert!((0.15..0.30).contains(&avg), "average init fraction {avg}");
    }

    #[test]
    fn mcf_runs_to_completion_quickly() {
        let libc = guest_libc();
        let program = by_name("605.mcf_s").unwrap();
        let exe = program.image(&libc);
        let mut kernel = Kernel::new();
        let pid = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
        kernel
            .run_until_event(EVENT_READY, 100_000_000)
            .expect("init completes");
        let status = kernel.run_until_exit(pid, 100_000_000).expect("finishes");
        assert_eq!(status.code, 0);
    }

    #[test]
    fn heap_pages_dominate_checkpoint_size_ordering() {
        // omnetpp's image must be the largest, leela's the smallest, as in
        // Figure 7's image-size row (214 MB vs 9.7 MB).
        let pages = |name: &str| by_name(name).unwrap().heap_pages;
        assert!(pages("620.omnetpp_s") > pages("623.xalancbmk_s"));
        assert!(pages("623.xalancbmk_s") > pages("600.perlbench_s"));
        assert!(pages("600.perlbench_s") > pages("625.x264_s"));
        assert!(pages("625.x264_s") > pages("605.mcf_s"));
        assert!(pages("605.mcf_s") > pages("641.leela_s"));
    }
}
