//! The profiling workflow: named coverage phases over a live kernel.
//!
//! Packages the paper's §3.1 protocol — run a workload per feature,
//! nudge between phases, diff the resulting coverage graphs — into one
//! object, so the operator workflow reads like the paper:
//!
//! ```text
//! boot → [init runs] → end_phase("init")
//!      → wanted workload → end_phase("wanted")
//!      → undesired workload → end_phase("undesired")
//!      → feature_between("undesired", "wanted", …) → customize
//! ```

use crate::Feature;
use dynacut_analysis::{feature_blocks, init_only_blocks, CovGraph};
use dynacut_trace::Tracer;
use dynacut_vm::{Kernel, Pid};
use std::collections::BTreeMap;

/// A phase-oriented coverage profiler wrapping the drcov tracer.
#[derive(Debug, Clone)]
pub struct Profiler {
    tracer: Tracer,
    phases: BTreeMap<String, CovGraph>,
}

impl Profiler {
    /// Installs the tracer hook into the kernel and returns the profiler.
    /// Call before spawning the processes you want profiled.
    pub fn install(kernel: &mut Kernel) -> Self {
        Profiler {
            tracer: Tracer::install(kernel),
            phases: BTreeMap::new(),
        }
    }

    /// Starts tracking a process's modules (call again after `fork`s for
    /// the children).
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist or a module does not fit the
    /// drcov field widths (see [`dynacut_trace::TraceError`]).
    pub fn track(&self, kernel: &Kernel, pid: Pid) -> Result<(), crate::DynacutError> {
        self.tracer.track(kernel, pid)?;
        Ok(())
    }

    /// Ends the current phase: the coverage collected since the previous
    /// phase boundary is stored under `name` and the cache is cleared
    /// (the nudge protocol).
    pub fn end_phase(&mut self, name: &str) -> &CovGraph {
        let graph = CovGraph::from_log(&self.tracer.nudge());
        self.phases.insert(name.to_owned(), graph);
        &self.phases[name]
    }

    /// Stores the coverage collected so far under `name` **without**
    /// clearing (an open-ended serving phase).
    pub fn snapshot_phase(&mut self, name: &str) -> &CovGraph {
        let graph = CovGraph::from_log(&self.tracer.snapshot());
        self.phases.insert(name.to_owned(), graph);
        &self.phases[name]
    }

    /// A recorded phase's coverage.
    pub fn phase(&self, name: &str) -> Option<&CovGraph> {
        self.phases.get(name)
    }

    /// Builds a feature from the tracediff of two recorded phases:
    /// `blk ∈ phase(undesired) ∧ blk ∉ phase(wanted)`, restricted to
    /// `module` (library blocks filtered out, as `tracediff.py` does).
    ///
    /// Returns `None` if either phase is missing or the diff is empty.
    pub fn feature_between(
        &self,
        name: &str,
        undesired_phase: &str,
        wanted_phase: &str,
        module: &str,
    ) -> Option<Feature> {
        let undesired = self.phases.get(undesired_phase)?;
        let wanted = self.phases.get(wanted_phase)?;
        let diff = feature_blocks(undesired, wanted).retain_modules(&[module]);
        if diff.is_empty() {
            return None;
        }
        Some(Feature::from_cov_graph(name, module, &diff))
    }

    /// The initialization-only blocks between two phases
    /// (`init_phase \ serving_phase`), restricted to `module`.
    pub fn init_only_between(
        &self,
        init_phase: &str,
        serving_phase: &str,
        module: &str,
    ) -> Option<CovGraph> {
        let init = self.phases.get(init_phase)?;
        let serving = self.phases.get(serving_phase)?;
        Some(init_only_blocks(init, serving).retain_modules(&[module]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_analysis::BlockKey;

    #[test]
    fn missing_phases_yield_none() {
        let mut kernel = Kernel::new();
        let profiler = Profiler::install(&mut kernel);
        assert!(profiler.phase("nope").is_none());
        assert!(profiler.feature_between("f", "a", "b", "app").is_none());
        assert!(profiler.init_only_between("a", "b", "app").is_none());
    }

    #[test]
    fn empty_diff_yields_no_feature() {
        let mut kernel = Kernel::new();
        let mut profiler = Profiler::install(&mut kernel);
        profiler.end_phase("a");
        profiler.end_phase("b");
        assert!(profiler.feature_between("f", "a", "b", "app").is_none());
    }

    #[test]
    fn phases_are_recorded_and_retrievable() {
        let mut kernel = Kernel::new();
        let mut profiler = Profiler::install(&mut kernel);
        profiler.end_phase("init");
        assert!(profiler.phase("init").is_some());
        assert!(profiler.phase("init").unwrap().is_empty());
        let _ = BlockKey {
            module: "app".into(),
            offset: 0,
            size: 1,
        };
    }
}
