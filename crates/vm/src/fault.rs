//! Fault injection for transactional checkpoint → rewrite → restore
//! testing.
//!
//! The DynaCut promise is that a *live* process survives customization:
//! any failure after the freeze must leave the kernel bit-identical to
//! the pre-customization state. Proving that requires making every phase
//! fail on demand. This module provides the hook layer: the checkpoint
//! and rewrite code calls [`hit`] at each phase boundary, and tests
//! [`arm`] a phase to make its N-th hit fail.
//!
//! The real injector only exists under the `fault-injection` cargo
//! feature; without it [`hit`] is a constant `false` the optimizer
//! removes, so production builds pay nothing. Armed faults are
//! **one-shot** and **thread-local**: after firing they disarm
//! themselves, so the canonical test shape
//! `arm → customize (fails) → assert rollback → customize (succeeds)`
//! needs no explicit cleanup, and parallel test threads cannot see each
//! other's faults.

/// A phase of the customize cycle that can be made to fail.
///
/// Each variant corresponds to one [`hit`] call site; phases that run
/// once per process (`Dump`, `ImageEdit`, `LibraryInjection`,
/// `RestoreBuild`, `RestoreCommit`) record one hit per process, so
/// arming with `skip = 1` fails the *second* process (e.g. the Nginx
/// worker in a master + worker restore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum FaultPhase {
    /// The incremental pre-copy taken while the guest still runs.
    PreDump,
    /// Dumping one frozen process into its image set.
    Dump,
    /// Rewriting one process image (trap bytes, wipes, unmaps).
    ImageEdit,
    /// Injecting the fault-handler/verifier library into one image.
    LibraryInjection,
    /// Building one restored process from its images (no kernel writes).
    RestoreBuild,
    /// Staging one process's zero-copy restore from its checkpoint-store
    /// entry (resolving the entry's page keys, before any frame is
    /// installed).
    RestoreHandles,
    /// Installing shared frames / taking the lazy CoW-materialization
    /// path for one staged process.
    CowMaterialize,
    /// Swapping one restored process in for its original.
    RestoreCommit,
    /// Adopting the cycle's stored checkpoint as the group's incremental
    /// baseline.
    BaselineStore,
    /// Sweeping the dirty bitmap after a committed restore.
    MarkClean,
    /// One serve slice of a canary rollout's soak period (one hit per
    /// slice).
    CanarySoak,
    /// Promoting the canary's code changes onto one fleet replica (one
    /// hit per target process, before any target is touched).
    PromoteRestore,
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultPhase::PreDump => "pre_dump",
            FaultPhase::Dump => "dump",
            FaultPhase::ImageEdit => "image_edit",
            FaultPhase::LibraryInjection => "library_injection",
            FaultPhase::RestoreBuild => "restore_build",
            FaultPhase::RestoreHandles => "restore_handles",
            FaultPhase::CowMaterialize => "cow_materialize",
            FaultPhase::RestoreCommit => "restore_commit",
            FaultPhase::BaselineStore => "baseline_store",
            FaultPhase::MarkClean => "mark_clean",
            FaultPhase::CanarySoak => "canary_soak",
            FaultPhase::PromoteRestore => "promote_restore",
        };
        f.write_str(name)
    }
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::FaultPhase;
    use std::cell::RefCell;

    thread_local! {
        /// `(phase, hits to let pass before firing)` — one-shot arms.
        static ARMED: RefCell<Vec<(FaultPhase, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// Arms a one-shot fault: the `(skip + 1)`-th [`hit`](super::hit) of
    /// `phase` on this thread fails, then the arm disappears.
    pub fn arm(phase: FaultPhase, skip: usize) {
        ARMED.with(|armed| armed.borrow_mut().push((phase, skip)));
    }

    /// Removes every armed fault on this thread.
    pub fn disarm_all() {
        ARMED.with(|armed| armed.borrow_mut().clear());
    }

    /// Number of faults still armed on this thread.
    pub fn armed_count() -> usize {
        ARMED.with(|armed| armed.borrow().len())
    }

    /// Records a hit of `phase`; returns `true` (and disarms the fault)
    /// if an armed fault fires here.
    pub fn hit(phase: FaultPhase) -> bool {
        ARMED.with(|armed| {
            let mut armed = armed.borrow_mut();
            for index in 0..armed.len() {
                if armed[index].0 != phase {
                    continue;
                }
                if armed[index].1 == 0 {
                    armed.remove(index);
                    return true;
                }
                armed[index].1 -= 1;
                return false;
            }
            false
        })
    }
}

#[cfg(not(feature = "fault-injection"))]
mod imp {
    use super::FaultPhase;

    /// No-op without the `fault-injection` feature; arming requires the
    /// feature to have any effect.
    pub fn arm(_phase: FaultPhase, _skip: usize) {}

    /// No-op without the `fault-injection` feature.
    pub fn disarm_all() {}

    /// Always zero without the `fault-injection` feature.
    pub fn armed_count() -> usize {
        0
    }

    /// Always `false` without the `fault-injection` feature.
    #[inline(always)]
    pub fn hit(_phase: FaultPhase) -> bool {
        false
    }
}

pub use imp::{arm, armed_count, disarm_all, hit};

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn arm_fires_on_nth_hit_then_disarms() {
        disarm_all();
        arm(FaultPhase::Dump, 2);
        assert!(!hit(FaultPhase::Dump));
        assert!(!hit(FaultPhase::Dump));
        assert!(hit(FaultPhase::Dump), "third hit fires");
        assert!(!hit(FaultPhase::Dump), "one-shot: disarmed after firing");
        assert_eq!(armed_count(), 0);
    }

    #[test]
    fn phases_are_independent() {
        disarm_all();
        arm(FaultPhase::RestoreCommit, 0);
        assert!(!hit(FaultPhase::Dump), "other phases pass through");
        assert!(hit(FaultPhase::RestoreCommit));
    }

    #[test]
    fn disarm_all_clears() {
        arm(FaultPhase::PreDump, 5);
        disarm_all();
        assert_eq!(armed_count(), 0);
        assert!(!hit(FaultPhase::PreDump));
    }
}

#[cfg(all(test, not(feature = "fault-injection")))]
mod tests {
    use super::*;

    #[test]
    fn stub_never_fires() {
        arm(FaultPhase::Dump, 0);
        assert!(!hit(FaultPhase::Dump));
        assert_eq!(armed_count(), 0);
        disarm_all();
    }
}
