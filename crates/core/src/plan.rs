//! Rewrite plans and policies.

use crate::Feature;
use dynacut_isa::BasicBlock;

/// How a disabled feature's code is removed from memory (paper §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockPolicy {
    /// Replace only the **first byte of the feature's entry block** with
    /// `int3`. Cheapest and trivially reversible, but a powerful attacker
    /// may still jump into the middle of the feature's blocks (ROP).
    #[default]
    EntryByte,
    /// Replace **every byte of every block** with `int3` — "wipe out a
    /// block of code memory". No code-reuse gadgets survive; restoring
    /// costs proportionally more.
    WipeBlocks,
    /// Additionally **unmap every page fully covered** by the feature's
    /// blocks (partial pages are wiped). Strongest removal; an access
    /// faults with `SIGSEGV` instead of `SIGTRAP`.
    UnmapPages,
}

/// What happens when blocked code is inadvertently reached (paper
/// §3.2.2–§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// No handler: the process dies with `SIGTRAP`, "like most existing
    /// works do".
    #[default]
    Terminate,
    /// Inject the fault-handler library; features with a redirect target
    /// resume at the application's error path (the `403 Forbidden`
    /// example), others exit gracefully.
    Redirect,
    /// Inject the verifier library: the original instruction is restored
    /// in place, the address is reported to the host, and execution
    /// retries — used to validate that no wanted block was misclassified.
    Verify,
}

/// How the measured host-side rewrite latency is charged to the guest
/// clock, so customization shows up as a service-interruption window on
/// simulated-time axes (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Downtime {
    /// Charge a fixed number of simulated nanoseconds. The paper measures
    /// ≈400 ms for feature customization; that is the default.
    Fixed(u64),
    /// Charge the measured wall-clock duration multiplied by a scale
    /// factor.
    MeasuredTimes(u64),
    /// Charge nothing (pure-mechanism tests).
    None,
}

impl Default for Downtime {
    fn default() -> Self {
        Downtime::Fixed(400_000_000)
    }
}

impl Downtime {
    /// Nanoseconds to charge to the guest clock for a customization whose
    /// host-side phases took `measured`. Saturates instead of overflowing:
    /// a pathological measurement (or scale factor) charges `u64::MAX`
    /// rather than wrapping around to a tiny — or negative-looking —
    /// downtime.
    pub fn charge_ns(&self, measured: std::time::Duration) -> u64 {
        match self {
            Downtime::Fixed(ns) => *ns,
            Downtime::MeasuredTimes(scale) => u64::try_from(measured.as_nanos())
                .unwrap_or(u64::MAX)
                .saturating_mul(*scale),
            Downtime::None => 0,
        }
    }
}

/// Everything one `DynaCut` invocation should do to the target process.
///
/// ```
/// use dynacut::{BlockPolicy, Downtime, FaultPolicy, Feature, RewritePlan};
/// use dynacut_isa::BasicBlock;
///
/// let put = Feature::new("PUT", "nginx", vec![BasicBlock::new(0x40, 8)]);
/// let plan = RewritePlan::new()
///     .disable(put)
///     .with_block_policy(BlockPolicy::WipeBlocks)
///     .with_fault_policy(FaultPolicy::Redirect)
///     .with_downtime(Downtime::None);
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RewritePlan {
    /// Features to disable.
    pub disable: Vec<Feature>,
    /// Features to re-enable (original bytes restored).
    pub enable: Vec<Feature>,
    /// Initialization blocks to remove for good: `(module, blocks)`.
    pub remove_blocks: Vec<(String, Vec<BasicBlock>)>,
    /// Code-removal policy.
    pub block_policy: BlockPolicy,
    /// Unintended-access policy.
    pub fault_policy: FaultPolicy,
    /// Guest-visible downtime accounting.
    pub downtime: Downtime,
    /// If set, restrict the process to exactly these raw syscall numbers
    /// (plus `sigreturn`, which signal delivery requires) — dynamic
    /// seccomp filtering via process rewriting (paper §5, after
    /// Ghavamnia et al.'s temporal syscall specialization). A blocked
    /// call kills the process with `SIGSYS`. Numbers must be below
    /// [`dynacut_vm::SYSCALL_FILTER_BITS`];
    /// [`validate`](RewritePlan::validate) rejects the plan otherwise.
    pub allow_syscalls: Option<Vec<u64>>,
}

impl RewritePlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a feature to disable.
    pub fn disable(mut self, feature: Feature) -> Self {
        self.disable.push(feature);
        self
    }

    /// Adds a feature to re-enable.
    pub fn enable(mut self, feature: Feature) -> Self {
        self.enable.push(feature);
        self
    }

    /// Adds initialization blocks (module-relative) to remove.
    pub fn remove_init_blocks(mut self, module: &str, blocks: Vec<BasicBlock>) -> Self {
        self.remove_blocks.push((module.to_owned(), blocks));
        self
    }

    /// Sets the block-removal policy.
    pub fn with_block_policy(mut self, policy: BlockPolicy) -> Self {
        self.block_policy = policy;
        self
    }

    /// Sets the unintended-access policy.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Sets the downtime accounting.
    pub fn with_downtime(mut self, downtime: Downtime) -> Self {
        self.downtime = downtime;
        self
    }

    /// Restricts the process to the given syscalls after the rewrite
    /// (`sigreturn` is always added — signal delivery depends on it).
    pub fn restrict_syscalls(mut self, allowed: &[dynacut_vm::Sysno]) -> Self {
        self.allow_syscalls = Some(allowed.iter().map(|sysno| *sysno as u64).collect());
        self
    }

    /// Like [`restrict_syscalls`](RewritePlan::restrict_syscalls) but
    /// takes raw syscall numbers, e.g. from an external seccomp profile.
    /// Out-of-range numbers are rejected by
    /// [`validate`](RewritePlan::validate), not here, so a bad profile
    /// surfaces as a typed error instead of a shift overflow.
    pub fn restrict_syscalls_raw(mut self, allowed: &[u64]) -> Self {
        self.allow_syscalls = Some(allowed.to_vec());
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Fails if a block appears both in a disabled and an enabled
    /// feature, if a block's end does not fit a `u64`, or if
    /// `allow_syscalls` names a syscall number the filter bitmask cannot
    /// represent.
    pub fn validate(&self) -> Result<(), crate::DynacutError> {
        let features = self.disable.iter().chain(&self.enable);
        let init = self
            .remove_blocks
            .iter()
            .map(|(_, blocks)| ("<init>", blocks));
        let named = features.map(|feature| (feature.name.as_str(), &feature.blocks));
        for (feature, blocks) in named.chain(init) {
            for block in blocks {
                if block.addr.checked_add(u64::from(block.size)).is_none() {
                    return Err(crate::DynacutError::BlockOutOfRange {
                        feature: feature.to_owned(),
                        offset: block.addr,
                    });
                }
            }
        }
        if let Some(allowed) = &self.allow_syscalls {
            for &sysno in allowed {
                if sysno >= u64::from(dynacut_vm::SYSCALL_FILTER_BITS) {
                    return Err(crate::DynacutError::SyscallOutOfRange(sysno));
                }
            }
        }
        for disabled in &self.disable {
            for enabled in &self.enable {
                if disabled.module != enabled.module {
                    continue;
                }
                for block in &disabled.blocks {
                    if enabled.blocks.contains(block) {
                        return Err(crate::DynacutError::BadPlan(format!(
                            "block {block} is both disabled (`{}`) and enabled (`{}`)",
                            disabled.name, enabled.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// How a canary-then-fleet rollout paces and judges its soak (see
/// [`DynaCut::rollout`](crate::DynaCut::rollout)).
///
/// The rewrite itself still comes from a [`RewritePlan`]; this plan only
/// governs the deployment: how long the single customized canary serves
/// in verifier mode before its image is promoted onto the rest of the
/// fleet, and how traffic is pumped while it does.
#[derive(Debug, Clone, Copy)]
pub struct RolloutPlan {
    /// Serve slices the canary soaks for. Any verifier report observed
    /// during the soak demotes the canary instead of promoting it.
    pub soak_slices: u64,
    /// Guest nanoseconds per serve slice — pumped between soak checks
    /// and between per-replica promotions, so the fleet keeps serving
    /// throughout.
    pub serve_slice_ns: u64,
}

impl Default for RolloutPlan {
    fn default() -> Self {
        RolloutPlan {
            soak_slices: 8,
            serve_slice_ns: 200_000,
        }
    }
}

impl RolloutPlan {
    /// Checks the plan is runnable.
    ///
    /// # Errors
    ///
    /// Fails with [`DynacutError::BadPlan`](crate::DynacutError::BadPlan)
    /// if the soak is zero slices — a rollout that never watches its
    /// canary is just a fleet customize, and the promotion decision
    /// would be vacuous.
    pub fn validate(&self) -> Result<(), crate::DynacutError> {
        if self.soak_slices == 0 {
            return Err(crate::DynacutError::BadPlan(
                "rollout soak must be at least one serve slice".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies_match_paper_defaults() {
        let plan = RewritePlan::new();
        assert_eq!(plan.block_policy, BlockPolicy::EntryByte);
        assert_eq!(plan.fault_policy, FaultPolicy::Terminate);
        assert_eq!(plan.downtime, Downtime::Fixed(400_000_000));
    }

    #[test]
    fn conflicting_plan_is_rejected() {
        let block = BasicBlock::new(0x10, 4);
        let plan = RewritePlan::new()
            .disable(Feature::new("a", "app", vec![block]))
            .enable(Feature::new("b", "app", vec![block]));
        assert!(plan.validate().is_err());
    }

    #[test]
    fn disjoint_plan_is_accepted() {
        let plan = RewritePlan::new()
            .disable(Feature::new("a", "app", vec![BasicBlock::new(0x10, 4)]))
            .enable(Feature::new("b", "app", vec![BasicBlock::new(0x20, 4)]));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn out_of_range_syscall_is_rejected_with_typed_error() {
        let bits = u64::from(dynacut_vm::SYSCALL_FILTER_BITS);
        for sysno in [bits, bits + 1, u64::MAX] {
            let plan = RewritePlan::new().restrict_syscalls_raw(&[0, sysno]);
            assert_eq!(
                plan.validate(),
                Err(crate::DynacutError::SyscallOutOfRange(sysno)),
                "sysno {sysno} must be rejected"
            );
        }
        let plan = RewritePlan::new().restrict_syscalls_raw(&[0, bits - 1]);
        assert!(plan.validate().is_ok(), "in-range numbers pass");
    }

    #[test]
    fn restrict_syscalls_maps_enum_to_raw_numbers() {
        use dynacut_vm::Sysno;
        let plan = RewritePlan::new().restrict_syscalls(&[Sysno::Read, Sysno::Write]);
        assert_eq!(
            plan.allow_syscalls,
            Some(vec![Sysno::Read as u64, Sysno::Write as u64])
        );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn measured_downtime_saturates_instead_of_overflowing() {
        use std::time::Duration;
        let one_sec = Duration::from_secs(1);
        assert_eq!(Downtime::Fixed(7).charge_ns(one_sec), 7);
        assert_eq!(Downtime::None.charge_ns(one_sec), 0);
        assert_eq!(Downtime::MeasuredTimes(3).charge_ns(one_sec), 3_000_000_000);
        // A huge scale factor must clamp, not wrap.
        assert_eq!(
            Downtime::MeasuredTimes(u64::MAX).charge_ns(one_sec),
            u64::MAX
        );
        // A measurement wider than u64 nanoseconds clamps too.
        let huge = Duration::from_secs(u64::MAX);
        assert_eq!(Downtime::MeasuredTimes(2).charge_ns(huge), u64::MAX);
    }
}
