//! The staged customize engine.
//!
//! [`DynaCut::customize`] used to be one monolithic function that walked
//! a single process group end to end. This module decomposes the cycle
//! into explicit [`Stage`]s over a per-group [`CycleState`], which buys
//! two things:
//!
//! * **Single group** — [`DynaCut::customize`] runs the stage sequence
//!   back to back, preserving the monolith's exact journal event order
//!   and transactional contract (DESIGN §5).
//! * **Fleet** — [`DynaCut::customize_fleet`] drives the same stages
//!   over many independent process groups. Stages that run while the
//!   guest serves (the pre-dump) proceed round-robin across groups with
//!   the kernel pumped between steps; the **freeze-serialization
//!   invariant** holds for the rest: at most one group is inside its
//!   freeze window (freeze → restore-commit) at any time, so every
//!   other group keeps serving and the fleet's per-process downtime is
//!   one group's window — max-of-windows, not sum-of-cycles.
//!
//! Every stage is journalled per process as a
//! [`EventKind::StageScheduled`]/[`EventKind::StageRetired`] pair
//! bracketing the group-level `PhaseStart`/`PhaseEnd` events, so a
//! fleet run's flight journal fully orders how the groups interleaved.
//!
//! Checkpoints written by incremental fleet cycles land in the
//! session's content-addressed [`CheckpointStore`]
//! ([`dynacut_criu::PageStore`]): N replicas of the same binary intern
//! one copy of every identical page, which is the fleet experiment's
//! dedup win.

use crate::handler::{build_fault_handler, build_verifier_library};
use crate::original::OriginalText;
use crate::plan::{FaultPolicy, RewritePlan, RolloutPlan};
use crate::rewrite::{disable_in_image, enable_in_image, remove_blocks_in_image};
use crate::session::{end_phase, start_phase, CustomizeReport, TxnJournal};
use crate::{DynaCut, DynacutError};
use dynacut_criu::{
    dump_many, mark_clean_after_dump, pre_dump, CheckpointImage, CommittedRestore, CriuError,
    DumpOptions, ModuleRegistry, PreDump, RestoreTransaction,
};
use dynacut_vm::fault::{self, FaultPhase};
use dynacut_vm::{EventKind, Kernel, Phase, Pid, RollbackStep, SchedClass, SigAction, Signal};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// One stage of the customize cycle, named by the [`Phase`] it executes.
///
/// The split matters to the fleet scheduler: [`Stage::in_freeze_window`]
/// stages run inside a group's exclusive critical section (the group's
/// processes are frozen and no other group may be), while the pre-dump
/// runs concurrently across groups with the guest still serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Copy clean pages while the guest still runs (incremental only).
    PreDump,
    /// Freeze the group's processes.
    Freeze,
    /// Dump the frozen processes into an in-memory checkpoint.
    Dump,
    /// Edit the images: trap bytes, wipes, unmaps, re-enables.
    ImageEdit,
    /// Build and inject the fault-handler/verifier library.
    Inject,
    /// Store the edited checkpoint and build every replacement process
    /// from its store entry (no kernel writes).
    RestorePrepare,
    /// Swap the replacements in, all-or-nothing.
    RestoreCommit,
    /// Sweep dirty bits and adopt the cycle's stored checkpoint as the
    /// new incremental baseline (incremental only).
    BaselineStore,
}

impl Stage {
    /// Every stage in execution order. Non-incremental cycles skip
    /// [`Stage::PreDump`] and [`Stage::BaselineStore`].
    pub const SEQUENCE: [Stage; 8] = [
        Stage::PreDump,
        Stage::Freeze,
        Stage::Dump,
        Stage::ImageEdit,
        Stage::Inject,
        Stage::RestorePrepare,
        Stage::RestoreCommit,
        Stage::BaselineStore,
    ];

    /// The flight-recorder phase this stage journals as.
    pub fn phase(self) -> Phase {
        match self {
            Stage::PreDump => Phase::PreDump,
            Stage::Freeze => Phase::Freeze,
            Stage::Dump => Phase::Dump,
            Stage::ImageEdit => Phase::ImageEdit,
            Stage::Inject => Phase::Inject,
            Stage::RestorePrepare => Phase::RestorePrepare,
            Stage::RestoreCommit => Phase::RestoreCommit,
            Stage::BaselineStore => Phase::BaselineStore,
        }
    }

    /// Whether the group's processes are frozen during this stage — the
    /// interval the fleet scheduler serializes across groups. The
    /// pre-dump runs before the freeze; the baseline store runs after
    /// the restored processes are already live again.
    pub fn in_freeze_window(self) -> bool {
        matches!(
            self,
            Stage::Freeze
                | Stage::Dump
                | Stage::ImageEdit
                | Stage::Inject
                | Stage::RestorePrepare
                | Stage::RestoreCommit
        )
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.phase().fmt(f)
    }
}

/// Everything one group's in-flight cycle carries between stages: the
/// transaction journal, the checkpoint being edited, and the staged
/// session state that commits only if every stage succeeds.
pub(crate) struct CycleState {
    pub(crate) pids: Vec<Pid>,
    /// The one dump-options struct threaded through every stage.
    options: DumpOptions,
    incremental: bool,
    pub(crate) report: CustomizeReport,
    pub(crate) journal: TxnJournal,
    begun: bool,
    predump: Option<PreDump>,
    checkpoint: Option<CheckpointImage>,
    redirects: Vec<Vec<(u64, u64)>>,
    originals: Vec<Vec<(u64, u8)>>,
    staged_redirect_state: Option<BTreeMap<Pid, BTreeMap<u64, u64>>>,
    staged_verify_state: Option<BTreeMap<Pid, BTreeMap<u64, u8>>>,
    staged_registry: Option<ModuleRegistry>,
    staged_injections: u64,
    txn: Option<RestoreTransaction>,
    committed: Option<CommittedRestore>,
}

impl CycleState {
    /// The stages this cycle runs, in order.
    fn stage_sequence(&self) -> Vec<Stage> {
        Stage::SEQUENCE
            .into_iter()
            .filter(|stage| {
                self.incremental || !matches!(stage, Stage::PreDump | Stage::BaselineStore)
            })
            .collect()
    }

    /// Journals the cycle's `CustomizeBegin` (once).
    fn begin(&mut self, kernel: &mut Kernel) {
        if !self.begun {
            self.begun = true;
            kernel.record_flight(
                None,
                EventKind::CustomizeBegin {
                    pids: self.pids.len(),
                },
            );
        }
    }
}

/// Knobs for [`DynaCut::customize_fleet`].
#[derive(Debug, Clone, Copy)]
pub struct FleetOptions {
    /// Guest nanoseconds the scheduler pumps the kernel for between
    /// stage steps ([`Kernel::run_for`]), so unfrozen groups keep
    /// serving while another group's cycle proceeds.
    pub serve_slice_ns: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            serve_slice_ns: 200_000,
        }
    }
}

/// What a fleet customization did: one [`CustomizeReport`] per process
/// plus fleet-wide totals.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-process cycle reports. Every pid of a multi-process group
    /// maps to its group's report, so the PR 3 invariant — phase
    /// durations sum to the cycle total — holds per process.
    pub procs: BTreeMap<Pid, CustomizeReport>,
    /// Fleet-wide aggregates.
    pub totals: FleetTotals,
}

/// Fleet-wide aggregates of one [`DynaCut::customize_fleet`] run.
#[derive(Debug, Clone, Default)]
pub struct FleetTotals {
    /// Process groups customized.
    pub groups: usize,
    /// Processes customized (sum of group sizes).
    pub processes: usize,
    /// Page bytes copied inside freeze windows, fleet-wide.
    pub frozen_page_bytes: usize,
    /// Page bytes pre-copied while guests served, fleet-wide.
    pub prewritten_page_bytes: usize,
    /// Encoded checkpoint bytes (tmpfs footprint), fleet-wide.
    pub image_bytes: usize,
    /// Sum of every group's [`CustomizeReport::stored_page_bytes`]:
    /// the page bytes each group's new baseline holds that are absent
    /// from, or different in, its previous one.
    pub stored_page_bytes: usize,
    /// Page bytes restore phases physically copied, fleet-wide (see
    /// [`CustomizeReport::restore_copied_bytes`]). This scales with
    /// *distinct rewritten pages*, not resident set × replicas.
    pub restore_copied_bytes: usize,
    /// Page bytes the session's store physically holds after the run:
    /// one copy per distinct page content.
    pub unique_page_bytes: usize,
    /// Page bytes deduplicated away by content addressing
    /// (`logical − unique` over the session's store).
    pub shared_page_bytes: usize,
    /// The store's dedup win, `logical / unique` (1.0 when nothing was
    /// stored). With N near-identical replicas this approaches N.
    pub dedup_ratio: f64,
    /// Longest per-group freeze window — the worst per-process downtime
    /// in the fleet. Because freeze windows are serialized, this is what
    /// any one process experiences; a monolithic whole-fleet freeze
    /// would have cost [`FleetTotals::sum_freeze_window`] instead.
    pub max_freeze_window: Duration,
    /// Sum of all per-group freeze windows (the aggregate a whole-fleet
    /// freeze would impose on every process at once).
    pub sum_freeze_window: Duration,
    /// Wall-clock duration of the whole fleet run, including the serve
    /// slices pumped between stages.
    pub wall: Duration,
}

impl DynaCut {
    /// Opens a new cycle over one process group.
    fn begin_cycle(&self, pids: &[Pid]) -> CycleState {
        CycleState {
            pids: pids.to_vec(),
            options: self.dump_options,
            incremental: self.incremental,
            report: CustomizeReport::default(),
            journal: TxnJournal {
                frozen: Vec::new(),
                saved_dirty: Vec::new(),
                baseline_key: pids.to_vec(),
                last_baseline: None,
                stored: None,
            },
            begun: false,
            predump: None,
            checkpoint: None,
            redirects: Vec::new(),
            originals: Vec::new(),
            staged_redirect_state: None,
            staged_verify_state: None,
            staged_registry: None,
            staged_injections: self.injections,
            txn: None,
            committed: None,
        }
    }

    /// Tags every process of an in-flight cycle with a scheduling
    /// class. Cycle work pumps serve slices between stages, and a
    /// group mid-customize (post-restore catch-up bursts, repair-mode
    /// drains) must not steal quanta from replicas that are purely
    /// serving — the MLFQ pins [`SchedClass::Background`] processes to
    /// its bottom level. The tag is host-side scheduler state only: it
    /// survives the remove/insert swap of a restore and never reaches a
    /// fingerprint or checkpoint, so tagging cannot perturb the
    /// transactional parity guarantees.
    fn set_group_class(kernel: &mut Kernel, pids: &[Pid], class: SchedClass) {
        for &pid in pids {
            kernel.set_sched_class(pid, class);
        }
    }

    /// Runs the full stage sequence over one group — the single-group
    /// customize path. Rolls the cycle back on any stage failure.
    pub(crate) fn run_cycle(
        &mut self,
        kernel: &mut Kernel,
        pids: &[Pid],
        plan: &RewritePlan,
    ) -> Result<CustomizeReport, DynacutError> {
        let mut cycle = self.begin_cycle(pids);
        cycle.begin(kernel);
        Self::set_group_class(kernel, pids, SchedClass::Background);
        for stage in cycle.stage_sequence() {
            if let Err(err) = self.run_stage(kernel, &mut cycle, plan, stage) {
                let CycleState { pids, journal, .. } = cycle;
                self.rollback(kernel, &pids, journal);
                Self::set_group_class(kernel, &pids, SchedClass::Normal);
                return Err(err);
            }
        }
        Self::set_group_class(kernel, pids, SchedClass::Normal);
        Ok(self.commit_cycle(kernel, cycle, plan))
    }

    /// Customizes a fleet of independent process groups with one plan.
    ///
    /// Stages that run while the guest serves (the incremental
    /// pre-dump) proceed **round-robin** across groups; the freeze
    /// window — freeze through restore-commit (plus the baseline store,
    /// which must observe the just-restored group unperturbed) — is
    /// **serialized**: at most one group is frozen at any time, and the
    /// kernel is pumped for [`FleetOptions::serve_slice_ns`] guest
    /// nanoseconds between steps so every other group keeps serving.
    /// The per-pid [`EventKind::StageScheduled`]/[`EventKind::StageRetired`]
    /// journal pairs record the interleaving.
    ///
    /// Each group's cycle is individually transactional, exactly as
    /// [`DynaCut::customize`]: a stage failure rolls that group — and
    /// every group whose pre-dump already swept state — back to its
    /// pre-call state and returns the error. Groups that already
    /// committed before the failure stay committed (their processes were
    /// already serving the new behaviour).
    ///
    /// # Errors
    ///
    /// Fails on plan validation or on the first group whose cycle fails,
    /// with the rollback semantics above.
    pub fn customize_fleet(
        &mut self,
        kernel: &mut Kernel,
        groups: &[Vec<Pid>],
        plan: &RewritePlan,
        options: &FleetOptions,
    ) -> Result<FleetReport, DynacutError> {
        plan.validate()?;
        let started = Instant::now();
        let mut cycles: VecDeque<CycleState> =
            groups.iter().map(|group| self.begin_cycle(group)).collect();

        // Wave 1 — concurrent stages. Every group pre-dumps while its
        // own (and everyone else's) processes still run; the serve
        // slices between steps let queued client traffic drain.
        if self.incremental {
            let mut failed = None;
            for cycle in &mut cycles {
                cycle.begin(kernel);
                Self::set_group_class(kernel, &cycle.pids, SchedClass::Background);
                if let Err(err) = self.run_stage(kernel, cycle, plan, Stage::PreDump) {
                    failed = Some(err);
                    break;
                }
                kernel.run_for(options.serve_slice_ns);
            }
            if let Some(err) = failed {
                return Err(self.abort_fleet(kernel, cycles, err));
            }
        }

        // Wave 2 — the serialized freeze windows. One group at a time
        // holds the freeze token from its freeze through its commit;
        // the kernel is pumped between groups so the rest of the fleet
        // serves during every other group's window.
        let mut report = FleetReport::default();
        while let Some(mut cycle) = cycles.pop_front() {
            cycle.begin(kernel);
            Self::set_group_class(kernel, &cycle.pids, SchedClass::Background);
            let window: Vec<Stage> = cycle
                .stage_sequence()
                .into_iter()
                .filter(|stage| *stage != Stage::PreDump)
                .collect();
            for stage in window {
                if let Err(err) = self.run_stage(kernel, &mut cycle, plan, stage) {
                    let CycleState { pids, journal, .. } = cycle;
                    self.rollback(kernel, &pids, journal);
                    Self::set_group_class(kernel, &pids, SchedClass::Normal);
                    return Err(self.abort_fleet(kernel, cycles, err));
                }
            }
            let pids = cycle.pids.clone();
            let group_report = self.commit_cycle(kernel, cycle, plan);
            // Committed: the group is a plain serving replica again.
            Self::set_group_class(kernel, &pids, SchedClass::Normal);
            report.totals.groups += 1;
            report.totals.processes += pids.len();
            report.totals.frozen_page_bytes += group_report.frozen_page_bytes;
            report.totals.prewritten_page_bytes += group_report.prewritten_page_bytes;
            report.totals.image_bytes += group_report.image_bytes;
            report.totals.stored_page_bytes += group_report.stored_page_bytes.unwrap_or(0);
            report.totals.restore_copied_bytes += group_report.restore_copied_bytes;
            let window = group_report.freeze_window();
            report.totals.max_freeze_window = report.totals.max_freeze_window.max(window);
            report.totals.sum_freeze_window += window;
            for &pid in &pids {
                report.procs.insert(pid, group_report.clone());
            }
            kernel.run_for(options.serve_slice_ns);
        }

        let pages = self.store.page_store();
        report.totals.unique_page_bytes = pages.unique_bytes();
        report.totals.shared_page_bytes = pages.shared_bytes();
        report.totals.dedup_ratio = pages.dedup_ratio();
        report.totals.wall = started.elapsed();
        Ok(report)
    }

    /// Unwinds every pending group that already has journal state (its
    /// pre-dump swept dirty bits or displaced a baseline) after another
    /// group's cycle failed, and passes the error through.
    fn abort_fleet(
        &mut self,
        kernel: &mut Kernel,
        cycles: VecDeque<CycleState>,
        err: DynacutError,
    ) -> DynacutError {
        for cycle in cycles {
            let begun = cycle.begun;
            let CycleState { pids, journal, .. } = cycle;
            if begun {
                self.rollback(kernel, &pids, journal);
            }
            // Untag unconditionally: a never-begun group was still
            // tagged if wave 1 reached it before the failure.
            Self::set_group_class(kernel, &pids, SchedClass::Normal);
        }
        err
    }

    /// Runs one stage for one group: per-pid `StageScheduled` events,
    /// the group-level phase bracket, the stage body, then per-pid
    /// `StageRetired` events. A failing stage leaves its `PhaseStart`
    /// dangling (and retires nothing) — the journal names the stage the
    /// cycle died in, exactly as the monolithic path did.
    fn run_stage(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
        plan: &RewritePlan,
        stage: Stage,
    ) -> Result<(), DynacutError> {
        let phase = stage.phase();
        for index in 0..cycle.pids.len() {
            let pid = cycle.pids[index];
            kernel.record_flight(Some(pid), EventKind::StageScheduled { stage: phase });
        }
        let started = start_phase(kernel, phase);
        self.stage_body(kernel, cycle, plan, stage)?;
        end_phase(kernel, &mut cycle.report, phase, started);
        let elapsed = cycle
            .report
            .phases
            .last()
            .map(|(_, elapsed)| *elapsed)
            .unwrap_or_default();
        match stage {
            Stage::PreDump | Stage::Freeze | Stage::Dump => {
                cycle.report.timings.checkpoint += elapsed;
            }
            Stage::ImageEdit => cycle.report.timings.disable_code += elapsed,
            Stage::Inject => cycle.report.timings.insert_sighandler += elapsed,
            Stage::RestorePrepare | Stage::RestoreCommit => {
                cycle.report.timings.restore += elapsed;
            }
            // Outside the paper's Figure 6 legend: the baseline store
            // happens after the processes are serving again.
            Stage::BaselineStore => {}
        }
        for index in 0..cycle.pids.len() {
            let pid = cycle.pids[index];
            kernel.record_flight(
                Some(pid),
                EventKind::StageRetired {
                    stage: phase,
                    duration_ns: elapsed.as_nanos() as u64,
                },
            );
        }
        Ok(())
    }

    /// The stage bodies, moved verbatim from the monolithic customize.
    fn stage_body(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
        plan: &RewritePlan,
        stage: Stage,
    ) -> Result<(), DynacutError> {
        match stage {
            // Incremental mode, phase one: copy clean pages while the
            // guest still runs, so the freeze only has to move the dirty
            // residue. The pre-dump sweeps the dirty bitmap; snapshot it
            // first so a failed cycle can restore it (with the bits
            // intact, the old baseline stays valid across the failure).
            Stage::PreDump => {
                for index in 0..cycle.pids.len() {
                    let pid = cycle.pids[index];
                    let dirty = kernel.process(pid)?.mem.dirty_pages().collect();
                    cycle.journal.saved_dirty.push((pid, dirty));
                }
                cycle.predump = Some(pre_dump(kernel, &cycle.pids)?);
                // The bitmap now matches no stored checkpoint until a
                // new baseline is stored below; the journal holds the
                // old one for rollback.
                cycle.journal.last_baseline = self.baselines.remove(&cycle.journal.baseline_key);
                Ok(())
            }
            Stage::Freeze => {
                for index in 0..cycle.pids.len() {
                    let pid = cycle.pids[index];
                    kernel.freeze(pid)?;
                    cycle.journal.frozen.push(pid);
                }
                Ok(())
            }
            Stage::Dump => {
                let dumped = match &cycle.predump {
                    Some(pre) => pre.complete(kernel, &cycle.pids, &cycle.options).map(
                        |(checkpoint, stats)| {
                            (
                                checkpoint,
                                stats.frozen_page_bytes,
                                stats.prewritten_page_bytes,
                            )
                        },
                    ),
                    None => {
                        dump_many(kernel, &cycle.pids, &cycle.options).map(|checkpoint| {
                            let frozen = checkpoint.pages_bytes();
                            (checkpoint, frozen, 0)
                        })
                    }
                };
                let (checkpoint, frozen, prewritten) = dumped?;
                cycle.report.frozen_page_bytes = frozen;
                cycle.report.prewritten_page_bytes = prewritten;
                // The paper checkpoints "into an in-memory filesystem,
                // i.e., tmpfs"; here the checkpoint stays in memory and
                // is never serialized, so only its encoded size is
                // reported.
                cycle.report.image_bytes = checkpoint.encoded_len();
                cycle.checkpoint = Some(checkpoint);
                Ok(())
            }
            // Session state is mutated on *staged copies* only: the
            // accumulated redirect/verifier tables, the registry, and
            // the injection counter all commit together after the
            // restore (and, in incremental mode, the baseline store)
            // succeed. A failure anywhere leaves `self` exactly as it
            // was.
            Stage::ImageEdit => self.stage_image_edit(cycle, plan),
            Stage::Inject => self.stage_inject(kernel, cycle, plan),
            // Staged: every replacement process is fully built before
            // the first original is touched, and the swap itself rolls
            // back on a mid-commit failure (see `RestoreTransaction`).
            Stage::RestorePrepare => {
                let checkpoint = cycle.checkpoint.as_ref().expect("dump stage ran");
                let registry = cycle.staged_registry.as_ref().expect("inject stage ran");
                // Put the edited checkpoint into the session's
                // content-addressed store once (copying only pages it
                // has never seen — later replicas hash-hit the first
                // one's baseline) and stage the restore from that
                // entry, so every staged page shares its frame. The
                // journal owns the entry until the baseline store
                // adopts it; a rollback releases it.
                let copied_before = self.store.page_store().copied_bytes();
                let id = self.store.put_full(checkpoint)?;
                cycle.journal.stored = Some(id);
                cycle.report.restore_copied_bytes =
                    (self.store.page_store().copied_bytes() - copied_before) as usize;
                cycle.txn = Some(self.store.stage_restore(kernel, id, registry)?);
                Ok(())
            }
            Stage::RestoreCommit => {
                let txn = cycle.txn.take().expect("restore was prepared");
                let committed = txn.commit(kernel)?;
                // The swap just replaced these processes' text with the
                // rewritten images (planted traps, wiped blocks,
                // re-enables), and `commit` started them with cold
                // block caches. A customize cycle knows more than a raw
                // image swap, though: it holds the displaced originals,
                // so it can carry each one's cache forward under a
                // bumped rewrite epoch — byte-identical code pages keep
                // their generations (their blocks version-swap in
                // without a re-decode), rewritten pages are seeded past
                // every carried snapshot (their blocks can never
                // validate). No flush, no cold restart, traps still
                // land (DESIGN §11).
                committed.carry_block_caches(kernel);
                cycle.committed = Some(committed);
                Ok(())
            }
            Stage::BaselineStore => self.stage_baseline_store(kernel, cycle),
        }
    }

    /// Edits the dumped images per the plan: re-enables, trap bytes,
    /// wipes, unmaps, and the syscall filter, folding the effects into
    /// the staged accumulated tables.
    fn stage_image_edit(
        &mut self,
        cycle: &mut CycleState,
        plan: &RewritePlan,
    ) -> Result<(), DynacutError> {
        let checkpoint = cycle.checkpoint.as_mut().expect("dump stage ran");
        let mut staged_redirect_state = self.redirect_state.clone();
        let mut staged_verify_state = self.verify_state.clone();
        let mut redirects: Vec<Vec<(u64, u64)>> = vec![Vec::new(); checkpoint.procs.len()];
        let mut originals: Vec<Vec<(u64, u8)>> = vec![Vec::new(); checkpoint.procs.len()];
        for (index, image) in checkpoint.procs.iter_mut().enumerate() {
            if fault::hit(FaultPhase::ImageEdit) {
                return Err(DynacutError::FaultInjected(FaultPhase::ImageEdit));
            }
            let pid = image.core.pid;
            let mut original_text = OriginalText::new();
            for feature in &plan.enable {
                let Some(module) = image
                    .core
                    .modules
                    .iter()
                    .find(|m| m.name == feature.module)
                else {
                    continue;
                };
                let base = module.base;
                enable_in_image(image, feature, &self.registry, &mut original_text)?;
                cycle.report.blocks_enabled += feature.blocks.len();
                // Re-enabled addresses leave the accumulated tables.
                let in_feature = |addr: u64| {
                    feature
                        .blocks
                        .iter()
                        .any(|b| addr >= base + b.addr && addr < base + b.range().end)
                };
                if let Some(state) = staged_redirect_state.get_mut(&pid) {
                    state.retain(|addr, _| !in_feature(*addr));
                }
                if let Some(state) = staged_verify_state.get_mut(&pid) {
                    state.retain(|addr, _| !in_feature(*addr));
                }
            }
            for feature in &plan.disable {
                if !image.core.modules.iter().any(|m| m.name == feature.module) {
                    continue;
                }
                let outcome = disable_in_image(image, feature, plan.block_policy)?;
                cycle.report.blocks_disabled += outcome.blocks;
                cycle.report.bytes_written += outcome.bytes_written;
                cycle.report.pages_unmapped += outcome.pages_unmapped;
                redirects[index].extend(outcome.redirects);
                originals[index].extend(outcome.originals);
            }
            for (module, blocks) in &plan.remove_blocks {
                if !image.core.modules.iter().any(|m| &m.name == module) {
                    continue;
                }
                let outcome = remove_blocks_in_image(image, module, blocks, plan.block_policy)?;
                cycle.report.blocks_disabled += outcome.blocks;
                cycle.report.bytes_written += outcome.bytes_written;
                cycle.report.pages_unmapped += outcome.pages_unmapped;
                originals[index].extend(outcome.originals);
            }
            if let Some(allowed) = &plan.allow_syscalls {
                let mut mask = 0u64;
                for &sysno in allowed {
                    // `validate` bounds every number; `checked_shl`
                    // keeps even a hypothetically unvalidated plan from
                    // overflowing the shift.
                    debug_assert!(sysno < u64::from(dynacut_vm::SYSCALL_FILTER_BITS));
                    mask |= 1u64.checked_shl(sysno as u32).unwrap_or(0);
                }
                // Signal delivery always needs sigreturn.
                mask |= 1 << (dynacut_vm::Sysno::Sigreturn as u64);
                image.set_syscall_filter(mask);
            }
            // Fold this plan's effects into the staged accumulated
            // state and emit the union tables for the handler build
            // below.
            let redirect_acc = staged_redirect_state.entry(pid).or_default();
            for (from, to) in redirects[index].drain(..) {
                redirect_acc.insert(from, to);
            }
            redirects[index] = redirect_acc.iter().map(|(&f, &t)| (f, t)).collect();
            let verify_acc = staged_verify_state.entry(pid).or_default();
            for (addr, byte) in originals[index].drain(..) {
                verify_acc.entry(addr).or_insert(byte);
            }
            originals[index] = verify_acc.iter().map(|(&a, &b)| (a, b)).collect();
        }
        cycle.staged_redirect_state = Some(staged_redirect_state);
        cycle.staged_verify_state = Some(staged_verify_state);
        cycle.redirects = redirects;
        cycle.originals = originals;
        Ok(())
    }

    /// Builds and injects the fault-handler/verifier library into every
    /// image and points the `SIGTRAP` sigaction at it.
    fn stage_inject(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
        plan: &RewritePlan,
    ) -> Result<(), DynacutError> {
        // Restore resolves every module named in the images, so built
        // libraries join the (staged) framework registry — later dumps
        // will see them mapped once the cycle commits.
        let mut staged_registry = self.registry.clone();
        let mut staged_injections = self.injections;
        let checkpoint = cycle.checkpoint.as_mut().expect("dump stage ran");
        if plan.fault_policy != FaultPolicy::Terminate {
            for (index, image) in checkpoint.procs.iter_mut().enumerate() {
                let mut library = match plan.fault_policy {
                    FaultPolicy::Redirect => build_fault_handler(&cycle.redirects[index])?,
                    FaultPolicy::Verify => build_verifier_library(&cycle.originals[index])?,
                    FaultPolicy::Terminate => unreachable!(),
                };
                // Repeated customizations inject repeatedly: keep module
                // names unique so the registry and module tables stay
                // unambiguous.
                staged_injections += 1;
                library.name = format!("{}@{}", library.name, staged_injections);
                // "By default, DynaCut loads the shared library into a
                // randomized but unused location" (paper §3.2.1). The
                // RNG is seeded per injection so runs stay reproducible.
                let base = {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::StdRng::seed_from_u64(
                        0xD1AC_0DE5 ^ (staged_injections << 8) ^ u64::from(image.core.pid.0),
                    );
                    let window_pages: u64 = 1 << 18; // a 1 GiB placement window
                    let hint = 0x6000_0000_0000u64
                        + (rng.gen::<u64>() % window_pages) * dynacut_obj::PAGE_SIZE;
                    image
                        .mm
                        .find_free(hint, dynacut_obj::page_align(library.footprint()))
                        .ok_or_else(|| {
                            CriuError::Inconsistent(format!(
                                "no free range for library `{}` at or above {hint:#x}",
                                library.name
                            ))
                        })?
                };
                let base = image.inject_library(&library, Some(base), &staged_registry)?;
                staged_registry.insert(std::sync::Arc::new(library.clone()));
                let handler = base + library.symbols["dc_handler"].offset;
                let restorer = base + library.symbols["dc_restorer"].offset;
                image.set_sigaction(
                    Signal::Sigtrap,
                    SigAction {
                        handler,
                        restorer,
                        mask: 0,
                    },
                );
                cycle.report.handler_bases.push((image.core.pid, base));
            }
        }
        for &(pid, base) in &cycle.report.handler_bases {
            kernel.record_flight(Some(pid), EventKind::LibraryInjected { base });
        }
        cycle.staged_registry = Some(staged_registry);
        cycle.staged_injections = staged_injections;
        Ok(())
    }

    /// The restored memory now equals the edited checkpoint on every
    /// clean page, so sweep the bitmap and adopt the entry the restore
    /// was staged from as the group's new baseline. The cycle reports as
    /// stored the pages that are new or changed since the group's
    /// previous baseline; the rest are shared with it. A failure here
    /// still rolls the whole cycle back: the committed restore is undone
    /// first, putting the original (frozen) processes back for the
    /// journal rollback to thaw and to release the entry.
    fn stage_baseline_store(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
    ) -> Result<(), DynacutError> {
        let id = cycle
            .journal
            .stored
            .expect("restore-prepare stored the checkpoint");
        // The edited payload is not needed past this point: the entry
        // holds its pages.
        let full_bytes = cycle
            .checkpoint
            .take()
            .expect("dump stage ran")
            .pages_bytes();
        let adopted: Result<(), DynacutError> = (|| {
            mark_clean_after_dump(kernel, &cycle.pids)?;
            if fault::hit(FaultPhase::BaselineStore) {
                return Err(DynacutError::FaultInjected(FaultPhase::BaselineStore));
            }
            Ok(())
        })();
        if let Err(err) = adopted {
            kernel.record_flight(
                None,
                EventKind::RollbackStep {
                    step: RollbackStep::UndoRestore,
                },
            );
            cycle
                .committed
                .take()
                .expect("restore committed before the baseline store")
                .undo(kernel);
            return Err(err);
        }
        let bytes = match cycle.journal.last_baseline {
            Some(parent) => self
                .store
                .changed_pages_bytes(parent, id)
                .expect("a group's baseline stays stored until a cycle displaces it"),
            None => full_bytes,
        };
        cycle.report.stored_page_bytes = Some(bytes);
        cycle.report.checkpoint_id = Some(id);
        self.baselines
            .insert(cycle.journal.baseline_key.clone(), id);
        Ok(())
    }

    /// Every stage succeeded: fold the staged session state in and
    /// charge the guest-visible downtime. The cycle's journal is
    /// dropped — the originals it would have resurrected no longer
    /// exist.
    fn commit_cycle(
        &mut self,
        kernel: &mut Kernel,
        cycle: CycleState,
        plan: &RewritePlan,
    ) -> CustomizeReport {
        let CycleState {
            pids,
            incremental,
            report,
            journal,
            staged_redirect_state,
            staged_verify_state,
            staged_registry,
            staged_injections,
            ..
        } = cycle;
        // Only an incremental cycle keeps its entry, as the group's
        // baseline; any other cycle's store stays empty.
        if !incremental {
            if let Some(id) = journal.stored {
                self.store
                    .release(id)
                    .expect("the cycle's own entry releases cleanly");
            }
        }
        if let Some(state) = staged_redirect_state {
            self.redirect_state = state;
        }
        if let Some(state) = staged_verify_state {
            self.verify_state = state;
        }
        if let Some(registry) = staged_registry {
            self.registry = registry;
        }
        self.injections = staged_injections;
        // Label future SIGTRAP hits on the targets with the policy that
        // planted the trap bytes, and fold this cycle's counts into the
        // metrics registry.
        let policy_label = match plan.fault_policy {
            FaultPolicy::Redirect => "redirect",
            FaultPolicy::Verify => "verify",
            FaultPolicy::Terminate => "terminate",
        };
        for &pid in &pids {
            kernel.flight_mut().set_trap_policy(pid, policy_label);
        }
        let metrics = kernel.flight_mut().metrics_mut();
        metrics.incr("customize.commits", 1);
        metrics.incr("blocks_patched", report.blocks_disabled as u64);
        metrics.incr("bytes_patched", report.bytes_written);
        metrics.incr("pages_precopied_bytes", report.prewritten_page_bytes as u64);
        metrics.incr("pages_frozen_bytes", report.frozen_page_bytes as u64);
        metrics.incr("pages_restore_copied_bytes", report.restore_copied_bytes as u64);
        metrics.incr("injections", report.handler_bases.len() as u64);
        for (phase, elapsed) in &report.phases {
            metrics.observe(&format!("phase.{phase}"), elapsed.as_nanos() as u64);
        }
        kernel.record_flight(None, EventKind::CustomizeCommit);
        kernel.advance_clock(plan.downtime.charge_ns(report.timings.total()));
        report
    }
}

/// What one promoted replica group cost.
#[derive(Debug, Clone)]
pub struct PromotedReplica {
    /// The group's pids.
    pub pids: Vec<Pid>,
    /// Host wall-clock from this group's freeze to its commit — the
    /// whole downtime a promoted replica experiences. No dump, no
    /// rewrite, no page copy happens inside it, so it is flat in fleet
    /// size.
    pub freeze_window: Duration,
    /// Page bytes the promotion physically copied for this group.
    /// Shared-image promotion installs store frames, so this is 0; the
    /// rollout figure gates on it.
    pub copied_bytes: u64,
}

/// The outcome of a [`DynaCut::rollout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutDecision {
    /// The canary soaked clean and its image now serves on every
    /// replica.
    Promoted,
    /// A verifier report during the soak rolled the canary back; the
    /// fleet is bit-identical to its pre-attempt state (modulo the
    /// guest clock, which kept serving —
    /// [`Kernel::state_fingerprint_timeless`]).
    Demoted,
}

/// What a [`DynaCut::rollout`] did.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Promote or demote.
    pub decision: RolloutDecision,
    /// The canary group's pids.
    pub canary: Vec<Pid>,
    /// The canary's customize-cycle report — the one real
    /// dump/rewrite/restore the whole fleet paid for. On a demotion
    /// this is the cost of the attempt that was rolled back.
    pub canary_report: CustomizeReport,
    /// Serve slices actually soaked (a demotion stops at the slice the
    /// first report arrived in).
    pub soak_slices: u64,
    /// Falsely-blocked addresses the verifier reported during the soak,
    /// drained selectively — interleaved guest events stay queued.
    pub verifier_reports: Vec<u64>,
    /// SIGTRAP hits on the canary during the soak. Under
    /// [`FaultPolicy::Verify`] every one self-healed and produced a
    /// report.
    pub trap_hits: u64,
    /// Per-group promotion receipts, in promotion order (empty on
    /// demotion).
    pub promoted: Vec<PromotedReplica>,
    /// Page bytes the whole promotion wave physically copied — 0 when
    /// every page came out of the shared store.
    pub promotion_copied_bytes: u64,
    /// Wall-clock duration of the whole rollout, soak included.
    pub wall: Duration,
}

impl DynaCut {
    /// Customizes a fleet the production way: **canary → soak →
    /// promote | demote** (paper §3.2.3's customize-validate-promote,
    /// scaled out).
    ///
    /// Exactly one replica group — `groups[0]`, the canary — runs a
    /// full customize cycle under [`FaultPolicy::Verify`], so every
    /// trap the rewrite planted self-heals and reports instead of
    /// killing the process. The cycle is **held open**: its transaction
    /// journal and committed-restore receipt stay live while the canary
    /// serves for [`RolloutPlan::soak_slices`] slices.
    ///
    /// * **Clean soak** — the canary's stored image is promoted onto
    ///   every remaining group via
    ///   [`CheckpointStore::promote_shared`](dynacut_criu::CheckpointStore::promote_shared):
    ///   one tiny freeze window per replica (serialized, with serve
    ///   slices pumped between), no per-replica re-dump or re-rewrite,
    ///   and zero page bytes copied — every page is a shared frame out
    ///   of the content-addressed store. Only then does the canary
    ///   cycle commit.
    /// * **Any verifier report** (or injected fault) — the canary is
    ///   **demoted** through the PR 2 transaction machinery: the
    ///   committed restore is undone, and the journal rollback
    ///   thaws/unrepairs/re-marks and releases the just-stored baseline
    ///   exactly as for a failed cycle. A failure while promoting
    ///   replica *k* first unwinds replicas `0..k`, so the fleet is
    ///   all-or-nothing.
    ///
    /// # Errors
    ///
    /// Fails with [`DynacutError::BadPlan`] unless the plan uses
    /// [`FaultPolicy::Verify`], the session is incremental, and every
    /// group matches the canary group's size; propagates canary-cycle,
    /// soak and promotion failures after rolling the fleet back to its
    /// pre-attempt state.
    pub fn rollout(
        &mut self,
        kernel: &mut Kernel,
        groups: &[Vec<Pid>],
        plan: &RewritePlan,
        rollout: &RolloutPlan,
    ) -> Result<RolloutReport, DynacutError> {
        plan.validate()?;
        rollout.validate()?;
        if groups.is_empty() {
            return Err(DynacutError::BadPlan(
                "rollout needs at least one replica group".into(),
            ));
        }
        if plan.fault_policy != FaultPolicy::Verify {
            return Err(DynacutError::BadPlan(
                "rollout requires FaultPolicy::Verify: the canary's traps must self-heal \
                 and report, not kill or redirect"
                    .into(),
            ));
        }
        if !self.incremental {
            return Err(DynacutError::BadPlan(
                "rollout requires incremental mode: promotion restores replicas from the \
                 stored canary image"
                    .into(),
            ));
        }
        for group in &groups[1..] {
            if group.len() != groups[0].len() {
                return Err(DynacutError::BadPlan(format!(
                    "every replica group must match the canary group's size ({}), got {}",
                    groups[0].len(),
                    group.len()
                )));
            }
        }
        let started = Instant::now();

        // Stage 1 — the canary cycle: the full stage sequence over
        // groups[0], deliberately *not* committed yet. The canary is
        // live and serving the rewritten image after RestoreCommit, but
        // the journal and the committed-restore receipt stay in hand so
        // a dirty soak can still demote it.
        let mut cycle = self.begin_cycle(&groups[0]);
        cycle.begin(kernel);
        Self::set_group_class(kernel, &cycle.pids, SchedClass::Background);
        for stage in cycle.stage_sequence() {
            if let Err(err) = self.run_stage(kernel, &mut cycle, plan, stage) {
                let CycleState { pids, journal, .. } = cycle;
                self.rollback(kernel, &pids, journal);
                Self::set_group_class(kernel, &pids, SchedClass::Normal);
                return Err(err);
            }
        }
        // The soak is the canary's *validation* serving: it must compete
        // for quanta exactly like the replicas it will be promoted onto,
        // so the background tag comes off before the soak pumps.
        Self::set_group_class(kernel, &cycle.pids, SchedClass::Normal);

        // Stage 2 — soak: pump serve slices and watch the canary. Only
        // verifier-tagged events are drained (the PR 7 selective drain);
        // everything else stays queued for its own consumers.
        let soak_started = start_phase(kernel, Phase::Soak);
        let seq0 = kernel.flight().next_seq();
        let mut reports: Vec<u64> = Vec::new();
        let mut soaked = 0u64;
        let mut soak_fault = None;
        while soaked < rollout.soak_slices {
            if fault::hit(FaultPhase::CanarySoak) {
                soak_fault = Some(DynacutError::FaultInjected(FaultPhase::CanarySoak));
                break;
            }
            kernel.run_for(rollout.serve_slice_ns);
            soaked += 1;
            reports.extend(Self::verifier_reports(kernel));
            if !reports.is_empty() {
                // The first report decides; soaking further only delays
                // the demotion.
                break;
            }
        }
        let trap_hits = kernel
            .flight()
            .since(seq0)
            .filter(|event| {
                matches!(event.kind, EventKind::TrapHit { .. })
                    && event.pid.is_some_and(|pid| cycle.pids.contains(&pid))
            })
            .count() as u64;
        kernel.record_flight(
            None,
            EventKind::PhaseEnd {
                phase: Phase::Soak,
                duration_ns: soak_started.elapsed().as_nanos() as u64,
            },
        );
        kernel
            .flight_mut()
            .metrics_mut()
            .incr("rollout.soak_slices", soaked);

        if soak_fault.is_some() || !reports.is_empty() {
            let canary = cycle.pids.clone();
            let canary_report = cycle.report.clone();
            self.demote_canary(kernel, cycle, reports.len());
            if let Some(err) = soak_fault {
                return Err(err);
            }
            return Ok(RolloutReport {
                decision: RolloutDecision::Demoted,
                canary,
                canary_report,
                soak_slices: soaked,
                verifier_reports: reports,
                trap_hits,
                promoted: Vec::new(),
                promotion_copied_bytes: 0,
                wall: started.elapsed(),
            });
        }

        // Stage 3 — the promotion wave: one tiny freeze window per
        // remaining group, serialized like the fleet engine's windows,
        // with serve slices pumped between. The canary cycle is still
        // open: a failure at replica k unwinds replicas 0..k and then
        // demotes the canary, so the fleet is all-or-nothing.
        let ckpt_id = cycle
            .report
            .checkpoint_id
            .expect("incremental canary cycle stored its baseline");
        let mut promoted: Vec<(Vec<Pid>, CommittedRestore, Duration, u64)> =
            Vec::with_capacity(groups.len() - 1);
        let mut wave_err: Option<DynacutError> = None;
        'wave: for group in &groups[1..] {
            let window_started = Instant::now();
            // Background from the window start until the rollout
            // commits (or this group is unwound): the just-promoted
            // replica's catch-up burst drains under the serving fleet.
            Self::set_group_class(kernel, group, SchedClass::Background);
            kernel.record_flight(None, EventKind::PhaseStart { phase: Phase::Promote });
            for &pid in group.iter() {
                kernel.record_flight(Some(pid), EventKind::StageScheduled { stage: Phase::Promote });
            }
            let mut frozen: Vec<Pid> = Vec::new();
            let mut group_err: Option<DynacutError> = None;
            for &pid in group.iter() {
                match kernel.freeze(pid) {
                    Ok(()) => frozen.push(pid),
                    Err(err) => {
                        group_err = Some(err.into());
                        break;
                    }
                }
            }
            if group_err.is_none() {
                let copied_before = self.store.page_store().copied_bytes();
                let registry = cycle
                    .staged_registry
                    .as_ref()
                    .expect("canary cycle staged its registry");
                match self
                    .store
                    .promote_shared(kernel, ckpt_id, registry, group)
                {
                    Ok(receipt) => {
                        let copied = self.store.page_store().copied_bytes() - copied_before;
                        let window = window_started.elapsed();
                        for &pid in group.iter() {
                            kernel.record_flight(
                                Some(pid),
                                EventKind::StageRetired {
                                    stage: Phase::Promote,
                                    duration_ns: window.as_nanos() as u64,
                                },
                            );
                        }
                        kernel.record_flight(
                            None,
                            EventKind::PhaseEnd {
                                phase: Phase::Promote,
                                duration_ns: window.as_nanos() as u64,
                            },
                        );
                        promoted.push((group.clone(), receipt, window, copied));
                        kernel.run_for(rollout.serve_slice_ns);
                        continue 'wave;
                    }
                    Err(err) => group_err = Some(err.into()),
                }
            }
            // This group failed before its swap landed: thaw what this
            // window froze. The Promote PhaseStart stays dangling, as a
            // failed stage's bracket always does.
            for &pid in frozen.iter().rev() {
                let _ = kernel.thaw(pid);
                kernel.record_flight(
                    Some(pid),
                    EventKind::RollbackStep {
                        step: RollbackStep::Thaw,
                    },
                );
            }
            Self::set_group_class(kernel, group, SchedClass::Normal);
            wave_err = group_err;
            break;
        }

        if let Some(err) = wave_err {
            // Unwind the already-promoted replicas, newest first: each
            // undo re-inserts the frozen original, which is then thawed
            // back to its pre-freeze scheduler state.
            for (group, receipt, _, _) in promoted.into_iter().rev() {
                kernel.record_flight(
                    None,
                    EventKind::RollbackStep {
                        step: RollbackStep::UndoRestore,
                    },
                );
                receipt.undo(kernel);
                for &pid in group.iter().rev() {
                    let _ = kernel.thaw(pid);
                    kernel.record_flight(
                        Some(pid),
                        EventKind::RollbackStep {
                            step: RollbackStep::Thaw,
                        },
                    );
                }
                Self::set_group_class(kernel, &group, SchedClass::Normal);
            }
            self.demote_canary(kernel, cycle, reports.len());
            return Err(err);
        }

        // Stage 4 — commit. The canary's staged session state folds in
        // exactly as a plain cycle's would; then the promoted replicas
        // get their trap-policy labels (their memory carries the same
        // verify traps the canary's does).
        let canary = cycle.pids.clone();
        let canary_report = self.commit_cycle(kernel, cycle, plan);
        let mut promoted_out = Vec::with_capacity(promoted.len());
        let mut promotion_copied = 0u64;
        for (pids, _receipt, window, copied) in promoted {
            Self::set_group_class(kernel, &pids, SchedClass::Normal);
            for &pid in &pids {
                kernel.flight_mut().set_trap_policy(pid, "verify");
            }
            promotion_copied += copied;
            promoted_out.push(PromotedReplica {
                pids,
                freeze_window: window,
                copied_bytes: copied,
            });
        }
        let replica_procs: usize = promoted_out.iter().map(|group| group.pids.len()).sum();
        kernel.record_flight(
            None,
            EventKind::CanaryPromoted {
                replicas: replica_procs,
                soak_slices: soaked,
            },
        );
        kernel.flight_mut().metrics_mut().incr("rollout.promotions", 1);
        Ok(RolloutReport {
            decision: RolloutDecision::Promoted,
            canary,
            canary_report,
            soak_slices: soaked,
            verifier_reports: reports,
            trap_hits,
            promoted: promoted_out,
            promotion_copied_bytes: promotion_copied,
            wall: started.elapsed(),
        })
    }

    /// Rolls a held-open canary cycle all the way back: undo the
    /// committed restore (the pre-freeze original returns, its soak
    /// divergence discarded with the replacement process), drop the
    /// baseline this cycle adopted, then run the journal rollback —
    /// thaw, unrepair, re-mark dirty bits, release the cycle's store
    /// entry, restore the displaced baseline.
    /// [`EventKind::CanaryDemoted`] is journalled before the rollback so
    /// `CustomizeRollback` stays the terminal event.
    fn demote_canary(&mut self, kernel: &mut Kernel, mut cycle: CycleState, reports: usize) {
        kernel.record_flight(
            None,
            EventKind::RollbackStep {
                step: RollbackStep::UndoRestore,
            },
        );
        cycle
            .committed
            .take()
            .expect("canary cycle committed its restore before the soak")
            .undo(kernel);
        self.baselines.remove(&cycle.journal.baseline_key);
        kernel.record_flight(None, EventKind::CanaryDemoted { reports });
        kernel.flight_mut().metrics_mut().incr("rollout.demotions", 1);
        let CycleState { pids, journal, .. } = cycle;
        self.rollback(kernel, &pids, journal);
        Self::set_group_class(kernel, &pids, SchedClass::Normal);
    }
}
