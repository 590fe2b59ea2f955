//! The staged customize engine.
//!
//! A customize cycle is a list of [`Phase`] stages over a per-group
//! [`CycleState`], driven by one loop ([`DynaCut::run_stages`]) that
//! rolls the cycle back on the first failing stage. Three entry points
//! share it:
//!
//! * **Single group** — [`DynaCut::customize`] runs the stage list back
//!   to back under the transactional contract of DESIGN §5.
//! * **Fleet** — [`DynaCut::customize_fleet`] drives the same stages
//!   over many independent process groups. Stages that run while the
//!   guest serves (the pre-dump) proceed group by group with the kernel
//!   pumped between steps; the **freeze-serialization invariant** holds
//!   for the rest: at most one group is inside its freeze window
//!   (freeze → restore-commit) at any time, so every other group keeps
//!   serving and the fleet's per-process downtime is one group's window
//!   — max-of-windows, not sum-of-cycles.
//! * **Rollout** — [`DynaCut::rollout`] runs the canary's cycle, then
//!   soaks and promotes it.
//!
//! Every stage, the rollout's soak and promotion windows included, is
//! journalled through one [`Bracket`]: per-pid
//! [`EventKind::StageScheduled`] events, the group-level `PhaseStart`,
//! the body, `PhaseEnd`, then per-pid [`EventKind::StageRetired`]
//! events, so a fleet run's flight journal fully orders how the groups
//! interleaved.
//!
//! Checkpoints written by incremental fleet cycles land in the
//! session's content-addressed [`CheckpointStore`]
//! ([`dynacut_criu::PageStore`]): N replicas of the same binary intern
//! one copy of every identical page, which is the fleet experiment's
//! dedup win.
//!
//! [`CheckpointStore`]: dynacut_criu::CheckpointStore

use crate::handler::{build_fault_handler, build_verifier_library, is_injected, name_injected};
use crate::original::OriginalText;
use crate::plan::{BlockPolicy, FaultPolicy, RewritePlan, RolloutPlan};
use crate::rewrite::{check_in_text, disable_in_image, enable_in_image, remove_blocks_in_image};
use crate::session::{in_freeze_window, unwind, CustomizeReport, Receipt, TxnJournal};
use crate::{DynaCut, DynacutError};
use dynacut_criu::{
    dump_many, mark_clean_after_dump, pre_dump, CanaryEdit, CheckpointImage, CriuError,
    ModuleRegistry, PreDump, ProcessImage, Promotion, RestoreTransaction,
};
use dynacut_vm::fault::{self, FaultPhase};
use dynacut_vm::{Counter, EventKind, Kernel, Phase, Pid, SchedClass, SigAction, Signal};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Every stage of an incremental cycle, in execution order. A full-dump
/// cycle runs the stages between the first and the last: it neither
/// pre-dumps nor keeps a baseline.
const STAGES: [Phase; 8] = [
    Phase::PreDump,
    Phase::Freeze,
    Phase::Dump,
    Phase::ImageEdit,
    Phase::Inject,
    Phase::RestorePrepare,
    Phase::RestoreCommit,
    Phase::BaselineStore,
];

/// Guest nanoseconds [`DynaCut::customize_fleet`] pumps the kernel for
/// ([`Kernel::run_for`]) between stage steps, so unfrozen groups keep
/// serving while another group's cycle proceeds.
const FLEET_SERVE_SLICE_NS: u64 = 200_000;

/// One stage's journal bracket (DESIGN §9): per-pid `StageScheduled`,
/// the group-level `PhaseStart`, then, once the body succeeded,
/// `PhaseEnd` and per-pid `StageRetired`. A failed body never closes
/// its bracket, so the dangling `PhaseStart` names the stage a cycle
/// died in. A phase with no per-pid stage (the rollout's soak, which
/// the whole fleet serves through) passes no pids.
#[must_use = "a stage's bracket closes only when its body succeeded"]
struct Bracket {
    phase: Phase,
    started: Instant,
}

impl Bracket {
    fn open(kernel: &mut Kernel, pids: &[Pid], phase: Phase) -> Bracket {
        for &pid in pids {
            kernel.record_flight(Some(pid), EventKind::StageScheduled { stage: phase });
        }
        kernel.record_flight(None, EventKind::PhaseStart { phase });
        Bracket {
            phase,
            started: Instant::now(),
        }
    }

    /// Closes the bracket over the pids it was opened with and returns
    /// the stage's host wall-clock duration.
    fn close(self, kernel: &mut Kernel, pids: &[Pid]) -> Duration {
        let elapsed = self.started.elapsed();
        let duration_ns = saturating_nanos(elapsed);
        kernel.record_flight(
            None,
            EventKind::PhaseEnd {
                phase: self.phase,
                duration_ns,
            },
        );
        for &pid in pids {
            kernel.record_flight(
                Some(pid),
                EventKind::StageRetired {
                    stage: self.phase,
                    duration_ns,
                },
            );
        }
        elapsed
    }
}

/// A duration in whole nanoseconds, saturating at `u64::MAX` (some 584
/// years) instead of truncating.
fn saturating_nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Tags every process of a group with a scheduling class. Cycle work
/// pumps serve slices between stages, and a group mid-customize
/// (post-restore catch-up bursts, repair-mode drains) must not steal
/// quanta from replicas that are purely serving — the MLFQ pins
/// [`SchedClass::Background`] processes to its bottom level. The tag is
/// host-side scheduler state only: it survives the remove/insert swap of
/// a restore and never reaches a fingerprint or checkpoint, so tagging
/// cannot perturb the transactional parity guarantees.
fn set_group_class(kernel: &mut Kernel, pids: &[Pid], class: SchedClass) {
    for &pid in pids {
        kernel.set_sched_class(pid, class);
    }
}

/// One promotion window's body: freezes `group`, patches it in place
/// with the canary's code changes `edit`, and thaws it back into the
/// states it was frozen in. A failure changes nothing in the group and
/// thaws what the window froze, newest first, before returning.
fn promote_group(
    kernel: &mut Kernel,
    edit: &CanaryEdit<'_>,
    group: &[Pid],
) -> Result<Promotion, DynacutError> {
    let mut frozen = Vec::with_capacity(group.len());
    let mut promote = || -> Result<Promotion, DynacutError> {
        for &pid in group {
            kernel.freeze(pid)?;
            frozen.push(pid);
        }
        Ok(edit.promote(kernel, group)?)
    };
    let landed = promote();
    if landed.is_ok() {
        for &pid in &frozen {
            // Frozen above and patched in place, so still frozen.
            let _ = kernel.thaw(pid);
        }
    } else {
        unwind(kernel, None, frozen.into_iter().rev());
    }
    landed
}

/// One process's accumulated redirect or verifier table, from a
/// cycle's staged state, in address order: what the handler library
/// injected into that process carries. The image-edit stage gives every
/// process of the cycle an entry.
fn union_table<V: Copy>(
    state: Option<&BTreeMap<Pid, BTreeMap<u64, V>>>,
    pid: Pid,
) -> Vec<(u64, V)> {
    state
        .and_then(|state| state.get(&pid))
        .map(|table| table.iter().map(|(&addr, &value)| (addr, value)).collect())
        .unwrap_or_default()
}

/// Unloads every library an earlier injection put into `image` —
/// "unused shared library code can be dynamically unloaded through the
/// process rewriting approach" (paper §5). The registry keeps their
/// binaries: a demoted rollout's replicas, or an image skipped for a
/// live signal frame, may still map one.
fn retire_injected(image: &mut ProcessImage, registry: &ModuleRegistry) -> Result<(), CriuError> {
    let retired: Vec<String> = image
        .core
        .modules
        .iter()
        .filter(|module| is_injected(&module.name))
        .map(|module| module.name.clone())
        .collect();
    for name in &retired {
        image.unload_module(name, registry)?;
    }
    Ok(())
}

/// Everything one group's in-flight cycle carries between stages: the
/// transaction journal, the checkpoint being edited, and the staged
/// session state that commits only if every stage succeeds.
pub(crate) struct CycleState {
    pub(crate) pids: Vec<Pid>,
    pub(crate) report: CustomizeReport,
    pub(crate) journal: TxnJournal,
    begun: bool,
    predump: Option<PreDump>,
    checkpoint: Option<CheckpointImage>,
    staged_redirect_state: Option<BTreeMap<Pid, BTreeMap<u64, u64>>>,
    staged_verify_state: Option<BTreeMap<Pid, BTreeMap<u64, u8>>>,
    staged_registry: Option<ModuleRegistry>,
    staged_injections: u64,
    txn: Option<RestoreTransaction>,
}

impl CycleState {
    /// Opens the cycle: journals its `CustomizeBegin` (once) and tags its
    /// group [`SchedClass::Background`] until it commits or rolls back.
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
        set_group_class(kernel, &self.pids, SchedClass::Background);
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
    /// Page bytes the pre-dump protocol left for the freeze windows,
    /// fleet-wide (see [`CustomizeReport::frozen_page_bytes`]).
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
            report: CustomizeReport::default(),
            journal: TxnJournal::default(),
            begun: false,
            predump: None,
            checkpoint: None,
            staged_redirect_state: None,
            staged_verify_state: None,
            staged_registry: None,
            staged_injections: self.injections,
            txn: None,
        }
    }

    /// The stages this session's cycles run, in order.
    fn stages(&self) -> &'static [Phase] {
        if self.incremental {
            &STAGES
        } else {
            &STAGES[1..STAGES.len() - 1]
        }
    }

    /// Applies a rewrite plan to one or more live processes (a
    /// multi-process application passes all its pids, as with the Nginx
    /// master + worker).
    ///
    /// The processes are frozen, dumped, rewritten as images, and
    /// restored; established TCP connections survive. Wall-clock timings
    /// of each phase are measured and reported; guest-visible downtime is
    /// charged to the kernel clock per [`RewritePlan::downtime`].
    ///
    /// The cycle runs as a list of [`Phase`] stages (pre-dump → freeze →
    /// dump → image-edit → inject → restore → baseline-store);
    /// [`DynaCut::customize_fleet`] drives the same stages over many
    /// groups, serializing only the freeze windows.
    ///
    /// The whole cycle is **transactional** (DESIGN §5): on any error —
    /// before, during, or after the restore swap — the kernel is rolled
    /// back to exactly its pre-customization state (processes alive and
    /// thawed to their prior scheduler states, TCP connections out of
    /// repair mode, dirty bitmaps and the incremental baseline restored)
    /// and this session's accumulated state (registry, redirect/verifier
    /// tables, injection counter) is left untouched, so retrying the same
    /// plan afterwards behaves as if the failed attempt never happened.
    ///
    /// # Errors
    ///
    /// Fails on plan validation, missing processes/modules, or
    /// image-editing errors. The kernel is always left as described
    /// above.
    pub fn customize(
        &mut self,
        kernel: &mut Kernel,
        pids: &[Pid],
        plan: &RewritePlan,
    ) -> Result<CustomizeReport, DynacutError> {
        plan.validate()?;
        let cycle = self.run_stages(kernel, self.begin_cycle(pids), plan, self.stages())?;
        Ok(self.commit_cycle(kernel, cycle, plan))
    }

    /// The one stage loop: opens the cycle, then runs `stages` in order,
    /// each inside its [`Bracket`]. The first failing stage rolls the
    /// cycle back, returns its group to normal scheduling and fails with
    /// that stage's error; otherwise the cycle comes back ready to commit
    /// (or, for a rollout's canary, to soak).
    fn run_stages(
        &mut self,
        kernel: &mut Kernel,
        mut cycle: CycleState,
        plan: &RewritePlan,
        stages: &[Phase],
    ) -> Result<CycleState, DynacutError> {
        cycle.begin(kernel);
        for &phase in stages {
            if let Err(err) = self.run_stage(kernel, &mut cycle, plan, phase) {
                self.abort_cycle(kernel, cycle);
                return Err(err);
            }
        }
        Ok(cycle)
    }

    /// Runs one stage for one group inside its bracket and appends its
    /// duration to the cycle's report.
    fn run_stage(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
        plan: &RewritePlan,
        phase: Phase,
    ) -> Result<(), DynacutError> {
        let bracket = Bracket::open(kernel, &cycle.pids, phase);
        self.stage_body(kernel, cycle, plan, phase)?;
        let elapsed = bracket.close(kernel, &cycle.pids);
        cycle.report.phases.push((phase, elapsed));
        Ok(())
    }

    /// Rolls back a cycle that has begun and returns its group to normal
    /// scheduling.
    fn abort_cycle(&mut self, kernel: &mut Kernel, cycle: CycleState) {
        let CycleState {
            pids,
            journal,
            begun,
            ..
        } = cycle;
        if begun {
            self.rollback(kernel, &pids, journal);
        }
        set_group_class(kernel, &pids, SchedClass::Normal);
    }

    /// Customizes a fleet of independent process groups with one plan.
    ///
    /// Stages before the freeze window (the incremental pre-dump) run
    /// for every group in turn while the guest serves; the freeze window
    /// — freeze through restore-commit (plus the baseline store, which
    /// must observe the just-restored group unperturbed) — is
    /// **serialized**: at most one group is frozen at any time, and the
    /// kernel is pumped for a fixed serve slice of guest time between
    /// steps so every other group keeps serving. The per-pid
    /// [`EventKind::StageScheduled`]/[`EventKind::StageRetired`] journal
    /// pairs record the interleaving.
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
    ) -> Result<FleetReport, DynacutError> {
        plan.validate()?;
        let started = Instant::now();
        let stages = self.stages();
        let freeze = stages
            .iter()
            .position(|&phase| in_freeze_window(phase))
            .expect("every cycle freezes");
        let (live, window) = stages.split_at(freeze);
        let mut cycles: VecDeque<CycleState> =
            groups.iter().map(|group| self.begin_cycle(group)).collect();

        // Wave 1 — the stages before the freeze. Every group pre-dumps
        // while its own (and everyone else's) processes still run; the
        // serve slices between steps let queued client traffic drain.
        if !live.is_empty() {
            let pre_dumped = cycles.iter_mut().try_for_each(|cycle| {
                cycle.begin(kernel);
                for &phase in live {
                    self.run_stage(kernel, cycle, plan, phase)?;
                }
                kernel.run_for(FLEET_SERVE_SLICE_NS);
                Ok(())
            });
            if let Err(err) = pre_dumped {
                return Err(self.abort_fleet(kernel, cycles, err));
            }
        }

        // Wave 2 — the serialized freeze windows. One group at a time
        // holds the freeze token from its freeze through its commit;
        // the kernel is pumped between groups so the rest of the fleet
        // serves during every other group's window.
        let mut report = FleetReport::default();
        while let Some(cycle) = cycles.pop_front() {
            let cycle = match self.run_stages(kernel, cycle, plan, window) {
                Ok(cycle) => cycle,
                Err(err) => return Err(self.abort_fleet(kernel, cycles, err)),
            };
            let pids = cycle.pids.clone();
            let group_report = self.commit_cycle(kernel, cycle, plan);
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
            kernel.run_for(FLEET_SERVE_SLICE_NS);
        }

        let pages = self.store.page_store();
        report.totals.unique_page_bytes = pages.unique_bytes();
        report.totals.shared_page_bytes = pages.shared_bytes();
        report.totals.dedup_ratio = pages.dedup_ratio();
        report.totals.wall = started.elapsed();
        Ok(report)
    }

    /// Aborts every pending group after another group's cycle failed —
    /// rolling back those that already have journal state (their
    /// pre-dump swept dirty bits or displaced a baseline) and untagging
    /// every one, since wave 1 tags a group before its pre-dump — and
    /// passes the error through.
    fn abort_fleet(
        &mut self,
        kernel: &mut Kernel,
        cycles: VecDeque<CycleState>,
        err: DynacutError,
    ) -> DynacutError {
        for cycle in cycles {
            self.abort_cycle(kernel, cycle);
        }
        err
    }

    /// The stage bodies.
    fn stage_body(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
        plan: &RewritePlan,
        phase: Phase,
    ) -> Result<(), DynacutError> {
        match phase {
            // Incremental mode, phase one: copy clean pages while the
            // guest still runs, so a pre-dump protocol leaves only the
            // dirty residue for the freeze. The pre-dump sweeps the dirty
            // bitmap; snapshot it first so a failed cycle can restore it
            // (with the bits intact, the old baseline stays valid across
            // the failure).
            Phase::PreDump => {
                for index in 0..cycle.pids.len() {
                    let pid = cycle.pids[index];
                    let dirty = kernel.process(pid)?.mem.dirty_pages().collect();
                    cycle.journal.saved_dirty.push((pid, dirty));
                }
                cycle.predump = Some(pre_dump(kernel, &cycle.pids)?);
                // The bitmap now matches no stored checkpoint until a
                // new baseline is stored below; the journal holds the
                // old one for rollback.
                cycle.journal.last_baseline = self.baselines.remove(&cycle.pids);
                Ok(())
            }
            Phase::Freeze => {
                for index in 0..cycle.pids.len() {
                    let pid = cycle.pids[index];
                    kernel.freeze(pid)?;
                    cycle.journal.frozen.push(pid);
                }
                Ok(())
            }
            Phase::Dump => {
                let dumped = match &cycle.predump {
                    Some(pre) => pre.complete(kernel, &cycle.pids, &self.dump_options).map(
                        |(checkpoint, stats)| {
                            (
                                checkpoint,
                                stats.frozen_page_bytes,
                                stats.prewritten_page_bytes,
                            )
                        },
                    ),
                    None => dump_many(kernel, &cycle.pids, &self.dump_options).map(|checkpoint| {
                        let frozen = checkpoint.pages_bytes();
                        (checkpoint, frozen, 0)
                    }),
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
            Phase::ImageEdit => self.stage_image_edit(cycle, plan),
            Phase::Inject => self.stage_inject(kernel, cycle, plan),
            // Staged: every replacement process is fully built before
            // the first original is touched, and the swap itself rolls
            // back on a mid-commit failure (see `RestoreTransaction`).
            Phase::RestorePrepare => {
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
                    usize::try_from(self.store.page_store().copied_bytes() - copied_before)
                        .expect("bytes copied into memory fit in usize");
                cycle.txn = Some(self.store.stage_restore(kernel, id, registry)?);
                Ok(())
            }
            Phase::RestoreCommit => {
                let txn = cycle.txn.take().expect("restore was prepared");
                let committed = txn.commit(kernel)?;
                // The swap just replaced these processes' text with the
                // rewritten images (planted traps, wiped blocks,
                // re-enables), and the restore built them with cold
                // block caches. A customize cycle knows more than a raw
                // image swap, though: it holds the displaced originals,
                // so it can carry each one's cache forward
                // (`BlockCache::carry_into`) — of the pages the carried
                // blocks decode from, byte-identical ones keep their
                // generations (their blocks version-swap in without a
                // re-decode), rewritten ones are seeded past every
                // carried snapshot (their blocks can never validate).
                // No cold restart, and traps still land (DESIGN §11).
                committed.carry_block_caches(kernel);
                cycle.journal.committed = Some(committed);
                Ok(())
            }
            Phase::BaselineStore => self.stage_baseline_store(kernel, cycle),
            other => unreachable!("{other} is not a cycle stage"),
        }
    }

    /// Edits the dumped images per the plan: re-enables, trap bytes,
    /// wipes, unmaps, and the syscall filter, folding the effects into
    /// the staged accumulated tables. A block or redirect target outside
    /// its module's text fails the stage before any image is edited.
    fn stage_image_edit(
        &mut self,
        cycle: &mut CycleState,
        plan: &RewritePlan,
    ) -> Result<(), DynacutError> {
        check_in_text(plan, &self.registry)?;
        let checkpoint = cycle.checkpoint.as_mut().expect("dump stage ran");
        let mut staged_redirect_state = self.redirect_state.clone();
        let mut staged_verify_state = self.verify_state.clone();
        for image in &mut checkpoint.procs {
            if fault::hit(FaultPhase::ImageEdit) {
                return Err(DynacutError::FaultInjected(FaultPhase::ImageEdit));
            }
            let pid = image.core.pid;
            let mut redirects: Vec<(u64, u64)> = Vec::new();
            let mut originals: Vec<(u64, u8)> = Vec::new();
            let mut original_text = OriginalText::new();
            for feature in &plan.enable {
                let Some(module) = image.core.modules.iter().find(|m| m.name == feature.module)
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
                redirects.extend(outcome.redirects);
                originals.extend(outcome.originals);
            }
            for (module, blocks) in &plan.remove_blocks {
                if !image.core.modules.iter().any(|m| &m.name == module) {
                    continue;
                }
                let outcome = remove_blocks_in_image(image, module, blocks, plan.block_policy)?;
                cycle.report.blocks_disabled += outcome.blocks;
                cycle.report.bytes_written += outcome.bytes_written;
                cycle.report.pages_unmapped += outcome.pages_unmapped;
                originals.extend(outcome.originals);
            }
            if let Some(allowed) = &plan.allow_syscalls {
                let mut mask = 0u64;
                for &sysno in allowed {
                    // `validate` bounds every number; `checked_shl`
                    // keeps even a hypothetically unvalidated plan from
                    // overflowing the shift.
                    debug_assert!(sysno < u64::from(dynacut_vm::SYSCALL_FILTER_BITS));
                    mask |= u32::try_from(sysno)
                        .ok()
                        .and_then(|shift| 1u64.checked_shl(shift))
                        .unwrap_or(0);
                }
                // Signal delivery always needs sigreturn.
                mask |= 1 << (dynacut_vm::Sysno::Sigreturn as u64);
                image.set_syscall_filter(mask);
            }
            // Fold this plan's effects into the staged accumulated
            // state; the handler build below injects its union tables.
            let redirect_acc = staged_redirect_state.entry(pid).or_default();
            redirect_acc.extend(redirects);
            let verify_acc = staged_verify_state.entry(pid).or_default();
            for (addr, byte) in originals {
                verify_acc.entry(addr).or_insert(byte);
            }
        }
        cycle.staged_redirect_state = Some(staged_redirect_state);
        cycle.staged_verify_state = Some(staged_verify_state);
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
        let redirect_state = cycle.staged_redirect_state.as_ref();
        let verify_state = cycle.staged_verify_state.as_ref();
        if plan.fault_policy != FaultPolicy::Terminate {
            for image in &mut checkpoint.procs {
                // One live library per process: the one built below
                // carries the union tables and takes SIGTRAP over, so
                // only a signal frame still live in the image could
                // enter an earlier one. Such an image keeps them until
                // a later cycle finds it at depth 0.
                if image.core.signal_depth == 0 {
                    retire_injected(image, &staged_registry)?;
                }
                let pid = image.core.pid;
                let mut library = match plan.fault_policy {
                    FaultPolicy::Redirect => {
                        build_fault_handler(&union_table(redirect_state, pid))?
                    }
                    FaultPolicy::Verify => build_verifier_library(&union_table(verify_state, pid))?,
                    FaultPolicy::Terminate => unreachable!(),
                };
                staged_injections += 1;
                name_injected(&mut library, staged_injections);
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
    /// still rolls the whole cycle back: the journal rollback undoes the
    /// committed restore first, putting the original (frozen) processes
    /// back to be thawed, and releases the entry.
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
        mark_clean_after_dump(kernel, &cycle.pids)?;
        if fault::hit(FaultPhase::BaselineStore) {
            return Err(DynacutError::FaultInjected(FaultPhase::BaselineStore));
        }
        let bytes = match cycle.journal.last_baseline {
            Some(parent) => self
                .store
                .changed_pages_bytes(parent, id)
                .expect("a displaced baseline stays stored until its cycle commits"),
            None => full_bytes,
        };
        cycle.report.stored_page_bytes = Some(bytes);
        cycle.report.checkpoint_id = Some(id);
        self.baselines.insert(cycle.pids.clone(), id);
        Ok(())
    }

    /// Every stage succeeded: fold the staged session state in, return
    /// the group to normal scheduling and charge the guest-visible
    /// downtime. The cycle's journal is dropped — the originals it would
    /// have resurrected no longer exist.
    fn commit_cycle(
        &mut self,
        kernel: &mut Kernel,
        cycle: CycleState,
        plan: &RewritePlan,
    ) -> CustomizeReport {
        let CycleState {
            pids,
            report,
            journal,
            staged_redirect_state,
            staged_verify_state,
            staged_registry,
            staged_injections,
            ..
        } = cycle;
        // The commit releases the entry it leaves behind, so the store
        // holds one entry per group: an incremental cycle keeps its own
        // as the group's baseline and drops the one it displaced, any
        // other cycle keeps none. Never earlier: a failed cycle or a
        // demoted canary puts the displaced baseline back.
        let spent = if self.incremental {
            journal.last_baseline
        } else {
            journal.stored
        };
        if let Some(id) = spent {
            self.store
                .release(id)
                .expect("a cycle's spent entry is still stored");
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
        // Count future SIGTRAP hits on the targets under the policy that
        // planted the trap bytes, and fold this cycle's counts into the
        // metrics registry.
        let trap_hits = match plan.fault_policy {
            FaultPolicy::Redirect => Counter::TrapHitsRedirect,
            FaultPolicy::Verify => Counter::TrapHitsVerify,
            FaultPolicy::Terminate => Counter::TrapHitsTerminate,
        };
        for &pid in &pids {
            kernel.set_trap_policy(pid, trap_hits);
        }
        set_group_class(kernel, &pids, SchedClass::Normal);
        let metrics = kernel.flight_mut().metrics_mut();
        metrics.add(Counter::CustomizeCommits, 1);
        metrics.add(Counter::BlocksPatched, report.blocks_disabled as u64);
        metrics.add(Counter::BytesPatched, report.bytes_written);
        metrics.add(
            Counter::PagesPrecopiedBytes,
            report.prewritten_page_bytes as u64,
        );
        metrics.add(Counter::PagesFrozenBytes, report.frozen_page_bytes as u64);
        metrics.add(
            Counter::PagesRestoreCopiedBytes,
            report.restore_copied_bytes as u64,
        );
        metrics.add(Counter::Injections, report.handler_bases.len() as u64);
        kernel.record_flight(None, EventKind::CustomizeCommit);
        kernel.advance_clock(plan.downtime.charge_ns(report.timings().total()));
        report
    }
}

/// What one promoted replica group cost.
#[derive(Debug, Clone)]
pub struct PromotedReplica {
    /// The group's pids.
    pub pids: Vec<Pid>,
    /// Host wall-clock from this group's freeze to its thaw — the whole
    /// downtime a promoted replica experiences. No dump, no rewrite and
    /// no page copy happens inside it: the window installs the canary's
    /// code changes in place, so it is flat in fleet size.
    pub freeze_window: Duration,
    /// Page bytes the promotion physically copied for this group. Every
    /// installed page is a store frame, so this is 0; the rollout
    /// figure gates on it.
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
    /// Falsely-blocked addresses the soak read through
    /// [`DynaCut::verifier_reports`]: every report journalled since the
    /// session last read them, so one from before the rollout that the
    /// session never read counts too. A report the journal evicted
    /// before the soak read it still demotes the canary, but its
    /// address is not here.
    pub verifier_reports: Vec<u64>,
    /// SIGTRAP hits on the canary during the soak. Under
    /// [`FaultPolicy::Verify`] every one self-healed and produced a
    /// report.
    pub trap_hits: u64,
    /// What each promoted replica group cost, in promotion order (empty
    /// on demotion). Each group took the canary's code changes and kept
    /// its own registers, descriptors and data.
    pub promoted: Vec<PromotedReplica>,
    /// Page bytes the whole promotion wave physically copied — 0 when
    /// every installed page came out of the shared store.
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
    /// * **Clean soak** — the canary cycle's code changes are promoted
    ///   onto every remaining group via
    ///   [`CanaryEdit::promote`](dynacut_criu::CanaryEdit::promote),
    ///   computed once before the first window: one tiny freeze window
    ///   per replica group (serialized, with
    ///   serve slices pumped between) patches each replica in place with
    ///   the changed boot text pages, the new verifier library, the
    ///   retirement of its own earlier libraries, and the canary's
    ///   SIGTRAP disposition, syscall filter and module list. The
    ///   replica keeps its registers, descriptors, data, stack and
    ///   block cache, and resumes in the state it was frozen in. No
    ///   per-replica re-dump or re-rewrite, and zero page bytes copied —
    ///   every installed page is a shared frame out of the
    ///   content-addressed store. Only then does the canary cycle
    ///   commit.
    /// * **Any verifier report** (or injected fault) — the canary is
    ///   **demoted** through the PR 2 transaction machinery: the
    ///   committed restore is undone, and the journal rollback
    ///   thaws/unrepairs/re-marks and releases the just-stored baseline
    ///   exactly as for a failed cycle. A failure while promoting
    ///   replica *k* — a replica that does not match the canary
    ///   ([`CriuError::ReplicaMismatch`]), or a kernel error — first
    ///   unwinds replicas `0..k`, each getting back what its window
    ///   displaced, so the fleet is all-or-nothing. The one exception is
    ///   a replica inside a signal handler, which keeps its promotion
    ///   ([`Promotion::undo`](dynacut_criu::Promotion::undo)).
    ///
    /// # Errors
    ///
    /// Fails with [`DynacutError::BadPlan`] unless the plan uses
    /// [`FaultPolicy::Verify`] and no [`BlockPolicy::UnmapPages`] (a
    /// verifier cannot heal an unmapped page, and a promotion replays
    /// no VMA change), the session is incremental, and every group
    /// matches the canary group's size; propagates canary-cycle, soak
    /// and promotion failures after rolling the fleet back to its
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
        if plan.block_policy == BlockPolicy::UnmapPages {
            return Err(DynacutError::BadPlan(
                "rollout rejects BlockPolicy::UnmapPages: an unmapped page faults with \
                 SIGSEGV, which the verifier cannot heal"
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

        // Stage 1 — the canary cycle: the full stage list over
        // groups[0], deliberately *not* committed yet. The canary is
        // live and serving the rewritten image after RestoreCommit, but
        // the journal and the committed-restore receipt stay in hand so
        // a dirty soak can still demote it.
        let cycle = self.run_stages(kernel, self.begin_cycle(&groups[0]), plan, self.stages())?;
        // The soak is the canary's *validation* serving: it must compete
        // for quanta exactly like the replicas it will be promoted onto,
        // so the background tag comes off before the soak pumps.
        set_group_class(kernel, &cycle.pids, SchedClass::Normal);

        // Stage 2 — soak: pump serve slices and watch the canary's
        // verifier reports through the session's cursors: the count
        // decides, so a report the journal evicted still demotes, and
        // the addresses are those the journal still holds.
        let soak = Bracket::open(kernel, &[], Phase::Soak);
        let seq0 = kernel.flight().next_seq();
        let mut reports: Vec<u64> = Vec::new();
        let mut reported = 0u64;
        let mut soaked = 0u64;
        let mut soak_fault = None;
        while soaked < rollout.soak_slices {
            if fault::hit(FaultPhase::CanarySoak) {
                soak_fault = Some(DynacutError::FaultInjected(FaultPhase::CanarySoak));
                break;
            }
            kernel.run_for(rollout.serve_slice_ns);
            soaked += 1;
            let (counted, addrs) = self.read_verifier_reports(kernel);
            reported += counted;
            reports.extend(addrs);
            if reported > 0 {
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
        // The soak stays out of the canary's report: its phases must
        // keep summing to the cycle's cost.
        soak.close(kernel, &[]);
        kernel
            .flight_mut()
            .metrics_mut()
            .add(Counter::RolloutSoakSlices, soaked);

        if soak_fault.is_some() || reported > 0 {
            let canary = cycle.pids.clone();
            let canary_report = cycle.report.clone();
            self.demote_canary(kernel, cycle, reported);
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
        // open: its committed restore holds the pre-edit canary, by
        // which the edit tells the boot modules from the new library.
        // The edit is computed once, before the first window, so each
        // window holds only its group's check and patch. A failure at
        // replica k unwinds replicas 0..k and then demotes the canary,
        // so the fleet is all-or-nothing.
        let ckpt_id = cycle
            .report
            .checkpoint_id
            .expect("incremental canary cycle stored its baseline");
        let registry = cycle
            .staged_registry
            .as_ref()
            .expect("canary cycle staged its registry");
        let canary_restore = cycle
            .journal
            .committed
            .as_ref()
            .expect("canary cycle committed its restore before the soak");
        let mut promoted: Vec<(Vec<Pid>, Promotion, Duration, u64)> =
            Vec::with_capacity(groups.len() - 1);
        let edit = match self
            .store
            .canary_edit(ckpt_id, canary_restore, registry, is_injected)
        {
            Ok(edit) => edit,
            Err(err) => {
                self.demote_canary(kernel, cycle, reported);
                return Err(err.into());
            }
        };
        let mut wave_err: Option<DynacutError> = None;
        for group in &groups[1..] {
            // Background from the window start until the rollout
            // commits (or this group is unwound), as a group is through
            // its own customize cycle.
            set_group_class(kernel, group, SchedClass::Background);
            let bracket = Bracket::open(kernel, group, Phase::Promote);
            let copied_before = self.store.page_store().copied_bytes();
            match promote_group(kernel, &edit, group) {
                Ok(receipt) => {
                    let copied = self.store.page_store().copied_bytes() - copied_before;
                    let window = bracket.close(kernel, group);
                    promoted.push((group.clone(), receipt, window, copied));
                    kernel.run_for(rollout.serve_slice_ns);
                }
                Err(err) => {
                    // The window's PhaseStart stays dangling, as a
                    // failed stage's always does.
                    set_group_class(kernel, group, SchedClass::Normal);
                    wave_err = Some(err);
                    break;
                }
            }
        }

        if let Some(err) = wave_err {
            // Unwind the already-promoted replicas, newest first: each
            // is frozen again, gets back what its window displaced, and
            // is thawed back to the scheduler state it was frozen in.
            for (group, receipt, _, _) in promoted.into_iter().rev() {
                for &pid in &group {
                    let _ = kernel.freeze(pid);
                }
                unwind(
                    kernel,
                    Some(Receipt::Promotion(receipt)),
                    group.iter().rev().copied(),
                );
                set_group_class(kernel, &group, SchedClass::Normal);
            }
            self.demote_canary(kernel, cycle, reported);
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
            set_group_class(kernel, &pids, SchedClass::Normal);
            for &pid in &pids {
                kernel.set_trap_policy(pid, Counter::TrapHitsVerify);
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
        kernel
            .flight_mut()
            .metrics_mut()
            .add(Counter::RolloutPromotions, 1);
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
    fn demote_canary(&mut self, kernel: &mut Kernel, mut cycle: CycleState, reports: u64) {
        let committed = cycle
            .journal
            .committed
            .take()
            .expect("canary cycle committed its restore before the soak");
        unwind(
            kernel,
            Some(Receipt::Restore(committed)),
            std::iter::empty(),
        );
        self.baselines.remove(&cycle.pids);
        kernel.record_flight(None, EventKind::CanaryDemoted { reports });
        kernel
            .flight_mut()
            .metrics_mut()
            .add(Counter::RolloutDemotions, 1);
        self.abort_cycle(kernel, cycle);
    }
}
