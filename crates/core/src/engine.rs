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
use crate::session::{in_freeze_window, thaw_journalled, CustomizeReport, TxnJournal};
use crate::{DynaCut, DynacutError};
use dynacut_criu::{
    dump_many, mark_clean_after_dump, pre_dump, CanaryEdit, CheckpointImage, CriuError,
    ModuleRegistry, PreDumpStats, ProcessImage, Promotion, RestoreTransaction,
};
use dynacut_vm::fault::{self, FaultPhase};
use dynacut_vm::{Counter, EventKind, Kernel, Phase, Pid, SchedClass, SigAction, Signal};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// The draw that places an injected library: the first `u64` that
/// `rand`'s `StdRng::seed_from_u64(seed)` draws. That
/// generator is xoshiro256** over four splitmix64 outputs of the seed,
/// and its first output reads only the second of them, `s1`.
fn placement_draw(seed: u64) -> u64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = seed.wrapping_add(GAMMA.wrapping_mul(2));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let s1 = z ^ (z >> 31);
    s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

/// Tags every process of a group with a scheduling class. Cycle work
/// pumps serve slices between stages, and a group mid-customize
/// (post-restore catch-up bursts, repair-mode drains) must not steal
/// quanta from replicas that are purely serving — the MLFQ pins
/// [`SchedClass::Background`] processes to its bottom level. The tag is
/// host-side scheduler state only: it survives the remove/insert swap of
/// a restore and never reaches a fingerprint or checkpoint, so tagging
/// cannot perturb the transactional parity guarantees.
pub(crate) fn set_group_class(kernel: &mut Kernel, pids: &[Pid], class: SchedClass) {
    for &pid in pids {
        kernel.set_sched_class(pid, class);
    }
}

/// The one check of a cycle's targets, before anything touches the
/// kernel. An empty group would commit a cycle over nothing and charge
/// its downtime. A pid named twice, within a group or across groups,
/// would be dumped, restored and journalled twice, so its rollback could
/// not put it back, and a rollout would promote the canary onto itself.
fn check_targets<'a>(groups: impl IntoIterator<Item = &'a [Pid]>) -> Result<(), DynacutError> {
    let mut seen = BTreeSet::new();
    for group in groups {
        if group.is_empty() {
            return Err(DynacutError::BadPlan("a target group names no pid".into()));
        }
        if let Some(pid) = group.iter().find(|&&pid| !seen.insert(pid)) {
            return Err(DynacutError::BadPlan(format!("{pid} is named twice")));
        }
    }
    Ok(())
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
        thaw_journalled(kernel, frozen.into_iter().rev());
    }
    landed
}

/// Unloads every library an earlier injection put into `image` —
/// "unused shared library code can be dynamically unloaded through the
/// process rewriting approach" (paper §5). The registry keeps their
/// binaries until the commit finds that nothing maps them: a demoted
/// rollout's replicas, or an image skipped for a live signal frame, may
/// still map one.
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
/// undo journal of every edit the stages made, in the kernel and in the
/// session, and the checkpoint being edited.
pub(crate) struct CycleState {
    pub(crate) pids: Vec<Pid>,
    pub(crate) report: CustomizeReport,
    pub(crate) journal: TxnJournal,
    begun: bool,
    checkpoint: Option<CheckpointImage>,
    txn: Option<RestoreTransaction>,
}

impl CycleState {
    /// A new cycle over one process group.
    fn new(pids: &[Pid]) -> CycleState {
        CycleState {
            pids: pids.to_vec(),
            report: CustomizeReport::default(),
            journal: TxnJournal::default(),
            begun: false,
            checkpoint: None,
            txn: None,
        }
    }

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
    /// Page bytes left for the freeze windows, fleet-wide (see
    /// [`CustomizeReport::frozen_page_bytes`]).
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
    /// before, during, or after the restore swap — one undo journal puts
    /// back everything the attempt edited. The kernel returns to exactly
    /// its pre-customization state (processes alive and thawed to their
    /// prior scheduler states, TCP connections out of repair mode, dirty
    /// bitmaps and the incremental baseline restored), and so does this
    /// session (registry, handler records, injection counter), so
    /// retrying the same plan afterwards behaves as if the failed attempt
    /// never happened: it injects under the same name, at the same base.
    ///
    /// A commit forgets what nothing live uses: the handler records of
    /// exited processes, the baselines of groups with no live process,
    /// and every injected library that neither a live process nor a
    /// store entry maps ([`DynaCut::registry`]).
    ///
    /// # Errors
    ///
    /// Fails on plan validation, an empty `pids` or a pid named twice
    /// ([`DynacutError::BadPlan`]), missing processes/modules, or
    /// image-editing errors. The kernel is always left as described
    /// above.
    pub fn customize(
        &mut self,
        kernel: &mut Kernel,
        pids: &[Pid],
        plan: &RewritePlan,
    ) -> Result<CustomizeReport, DynacutError> {
        plan.validate()?;
        check_targets([pids])?;
        let cycle = self.run_stages(kernel, CycleState::new(pids), plan, self.stages())?;
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
    /// Fails on plan validation, an empty group or a pid named twice
    /// within a group or across groups ([`DynacutError::BadPlan`]), or
    /// on the first group whose cycle fails, with the rollback semantics
    /// above. No groups at all is an empty report.
    pub fn customize_fleet(
        &mut self,
        kernel: &mut Kernel,
        groups: &[Vec<Pid>],
        plan: &RewritePlan,
    ) -> Result<FleetReport, DynacutError> {
        plan.validate()?;
        check_targets(groups.iter().map(Vec::as_slice))?;
        let started = Instant::now();
        let stages = self.stages();
        // Both stage lists `stages` returns hold `Phase::Freeze`.
        let freeze = stages
            .iter()
            .position(|&phase| in_freeze_window(phase))
            .expect("every cycle freezes");
        let (live, window) = stages.split_at(freeze);
        let mut cycles: VecDeque<CycleState> =
            groups.iter().map(|group| CycleState::new(group)).collect();

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
            // Incremental mode, phase one: copy every private page into
            // a shared frame, in place, while the guest still runs, so
            // the freeze copies only the dirty residue. The pre-dump
            // sweeps the dirty bitmap; snapshot it first so a failed
            // cycle can restore it (with the bits intact, the old
            // baseline stays valid across the failure).
            Phase::PreDump => {
                for index in 0..cycle.pids.len() {
                    let pid = cycle.pids[index];
                    let dirty = kernel.process(pid)?.mem.dirty_pages().collect();
                    cycle.journal.saved_dirty.push((pid, dirty));
                }
                pre_dump(kernel, &cycle.pids)?;
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
            // An incremental cycle pre-dumped, so the dump copies no
            // clean page and only the dirty ones count as frozen; a full
            // dump counts every page as frozen.
            Phase::Dump => {
                let checkpoint = dump_many(kernel, &cycle.pids, &self.dump_options)?;
                let stats = if self.incremental {
                    PreDumpStats::of(kernel, &checkpoint)?
                } else {
                    PreDumpStats {
                        frozen_page_bytes: checkpoint.pages_bytes(),
                        prewritten_page_bytes: 0,
                    }
                };
                cycle.report.frozen_page_bytes = stats.frozen_page_bytes;
                cycle.report.prewritten_page_bytes = stats.prewritten_page_bytes;
                // The paper checkpoints "into an in-memory filesystem,
                // i.e., tmpfs"; here the checkpoint stays in memory and
                // is never serialized, so only its encoded size is
                // reported.
                cycle.report.image_bytes = checkpoint.encoded_len();
                cycle.checkpoint = Some(checkpoint);
                Ok(())
            }
            // Both edit the session in place: the handler records, the
            // registry and the injection counter. The journal records
            // what each edit displaced, so a failure anywhere puts
            // `self` back exactly as it was.
            Phase::ImageEdit => self.stage_image_edit(cycle, plan),
            Phase::Inject => self.stage_inject(kernel, cycle, plan),
            // Staged: every replacement process is fully built before
            // the first original is touched, and the swap itself rolls
            // back on a mid-commit failure (see `RestoreTransaction`).
            Phase::RestorePrepare => {
                // Stage order: the dump stage set the checkpoint, and
                // only the baseline store, after this stage, takes it.
                let checkpoint = cycle.checkpoint.as_ref().expect("dump stage ran");
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
                // The bytes were copied into this process's memory, so
                // their count fits in usize.
                cycle.report.restore_copied_bytes =
                    usize::try_from(self.store.page_store().copied_bytes() - copied_before)
                        .expect("bytes copied into memory fit in usize");
                cycle.txn = Some(self.store.stage_restore(kernel, id, &self.registry)?);
                Ok(())
            }
            Phase::RestoreCommit => {
                // Stage order: restore-prepare, just before, set it.
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
    /// each process's handler record, which the journal holds as it was
    /// first. A block or redirect target outside its module's text fails
    /// the stage before any image is edited.
    fn stage_image_edit(
        &mut self,
        cycle: &mut CycleState,
        plan: &RewritePlan,
    ) -> Result<(), DynacutError> {
        check_in_text(plan, &self.registry)?;
        // Stage order: the dump stage, just before, set it.
        let checkpoint = cycle.checkpoint.as_mut().expect("dump stage ran");
        for image in &mut checkpoint.procs {
            if fault::hit(FaultPhase::ImageEdit) {
                return Err(DynacutError::FaultInjected(FaultPhase::ImageEdit));
            }
            let pid = image.core.pid;
            let before = self.handlers.get(&pid).cloned();
            cycle.journal.handlers.push((pid, before));
            let record = self.handlers.entry(pid).or_default();
            let mut original_text = OriginalText::new();
            for feature in &plan.enable {
                let Some(module) = image.core.modules.iter().find(|m| m.name == feature.module)
                else {
                    continue;
                };
                let base = module.base;
                enable_in_image(image, feature, &self.registry, &mut original_text)?;
                cycle.report.blocks_enabled += feature.blocks.len();
                // Re-enabled addresses leave the record.
                let in_feature = |addr: u64| {
                    feature
                        .blocks
                        .iter()
                        .any(|b| addr >= base + b.addr && addr < base + b.range().end)
                };
                record.redirects.retain(|addr, _| !in_feature(*addr));
                record.originals.retain(|addr, _| !in_feature(*addr));
            }
            let mut originals: Vec<(u64, u8)> = Vec::new();
            for feature in &plan.disable {
                if !image.core.modules.iter().any(|m| m.name == feature.module) {
                    continue;
                }
                let outcome = disable_in_image(image, feature, plan.block_policy)?;
                cycle.report.blocks_disabled += outcome.blocks;
                cycle.report.bytes_written += outcome.bytes_written;
                cycle.report.pages_unmapped += outcome.pages_unmapped;
                record.redirects.extend(outcome.redirects);
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
            // A byte patched twice keeps the original from before the
            // first patch.
            for (addr, byte) in originals {
                record.originals.entry(addr).or_insert(byte);
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
        }
        Ok(())
    }

    /// Builds and injects the fault-handler/verifier library into every
    /// image and points the `SIGTRAP` sigaction at it. Each library is
    /// registered under its `dc_*@N` name and the injection counter
    /// advances, both journalled.
    fn stage_inject(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
        plan: &RewritePlan,
    ) -> Result<(), DynacutError> {
        // Stage order: the dump stage set it, before the image edit.
        let checkpoint = cycle.checkpoint.as_mut().expect("dump stage ran");
        if plan.fault_policy != FaultPolicy::Terminate {
            cycle.journal.injections = Some(self.injections);
            for image in &mut checkpoint.procs {
                // One live library per process: the one built below
                // carries the whole record and takes SIGTRAP over, so
                // only a signal frame still live in the image could
                // enter an earlier one. Such an image keeps them until
                // a later cycle finds it at depth 0.
                if image.core.signal_depth == 0 {
                    retire_injected(image, &self.registry)?;
                }
                let pid = image.core.pid;
                let tables = self.handlers.get(&pid).cloned().unwrap_or_default();
                let mut library = match plan.fault_policy {
                    FaultPolicy::Redirect => {
                        build_fault_handler(&Vec::from_iter(tables.redirects))?
                    }
                    FaultPolicy::Verify => {
                        build_verifier_library(&Vec::from_iter(tables.originals))?
                    }
                    FaultPolicy::Terminate => unreachable!(),
                };
                self.injections += 1;
                name_injected(&mut library, self.injections);
                // "By default, DynaCut loads the shared library into a
                // randomized but unused location" (paper §3.2.1). The
                // draw is seeded per injection so runs stay
                // reproducible.
                let base = {
                    let window_pages: u64 = 1 << 18; // a 1 GiB placement window
                    let seed = 0xD1AC_0DE5 ^ (self.injections << 8) ^ u64::from(pid.0);
                    let hint = 0x6000_0000_0000u64
                        + (placement_draw(seed) % window_pages) * dynacut_obj::PAGE_SIZE;
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
                let base = image.inject_library(&library, Some(base), &self.registry)?;
                let handler = base + library.symbols["dc_handler"].offset;
                let restorer = base + library.symbols["dc_restorer"].offset;
                cycle.journal.registered.push(library.name.clone());
                self.registry.insert(std::sync::Arc::new(library));
                image.set_sigaction(
                    Signal::Sigtrap,
                    SigAction {
                        handler,
                        restorer,
                        mask: 0,
                    },
                );
                cycle.report.handler_bases.push((pid, base));
            }
        }
        for &(pid, base) in &cycle.report.handler_bases {
            kernel.record_flight(Some(pid), EventKind::LibraryInjected { base });
        }
        Ok(())
    }

    /// The restored memory now equals the edited checkpoint on every
    /// clean page, so sweep the bitmap and name the entry the restore
    /// was staged from as the cycle's checkpoint, which the commit
    /// adopts as the group's new baseline. The cycle reports as stored
    /// the pages that are new or changed since the group's previous
    /// baseline; the rest are shared with it. A failure here still rolls
    /// the whole cycle back: the journal rollback undoes the committed
    /// restore first, putting the original (frozen) processes back to
    /// be thawed, and releases the entry.
    fn stage_baseline_store(
        &mut self,
        kernel: &mut Kernel,
        cycle: &mut CycleState,
    ) -> Result<(), DynacutError> {
        // Stage order: restore-prepare put the entry, and the dump
        // stage set the checkpoint, which only this stage takes.
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
            Some(parent) => self.store.changed_pages_bytes(parent, id)?,
            None => full_bytes,
        };
        cycle.report.stored_page_bytes = Some(bytes);
        cycle.report.checkpoint_id = Some(id);
        Ok(())
    }

    /// Every stage succeeded: adopt the cycle's checkpoint as its
    /// group's baseline, release the cycle's spent store entry, give
    /// each group a rollout promoted the canary's handler record, forget
    /// what nothing live uses, return every group the cycle changed to
    /// normal scheduling under the plan's trap counter and charge the
    /// guest-visible downtime. The session already holds the cycle's
    /// edits; its journal is dropped, which keeps every promotion — the
    /// originals it would have resurrected no longer exist.
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
            ..
        } = cycle;
        if let Some(id) = report.checkpoint_id {
            self.baselines.insert(pids.clone(), id);
        }
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
            // The cycle's own entry, or the baseline its pre-dump took
            // out of the map: no other commit can have released either.
            self.store
                .release(id)
                .expect("a cycle's spent entry is still stored");
        }
        // A promoted replica runs the canary's library over the canary's
        // traps, so the next library a cycle builds for it must know
        // them. The edit paired the canary image's i-th process with
        // each group's i-th pid, and the dump kept the canary's pid
        // order.
        for (group, _) in &journal.promoted {
            for (canary, &pid) in pids.iter().zip(group) {
                if let Some(record) = self.handlers.get(canary).cloned() {
                    self.handlers.insert(pid, record);
                }
            }
        }
        self.forget_the_dead(kernel);
        // Count future SIGTRAP hits on every changed process under the
        // policy that planted the trap bytes, and fold this cycle's
        // counts into the metrics registry.
        let trap_hits = match plan.fault_policy {
            FaultPolicy::Redirect => Counter::TrapHitsRedirect,
            FaultPolicy::Verify => Counter::TrapHitsVerify,
            FaultPolicy::Terminate => Counter::TrapHitsTerminate,
        };
        let promoted = journal.promoted.iter().map(|(group, _)| group);
        for group in std::iter::once(&pids).chain(promoted) {
            for &pid in group {
                kernel.set_trap_policy(pid, trap_hits);
            }
            set_group_class(kernel, group, SchedClass::Normal);
        }
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
    /// serves for [`RolloutPlan::soak_slices`] slices, and the whole
    /// rollout is that one transaction: every landed promotion joins
    /// the journal, one rollback demotes the rollout and one commit
    /// commits it.
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
    ///   commit, and with it each promoted group, which takes the
    ///   canary's handler record and trap counter.
    /// * **Any verifier report** (or injected fault) — the canary is
    ///   **demoted**: its journal's rollback undoes the committed
    ///   restore, thaws, unrepairs, re-marks and releases the
    ///   just-stored entry exactly as for a failed cycle. A failure
    ///   while promoting replica *k* — a replica that does not match
    ///   the canary ([`CriuError::ReplicaMismatch`]), or a kernel error
    ///   — demotes the canary too, and the same rollback first undoes
    ///   replicas `0..k`, newest first, each getting back what its
    ///   window displaced, so the fleet is all-or-nothing. The one
    ///   exception is a replica inside a signal handler, which keeps its
    ///   promotion ([`Promotion::undo`](dynacut_criu::Promotion::undo)):
    ///   it takes the canary's handler record, the library it maps stays
    ///   registered, and no later injection reuses that library's name.
    ///
    /// # Errors
    ///
    /// Fails with [`DynacutError::BadPlan`] unless the plan uses
    /// [`FaultPolicy::Verify`] and no [`BlockPolicy::UnmapPages`] (a
    /// verifier cannot heal an unmapped page, and a promotion replays
    /// no VMA change), the session is incremental, there is a group,
    /// no group is empty, every group matches the canary group's size
    /// and no pid is named twice;
    /// propagates canary-cycle, soak
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
        check_targets(groups.iter().map(Vec::as_slice))?;
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
        let mut cycle =
            self.run_stages(kernel, CycleState::new(&groups[0]), plan, self.stages())?;
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
        // window holds only its group's check and patch. Each landed
        // window joins the canary cycle's journal, so a failure at
        // replica k demotes the canary and replicas 0..k in one
        // rollback: the fleet is all-or-nothing.
        //
        // The rollout checked above that the session is incremental, so
        // the canary's stage list ended with the baseline store, which
        // set the id, after the restore commit, which set the receipt.
        let ckpt_id = cycle
            .report
            .checkpoint_id
            .expect("incremental canary cycle stored its baseline");
        let canary_restore = cycle
            .journal
            .committed
            .as_ref()
            .expect("canary cycle committed its restore before the soak");
        let mut promoted = Vec::with_capacity(groups.len() - 1);
        let wave = self
            .store
            .canary_edit(ckpt_id, canary_restore, &self.registry, is_injected)
            .map_err(DynacutError::from)
            .and_then(|edit| {
                for group in &groups[1..] {
                    // Background from the window start until the rollout
                    // commits or rolls back, as a group is through its
                    // own customize cycle.
                    set_group_class(kernel, group, SchedClass::Background);
                    let bracket = Bracket::open(kernel, group, Phase::Promote);
                    let copied_before = self.store.page_store().copied_bytes();
                    let receipt = match promote_group(kernel, &edit, group) {
                        Ok(receipt) => receipt,
                        Err(err) => {
                            // The window's PhaseStart stays dangling, as a
                            // failed stage's always does.
                            set_group_class(kernel, group, SchedClass::Normal);
                            return Err(err);
                        }
                    };
                    let copied_bytes = self.store.page_store().copied_bytes() - copied_before;
                    let freeze_window = bracket.close(kernel, group);
                    cycle.journal.promoted.push((group.clone(), receipt));
                    promoted.push(PromotedReplica {
                        pids: group.clone(),
                        freeze_window,
                        copied_bytes,
                    });
                    kernel.run_for(rollout.serve_slice_ns);
                }
                Ok(())
            });
        if let Err(err) = wave {
            self.demote_canary(kernel, cycle, reported);
            return Err(err);
        }

        // Stage 4 — commit: the canary cycle commits, and with it every
        // group its journal promoted.
        let canary = cycle.pids.clone();
        let canary_report = self.commit_cycle(kernel, cycle, plan);
        kernel.record_flight(
            None,
            EventKind::CanaryPromoted {
                replicas: promoted.iter().map(|group| group.pids.len()).sum(),
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
            promotion_copied_bytes: promoted.iter().map(|group| group.copied_bytes).sum(),
            promoted,
            wall: started.elapsed(),
        })
    }

    /// Demotes a held-open canary cycle and every promotion its journal
    /// holds: journals [`EventKind::CanaryDemoted`], counts the
    /// demotion and rolls the cycle back, so the decision comes before
    /// its rollback's steps and `CustomizeRollback` stays the terminal
    /// event.
    fn demote_canary(&mut self, kernel: &mut Kernel, cycle: CycleState, reports: u64) {
        kernel.record_flight(None, EventKind::CanaryDemoted { reports });
        kernel
            .flight_mut()
            .metrics_mut()
            .add(Counter::RolloutDemotions, 1);
        self.abort_cycle(kernel, cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Downtime, Feature};
    use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
    use dynacut_vm::LoadSpec;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The placement draw is the first `u64` `StdRng` draws, for the
    /// seeds the inject stage forms and for a spread of others, so every
    /// handler base stays where the generator put it.
    #[test]
    fn placement_draw_is_the_first_std_rng_draw() {
        let injected = (1..=256u64)
            .flat_map(|injection| [1u32, 2, 9].map(|pid| (injection, pid)))
            .map(|(injection, pid)| 0xD1AC_0DE5 ^ (injection << 8) ^ u64::from(pid));
        let spread = (0..64u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::MAX >> k));
        for seed in injected.chain(spread).chain([0, 1, u64::MAX]) {
            let drawn: u64 = rand::rngs::StdRng::seed_from_u64(seed).gen();
            assert_eq!(placement_draw(seed), drawn, "seed {seed:#x}");
        }
    }

    /// A commit keeps a handler record only for a live process: after
    /// one customized replica is killed and another is taken out of the
    /// kernel, a cycle on the third leaves that one's record alone.
    #[test]
    fn a_commit_leaves_no_record_of_a_dead_pid() {
        let libc = guest_libc();
        let mut kernel = Kernel::new();
        kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
        let spec = LoadSpec::with_libs(redis::image(&libc), vec![libc]);
        let mut registry = ModuleRegistry::new();
        registry.insert(Arc::clone(&spec.exe));
        for lib in &spec.libs {
            registry.insert(Arc::clone(lib));
        }
        let mut pids = Vec::new();
        for _ in 0..3 {
            pids.push(kernel.spawn(&spec).unwrap());
            kernel.run_until_event(EVENT_READY, 500_000_000).unwrap();
        }
        let set = Feature::from_function("SET", &spec.exe, "rd_cmd_set")
            .unwrap()
            .redirect_to_function(&spec.exe, redis::ERROR_HANDLER)
            .unwrap();
        let plan = |disable: bool| {
            let plan = if disable {
                RewritePlan::new().disable(set.clone())
            } else {
                RewritePlan::new().enable(set.clone())
            };
            plan.with_fault_policy(FaultPolicy::Redirect)
                .with_downtime(Downtime::None)
        };
        let mut dynacut = DynaCut::new(registry);
        for &pid in &pids {
            dynacut.customize(&mut kernel, &[pid], &plan(true)).unwrap();
        }
        assert_eq!(dynacut.handlers.keys().copied().collect::<Vec<_>>(), pids);

        let (killed, gone, live) = (pids[0], pids[1], pids[2]);
        kernel.post_signal(killed, Signal::Sigkill).unwrap();
        kernel.run_until_exit(killed, 10_000_000).unwrap();
        kernel.remove_process(gone).unwrap();
        dynacut
            .customize(&mut kernel, &[live], &plan(false))
            .unwrap();
        assert_eq!(
            dynacut.handlers.keys().copied().collect::<Vec<_>>(),
            vec![live],
            "no record of a dead pid is left"
        );
        assert_eq!(dynacut.handlers[&live], Default::default());
    }
}
