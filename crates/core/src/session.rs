//! The DynaCut session: framework state, reports, and the transaction
//! journal. The customize cycle itself is decomposed into explicit
//! stages driven by the scheduler in `engine.rs` ([`Stage`](crate::Stage)).

use crate::handler::VERIFIER_EVENT_BIT;
use crate::plan::RewritePlan;
use crate::DynacutError;
use dynacut_criu::{CheckpointStore, CkptId, DumpOptions, ModuleRegistry};
use dynacut_vm::{EventKind, Kernel, Phase, Pid, RollbackStep};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock timing breakdown of one customization, matching the legend
/// of the paper's Figure 6 (checkpoint / disable code w/ int3 / insert
/// sighandler / restore).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Freezing and dumping the process(es), including serialising the
    /// images to the in-memory tmpfs store.
    pub checkpoint: Duration,
    /// Editing the images: trap bytes, wipes, unmaps, restores.
    pub disable_code: Duration,
    /// Building and injecting the fault-handler/verifier library and
    /// patching the sigaction.
    pub insert_sighandler: Duration,
    /// Restoring the process(es).
    pub restore: Duration,
}

impl Timings {
    /// Total service-interruption time.
    pub fn total(&self) -> Duration {
        self.checkpoint + self.disable_code + self.insert_sighandler + self.restore
    }
}

/// What a customization did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CustomizeReport {
    /// Timing breakdown.
    pub timings: Timings,
    /// Distinct basic blocks disabled or removed.
    pub blocks_disabled: usize,
    /// `int3` bytes written.
    pub bytes_written: u64,
    /// Whole pages unmapped.
    pub pages_unmapped: u64,
    /// Blocks re-enabled.
    pub blocks_enabled: usize,
    /// Encoded checkpoint size in bytes, [`CheckpointImage::encoded_len`]:
    /// the tmpfs image footprint, computed without serializing.
    ///
    /// [`CheckpointImage::encoded_len`]: dynacut_criu::CheckpointImage::encoded_len
    pub image_bytes: usize,
    /// Base address the handler library was injected at, per process.
    pub handler_bases: Vec<(Pid, u64)>,
    /// Page bytes copied while the processes were frozen. Without
    /// incremental mode this is the whole page payload; with
    /// [`DynaCut::with_incremental`] the pre-dump moves clean pages
    /// before the freeze and only the dirty residue lands here.
    pub frozen_page_bytes: usize,
    /// Page bytes the pre-dump copied while the guest was still running
    /// (zero without incremental mode).
    pub prewritten_page_bytes: usize,
    /// Page bytes of the stored checkpoint that are absent from, or
    /// different in, the group's previous baseline — the pages it does
    /// not share with that baseline — or the full payload for a group's
    /// first baseline. The store entry itself is flat and lists every
    /// page; the unchanged ones are shared with the previous baseline
    /// and copy nothing. `None` without incremental mode (no baseline
    /// is kept).
    pub stored_page_bytes: Option<usize>,
    /// Page bytes the restore phase **physically copied**: only
    /// first-sight page interns — pages the content-addressed store had
    /// never seen — while every other restored page is backed by a
    /// shared frame and copied only if a later guest write CoW-faults
    /// it. The `figures restore` experiment gates on its ratio to
    /// [`stored_page_bytes`](CustomizeReport::stored_page_bytes), the
    /// payload a byte-copying restore would move.
    pub restore_copied_bytes: usize,
    /// Id of the stored checkpoint, kept as the group's baseline
    /// (incremental mode only).
    pub checkpoint_id: Option<CkptId>,
    /// Fine-grained per-phase durations, in execution order — the same
    /// phases the flight recorder journals ([`Phase`]). Sums to the
    /// cycle's wall-clock cost by construction; the coarse [`Timings`]
    /// buckets above group these into the paper's Figure 6 legend.
    pub phases: Vec<(Phase, Duration)>,
}

impl CustomizeReport {
    /// Sum of every journalled phase duration — the cycle's total
    /// wall-clock cost, by construction equal to summing
    /// [`CustomizeReport::phases`].
    pub fn phase_total(&self) -> Duration {
        self.phases.iter().map(|(_, elapsed)| *elapsed).sum()
    }

    /// This process group's **freeze window**: the summed durations of
    /// the phases its processes spent frozen (freeze through restore
    /// commit). The pre-dump runs while the guest serves and the
    /// baseline store runs after the restored processes are already
    /// live, so neither counts.
    pub fn freeze_window(&self) -> Duration {
        self.phases
            .iter()
            .filter(|(phase, _)| {
                matches!(
                    phase,
                    Phase::Freeze
                        | Phase::Dump
                        | Phase::ImageEdit
                        | Phase::Inject
                        | Phase::RestorePrepare
                        | Phase::RestoreCommit
                )
            })
            .map(|(_, elapsed)| *elapsed)
            .sum()
    }
}

/// Journals a phase start in the flight recorder and returns the
/// wall-clock anchor its matching [`end_phase`] measures from. A
/// `PhaseStart` with no `PhaseEnd` in the journal marks the phase a
/// failed cycle died in.
pub(crate) fn start_phase(kernel: &mut Kernel, phase: Phase) -> Instant {
    kernel.record_flight(None, EventKind::PhaseStart { phase });
    Instant::now()
}

/// Journals a successful phase end and appends its duration to the
/// report's per-phase breakdown.
pub(crate) fn end_phase(
    kernel: &mut Kernel,
    report: &mut CustomizeReport,
    phase: Phase,
    started: Instant,
) {
    let elapsed = started.elapsed();
    kernel.record_flight(
        None,
        EventKind::PhaseEnd {
            phase,
            duration_ns: elapsed.as_nanos() as u64,
        },
    );
    report.phases.push((phase, elapsed));
}

/// Pre-customization state one customize attempt must restore on
/// failure (DESIGN §5): which pids it froze, the dirty-page bits the
/// pre-dump swept, the incremental baseline it displaced (keyed by the
/// process group that owned it), and the store entry it put.
pub(crate) struct TxnJournal {
    pub(crate) frozen: Vec<Pid>,
    pub(crate) saved_dirty: Vec<(Pid, Vec<u64>)>,
    pub(crate) baseline_key: Vec<Pid>,
    pub(crate) last_baseline: Option<CkptId>,
    /// The edited checkpoint's store entry, put by the restore-prepare
    /// stage; the attempt's only store references.
    pub(crate) stored: Option<CkptId>,
}

/// The DynaCut framework handle: a module registry (the "binaries on
/// disk") plus dump options.
#[derive(Debug, Clone)]
pub struct DynaCut {
    pub(crate) registry: ModuleRegistry,
    pub(crate) dump_options: DumpOptions,
    /// Incremental checkpointing: pre-dump clean pages while the guest
    /// runs and store each cycle's checkpoint as the next baseline.
    pub(crate) incremental: bool,
    /// Checkpoint store, backed by a content-addressed page store shared
    /// across every group this session customizes. Every cycle puts its
    /// edited checkpoint here once and restores from that entry; only
    /// incremental cycles keep it, as the group's baseline.
    pub(crate) store: CheckpointStore,
    /// Per process group, the stored checkpoint its dirty bitmaps are
    /// clean against: the edited image restored by the group's previous
    /// customization. A map entry is removed when a cycle displaces it
    /// and re-inserted if that cycle fails.
    pub(crate) baselines: BTreeMap<Vec<Pid>, CkptId>,
    pub(crate) injections: u64,
    /// Per-pid accumulated redirect table (blocked addr → resume addr):
    /// every injected handler carries the union of all still-blocked
    /// features, not just the current plan's, so repeated customizations
    /// compose.
    pub(crate) redirect_state: BTreeMap<Pid, BTreeMap<u64, u64>>,
    /// Per-pid accumulated verifier table (patched addr → original byte).
    pub(crate) verify_state: BTreeMap<Pid, BTreeMap<u64, u8>>,
}

impl DynaCut {
    /// Creates a framework instance over the given binary registry.
    pub fn new(registry: ModuleRegistry) -> Self {
        DynaCut {
            registry,
            dump_options: DumpOptions::default(),
            incremental: false,
            store: CheckpointStore::new(),
            baselines: BTreeMap::new(),
            injections: 0,
            redirect_state: BTreeMap::new(),
            verify_state: BTreeMap::new(),
        }
    }

    /// Overrides the dump options (e.g. [`DumpOptions::stock_criu`] to
    /// reproduce the lost-rewrite failure mode).
    pub fn with_dump_options(mut self, options: DumpOptions) -> Self {
        self.dump_options = options;
        self
    }

    /// Enables incremental checkpointing for disable/enable cycles: each
    /// customization pre-dumps clean pages while the guest still runs
    /// (shrinking the freeze window to the dirty residue) and stores the
    /// checkpoint in the content-addressed [`CheckpointStore`], where
    /// pages unchanged since the previous one are shared, not copied.
    /// Full dumps remain the default.
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// The checkpoint store accumulated by incremental customizations.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The registry of binaries.
    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
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
    /// The cycle runs as the staged sequence of [`crate::Stage`]s
    /// (pre-dump → freeze → dump → image-edit → inject → restore →
    /// baseline-store); [`DynaCut::customize_fleet`] drives the same
    /// stages over many groups, serializing only the freeze windows.
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
        self.run_cycle(kernel, pids, plan)
    }

    /// Reverts a failed customization to the pre-call kernel state:
    /// thaws every process this attempt froze (back to its pre-freeze
    /// scheduler state), takes every connection of the target pids out
    /// of TCP repair mode, re-marks the dirty pages the pre-dump swept,
    /// releases the store entry the attempt put, and restores the
    /// incremental baseline the attempt displaced.
    pub(crate) fn rollback(&mut self, kernel: &mut Kernel, pids: &[Pid], journal: TxnJournal) {
        for &pid in &journal.frozen {
            let _ = kernel.thaw(pid);
            kernel.record_flight(
                Some(pid),
                EventKind::RollbackStep {
                    step: RollbackStep::Thaw,
                },
            );
        }
        for &pid in pids {
            if let Ok(ids) = kernel.conn_ids_of(pid) {
                kernel.unrepair_connections(&ids);
                kernel.record_flight(
                    Some(pid),
                    EventKind::RollbackStep {
                        step: RollbackStep::Unrepair,
                    },
                );
            }
        }
        for (pid, pages) in &journal.saved_dirty {
            let Ok(proc) = kernel.process_mut(*pid) else {
                continue;
            };
            for &base in pages {
                proc.mem.mark_dirty(base);
            }
            kernel.record_flight(
                Some(*pid),
                EventKind::RollbackStep {
                    step: RollbackStep::RestoreDirtyBits,
                },
            );
        }
        if let Some(id) = journal.stored {
            self.store
                .release(id)
                .expect("the attempt's own entry releases cleanly");
        }
        if let Some(baseline) = journal.last_baseline {
            self.baselines.insert(journal.baseline_key, baseline);
            kernel.record_flight(
                None,
                EventKind::RollbackStep {
                    step: RollbackStep::RestoreBaseline,
                },
            );
        }
        kernel.flight_mut().metrics_mut().incr("customize.rollbacks", 1);
        kernel.record_flight(None, EventKind::CustomizeRollback);
    }

    /// Drains verifier reports from the kernel's event stream: the
    /// absolute addresses of blocks that were blocked but turned out to be
    /// needed (paper §3.2.3).
    ///
    /// Only events tagged with [`VERIFIER_EVENT_BIT`] are consumed;
    /// interleaved guest events (phase markers, application codes) stay
    /// queued for their own consumers. An earlier version drained the
    /// whole stream and kept just the reports, silently destroying
    /// everything else — which would have eaten the journal out from
    /// under a canary soak.
    pub fn verifier_reports(kernel: &mut Kernel) -> Vec<u64> {
        kernel
            .drain_events_where(|event| event.code & VERIFIER_EVENT_BIT != 0)
            .into_iter()
            .map(|event| event.code & !VERIFIER_EVENT_BIT)
            .collect()
    }
}
