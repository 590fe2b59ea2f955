//! The DynaCut session: framework state, reports, and the transaction
//! journal. The customize cycle itself is a list of [`Phase`]s run by
//! the stage runner in `engine.rs`.

use dynacut_criu::{
    CheckpointStore, CkptId, CommittedRestore, DumpOptions, ModuleRegistry, Promotion,
};
use dynacut_vm::{Counter, EventKind, Kernel, Phase, Pid, RollbackStep};
use std::collections::BTreeMap;
use std::time::Duration;

/// Wall-clock timing breakdown of one customization, matching the legend
/// of the paper's Figure 6 (checkpoint / disable code w/ int3 / insert
/// sighandler / restore). [`CustomizeReport::timings`] derives it from
/// the report's per-phase durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Pre-dumping, freezing and dumping the process(es).
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

/// Whether a cycle's processes are frozen during `phase`: freeze through
/// restore commit. The pre-dump runs while the guest serves and the
/// baseline store runs after the restored processes are live again.
pub(crate) fn in_freeze_window(phase: Phase) -> bool {
    matches!(
        phase,
        Phase::Freeze
            | Phase::Dump
            | Phase::ImageEdit
            | Phase::Inject
            | Phase::RestorePrepare
            | Phase::RestoreCommit
    )
}

/// What a customization did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CustomizeReport {
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
    /// Page bytes a pre-dump protocol leaves for the freeze: the whole
    /// page payload without incremental mode, only the dirty residue
    /// with [`DynaCut::with_incremental`]. A modeled freeze window
    /// charges these bytes (`figures fig8-incremental`). It is a modeled
    /// count, not what the freeze copies: the in-memory dump runs in
    /// full while the processes are frozen, sharing each page still
    /// backed by a shared frame and copying each private one
    /// ([`PreDump::complete`](dynacut_criu::PreDump::complete)).
    pub frozen_page_bytes: usize,
    /// Page bytes the pre-dump snapshotted while the guest was still
    /// running (zero without incremental mode).
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
    /// cycle's wall-clock cost by construction;
    /// [`timings`](CustomizeReport::timings) groups them into the
    /// paper's Figure 6 legend.
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
            .filter(|(phase, _)| in_freeze_window(*phase))
            .map(|(_, elapsed)| *elapsed)
            .sum()
    }

    /// The per-phase durations grouped into the paper's Figure 6
    /// legend. The baseline store, which runs after the processes serve
    /// again, falls outside it.
    pub fn timings(&self) -> Timings {
        let mut timings = Timings::default();
        for &(phase, elapsed) in &self.phases {
            let bucket = match phase {
                Phase::PreDump | Phase::Freeze | Phase::Dump => &mut timings.checkpoint,
                Phase::ImageEdit => &mut timings.disable_code,
                Phase::Inject => &mut timings.insert_sighandler,
                Phase::RestorePrepare | Phase::RestoreCommit => &mut timings.restore,
                _ => continue,
            };
            *bucket += elapsed;
        }
        timings
    }
}

/// Pre-customization state one customize attempt must restore on
/// failure (DESIGN §5): which pids it froze, the dirty-page bits the
/// pre-dump swept, the group's incremental baseline it displaced, the
/// store entry it put and the restore it committed.
#[derive(Default)]
pub(crate) struct TxnJournal {
    pub(crate) frozen: Vec<Pid>,
    pub(crate) saved_dirty: Vec<(Pid, Vec<u64>)>,
    pub(crate) last_baseline: Option<CkptId>,
    /// The edited checkpoint's store entry, put by the restore-prepare
    /// stage; the attempt's only store references.
    pub(crate) stored: Option<CkptId>,
    /// The receipt of the restore swap: undoing it puts the frozen
    /// originals back.
    pub(crate) committed: Option<CommittedRestore>,
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
    /// incremental cycles keep it, as the group's baseline, and the
    /// commit of the group's next cycle releases it.
    pub(crate) store: CheckpointStore,
    /// Per process group, the stored checkpoint its dirty bitmaps are
    /// clean against: the edited image restored by the group's previous
    /// customization. A map entry is removed when a cycle displaces it,
    /// re-inserted if that cycle fails and released from the store if it
    /// commits.
    pub(crate) baselines: BTreeMap<Vec<Pid>, CkptId>,
    pub(crate) injections: u64,
    /// Per-pid accumulated redirect table (blocked addr → resume addr):
    /// every injected handler carries the union of all still-blocked
    /// features, not just the current plan's, so repeated customizations
    /// compose.
    pub(crate) redirect_state: BTreeMap<Pid, BTreeMap<u64, u64>>,
    /// Per-pid accumulated verifier table (patched addr → original byte).
    pub(crate) verify_state: BTreeMap<Pid, BTreeMap<u64, u8>>,
    /// The journal `seq` up to which
    /// [`verifier_reports`](DynaCut::verifier_reports) has read.
    pub(crate) reports_read: u64,
    /// The `verifier.reports` count up to which the session has read;
    /// unlike the journal, the count keeps a report that was evicted
    /// before the session read it.
    pub(crate) reports_counted: u64,
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
            reports_read: 0,
            reports_counted: 0,
        }
    }

    /// Overrides the dump options (e.g. [`DumpOptions::stock_criu`] to
    /// reproduce the lost-rewrite failure mode).
    pub fn with_dump_options(mut self, options: DumpOptions) -> Self {
        self.dump_options = options;
        self
    }

    /// Enables incremental checkpointing for disable/enable cycles: each
    /// customization pre-dumps clean pages while the guest still runs and
    /// stores the checkpoint in the content-addressed [`CheckpointStore`],
    /// where pages unchanged since the previous one are shared, not
    /// copied. The pre-dump leaves only the dirty residue for the freeze
    /// ([`CustomizeReport::frozen_page_bytes`]), which is what a modeled
    /// freeze window charges; this in-memory dump still runs in full
    /// while the processes are frozen. Full dumps remain the default.
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// The checkpoint store: the current baseline of every group an
    /// incremental session has customized.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The registry of binaries.
    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Reverts a failed customization to the pre-call kernel state:
    /// undoes the restore the attempt committed, thaws every process it
    /// froze (back to its pre-freeze scheduler state), takes every
    /// connection of the target pids out of TCP repair mode, re-marks the
    /// dirty pages the pre-dump swept, releases the store entry the
    /// attempt put, and restores the incremental baseline the attempt
    /// displaced.
    pub(crate) fn rollback(&mut self, kernel: &mut Kernel, pids: &[Pid], journal: TxnJournal) {
        unwind(
            kernel,
            journal.committed.map(Receipt::Restore),
            journal.frozen,
        );
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
            self.baselines.insert(pids.to_vec(), baseline);
            kernel.record_flight(
                None,
                EventKind::RollbackStep {
                    step: RollbackStep::RestoreBaseline,
                },
            );
        }
        kernel
            .flight_mut()
            .metrics_mut()
            .add(Counter::CustomizeRollbacks, 1);
        kernel.record_flight(None, EventKind::CustomizeRollback);
    }

    /// The verifier reports journalled since this session last read
    /// them: the absolute addresses of blocks that were blocked but
    /// turned out to be needed (paper §3.2.3), oldest first.
    ///
    /// The session keeps a `seq` cursor into the kernel's flight
    /// journal, starting at 0, and advances it past everything read.
    /// Reading removes nothing: other guest events, and the reports
    /// themselves, stay in the journal for every other reader.
    pub fn verifier_reports(&mut self, kernel: &Kernel) -> Vec<u64> {
        self.read_verifier_reports(kernel).1
    }

    /// Reads the verifier reports since the session last read them, as
    /// [`verifier_reports`](DynaCut::verifier_reports) does, and also
    /// returns how many the kernel counted in that time: more than the
    /// addresses when the journal evicted some before they were read.
    pub(crate) fn read_verifier_reports(&mut self, kernel: &Kernel) -> (u64, Vec<u64>) {
        let flight = kernel.flight();
        let reports = flight
            .since(self.reports_read)
            .filter_map(|event| match event.kind {
                EventKind::VerifierReport { addr } => Some(addr),
                _ => None,
            })
            .collect();
        self.reports_read = flight.next_seq();
        let counted = flight.metrics().counter(Counter::VerifierReports.name());
        let new = counted.saturating_sub(self.reports_counted);
        self.reports_counted = counted;
        (new, reports)
    }
}

/// What a freeze window changed that an unwind can reverse: a committed
/// restore, which swapped processes, or a promotion, which patched
/// replicas in place.
pub(crate) enum Receipt {
    Restore(CommittedRestore),
    Promotion(Promotion),
}

/// The one journalled unwind of a freeze window: reverses the receipt,
/// if any (undoing a committed restore puts the frozen originals back),
/// then thaws `frozen` in the order given, back to each process's
/// pre-freeze scheduler state.
pub(crate) fn unwind(
    kernel: &mut Kernel,
    receipt: Option<Receipt>,
    frozen: impl IntoIterator<Item = Pid>,
) {
    if let Some(receipt) = receipt {
        kernel.record_flight(
            None,
            EventKind::RollbackStep {
                step: RollbackStep::UndoRestore,
            },
        );
        match receipt {
            Receipt::Restore(committed) => committed.undo(kernel),
            Receipt::Promotion(promotion) => promotion.undo(kernel),
        }
    }
    for pid in frozen {
        let _ = kernel.thaw(pid);
        kernel.record_flight(
            Some(pid),
            EventKind::RollbackStep {
                step: RollbackStep::Thaw,
            },
        );
    }
}
