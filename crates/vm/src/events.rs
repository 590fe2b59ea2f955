//! The flight recorder: a bounded, typed event journal plus a metrics
//! registry that every layer of the customize cycle reports into.
//!
//! The paper's evaluation hangs off knowing *where downtime goes* during
//! process rewriting (§3.2, Fig. 6/8), and the transactional-customize
//! work needs a durable record of which phases ran and which rollback
//! steps unwound them. This module is that record:
//!
//! * [`FlightEvent`] — a typed event stamped with the guest clock and a
//!   monotonically increasing sequence number,
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of events. Memory
//!   is bounded; when the ring is full the oldest event is evicted and
//!   the [`dropped`](FlightRecorder::dropped) counter incremented, so
//!   loss is **always observable**, never silent,
//! * [`Metrics`] — monotonic counters, one fixed slot per [`Counter`]
//!   (blocks patched, pages pre-copied vs frozen-copied, injections,
//!   rollbacks, trap hits by policy, …). A phase's duration is in its
//!   [`EventKind::PhaseEnd`] event.
//!
//! The recorder lives inside the [`Kernel`](crate::Kernel) so producers
//! across crates (the customize orchestrator, the checkpoint layer, the
//! interpreter's `SIGTRAP` path) share one journal, but it is **not**
//! part of the guest-observable state: [`Kernel::state_fingerprint`]
//! ignores it, so a rolled-back customization leaves the kernel
//! bit-identical while the journal still tells the story of the failure.
//!
//! The journal is also the only record of guest `emit_event` calls
//! ([`EventKind::GuestMarker`], [`EventKind::VerifierReport`]). It is
//! append-only: a reader such as
//! [`Kernel::run_until_event`](crate::Kernel::run_until_event) keeps a
//! `seq` cursor and reads [`since`](FlightRecorder::since) it.
//!
//! [`Kernel::state_fingerprint`]: crate::Kernel::state_fingerprint

use crate::process::{Pid, Process};
use std::collections::VecDeque;

/// Bit 63 of a guest `emit_event` code marks a verifier false-positive
/// report; the remaining bits carry the falsely-blocked address (paper
/// §3.2.3). The kernel surfaces such codes as
/// [`EventKind::VerifierReport`] flight events.
pub const VERIFIER_EVENT_BIT: u64 = 1 << 63;

/// Default journal capacity, in events.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A phase of the customize cycle, in execution order.
///
/// The orchestrator brackets each phase with
/// [`EventKind::PhaseStart`]/[`EventKind::PhaseEnd`]; a `PhaseStart`
/// without a matching `PhaseEnd` marks the phase a failed cycle died in.
/// A thaw never appears here because a *successful* cycle replaces the
/// frozen originals instead of thawing them — thaws are rollback work,
/// recorded as [`RollbackStep::Thaw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Incremental pre-copy of clean pages while the guest still runs.
    PreDump,
    /// Freezing the target processes.
    Freeze,
    /// Dumping the frozen processes and serialising to the tmpfs store.
    Dump,
    /// Editing the images: trap bytes, wipes, unmaps, re-enables.
    ImageEdit,
    /// Building and injecting the fault-handler/verifier library.
    Inject,
    /// Building every replacement process (no kernel writes).
    RestorePrepare,
    /// Swapping the replacements in, all-or-nothing.
    RestoreCommit,
    /// Sweeping dirty bits and storing the new incremental baseline.
    BaselineStore,
    /// Serving traffic on a customized canary while watching its
    /// verifier reports (rollout only; the canary cycle stays open so a
    /// report can still demote it).
    Soak,
    /// Promoting the soaked canary image onto one fleet replica via a
    /// shared-image restore (rollout only; no dump, no rewrite).
    Promote,
}

impl Phase {
    /// Stable lower-case name, used as the metrics/JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::PreDump => "pre_dump",
            Phase::Freeze => "freeze",
            Phase::Dump => "dump",
            Phase::ImageEdit => "image_edit",
            Phase::Inject => "inject",
            Phase::RestorePrepare => "restore_prepare",
            Phase::RestoreCommit => "restore_commit",
            Phase::BaselineStore => "baseline_store",
            Phase::Soak => "soak",
            Phase::Promote => "promote",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One undo step of a failed customization's rollback (the PR 2
/// transaction journal, made visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RollbackStep {
    /// A committed restore swap was reversed (originals re-inserted),
    /// or a promotion window's in-place patch was (what it displaced put
    /// back).
    UndoRestore,
    /// A process this attempt froze was thawed back to its pre-freeze
    /// scheduler state.
    Thaw,
    /// A target pid's connections were taken out of TCP repair mode.
    Unrepair,
    /// The dirty-page bits the pre-dump swept were re-marked.
    RestoreDirtyBits,
    /// The incremental baseline the attempt displaced was put back.
    RestoreBaseline,
}

impl std::fmt::Display for RollbackStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RollbackStep::UndoRestore => "undo_restore",
            RollbackStep::Thaw => "thaw",
            RollbackStep::Unrepair => "unrepair",
            RollbackStep::RestoreDirtyBits => "restore_dirty_bits",
            RollbackStep::RestoreBaseline => "restore_baseline",
        };
        f.write_str(name)
    }
}

/// What a [`FlightEvent`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A customize cycle started over `pids` processes.
    CustomizeBegin {
        /// Number of target processes.
        pids: usize,
    },
    /// The cycle committed: staged session state folded in.
    CustomizeCommit,
    /// The cycle failed and its rollback completed; the preceding
    /// [`RollbackStep`] events list what was unwound.
    CustomizeRollback,
    /// A phase began.
    PhaseStart {
        /// Which phase.
        phase: Phase,
    },
    /// A phase completed successfully.
    PhaseEnd {
        /// Which phase.
        phase: Phase,
        /// Host wall-clock duration of the phase.
        duration_ns: u64,
    },
    /// The incremental pre-dump shared one process's pages in place.
    ProcessPreDumped {
        /// Populated page bytes, moved while the guest still ran.
        page_bytes: u64,
    },
    /// One frozen process was dumped into its image set.
    ProcessDumped {
        /// Page payload bytes in the dump.
        page_bytes: u64,
    },
    /// One restored process was swapped in for its original.
    ProcessRestored,
    /// A handler/verifier library was injected into one image.
    LibraryInjected {
        /// Base address the library was placed at.
        base: u64,
    },
    /// One undo step of a failed cycle's rollback ran.
    RollbackStep {
        /// Which step.
        step: RollbackStep,
    },
    /// The guest's verifier reported a falsely-blocked address
    /// (an `emit_event` tagged with [`VERIFIER_EVENT_BIT`]).
    VerifierReport {
        /// The absolute address that was blocked but needed.
        addr: u64,
    },
    /// A `SIGTRAP` (patched `int3` byte) fired in the guest.
    TrapHit {
        /// Address of the trap byte.
        pc: u64,
        /// Whether a handler caught it (`false` means the process died
        /// with the formerly-opaque `128 + SIGTRAP` exit code).
        handled: bool,
    },
    /// An untagged guest `emit_event` phase marker.
    GuestMarker {
        /// Application-defined code.
        code: u64,
    },
    /// The staged engine handed one process to a stage (recorded with
    /// that process's pid). Together with [`EventKind::StageRetired`],
    /// a fleet run's journal fully orders how per-process stages
    /// interleaved — in particular that freeze windows never overlap.
    StageScheduled {
        /// The stage, named by the phase it executes.
        stage: Phase,
    },
    /// The staged engine finished a stage for one process.
    StageRetired {
        /// The stage, named by the phase it executes.
        stage: Phase,
        /// Host wall-clock duration of the stage for this process's
        /// group.
        duration_ns: u64,
    },
    /// A canary rollout soaked clean and its image was promoted onto
    /// the rest of the fleet via shared-image restores.
    CanaryPromoted {
        /// Replica processes the image was promoted onto (the canary
        /// itself not included).
        replicas: usize,
        /// Serve slices the canary soaked before promotion.
        soak_slices: u64,
    },
    /// A canary rollout was demoted: a verifier report (or injected
    /// fault) during the soak rolled the canary back through the
    /// customize transaction machinery.
    CanaryDemoted {
        /// Verifier reports counted during the soak, the ones the
        /// journal evicted before the soak read them included.
        reports: u64,
    },
    /// An unwind left one replica promoted (recorded with its pid): it
    /// was inside a signal handler, which may run in the new library by
    /// then, so its promotion was kept, not undone. The fleet stays
    /// mixed until a later rollout brings the replica in line.
    PromotionKept,
    /// The MLFQ run loop dispatched a process. Only journalled when
    /// dispatch tracing is enabled via
    /// [`Kernel::set_sched_trace`](crate::Kernel::set_sched_trace) —
    /// always-on tracing would flood the bounded ring and evict the
    /// stage/phase events the customize layers rely on.
    ContextSwitch {
        /// Run-queue level the process was dispatched from.
        level: u8,
    },
}

/// One journal entry: an [`EventKind`] plus its envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonically increasing sequence number (never reused, survives
    /// ring eviction — gaps at the front of the journal are exactly the
    /// dropped events).
    pub seq: u64,
    /// Guest-clock timestamp at recording.
    pub time_ns: u64,
    /// The process the event concerns, if any.
    pub pid: Option<Pid>,
    /// The payload.
    pub kind: EventKind,
}

/// A flight-recorder counter: a fixed slot of [`Metrics`]. Every counter
/// any layer bumps has a variant, and [`Metrics::add`] is the only way
/// to bump one, so recording is an array index and never allocates.
/// Each variant is its [`name`](Counter::name) in camel case; variants
/// are in name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    BlockCacheCapacityEvictions,
    BlockCacheHits,
    BlockCacheInvalidations,
    BlockCacheMisses,
    BlockCacheSuperblocks,
    BlockCacheVersionSwaps,
    BlocksPatched,
    BytesPatched,
    CustomizeCommits,
    CustomizeRollbacks,
    Injections,
    InsnsRetired,
    PagesFrozenBytes,
    PagesPrecopiedBytes,
    PagesRestoreCopiedBytes,
    RolloutDemotions,
    RolloutPromotions,
    RolloutSoakSlices,
    SchedBoosts,
    SchedDemotions,
    SchedIdleNs,
    SchedPreemptions,
    SchedQuanta,
    SchedWakeups,
    SyscallFailedEagain,
    SyscallFailedEbadf,
    SyscallFailedEfault,
    SyscallFailedEinval,
    SyscallFailedEmfile,
    SyscallFailedEnoent,
    SyscallFailedEnomem,
    SyscallFailedEnosys,
    SyscallFailedEpipe,
    SyscallFailedEsrch,
    TrapHitsNone,
    TrapHitsRedirect,
    TrapHitsTerminate,
    TrapHitsVerify,
    VerifierReports,
}

/// How many [`Counter`]s there are.
const COUNTERS: usize = Counter::VerifierReports as usize + 1;

/// Each counter's name, indexed by its variant, so in name order too.
const NAMES: [&str; COUNTERS] = [
    "block_cache.capacity_evictions",
    "block_cache.hits",
    "block_cache.invalidations",
    "block_cache.misses",
    "block_cache.superblocks",
    "block_cache.version_swaps",
    "blocks_patched",
    "bytes_patched",
    "customize.commits",
    "customize.rollbacks",
    "injections",
    "insns_retired",
    "pages_frozen_bytes",
    "pages_precopied_bytes",
    "pages_restore_copied_bytes",
    "rollout.demotions",
    "rollout.promotions",
    "rollout.soak_slices",
    "sched.boosts",
    "sched.demotions",
    "sched.idle_ns",
    "sched.preemptions",
    "sched.quanta",
    "sched.wakeups",
    "syscall.failed.eagain",
    "syscall.failed.ebadf",
    "syscall.failed.efault",
    "syscall.failed.einval",
    "syscall.failed.emfile",
    "syscall.failed.enoent",
    "syscall.failed.enomem",
    "syscall.failed.enosys",
    "syscall.failed.epipe",
    "syscall.failed.esrch",
    "trap_hits.none",
    "trap_hits.redirect",
    "trap_hits.terminate",
    "trap_hits.verify",
    "verifier.reports",
];

impl Counter {
    /// The counter's name, as [`Metrics::counter`] and
    /// [`Metrics::counters`] know it.
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// Monotonic counters, one fixed slot per [`Counter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    values: [u64; COUNTERS],
    /// Whether each counter was ever bumped, even by 0: a counter exists,
    /// and [`counters`](Metrics::counters) lists it, from its first bump
    /// on.
    touched: [bool; COUNTERS],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            values: [0; COUNTERS],
            touched: [false; COUNTERS],
        }
    }
}

impl Metrics {
    /// Adds `by` to `counter`, saturating at `u64::MAX`.
    pub fn add(&mut self, counter: Counter, by: u64) {
        let slot = counter as usize;
        self.values[slot] = self.values[slot].saturating_add(by);
        self.touched[slot] = true;
    }

    /// Current value of the counter called `name` (0 if never bumped,
    /// or if no counter has that name).
    pub fn counter(&self, name: &str) -> u64 {
        NAMES
            .binary_search(&name)
            .map_or(0, |slot| self.values[slot])
    }

    /// Every counter ever bumped, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        NAMES
            .into_iter()
            .zip(self.values)
            .zip(self.touched)
            .filter_map(|(named, touched)| touched.then_some(named))
    }
}

/// The bounded event journal plus metrics registry.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    metrics: Metrics,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder with the default ring capacity.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            dropped: 0,
            metrics: Metrics::default(),
        }
    }

    /// Appends an event, evicting the oldest (and counting the drop) if
    /// the ring is full. Returns the event's sequence number.
    pub fn record(&mut self, time_ns: u64, pid: Option<Pid>, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightEvent {
            seq,
            time_ns,
            pid,
            kind,
        });
        seq
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Events with `seq >= from`, oldest first — scan the journal tail
    /// written after a [`next_seq`](FlightRecorder::next_seq) snapshot.
    /// Readers of guest events keep such a `seq` cursor; the first event
    /// is found by binary search, so a read costs only what it returns.
    pub fn since(&self, from: u64) -> impl Iterator<Item = &FlightEvent> {
        let start = self.ring.partition_point(|e| e.seq < from);
        self.ring.range(start..)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sequence number the next event will get; also the total
    /// number of events ever recorded.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the full ring. The journal is append-only,
    /// so `next_seq() == len() + dropped()` always holds.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Records one `SIGTRAP` hit on `proc`: bumps the counter its record
    /// names ([`crate::SchedRecord::trap_hits`]) and journals a
    /// [`EventKind::TrapHit`].
    pub fn record_trap_hit(&mut self, time_ns: u64, proc: &Process, pc: u64, handled: bool) {
        self.metrics.add(proc.sched.trap_hits, 1);
        self.record(time_ns, Some(proc.pid), EventKind::TrapHit { pc, handled });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn sequence_numbers_are_monotonic_and_dense() {
        let mut rec = FlightRecorder::with_capacity(8);
        for _ in 0..5 {
            rec.record(0, None, EventKind::CustomizeCommit);
        }
        let seqs: Vec<u64> = rec.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(rec.next_seq(), 5);
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_drops() {
        let mut rec = FlightRecorder::with_capacity(3);
        for code in 0..10u64 {
            rec.record(code, None, EventKind::GuestMarker { code });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7, "loss is counted, never silent");
        // The survivors are the newest three, seq intact.
        let seqs: Vec<u64> = rec.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        // Accounting invariant.
        assert_eq!(rec.next_seq(), rec.len() as u64 + rec.dropped());
    }

    #[test]
    fn since_scans_the_tail() {
        let mut rec = FlightRecorder::new();
        rec.record(0, None, EventKind::CustomizeBegin { pids: 1 });
        let mark = rec.next_seq();
        rec.record(1, Some(Pid(7)), EventKind::CustomizeCommit);
        let tail: Vec<&FlightEvent> = rec.since(mark).collect();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].kind, EventKind::CustomizeCommit);
        assert_eq!(tail[0].pid, Some(Pid(7)));
    }

    proptest::proptest! {
        /// `since` finds its first event by binary search and equals the
        /// filter over every held event it replaced, for a cursor below
        /// the oldest held event, at it, inside the ring, at `next_seq`
        /// and past it, whether the ring has wrapped or not.
        #[test]
        fn since_matches_the_filter_it_replaced(
            capacity in 1usize..=8,
            records in 0u64..24,
            from in 0u64..32,
        ) {
            let mut rec = FlightRecorder::with_capacity(capacity);
            for code in 0..records {
                rec.record(code, None, EventKind::GuestMarker { code });
            }
            let fast: Vec<&FlightEvent> = rec.since(from).collect();
            let slow: Vec<&FlightEvent> = rec.iter().filter(|e| e.seq >= from).collect();
            proptest::prop_assert_eq!(fast, slow);
            proptest::prop_assert_eq!(rec.next_seq(), rec.len() as u64 + rec.dropped());
        }
    }

    #[test]
    fn metrics_counters_accumulate() {
        let mut m = Metrics::default();
        m.add(Counter::BlocksPatched, 3);
        m.add(Counter::BlocksPatched, 2);
        assert_eq!(m.counter("blocks_patched"), 5);
        assert_eq!(m.counter("never_touched"), 0);
        m.add(Counter::BlocksPatched, u64::MAX);
        assert_eq!(m.counter("blocks_patched"), u64::MAX, "adds saturate");
    }

    /// Every counter, in variant order.
    const ALL: [Counter; COUNTERS] = [
        Counter::BlockCacheCapacityEvictions,
        Counter::BlockCacheHits,
        Counter::BlockCacheInvalidations,
        Counter::BlockCacheMisses,
        Counter::BlockCacheSuperblocks,
        Counter::BlockCacheVersionSwaps,
        Counter::BlocksPatched,
        Counter::BytesPatched,
        Counter::CustomizeCommits,
        Counter::CustomizeRollbacks,
        Counter::Injections,
        Counter::InsnsRetired,
        Counter::PagesFrozenBytes,
        Counter::PagesPrecopiedBytes,
        Counter::PagesRestoreCopiedBytes,
        Counter::RolloutDemotions,
        Counter::RolloutPromotions,
        Counter::RolloutSoakSlices,
        Counter::SchedBoosts,
        Counter::SchedDemotions,
        Counter::SchedIdleNs,
        Counter::SchedPreemptions,
        Counter::SchedQuanta,
        Counter::SchedWakeups,
        Counter::SyscallFailedEagain,
        Counter::SyscallFailedEbadf,
        Counter::SyscallFailedEfault,
        Counter::SyscallFailedEinval,
        Counter::SyscallFailedEmfile,
        Counter::SyscallFailedEnoent,
        Counter::SyscallFailedEnomem,
        Counter::SyscallFailedEnosys,
        Counter::SyscallFailedEpipe,
        Counter::SyscallFailedEsrch,
        Counter::TrapHitsNone,
        Counter::TrapHitsRedirect,
        Counter::TrapHitsTerminate,
        Counter::TrapHitsVerify,
        Counter::VerifierReports,
    ];

    #[test]
    fn slotted_counter_names_are_sorted_and_round_trip() {
        assert_eq!(COUNTERS, 39);
        for pair in NAMES.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?} out of order");
        }
        for (slot, counter) in ALL.into_iter().enumerate() {
            assert_eq!(counter as usize, slot);
            // The variant is its name in camel case.
            let camel: String = counter
                .name()
                .split(['.', '_'])
                .map(|word| word[..1].to_uppercase() + &word[1..])
                .collect();
            assert_eq!(format!("{counter:?}"), camel);
            let mut m = Metrics::default();
            m.add(counter, slot as u64 + 1);
            assert_eq!(m.counter(counter.name()), slot as u64 + 1);
            assert_eq!(
                m.counters().collect::<Vec<_>>(),
                [(counter.name(), slot as u64 + 1)]
            );
        }
    }

    #[test]
    fn counters_list_slotted_and_named_in_one_name_order() {
        let mut m = Metrics::default();
        assert_eq!(m.counters().count(), 0, "nothing touched, nothing listed");
        m.add(Counter::InsnsRetired, 40);
        m.add(Counter::CustomizeCommits, 1);
        m.add(Counter::SchedQuanta, 3);
        m.add(Counter::BlockCacheHits, 2);
        m.add(Counter::SyscallFailedEbadf, 0);
        m.add(Counter::BlockCacheMisses, 0);
        m.add(Counter::TrapHitsNone, 5);
        m.add(Counter::InsnsRetired, 2);
        let listed: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(
            listed,
            vec![
                ("block_cache.hits", 2),
                ("block_cache.misses", 0),
                ("customize.commits", 1),
                ("insns_retired", 42),
                ("sched.quanta", 3),
                ("syscall.failed.ebadf", 0),
                ("trap_hits.none", 5),
            ],
            "a counter incremented by 0 is listed, one never touched is not"
        );
        assert_eq!(m.counter("insns_retired"), 42);
        assert_eq!(m.counter("block_cache.hits"), 2);
        assert_eq!(m.counter("customize.commits"), 1);
        assert_eq!(m.counter("sched.wakeups"), 0);
        assert_eq!(m.counter("never_touched"), 0);

        // Equality sees whether a counter was touched, not only its
        // value.
        let mut bumped = Metrics::default();
        bumped.add(Counter::BlockCacheHits, 2);
        let mut again = bumped.clone();
        assert_eq!(bumped, again);
        again.add(Counter::SchedWakeups, 0);
        assert_ne!(
            bumped, again,
            "a touched slot differs from an untouched one"
        );
    }

    proptest::proptest! {
        /// `Metrics` reads and lists exactly as the saturating map keyed
        /// by name that it replaced: a counter bumped by 0 is listed, an
        /// untouched one is not, and an unknown name reads 0.
        #[test]
        fn metrics_match_the_map_they_replaced(
            bumps in proptest::collection::vec(
                (
                    0..COUNTERS,
                    proptest::prop_oneof![
                        proptest::strategy::Just(0u64),
                        0u64..1_000,
                        (u64::MAX - 8)..=u64::MAX,
                    ],
                ),
                0..=64,
            ),
        ) {
            let mut metrics = Metrics::default();
            let mut model: BTreeMap<&str, u64> = BTreeMap::new();
            for (slot, by) in bumps {
                let counter = ALL[slot];
                metrics.add(counter, by);
                let value = model.entry(counter.name()).or_insert(0);
                *value = value.saturating_add(by);
            }
            let listed: Vec<(&str, u64)> = metrics.counters().collect();
            let expected: Vec<(&str, u64)> = model.iter().map(|(&name, &v)| (name, v)).collect();
            proptest::prop_assert_eq!(listed, expected);
            for name in NAMES {
                proptest::prop_assert_eq!(
                    metrics.counter(name),
                    model.get(name).copied().unwrap_or(0)
                );
            }
            for unknown in ["", "never_touched", "trap_hits", "zzz", "block_cache.hits "] {
                proptest::prop_assert_eq!(metrics.counter(unknown), 0);
            }
        }
    }

    #[test]
    fn record_trap_hit_attributes_the_policy_counter_and_journals() {
        let mut rec = FlightRecorder::new();
        let mut proc = Process::new(Pid(1), "x");
        rec.record_trap_hit(10, &proc, 0x40, false);
        assert_eq!(rec.metrics().counter("trap_hits.none"), 1);
        proc.sched.trap_hits = Counter::TrapHitsRedirect;
        rec.record_trap_hit(11, &proc, 0x40, true);
        rec.record_trap_hit(12, &proc, 0x40, true);
        assert_eq!(rec.metrics().counter("trap_hits.redirect"), 2);
        assert!(matches!(
            rec.iter().last().unwrap().kind,
            EventKind::TrapHit {
                pc: 0x40,
                handled: true
            }
        ));
    }
}
