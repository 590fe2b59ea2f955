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
//! * [`Metrics`] — named monotonic counters plus power-of-two duration
//!   [`Histogram`]s (blocks patched, pages pre-copied vs frozen-copied,
//!   injections, rollbacks, trap hits by policy, per-phase durations).
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

use crate::process::Pid;
use std::collections::{BTreeMap, VecDeque};

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
    /// The incremental pre-dump copied one process's pages.
    ProcessPreDumped {
        /// Bytes copied while the guest was still running.
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
        /// Verifier reports observed during the soak.
        reports: usize,
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

/// A power-of-two-bucketed duration histogram.
///
/// Bucket `i` counts observations whose value has bit length `i`
/// (i.e. `v == 0` lands in bucket 0, `1 ≤ v ≤ 1` in bucket 1,
/// `2 ≤ v ≤ 3` in bucket 2, …). Invariants, asserted by tests:
/// bucket counts sum to [`count`](Histogram::count), and
/// `min ≤ mean ≤ max` whenever `count > 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let bit_len = (64 - value.leading_zeros()) as usize;
        self.buckets[bit_len] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(bit_len, &n)| {
                // The largest value `bit_len` bits hold.
                let upper = if bit_len == 0 {
                    0
                } else {
                    u64::MAX >> (64 - bit_len)
                };
                (upper, n)
            })
    }
}

/// A counter the interpreter and the scheduler bump on every slice or
/// run, kept in a fixed slot of [`Metrics`] instead of a map entry found
/// by name. Variants are in name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    BlockCacheCapacityEvictions,
    BlockCacheHits,
    BlockCacheInvalidations,
    BlockCacheMisses,
    BlockCacheSuperblocks,
    BlockCacheVersionSwaps,
    InsnsRetired,
    SchedBoosts,
    SchedDemotions,
    SchedIdleNs,
    SchedPreemptions,
    SchedQuanta,
    SchedWakeups,
}

/// How many [`Counter`]s there are.
const SLOTS: usize = 13;

impl Counter {
    /// Every counter, in name order.
    const ALL: [Counter; SLOTS] = [
        Counter::BlockCacheCapacityEvictions,
        Counter::BlockCacheHits,
        Counter::BlockCacheInvalidations,
        Counter::BlockCacheMisses,
        Counter::BlockCacheSuperblocks,
        Counter::BlockCacheVersionSwaps,
        Counter::InsnsRetired,
        Counter::SchedBoosts,
        Counter::SchedDemotions,
        Counter::SchedIdleNs,
        Counter::SchedPreemptions,
        Counter::SchedQuanta,
        Counter::SchedWakeups,
    ];

    /// The counter's name, as [`Metrics::counter`] and
    /// [`Metrics::counters`] know it.
    fn name(self) -> &'static str {
        match self {
            Counter::BlockCacheCapacityEvictions => "block_cache.capacity_evictions",
            Counter::BlockCacheHits => "block_cache.hits",
            Counter::BlockCacheInvalidations => "block_cache.invalidations",
            Counter::BlockCacheMisses => "block_cache.misses",
            Counter::BlockCacheSuperblocks => "block_cache.superblocks",
            Counter::BlockCacheVersionSwaps => "block_cache.version_swaps",
            Counter::InsnsRetired => "insns_retired",
            Counter::SchedBoosts => "sched.boosts",
            Counter::SchedDemotions => "sched.demotions",
            Counter::SchedIdleNs => "sched.idle_ns",
            Counter::SchedPreemptions => "sched.preemptions",
            Counter::SchedQuanta => "sched.quanta",
            Counter::SchedWakeups => "sched.wakeups",
        }
    }

    /// The slotted counter called `name`, if there is one.
    fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL
            .into_iter()
            .find(|counter| counter.name() == name)
    }
}

/// Named monotonic counters plus duration histograms. The thirteen
/// counters the interpreter and the scheduler bump on every slice or run
/// sit in fixed slots; every other counter is found by name. Both read
/// and list the same way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    slots: [u64; SLOTS],
    /// Whether each slot was ever incremented, even by 0: a named
    /// counter exists from its first increment on, and a slot lists
    /// alike.
    touched: [bool; SLOTS],
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Adds `by` to a slotted counter: an array index, no name search.
    pub(crate) fn add(&mut self, counter: Counter, by: u64) {
        self.slots[counter as usize] += by;
        self.touched[counter as usize] = true;
    }

    /// Adds `by` to the named counter. The key is only allocated the
    /// first time a counter is touched, so steady-state increments from
    /// hot paths (trap hits, failed syscalls) are allocation-free. A
    /// slotted counter's name reaches its slot.
    pub fn incr(&mut self, name: &str, by: u64) {
        if let Some(counter) = Counter::from_name(name) {
            self.add(counter, by);
        } else if let Some(value) = self.counters.get_mut(name) {
            *value += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Current value of a counter, slotted or named (0 if never
    /// incremented).
    pub fn counter(&self, name: &str) -> u64 {
        match Counter::from_name(name) {
            Some(counter) => self.slots[counter as usize],
            None => self.counters.get(name).copied().unwrap_or(0),
        }
    }

    /// Every counter ever incremented, slotted and named alike, sorted
    /// by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let slotted = Counter::ALL
            .into_iter()
            .filter(|&counter| self.touched[counter as usize])
            .map(|counter| (counter.name(), self.slots[counter as usize]));
        let mut all: Vec<(&str, u64)> = self
            .counters
            .iter()
            .map(|(name, &v)| (name.as_str(), v))
            .chain(slotted)
            .collect();
        all.sort_unstable_by_key(|&(name, _)| name);
        all.into_iter()
    }

    /// Records a duration observation into the named histogram.
    pub fn observe(&mut self, name: &str, value_ns: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value_ns);
    }

    /// The named histogram, if anything was observed into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(name, h)| (name.as_str(), h))
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
    /// Fault-policy label per pid, set by the orchestrator when a
    /// customization installs a `SIGTRAP` policy — lets the interpreter
    /// attribute trap hits to the policy that planted the byte. The
    /// `trap_hits.<label>` counter key is built once here so the SIGTRAP
    /// hot path never formats a `String` per trap.
    trap_policy: BTreeMap<Pid, PolicyLabel>,
}

/// A trap-policy label plus its pre-built metrics counter key.
#[derive(Debug, Clone)]
struct PolicyLabel {
    label: &'static str,
    counter_key: String,
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
            trap_policy: BTreeMap::new(),
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

    /// Labels future `SIGTRAP` hits on `pid` with the fault policy that
    /// installed the trap bytes (`"redirect"`, `"verify"`, …). The
    /// per-policy counter key is formatted once, here.
    pub fn set_trap_policy(&mut self, pid: Pid, label: &'static str) {
        self.trap_policy.insert(
            pid,
            PolicyLabel {
                label,
                counter_key: format!("trap_hits.{label}"),
            },
        );
    }

    /// The trap-policy label for `pid`; `"none"` if no policy was
    /// registered.
    pub fn trap_policy(&self, pid: Pid) -> &'static str {
        self.trap_policy.get(&pid).map_or("none", |p| p.label)
    }

    /// Records one `SIGTRAP` hit on `pid`: bumps the policy-attributed
    /// `trap_hits.<label>` counter (using the key pre-built by
    /// [`set_trap_policy`](FlightRecorder::set_trap_policy) — no
    /// allocation on this path) and journals a [`EventKind::TrapHit`].
    pub fn record_trap_hit(&mut self, time_ns: u64, pid: Pid, pc: u64, handled: bool) {
        match self.trap_policy.get(&pid) {
            Some(policy) => self.metrics.incr(&policy.counter_key, 1),
            None => self.metrics.incr("trap_hits.none", 1),
        }
        self.record(time_ns, Some(pid), EventKind::TrapHit { pc, handled });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn histogram_buckets_sum_to_count() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 100, 5_000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        let bucket_total: u64 = h.buckets().map(|(_, n)| n).sum();
        assert_eq!(bucket_total, h.count(), "no observation lost");
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.min() <= h.mean() && h.mean() <= h.max());
    }

    #[test]
    fn histogram_bucket_bounds_cover_extremes() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        let bounds: Vec<u64> = h.buckets().map(|(ub, _)| ub).collect();
        assert_eq!(bounds, vec![0, u64::MAX]);
    }

    #[test]
    fn metrics_counters_accumulate() {
        let mut m = Metrics::default();
        m.incr("blocks_patched", 3);
        m.incr("blocks_patched", 2);
        assert_eq!(m.counter("blocks_patched"), 5);
        assert_eq!(m.counter("never_touched"), 0);
        m.observe("phase.freeze", 1000);
        m.observe("phase.freeze", 3000);
        let h = m.histogram("phase.freeze").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4000);
        assert_eq!(h.mean(), 2000);
    }

    #[test]
    fn slotted_counter_names_are_sorted_and_round_trip() {
        for pair in Counter::ALL.windows(2) {
            assert!(pair[0].name() < pair[1].name(), "{pair:?} out of order");
        }
        for counter in Counter::ALL {
            assert_eq!(Counter::from_name(counter.name()), Some(counter));
        }
        assert_eq!(Counter::from_name("trap_hits.none"), None);
    }

    #[test]
    fn counters_list_slotted_and_named_in_one_name_order() {
        let mut m = Metrics::default();
        assert_eq!(m.counters().count(), 0, "nothing touched, nothing listed");
        m.add(Counter::InsnsRetired, 40);
        m.incr("customize.commits", 1);
        m.add(Counter::SchedQuanta, 3);
        m.incr("block_cache.hits", 2);
        m.incr("syscall.failed.ebadf", 0);
        m.add(Counter::BlockCacheMisses, 0);
        m.incr("trap_hits.none", 5);
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

        // A slot bumped through its name and through its key is one
        // counter, and equality sees it either way.
        let mut by_key = Metrics::default();
        by_key.add(Counter::BlockCacheHits, 2);
        let mut by_name = Metrics::default();
        by_name.incr("block_cache.hits", 2);
        assert_eq!(by_key, by_name);
        by_name.add(Counter::SchedWakeups, 0);
        assert_ne!(
            by_key, by_name,
            "a touched slot differs from an untouched one"
        );
    }

    #[test]
    fn trap_policy_labels_default_to_none() {
        let mut rec = FlightRecorder::new();
        assert_eq!(rec.trap_policy(Pid(1)), "none");
        rec.set_trap_policy(Pid(1), "redirect");
        assert_eq!(rec.trap_policy(Pid(1)), "redirect");
    }

    #[test]
    fn record_trap_hit_attributes_the_policy_counter_and_journals() {
        let mut rec = FlightRecorder::new();
        rec.record_trap_hit(10, Pid(1), 0x40, false);
        assert_eq!(rec.metrics().counter("trap_hits.none"), 1);
        rec.set_trap_policy(Pid(1), "redirect");
        rec.record_trap_hit(11, Pid(1), 0x40, true);
        rec.record_trap_hit(12, Pid(1), 0x40, true);
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
