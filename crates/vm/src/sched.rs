//! The MLFQ run-queue and wait-object registry behind
//! [`Kernel::run_for`](crate::Kernel::run_for):
//!
//! * a **multi-level feedback queue** ([`SCHED_LEVELS`] levels, FIFO per
//!   level). A process that burns its full per-level quantum is demoted
//!   one level (it is compute-bound); one that blocks voluntarily keeps
//!   its level (it is latency-sensitive). A periodic priority boost
//!   ([`BOOST_INTERVAL_NS`]) returns every normal-class process to the
//!   top level, bounding starvation. [`SchedClass::Background`]
//!   processes are pinned to the bottom level so customize-driven guest
//!   work never delays serving replicas;
//! * a **wait-object registry** with no O(N) scan: sleepers live in a
//!   `BinaryHeap` min-heap keyed by wake time, and `ReadFd`/`Accept`
//!   waiters are indexed by connection id / listener port, so delivery
//!   and block sites wake exactly the affected pids.
//!
//! The registry is deliberately **lazy**: entries are never cancelled
//! in place (a freeze, exit, or signal wake may strand one), they are
//! validated when popped — an entry only wakes a process that is still
//! blocked for that exact reason *and* whose ready condition
//! (`Kernel::pid_ready`, the one definition of "ready") genuinely holds,
//! so a stale entry can never produce a spurious wake (which would
//! re-execute the blocked syscall).
//!
//! None of this state is guest-observable: it is rebuilt from
//! [`ProcState`](crate::ProcState) on demand, excluded from
//! `state_fingerprint`, and never checkpointed (DESIGN §14).

use crate::net::ConnId;
use crate::process::Pid;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// Number of run-queue levels. Level 0 is the highest priority; the
/// per-level quantum doubles with each level.
pub const SCHED_LEVELS: usize = 4;

/// Guest-time period of the priority boost: at least this often, every
/// normal-class process returns to level 0, so even a demoted
/// compute-bound process is scheduled within one boost interval of
/// becoming runnable (the starvation bound the proptest suite pins).
pub const BOOST_INTERVAL_NS: u64 = 100_000;

/// Scheduling class of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedClass {
    /// Normal feedback scheduling (the default).
    #[default]
    Normal,
    /// Pinned to the bottom run-queue level: the customize engine tags
    /// the process groups of an in-flight cycle as background so
    /// serving replicas preempt their pumped guest work.
    Background,
}

/// A deferred wake note. Block sites and delivery paths push hints
/// (cheap, no process access needed — legal even while a process borrow
/// is live inside the syscall dispatcher); the run loop drains and
/// validates them against the actual ready conditions before waking
/// anyone.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WakeHint {
    /// Bytes, close, or repair-exit touched this connection: re-check
    /// its indexed read-waiters.
    Conn(ConnId),
    /// A connection entered this port's backlog: wake one acceptor.
    Port(u16),
    /// Re-evaluate one pid (signal posted, new/thawed process, or
    /// already-ready at park time).
    Pid(Pid),
}

/// Counters accumulated during a run and flushed to the metrics
/// registry as `sched.*` afterwards.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SchedStats {
    /// Slices dispatched off the run queues.
    pub quanta: u64,
    /// Slices cut short so a higher-level sleeper could run on time.
    pub preemptions: u64,
    /// Full-quantum burns that moved a process down a level.
    pub demotions: u64,
    /// Priority boosts performed.
    pub boosts: u64,
    /// Blocked→runnable transitions via the wait-object registry. The
    /// whole point of the registry is `wakeups ≪ quanta`: no pass
    /// re-checks every blocked process.
    pub wakeups: u64,
    /// Guest time fast-forwarded with nothing runnable.
    pub idle_ns: u64,
}

/// The scheduler state owned by the kernel. Pure host-side machinery:
/// never fingerprinted, never checkpointed — a restored process re-parks
/// from its `ProcState` alone.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    /// FIFO run queue per level.
    queues: [VecDeque<Pid>; SCHED_LEVELS],
    /// Pids currently sitting in some queue (guards double-enqueue).
    queued: BTreeSet<Pid>,
    /// Current MLFQ level per known pid (absent = level 0).
    level: BTreeMap<Pid, usize>,
    /// Background-class pids (normal-class pids are not stored).
    class: BTreeMap<Pid, SchedClass>,
    /// Sleepers: `(wake_time_ns, pid)` min-heap. Entries are validated
    /// on pop (the process must still be `Blocked(Until(t))` with the
    /// same `t`).
    pub(crate) timers: BinaryHeap<Reverse<(u64, Pid)>>,
    /// Read-blocked pids indexed by the connection they wait on.
    pub(crate) read_waiters: BTreeMap<ConnId, Vec<Pid>>,
    /// Accept-blocked pids indexed by listener port, FIFO so backlog
    /// entries are handed out in arrival order.
    pub(crate) accept_waiters: BTreeMap<u16, VecDeque<Pid>>,
    /// Deferred wake notes, drained at the top of every run-loop pass.
    pub(crate) hints: VecDeque<WakeHint>,
    /// Guest time of the last priority boost.
    pub(crate) last_boost_ns: u64,
    /// Per-run counters (flushed to `sched.*` metrics after each run).
    pub(crate) stats: SchedStats,
    /// Whether dispatches are journalled as `ContextSwitch` events
    /// (off by default: always-on dispatch tracing would flood the
    /// bounded flight ring and evict the stage events tests pin).
    pub(crate) trace: bool,
}

impl Scheduler {
    /// The process's scheduling class.
    pub(crate) fn class_of(&self, pid: Pid) -> SchedClass {
        self.class.get(&pid).copied().unwrap_or_default()
    }

    /// Sets the scheduling class. Lazy: a queued process finishes its
    /// current residence and re-enqueues at the new effective level.
    pub(crate) fn set_class(&mut self, pid: Pid, class: SchedClass) {
        match class {
            SchedClass::Normal => {
                self.class.remove(&pid);
            }
            SchedClass::Background => {
                self.class.insert(pid, class);
            }
        }
    }

    /// The level the process would be enqueued at: its feedback level,
    /// or the bottom for background-class processes.
    pub(crate) fn effective_level(&self, pid: Pid) -> usize {
        if self.class_of(pid) == SchedClass::Background {
            SCHED_LEVELS - 1
        } else {
            self.level.get(&pid).copied().unwrap_or(0)
        }
    }

    /// Enqueues at the effective level. No-op if already queued.
    pub(crate) fn enqueue(&mut self, pid: Pid) {
        if !self.queued.insert(pid) {
            return;
        }
        let level = self.effective_level(pid);
        self.queues[level].push_back(pid);
    }

    /// Pops the next pid in (level, FIFO) order, with the level it was
    /// dispatched from. The caller validates it is still runnable.
    pub(crate) fn pop_next(&mut self) -> Option<(Pid, usize)> {
        for (level, queue) in self.queues.iter_mut().enumerate() {
            if let Some(pid) = queue.pop_front() {
                self.queued.remove(&pid);
                return Some((pid, level));
            }
        }
        None
    }

    /// One level down (burned a full quantum without blocking).
    pub(crate) fn demote(&mut self, pid: Pid) {
        let level = self.level.entry(pid).or_insert(0);
        if *level + 1 < SCHED_LEVELS {
            *level += 1;
            self.stats.demotions += 1;
        }
    }

    /// Priority boost: every normal-class process returns to level 0.
    /// Queued pids are re-enqueued in their current (level, FIFO)
    /// order, so relative order among equals is preserved.
    pub(crate) fn boost(&mut self) {
        self.stats.boosts += 1;
        for level in self.level.values_mut() {
            *level = 0;
        }
        let mut pids: Vec<Pid> = Vec::with_capacity(self.queued.len());
        for queue in &mut self.queues {
            pids.extend(queue.drain(..));
        }
        self.queued.clear();
        for pid in pids {
            self.enqueue(pid);
        }
    }

    /// Pushes a deferred wake note.
    pub(crate) fn note(&mut self, hint: WakeHint) {
        self.hints.push_back(hint);
    }

    /// Drops a pid from the run queues and the level map (process
    /// removed). Wait-object entries are left to lazy validation; the
    /// class tag survives so a restore swap (remove + insert of the
    /// same pid) keeps an engine-applied background tag.
    pub(crate) fn forget(&mut self, pid: Pid) {
        if self.queued.remove(&pid) {
            for queue in &mut self.queues {
                queue.retain(|&p| p != pid);
            }
        }
        self.level.remove(&pid);
    }

    /// Takes and zeroes the per-run counters.
    pub(crate) fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_is_level_ordered_and_duplicate_free() {
        let mut sched = Scheduler::default();
        sched.enqueue(Pid(1));
        sched.enqueue(Pid(2));
        sched.enqueue(Pid(1)); // duplicate ignored
        sched.demote(Pid(3));
        sched.enqueue(Pid(3)); // level 1
        assert_eq!(sched.pop_next(), Some((Pid(1), 0)));
        assert_eq!(sched.pop_next(), Some((Pid(2), 0)));
        assert_eq!(sched.pop_next(), Some((Pid(3), 1)));
        assert_eq!(sched.pop_next(), None);
    }

    #[test]
    fn demotion_saturates_at_bottom_and_boost_resets() {
        let mut sched = Scheduler::default();
        for _ in 0..10 {
            sched.demote(Pid(7));
        }
        assert_eq!(sched.effective_level(Pid(7)), SCHED_LEVELS - 1);
        assert_eq!(sched.stats.demotions, SCHED_LEVELS as u64 - 1);
        sched.enqueue(Pid(7));
        sched.boost();
        assert_eq!(sched.effective_level(Pid(7)), 0);
        assert_eq!(sched.pop_next(), Some((Pid(7), 0)));
    }

    #[test]
    fn background_class_pins_to_bottom_through_boosts() {
        let mut sched = Scheduler::default();
        sched.set_class(Pid(4), SchedClass::Background);
        sched.enqueue(Pid(4));
        assert_eq!(sched.pop_next(), Some((Pid(4), SCHED_LEVELS - 1)));
        sched.enqueue(Pid(4));
        sched.boost();
        assert_eq!(sched.pop_next(), Some((Pid(4), SCHED_LEVELS - 1)));
        sched.set_class(Pid(4), SchedClass::Normal);
        sched.enqueue(Pid(4));
        assert_eq!(sched.pop_next(), Some((Pid(4), 0)));
    }

    #[test]
    fn forget_removes_queue_presence_but_keeps_class() {
        let mut sched = Scheduler::default();
        sched.set_class(Pid(9), SchedClass::Background);
        sched.enqueue(Pid(9));
        sched.forget(Pid(9));
        assert_eq!(sched.pop_next(), None);
        assert_eq!(sched.class_of(Pid(9)), SchedClass::Background);
    }
}
