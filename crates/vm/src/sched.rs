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
//! [`ProcState`](crate::ProcState) on demand or kept in each process's
//! [`SchedRecord`], never fingerprinted or checkpointed (DESIGN §14).

use crate::events::Counter;
use crate::net::ConnId;
use crate::process::{Pid, Process};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

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

/// A process's host-side scheduling record, kept on its
/// [`Process`](crate::Process) like the block cache and, like it, never
/// fingerprinted or checkpointed. A forked child or a fresh restore
/// starts from the default; a restore swap keeps the class and the trap
/// counter of the process it displaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedRecord {
    /// See [`Kernel::set_sched_class`](crate::Kernel::set_sched_class).
    pub class: SchedClass,
    /// See [`Kernel::set_trap_policy`](crate::Kernel::set_trap_policy).
    pub trap_hits: Counter,
    /// MLFQ feedback level (0 = top).
    pub(crate) level: usize,
    /// Whether the pid sits in a run queue (guards double-enqueue).
    pub(crate) queued: bool,
}

impl Default for SchedRecord {
    fn default() -> Self {
        SchedRecord {
            class: SchedClass::Normal,
            trap_hits: Counter::TrapHitsNone,
            level: 0,
            queued: false,
        }
    }
}

impl SchedRecord {
    /// The level the process is enqueued at: its feedback level, or the
    /// bottom for background-class processes.
    pub(crate) fn effective_level(&self) -> usize {
        match self.class {
            SchedClass::Normal => self.level,
            SchedClass::Background => SCHED_LEVELS - 1,
        }
    }
}

/// The scheduler state owned by the kernel. Pure host-side machinery:
/// never fingerprinted, never checkpointed — a restored process re-parks
/// from its `ProcState` alone.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    /// FIFO run queue per level.
    pub(crate) queues: [VecDeque<Pid>; SCHED_LEVELS],
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
    /// Enqueues at the effective level. No-op if already queued.
    pub(crate) fn enqueue(&mut self, proc: &mut Process) {
        let record = &mut proc.sched;
        if !record.queued {
            record.queued = true;
            self.queues[record.effective_level()].push_back(proc.pid);
        }
    }

    /// Pops the next runnable pid in (level, FIFO) order, with the level
    /// it was dispatched from. Entries that went stale since their
    /// enqueue (freeze, exit, signal death) are dropped on the way.
    pub(crate) fn pop_next(&mut self, procs: &mut BTreeMap<Pid, Process>) -> Option<(Pid, usize)> {
        for (level, queue) in self.queues.iter_mut().enumerate() {
            while let Some(pid) = queue.pop_front() {
                if let Some(proc) = procs.get_mut(&pid) {
                    proc.sched.queued = false;
                    if proc.is_runnable() {
                        return Some((pid, level));
                    }
                }
            }
        }
        None
    }

    /// One level down (burned a full quantum without blocking).
    pub(crate) fn demote(&mut self, record: &mut SchedRecord) {
        if record.level + 1 < SCHED_LEVELS {
            record.level += 1;
            self.stats.demotions += 1;
        }
    }

    /// Priority boost: every process returns to level 0. Queued pids are
    /// re-enqueued in their current (level, FIFO) order, so relative
    /// order among equals is preserved.
    pub(crate) fn boost(&mut self, procs: &mut BTreeMap<Pid, Process>) {
        self.stats.boosts += 1;
        for proc in procs.values_mut() {
            proc.sched.level = 0;
        }
        let queued: Vec<Pid> = self.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
        for pid in queued {
            if let Some(proc) = procs.get(&pid) {
                self.queues[proc.sched.effective_level()].push_back(pid);
            }
        }
    }

    /// Pushes a deferred wake note.
    pub(crate) fn note(&mut self, hint: WakeHint) {
        self.hints.push_back(hint);
    }

    /// Takes a removed process out of the run queues and resets its
    /// level. Wait-object entries are left to lazy validation; the class
    /// and the trap counter stay on its record.
    pub(crate) fn forget(&mut self, proc: &mut Process) {
        if proc.sched.queued {
            proc.sched.queued = false;
            for queue in &mut self.queues {
                queue.retain(|&pid| pid != proc.pid);
            }
        }
        proc.sched.level = 0;
    }

    /// Takes and zeroes the per-run counters.
    pub(crate) fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process table of fresh runnable processes.
    fn table(pids: &[u32]) -> BTreeMap<Pid, Process> {
        pids.iter()
            .map(|&pid| (Pid(pid), Process::new(Pid(pid), "p")))
            .collect()
    }

    fn at(procs: &mut BTreeMap<Pid, Process>, pid: u32) -> &mut Process {
        procs.get_mut(&Pid(pid)).expect("in the table")
    }

    #[test]
    fn enqueue_is_level_ordered_and_duplicate_free() {
        let mut procs = table(&[1, 2, 3]);
        let mut sched = Scheduler::default();
        sched.enqueue(at(&mut procs, 1));
        sched.enqueue(at(&mut procs, 2));
        sched.enqueue(at(&mut procs, 1)); // duplicate ignored
        sched.demote(&mut at(&mut procs, 3).sched);
        sched.enqueue(at(&mut procs, 3)); // level 1
        assert_eq!(sched.pop_next(&mut procs), Some((Pid(1), 0)));
        assert_eq!(sched.pop_next(&mut procs), Some((Pid(2), 0)));
        assert_eq!(sched.pop_next(&mut procs), Some((Pid(3), 1)));
        assert_eq!(sched.pop_next(&mut procs), None);
    }

    #[test]
    fn demotion_saturates_at_bottom_and_boost_resets() {
        let mut procs = table(&[7]);
        let mut sched = Scheduler::default();
        for _ in 0..10 {
            sched.demote(&mut at(&mut procs, 7).sched);
        }
        assert_eq!(procs[&Pid(7)].sched.effective_level(), SCHED_LEVELS - 1);
        assert_eq!(sched.stats.demotions, SCHED_LEVELS as u64 - 1);
        sched.enqueue(at(&mut procs, 7));
        sched.boost(&mut procs);
        assert_eq!(procs[&Pid(7)].sched.effective_level(), 0);
        assert_eq!(sched.pop_next(&mut procs), Some((Pid(7), 0)));
    }

    #[test]
    fn background_class_pins_to_bottom_through_boosts() {
        let mut procs = table(&[4]);
        let mut sched = Scheduler::default();
        at(&mut procs, 4).sched.class = SchedClass::Background;
        sched.enqueue(at(&mut procs, 4));
        assert_eq!(sched.pop_next(&mut procs), Some((Pid(4), SCHED_LEVELS - 1)));
        sched.enqueue(at(&mut procs, 4));
        sched.boost(&mut procs);
        assert_eq!(sched.pop_next(&mut procs), Some((Pid(4), SCHED_LEVELS - 1)));
        at(&mut procs, 4).sched.class = SchedClass::Normal;
        sched.enqueue(at(&mut procs, 4));
        assert_eq!(sched.pop_next(&mut procs), Some((Pid(4), 0)));
    }

    #[test]
    fn forget_removes_queue_presence_but_keeps_class() {
        let mut procs = table(&[9]);
        let mut sched = Scheduler::default();
        at(&mut procs, 9).sched.class = SchedClass::Background;
        sched.enqueue(at(&mut procs, 9));
        sched.forget(at(&mut procs, 9));
        assert_eq!(sched.pop_next(&mut procs), None);
        assert_eq!(procs[&Pid(9)].sched.class, SchedClass::Background);
    }
}
