//! The kernel: scheduling, syscalls, networking, time, and the
//! checkpoint/restore surface.

use crate::bcache::Probe;
use crate::events::{Counter, EventKind, FlightEvent, FlightRecorder, VERIFIER_EVENT_BIT};
use crate::fs::{FileDesc, VfsFile};
use crate::hook::Hook;
use crate::interp::{self, BlockExit, Exec};
use crate::loader::{load_into, LoadSpec, MMAP_BASE};
use crate::net::{ConnId, NetStack, TcpConn, TcpState};
use crate::process::{Pid, ProcState, Process, WaitReason};
use crate::sched::{SchedClass, SchedRecord, Scheduler, WakeHint, BOOST_INTERVAL_NS};
use crate::signal::{SigAction, Signal};
use crate::syscall::{self, perms_from_bits, Errno, Outcome, Sysno};
use crate::VmError;
use dynacut_isa::Reg;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Base scheduling quantum, in instructions (the level-0 MLFQ quantum;
/// the per-level quantum doubles with each level below).
const QUANTUM: u64 = 256;
/// Fixed syscall cost in simulated nanoseconds.
const SYSCALL_COST_NS: u64 = 50;
/// Default granularity of the serve pumps in
/// [`Kernel::run_until_event`], [`Kernel::run_until_exit`] and
/// [`Kernel::client_request`]: how much simulated time each inner
/// `run_for` slice covers before the stop condition is re-checked. One
/// named tunable ([`Kernel::set_pump_chunk_ns`]) instead of hardcoded
/// per-call-site chunks, so scheduler experiments can vary pump
/// granularity in one place.
pub const DEFAULT_PUMP_CHUNK_NS: u64 = 5_000;

/// A host-side handle to a client TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConn(pub ConnId);

/// Why [`Kernel::run_for`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The time budget was consumed.
    Deadline,
    /// Every process has exited.
    AllExited,
    /// All remaining processes are blocked on I/O (or frozen) and no timer
    /// can wake them; simulated time was advanced to the deadline.
    Idle,
}

/// A process's final status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitStatus {
    /// The exit code (`128 + signo` for signal deaths).
    pub code: u64,
    /// The fatal signal, if the process was killed by one.
    pub fatal_signal: Option<Signal>,
}

/// The DCVM kernel. See the crate-level docs for an overview.
pub struct Kernel {
    procs: BTreeMap<Pid, Process>,
    next_pid: u32,
    net: NetStack,
    vfs: BTreeMap<String, Arc<Vec<u8>>>,
    clock_ns: u64,
    hook: Option<Box<dyn Hook>>,
    flight: FlightRecorder,
    /// See [`set_block_cache_enabled`](Kernel::set_block_cache_enabled).
    block_cache_enabled: bool,
    /// MLFQ run queues and wait-object registry (host-side only: never
    /// fingerprinted, never checkpointed — see DESIGN §14).
    sched: Scheduler,
    /// Serve-pump granularity; see [`DEFAULT_PUMP_CHUNK_NS`].
    pump_chunk_ns: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            procs: BTreeMap::new(),
            next_pid: 0,
            net: NetStack::default(),
            vfs: BTreeMap::new(),
            clock_ns: 0,
            hook: None,
            flight: FlightRecorder::default(),
            block_cache_enabled: true,
            sched: Scheduler::default(),
            pump_chunk_ns: DEFAULT_PUMP_CHUNK_NS,
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("procs", &self.procs.keys().collect::<Vec<_>>())
            .field("clock_ns", &self.clock_ns)
            .finish()
    }
}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Kernel::default()
    }

    // ----- host configuration ------------------------------------------

    /// Registers a file in the virtual filesystem.
    pub fn add_file(&mut self, path: &str, contents: &[u8]) {
        self.vfs
            .insert(path.to_owned(), Arc::new(contents.to_vec()));
    }

    /// Contents of a VFS file, if registered (used when restoring open
    /// file descriptors from a checkpoint).
    pub fn vfs_contents(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.vfs.get(path).cloned()
    }

    /// Installs an execution hook (coverage tracer). Replaces any previous
    /// hook.
    pub fn set_hook(&mut self, hook: Box<dyn Hook>) {
        self.hook = Some(hook);
    }

    /// Enables or disables the decoded-block translation cache (enabled
    /// by default). Disabling also flushes every process's cache, so a
    /// later re-enable starts cold. Cached and uncached execution are
    /// bit-identical in every guest-observable way — the toggle exists
    /// for the `figures interp` off/on comparison and for bisecting.
    pub fn set_block_cache_enabled(&mut self, enabled: bool) {
        self.block_cache_enabled = enabled;
        if !enabled {
            for proc in self.procs.values_mut() {
                proc.block_cache.flush();
            }
        }
    }

    /// Whether the decoded-block translation cache is enabled.
    pub fn block_cache_enabled(&self) -> bool {
        self.block_cache_enabled
    }

    /// Tags a process's scheduling class. [`SchedClass::Background`]
    /// pins it to the bottom MLFQ level — the customize engine applies
    /// this to the process groups of an in-flight cycle so serving
    /// replicas preempt their pumped guest work, and removes it when
    /// the cycle commits or rolls back. The tag lives on the process's
    /// [`SchedRecord`](crate::SchedRecord): an unknown pid is ignored, a
    /// restore swap carries the tag, and it never reaches
    /// [`state_fingerprint`](Kernel::state_fingerprint) or a checkpoint
    /// image.
    pub fn set_sched_class(&mut self, pid: Pid, class: SchedClass) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.sched.class = class;
        }
    }

    /// Counts future `SIGTRAP` hits on `pid` under `counter`, the
    /// `trap_hits.<policy>` counter of the fault policy that planted the
    /// trap bytes. Kept on the process's record, as the class is.
    pub fn set_trap_policy(&mut self, pid: Pid, counter: Counter) {
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.sched.trap_hits = counter;
        }
    }

    /// Enables journalling every MLFQ dispatch as an
    /// [`EventKind::ContextSwitch`] flight event. Off by default:
    /// always-on dispatch tracing would flood the bounded flight ring
    /// and evict the stage/phase events the customize layers rely on.
    /// The `sched.*` metrics are counted regardless.
    pub fn set_sched_trace(&mut self, on: bool) {
        self.sched.trace = on;
    }

    // ----- processes ----------------------------------------------------

    /// Loads a program and returns its pid.
    ///
    /// # Errors
    ///
    /// Fails if the images cannot be mapped, linked imports cannot be
    /// resolved or the pid space is used up.
    pub fn spawn(&mut self, spec: &LoadSpec) -> Result<Pid, VmError> {
        let pid = self.alloc_pid()?;
        let mut proc = Process::new(pid, "loading");
        load_into(&mut proc, spec)?;
        self.procs.insert(pid, proc);
        self.sched_reattach(pid);
        Ok(pid)
    }

    /// Allocates a fresh pid: one past the highest ever used.
    ///
    /// # Errors
    ///
    /// Fails with [`VmError::ResourceExhausted`] once `u32::MAX` is used.
    pub fn alloc_pid(&mut self) -> Result<Pid, VmError> {
        let next = self.next_pid.checked_add(1);
        self.next_pid = next.ok_or(VmError::ResourceExhausted("pids"))?;
        Ok(Pid(self.next_pid))
    }

    /// Immutable access to a process.
    ///
    /// # Errors
    ///
    /// Fails if no such process exists.
    pub fn process(&self, pid: Pid) -> Result<&Process, VmError> {
        self.procs.get(&pid).ok_or(VmError::NoSuchProcess(pid))
    }

    /// Mutable access to a process (checkpoint/restore and rewriting use
    /// this; prefer the syscall surface for guest-visible changes).
    ///
    /// # Errors
    ///
    /// Fails if no such process exists.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, VmError> {
        self.procs.get_mut(&pid).ok_or(VmError::NoSuchProcess(pid))
    }

    /// All pids currently known, in order.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// Stops scheduling a process (checkpoint freeze), remembering its
    /// scheduler state so [`thaw`](Kernel::thaw) can restore it exactly.
    /// Freezing an already-frozen process is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist or has exited.
    pub fn freeze(&mut self, pid: Pid) -> Result<(), VmError> {
        let proc = self.process_mut(pid)?;
        if proc.is_exited() {
            return Err(VmError::BadProcessState {
                pid,
                expected: "alive",
            });
        }
        if proc.state != ProcState::Frozen {
            proc.frozen_from = Some(proc.state);
            proc.state = ProcState::Frozen;
        }
        Ok(())
    }

    /// Resumes a frozen process, restoring the scheduler state it had at
    /// freeze time (a process that was blocked in `read` goes back to
    /// being blocked, not runnable). This makes a freeze → thaw round
    /// trip bit-identical — the rollback guarantee of a failed
    /// customization.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist or is not frozen.
    pub fn thaw(&mut self, pid: Pid) -> Result<(), VmError> {
        let proc = self.process_mut(pid)?;
        if proc.state != ProcState::Frozen {
            return Err(VmError::BadProcessState {
                pid,
                expected: "frozen",
            });
        }
        proc.state = proc.frozen_from.take().unwrap_or(ProcState::Runnable);
        // Re-attach to the scheduler: a thawed-runnable process is
        // re-admitted, a thawed-blocked one re-parks on its wait object
        // (data that arrived while it was frozen is noticed there).
        self.sched_reattach(pid);
        Ok(())
    }

    /// Removes a process entirely (the dump side of CRIU's
    /// checkpoint-then-kill).
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist.
    pub fn remove_process(&mut self, pid: Pid) -> Result<Process, VmError> {
        let mut proc = self.procs.remove(&pid).ok_or(VmError::NoSuchProcess(pid))?;
        // Stale wait-object entries are left behind deliberately: they
        // validate against the live process table on wake, so they can
        // neither fire for a dead pid nor mis-wake a restored reuse of
        // it (the ready condition is always re-checked).
        self.sched.forget(&mut proc);
        Ok(proc)
    }

    /// Re-inserts a process built by the restore path. The pid must be
    /// free.
    ///
    /// # Errors
    ///
    /// Fails if the pid is already in use.
    pub fn insert_process(&mut self, proc: Process) -> Result<(), VmError> {
        if self.procs.contains_key(&proc.pid) {
            return Err(VmError::BadProcessState {
                pid: proc.pid,
                expected: "a free pid slot",
            });
        }
        // Deliberately no cache flush here. A restored process starts
        // cold because the restore builds it new, and only a customize
        // commit carries entries into it, seeding generations as it does
        // (`BlockCache::carry_into`). Re-inserting an *original* process
        // (rollback, undo) keeps its cache — its page generations are
        // part of the address space being swapped back, so every entry
        // is exactly as valid as it was at dump time. That is what makes
        // rollback's version swap free (DESIGN §11).
        self.next_pid = self.next_pid.max(proc.pid.0);
        let pid = proc.pid;
        self.procs.insert(pid, proc);
        self.sched_reattach(pid);
        Ok(())
    }

    /// Queues a signal for a process from the host side.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist.
    pub fn post_signal(&mut self, pid: Pid, signal: Signal) -> Result<(), VmError> {
        self.process_mut(pid)?.pending_signals.push_back(signal);
        // A pending signal makes any blocked process ready.
        self.sched.note(WakeHint::Pid(pid));
        Ok(())
    }

    /// The process's exit status, if it has exited.
    pub fn exit_status(&self, pid: Pid) -> Option<ExitStatus> {
        let proc = self.procs.get(&pid)?;
        proc.is_exited().then(|| ExitStatus {
            code: proc.exit_code.unwrap_or(0),
            fatal_signal: proc.fatal_signal,
        })
    }

    // ----- time ---------------------------------------------------------

    /// Current kernel time in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the clock without running anyone — used by the DynaCut
    /// harness to account the measured host-side rewrite latency as guest
    /// downtime (the Figure 8 freeze window). Saturates at `u64::MAX`.
    pub fn advance_clock(&mut self, ns: u64) {
        self.clock_ns = self.clock_ns.saturating_add(ns);
    }

    /// Sets the serve-pump granularity (clamped to at least 1 ns); see
    /// [`DEFAULT_PUMP_CHUNK_NS`]. Smaller chunks re-check the stop
    /// condition (a response arrived, the awaited event fired, the
    /// process exited) more often at the cost of more pump iterations —
    /// the scheduler experiments shrink it to resolve tail latencies
    /// finer than the default chunk.
    pub fn set_pump_chunk_ns(&mut self, ns: u64) {
        self.pump_chunk_ns = ns.max(1);
    }

    /// The serve-pump granularity.
    pub fn pump_chunk_ns(&self) -> u64 {
        self.pump_chunk_ns
    }

    // ----- events -------------------------------------------------------

    /// Records a guest event exactly as if `pid` had issued
    /// `emit_event(code)` itself: the flight journal, the only record of
    /// guest events, gets a [`EventKind::VerifierReport`] or
    /// [`EventKind::GuestMarker`]. Rollout tests use this to synthesize
    /// a verifier report mid-soak without steering traffic at the
    /// canary.
    pub fn inject_event(&mut self, pid: Pid, code: u64) {
        let kind = if code & VERIFIER_EVENT_BIT != 0 {
            // The injected verifier library reports a falsely blocked
            // address (paper §3.2.3).
            self.flight.metrics_mut().add(Counter::VerifierReports, 1);
            EventKind::VerifierReport {
                addr: code & !VERIFIER_EVENT_BIT,
            }
        } else {
            EventKind::GuestMarker { code }
        };
        self.flight.record(self.clock_ns, Some(pid), kind);
    }

    // ----- flight recorder ----------------------------------------------

    /// The flight recorder: the structured event journal plus metrics
    /// registry every customize layer reports into. Not part of the
    /// guest-observable state ([`Kernel::state_fingerprint`] ignores it),
    /// so a rolled-back customization leaves the kernel bit-identical
    /// while the journal keeps the record of the failed attempt.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Mutable access to the flight recorder.
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Records a flight event stamped with the current guest clock.
    /// Returns the event's sequence number.
    pub fn record_flight(&mut self, pid: Option<Pid>, kind: EventKind) -> u64 {
        self.flight.record(self.clock_ns, pid, kind)
    }

    // ----- client networking --------------------------------------------

    /// Connects a host-side client to a listening guest port.
    ///
    /// # Errors
    ///
    /// Fails with [`VmError::ConnectionRefused`] if nothing listens there.
    pub fn client_connect(&mut self, port: u16) -> Result<ClientConn, VmError> {
        let conn = self
            .net
            .connect(port)
            .map(ClientConn)
            .ok_or(VmError::ConnectionRefused(port))?;
        // One backlog entry: wake one acceptor, not the whole herd —
        // N-1 of them would retry `accept` against an already-drained
        // backlog and re-block.
        self.sched.note(WakeHint::Port(port));
        Ok(conn)
    }

    /// Sends bytes from the client to the server. Bytes queue even while
    /// the connection is in checkpoint repair mode.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown or closed.
    pub fn client_send(&mut self, conn: ClientConn, bytes: &[u8]) -> Result<(), VmError> {
        let tcp = self
            .net
            .conn_mut(conn.0)
            .ok_or(VmError::BadConnection(conn.0 .0))?;
        if tcp.state == TcpState::Closed {
            return Err(VmError::BadConnection(conn.0 .0));
        }
        tcp.to_server.extend(bytes);
        self.sched.note(WakeHint::Conn(conn.0));
        Ok(())
    }

    /// Receives everything the server has sent so far (may be empty).
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown.
    pub fn client_recv(&mut self, conn: ClientConn) -> Result<Vec<u8>, VmError> {
        let tcp = self
            .net
            .conn_mut(conn.0)
            .ok_or(VmError::BadConnection(conn.0 .0))?;
        let out: Vec<u8> = tcp.to_client.drain(..).collect();
        Ok(out)
    }

    /// Closes the client end.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown.
    pub fn client_close(&mut self, conn: ClientConn) -> Result<(), VmError> {
        if self.net.conn(conn.0).is_none() {
            return Err(VmError::BadConnection(conn.0 .0));
        }
        self.net.close(conn.0);
        self.net.reap();
        // A closed (or reaped) connection makes a blocked read ready:
        // it returns 0.
        self.sched.note(WakeHint::Conn(conn.0));
        Ok(())
    }

    /// Sends a request and runs the kernel until a response arrives or
    /// `max_ns` of simulated time passes. Returns the response bytes.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown or closed.
    pub fn client_request(
        &mut self,
        conn: ClientConn,
        bytes: &[u8],
        max_ns: u64,
    ) -> Result<Vec<u8>, VmError> {
        self.client_send(conn, bytes)?;
        let deadline = self.clock_ns.saturating_add(max_ns);
        loop {
            // An expired (or zero) deadline must not run anything: the
            // old `.max(1)` here executed a 1 ns slice past the
            // deadline, so a "serve for at most max_ns" caller could
            // observe the clock beyond its budget.
            let remaining = deadline.saturating_sub(self.clock_ns);
            if remaining == 0 {
                return self.client_recv(conn);
            }
            let outcome = self.run_for(self.pump_chunk_ns.min(remaining));
            let out = self.client_recv(conn)?;
            if !out.is_empty() {
                return Ok(out);
            }
            if self.clock_ns >= deadline || outcome == RunOutcome::AllExited {
                return Ok(Vec::new());
            }
        }
    }

    // ----- checkpoint surface for connections ---------------------------

    /// Connection ids referenced by a process's descriptor table.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist.
    pub fn conn_ids_of(&self, pid: Pid) -> Result<Vec<ConnId>, VmError> {
        let proc = self.process(pid)?;
        Ok(proc
            .fds
            .iter()
            .filter_map(|(_, desc)| match desc {
                FileDesc::Conn(id) => Some(*id),
                _ => None,
            })
            .collect())
    }

    /// Puts connections into repair mode (dump) — the `TCP_REPAIR`
    /// analogue.
    pub fn repair_connections(&mut self, ids: &[ConnId]) {
        self.net.enter_repair(ids);
    }

    /// Re-establishes repaired connections (restore).
    pub fn unrepair_connections(&mut self, ids: &[ConnId]) {
        self.net.leave_repair(ids);
        // Leaving repair mode makes bytes buffered during the freeze
        // readable again: re-check each connection's indexed waiters.
        for &id in ids {
            self.sched.note(WakeHint::Conn(id));
        }
    }

    /// Snapshot of a connection's state (for the CRIU tcp image).
    pub fn conn_snapshot(&self, id: ConnId) -> Option<TcpConn> {
        self.net.conn(id).cloned()
    }

    /// Ensures a listener exists on `port` (restore of a listening fd).
    pub fn restore_listener(&mut self, port: u16) {
        self.net.listen(port);
    }

    /// Whether a listener exists on `port`.
    pub fn is_listening(&self, port: u16) -> bool {
        self.net.is_listening(port)
    }

    /// Removes the listener on `port` (rollback of a restore that
    /// created it). Connections already accepted are unaffected; an
    /// empty backlog entry is dropped with it.
    pub fn close_listener(&mut self, port: u16) {
        self.net.unlisten(port);
    }

    /// A canonical textual digest of the entire observable kernel state:
    /// clock, pid allocator, every process (scheduler state and its
    /// freeze provenance, registers, signal dispositions and queue, fds,
    /// modules, VMAs, page contents via per-page hashes, dirty bitmap),
    /// and the network stack (listeners, backlogs, connections with
    /// buffered bytes).
    ///
    /// Equal fingerprints mean behaviourally identical kernels. The
    /// transactional-customize tests compare the fingerprint taken
    /// before a fault-injected customization with the one after its
    /// rollback: DESIGN §5 requires them to match exactly.
    pub fn state_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "clock={} next_pid={}", self.clock_ns, self.next_pid);
        self.fingerprint_body(&mut out);
        out
    }

    /// [`state_fingerprint`](Kernel::state_fingerprint) with the guest
    /// clock masked out. A canary rollout's soak period serves real
    /// traffic, so guest time elapses and cannot be rolled back; a
    /// demotion restores every *other* observable — processes, memory,
    /// descriptors, network — bit-identically, and this is the digest
    /// the demotion-parity tests compare.
    pub fn state_fingerprint_timeless(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "clock=* next_pid={}", self.next_pid);
        self.fingerprint_body(&mut out);
        out
    }

    fn fingerprint_body(&self, out: &mut String) {
        use std::fmt::Write as _;
        let out = &mut *out;
        for (pid, proc) in &self.procs {
            let _ = writeln!(
                out,
                "proc {} name={:?} parent={:?} state={:?} frozen_from={:?} exit={:?} fatal={:?}",
                pid.0,
                proc.name,
                proc.parent.map(|parent| parent.0),
                proc.state,
                proc.frozen_from,
                proc.exit_code,
                proc.fatal_signal
            );
            let _ = writeln!(
                out,
                "  cpu pc={:#x} flags={:#x} regs={:x?}",
                proc.cpu.pc,
                proc.cpu.flags.to_bits(),
                proc.cpu.regs
            );
            let _ = writeln!(
                out,
                "  filter={:#x} insns={} sigdepth={} pending={:?} console_hash={:#018x}",
                proc.syscall_filter,
                proc.insns_retired,
                proc.signal_depth,
                proc.pending_signals,
                fnv1a(&proc.console)
            );
            for (signo, action) in proc.sigactions.iter().enumerate() {
                if action.handler != 0 || action.restorer != 0 || action.mask != 0 {
                    let _ = writeln!(
                        out,
                        "  sigaction {signo} handler={:#x} restorer={:#x} mask={:#x}",
                        action.handler, action.restorer, action.mask
                    );
                }
            }
            for (fd, desc) in proc.fds.iter() {
                match desc {
                    FileDesc::File { file, pos } => {
                        let _ = writeln!(
                            out,
                            "  fd {fd} = File {:?} pos={pos} hash={:#018x}",
                            file.path,
                            fnv1a(&file.contents)
                        );
                    }
                    other => {
                        let _ = writeln!(out, "  fd {fd} = {other:?}");
                    }
                }
            }
            for module in &proc.modules {
                let _ = writeln!(
                    out,
                    "  module {:?} base={:#x}",
                    module.image.name, module.base
                );
            }
            for vma in proc.mem.vmas() {
                let _ = writeln!(
                    out,
                    "  vma {:#x}-{:#x} {} {:?}",
                    vma.start, vma.end, vma.perms, vma.name
                );
            }
            for (base, bytes) in proc.mem.populated_pages() {
                let _ = writeln!(out, "  page {base:#x} hash={:#018x}", fnv1a(bytes));
            }
            let dirty: Vec<u64> = proc.mem.dirty_pages().collect();
            let _ = writeln!(out, "  dirty={dirty:x?}");
        }
        self.net.fingerprint(out);
    }

    // ----- running ------------------------------------------------------

    /// Runs the machine for up to `ns` nanoseconds of simulated time
    /// under the MLFQ scheduler (DESIGN §14).
    pub fn run_for(&mut self, ns: u64) -> RunOutcome {
        let deadline = self.clock_ns.saturating_add(ns);
        let outcome = self.run_for_mlfq(deadline);
        self.flush_sched_stats();
        outcome
    }

    /// The preemptive MLFQ run loop. Each pass services the wait-object
    /// registry (boost, expired timers, deferred wake notes), dispatches
    /// the next queued pid at its per-level quantum — clamped so a
    /// higher-priority sleeper's timer never waits out a full
    /// lower-level slice — and re-files the process by its post-slice
    /// state. With nothing queued it admits stray runnables, then idle
    /// fast-forwards to the earliest valid timer. No full-table scan on
    /// the hot path: the only O(N) walks left are the boost-interval
    /// reconciliation and the idle path, where nothing is running
    /// anyway.
    fn run_for_mlfq(&mut self, deadline: u64) -> RunOutcome {
        loop {
            self.sched_service();
            let Some((pid, level)) = self.sched.pop_next(&mut self.procs) else {
                if self.admit_strays() {
                    continue;
                }
                if self.procs.values().all(|p| p.is_exited()) {
                    return RunOutcome::AllExited;
                }
                match self.next_valid_timer() {
                    Some((t, _)) if t < deadline => {
                        self.sched.stats.idle_ns += t - self.clock_ns;
                        self.clock_ns = t;
                        continue;
                    }
                    _ => {
                        self.sched.stats.idle_ns += deadline.saturating_sub(self.clock_ns);
                        self.clock_ns = deadline;
                        return RunOutcome::Idle;
                    }
                }
            };
            // Per-level quantum (doubling per level), clamped to the
            // deadline, and clamped again if a higher-priority
            // sleeper's timer expires mid-slice — that is the
            // preemption point that keeps serving replicas' sleeps
            // honest while a background slice runs. Only the earliest
            // timer is consulted; a deeper higher-priority timer can be
            // late by at most one slice, the same quantisation the
            // deadline clamp already has.
            let full = QUANTUM << level;
            let mut budget = full.min(deadline.saturating_sub(self.clock_ns));
            let mut timer_clamped = false;
            if level > 0 {
                if let Some((t, sleeper_level)) = self.next_valid_timer() {
                    if sleeper_level < level && t > self.clock_ns && t - self.clock_ns < budget {
                        budget = t - self.clock_ns;
                        timer_clamped = true;
                    }
                }
            }
            self.sched.stats.quanta += 1;
            if self.sched.trace {
                self.flight.record(
                    self.clock_ns,
                    Some(pid),
                    EventKind::ContextSwitch {
                        level: u8::try_from(level).expect("a level is below SCHED_LEVELS"),
                    },
                );
            }
            self.step_slice(pid, budget);
            // Re-file by post-slice state. `step_slice` only ends early
            // on block/exit/freeze, so a still-runnable process with an
            // unclamped full budget provably burned its whole quantum:
            // compute-bound, demote.
            if let Some(proc) = self.procs.get_mut(&pid) {
                match proc.state {
                    ProcState::Runnable => {
                        if budget == full {
                            self.sched.demote(&mut proc.sched);
                        } else if timer_clamped {
                            self.sched.stats.preemptions += 1;
                        }
                        self.sched.enqueue(proc);
                    }
                    ProcState::Blocked(_) => self.sched_park(pid),
                    ProcState::Exited | ProcState::Frozen => {}
                }
            }
            if self.clock_ns >= deadline {
                return RunOutcome::Deadline;
            }
        }
    }

    /// One registry service pass: periodic priority boost, expired
    /// timers, and deferred wake notes. Every wake is re-validated
    /// against [`pid_ready`](Kernel::pid_ready), so stale registry
    /// entries and optimistic hints can never wake a process whose
    /// ready condition does not hold.
    fn sched_service(&mut self) {
        if self.clock_ns.saturating_sub(self.sched.last_boost_ns) >= BOOST_INTERVAL_NS {
            self.sched.last_boost_ns = self.clock_ns;
            self.sched.boost(&mut self.procs);
            // The boost is also the amortized safety net for runnables
            // that slipped past every hint path: admit them here, off
            // the per-quantum hot path.
            self.admit_strays();
        }
        while let Some(&Reverse((t, pid))) = self.sched.timers.peek() {
            if t > self.clock_ns {
                break;
            }
            self.sched.timers.pop();
            if self.sleeper(t, pid).is_some() {
                self.wake_pid(pid);
            }
        }
        while let Some(hint) = self.sched.hints.pop_front() {
            match hint {
                WakeHint::Pid(pid) => {
                    if self.pid_ready(pid) {
                        self.wake_pid(pid);
                    }
                }
                WakeHint::Conn(id) => {
                    let Some(waiters) = self.sched.read_waiters.remove(&id) else {
                        continue;
                    };
                    let mut keep = Vec::new();
                    for pid in waiters {
                        if !self.read_waiter_matches(pid, id) {
                            continue; // stale: drop it
                        }
                        if self.pid_ready(pid) {
                            self.wake_pid(pid);
                        } else {
                            keep.push(pid);
                        }
                    }
                    if !keep.is_empty() {
                        self.sched.read_waiters.insert(id, keep);
                    }
                }
                WakeHint::Port(port) => {
                    if !self.net.has_backlog(port) {
                        continue;
                    }
                    // One backlog entry wakes exactly one valid
                    // acceptor, in FIFO order — not the whole herd.
                    while let Some(pid) = self
                        .sched
                        .accept_waiters
                        .get_mut(&port)
                        .and_then(|queue| queue.pop_front())
                    {
                        if self.accept_waiter_matches(pid, port) {
                            self.wake_pid(pid);
                            break;
                        }
                    }
                    if self
                        .sched
                        .accept_waiters
                        .get(&port)
                        .is_some_and(|queue| queue.is_empty())
                    {
                        self.sched.accept_waiters.remove(&port);
                    }
                }
            }
        }
    }

    /// Admits every runnable process to the run queues, in pid order: the
    /// safety net for a process made runnable by a path that could not
    /// know about the scheduler. Returns whether any is runnable.
    fn admit_strays(&mut self) -> bool {
        let mut any = false;
        for proc in self.procs.values_mut().filter(|p| p.is_runnable()) {
            self.sched.enqueue(proc);
            any = true;
        }
        any
    }

    /// The process a timer entry `(t, pid)` still describes: one blocked
    /// in a sleep until exactly `t`.
    fn sleeper(&self, t: u64, pid: Pid) -> Option<&Process> {
        self.procs
            .get(&pid)
            .filter(|p| p.state == ProcState::Blocked(WaitReason::Until(t)))
    }

    /// Whether `pid` is ready to run right now (already-runnable counts
    /// as ready): a pending signal, an expired sleep, readable or
    /// closed connection data, a listener backlog, or an fd that will
    /// make the blocked syscall fail. The one definition of the ready
    /// conditions — every wake path validates against it.
    fn pid_ready(&self, pid: Pid) -> bool {
        let Some(proc) = self.procs.get(&pid) else {
            return false;
        };
        let reason = match proc.state {
            ProcState::Runnable => return true,
            ProcState::Blocked(reason) => reason,
            _ => return false,
        };
        if !proc.pending_signals.is_empty() {
            return true;
        }
        match reason {
            WaitReason::Until(t) => self.clock_ns >= t,
            WaitReason::ReadFd(fd) => match proc.fds.get(fd) {
                Some(FileDesc::Conn(id)) => match self.net.conn(*id) {
                    Some(conn) => {
                        (!conn.to_server.is_empty() && conn.state == TcpState::Established)
                            || conn.state == TcpState::Closed
                    }
                    None => true, // vanished: read will return 0
                },
                Some(FileDesc::File { .. }) => true,
                Some(FileDesc::Console) => false,
                _ => true, // bogus fd: let the syscall fail
            },
            WaitReason::Accept(fd) => match proc.fds.get(fd) {
                Some(FileDesc::Listener { port }) => self.net.has_backlog(*port),
                _ => true,
            },
        }
    }

    /// Flips a blocked process runnable and admits it to the run
    /// queues. The *only* `Blocked → Runnable` site, and it only runs
    /// from inside `run_for`: scheduler-driven state flips never happen
    /// from host methods, so a fingerprint taken between runs depends
    /// only on how much guest time has run, not on when hints landed.
    fn wake_pid(&mut self, pid: Pid) {
        let Some(proc) = self.procs.get_mut(&pid) else {
            return;
        };
        if matches!(proc.state, ProcState::Blocked(_)) {
            proc.state = ProcState::Runnable;
            self.sched.stats.wakeups += 1;
        }
        if proc.state == ProcState::Runnable {
            self.sched.enqueue(proc);
        }
    }

    /// Whether a read-waiter registry entry still describes reality:
    /// the process is blocked reading an fd that maps to this exact
    /// connection. Guards against pid reuse and fd re-targeting across
    /// a restore swap.
    fn read_waiter_matches(&self, pid: Pid, id: ConnId) -> bool {
        let Some(proc) = self.procs.get(&pid) else {
            return false;
        };
        match proc.state {
            ProcState::Blocked(WaitReason::ReadFd(fd)) => {
                matches!(proc.fds.get(fd), Some(FileDesc::Conn(conn)) if *conn == id)
            }
            _ => false,
        }
    }

    /// Accept-waiter analogue of
    /// [`read_waiter_matches`](Kernel::read_waiter_matches).
    fn accept_waiter_matches(&self, pid: Pid, port: u16) -> bool {
        let Some(proc) = self.procs.get(&pid) else {
            return false;
        };
        match proc.state {
            ProcState::Blocked(WaitReason::Accept(fd)) => {
                matches!(proc.fds.get(fd), Some(FileDesc::Listener { port: p }) if *p == port)
            }
            _ => false,
        }
    }

    /// Registers a blocked process on its wait object — without
    /// touching its state. Conditions that are already satisfied (or
    /// that have no wait object, like a bogus fd) become `Pid` hints so
    /// the next service pass wakes the process; genuinely parked
    /// waiters cost nothing until their object is touched. A console
    /// read has no wake source and parks nowhere:
    /// [`pid_ready`](Kernel::pid_ready) never holds for it.
    fn sched_park(&mut self, pid: Pid) {
        let Some(proc) = self.procs.get(&pid) else {
            return;
        };
        let ProcState::Blocked(reason) = proc.state else {
            return;
        };
        if !proc.pending_signals.is_empty() {
            self.sched.note(WakeHint::Pid(pid));
            return;
        }
        match reason {
            WaitReason::Until(t) => {
                if self.clock_ns >= t {
                    self.sched.note(WakeHint::Pid(pid));
                } else {
                    self.sched.timers.push(Reverse((t, pid)));
                }
            }
            WaitReason::ReadFd(fd) => match proc.fds.get(fd) {
                Some(FileDesc::Conn(id)) => {
                    let id = *id;
                    if self.pid_ready(pid) {
                        self.sched.note(WakeHint::Pid(pid));
                    } else {
                        self.sched.read_waiters.entry(id).or_default().push(pid);
                    }
                }
                Some(FileDesc::Console) => {}
                _ => self.sched.note(WakeHint::Pid(pid)),
            },
            WaitReason::Accept(fd) => match proc.fds.get(fd) {
                Some(FileDesc::Listener { port }) => {
                    let port = *port;
                    if self.net.has_backlog(port) {
                        self.sched.note(WakeHint::Pid(pid));
                    } else {
                        self.sched
                            .accept_waiters
                            .entry(port)
                            .or_default()
                            .push_back(pid);
                    }
                }
                _ => self.sched.note(WakeHint::Pid(pid)),
            },
        }
    }

    /// (Re-)attaches a process to the scheduler from its `ProcState`
    /// alone — spawn, thaw and restore-insert all funnel through here.
    /// This is why scheduler state never needs checkpointing:
    /// everything it holds is derivable on demand.
    fn sched_reattach(&mut self, pid: Pid) {
        let Some(proc) = self.procs.get_mut(&pid) else {
            return;
        };
        match proc.state {
            ProcState::Runnable => self.sched.enqueue(proc),
            ProcState::Blocked(_) => self.sched_park(pid),
            _ => {}
        }
    }

    /// Earliest still-valid sleeper `(wake_time, effective level)`,
    /// discarding stale heap entries from the top as a side effect.
    fn next_valid_timer(&mut self) -> Option<(u64, usize)> {
        while let Some(&Reverse((t, pid))) = self.sched.timers.peek() {
            if let Some(proc) = self.sleeper(t, pid) {
                return Some((t, proc.sched.effective_level()));
            }
            self.sched.timers.pop();
        }
        None
    }

    /// Flushes the per-run scheduler counters to the `sched.*` metrics.
    fn flush_sched_stats(&mut self) {
        let stats = self.sched.take_stats();
        let metrics = self.flight.metrics_mut();
        for (counter, by) in [
            (Counter::SchedQuanta, stats.quanta),
            (Counter::SchedPreemptions, stats.preemptions),
            (Counter::SchedDemotions, stats.demotions),
            (Counter::SchedBoosts, stats.boosts),
            (Counter::SchedWakeups, stats.wakeups),
            (Counter::SchedIdleNs, stats.idle_ns),
        ] {
            if by > 0 {
                metrics.add(counter, by);
            }
        }
    }

    /// Runs until the guest emits event `code`, or `max_ns` passes.
    /// Returns the event's [`EventKind::GuestMarker`] journal entry if
    /// seen. A marker stands in for the paper's DynamoRIO nudges and
    /// server log lines: it tells the host "the target server program
    /// has initialized" (§3.1).
    pub fn run_until_event(&mut self, code: u64, max_ns: u64) -> Option<FlightEvent> {
        let deadline = self.clock_ns.saturating_add(max_ns);
        // Each rescan starts at a `seq` cursor, not a buffer index: the
        // bounded journal drops its oldest entries when full, and an
        // index into the shifted buffer would double-scan old events or
        // skip fresh ones.
        let mut scanned_seq = self.flight.next_seq();
        while self.clock_ns < deadline {
            let outcome = self.run_for(self.pump_chunk_ns.min(deadline - self.clock_ns));
            let marker = self.flight.since(scanned_seq).find(
                |event| matches!(event.kind, EventKind::GuestMarker { code: c } if c == code),
            );
            if let Some(event) = marker {
                return Some(event.clone());
            }
            scanned_seq = self.flight.next_seq();
            if outcome == RunOutcome::AllExited {
                break;
            }
        }
        None
    }

    /// Runs until a process exits or `max_ns` passes.
    pub fn run_until_exit(&mut self, pid: Pid, max_ns: u64) -> Option<ExitStatus> {
        let deadline = self.clock_ns.saturating_add(max_ns);
        while self.clock_ns < deadline {
            if let Some(status) = self.exit_status(pid) {
                return Some(status);
            }
            match self.run_for(self.pump_chunk_ns.min(deadline - self.clock_ns)) {
                RunOutcome::AllExited => break,
                RunOutcome::Idle => {
                    if self.exit_status(pid).is_some() {
                        break;
                    }
                }
                RunOutcome::Deadline => {}
            }
        }
        self.exit_status(pid)
    }

    /// Runs one process for at most `budget` instructions.
    ///
    /// With the block cache enabled (the default), execution dispatches
    /// whole decoded blocks: a cache hit revalidates the block's page
    /// generations (skipped while the space's code stamp is the one the
    /// block last validated under) and then retires its instructions
    /// without touching `decode` or the VMA walk again. Entries that
    /// stay hot are re-decoded as superblocks chained across
    /// predicted-taken direct branches (see [`interp::decode_block`]); a
    /// recorded per-instruction pc guard side-exits the moment the
    /// guest's control flow diverges from the prediction. A block runs by
    /// reference out of the cache in [`interp::run_block`], each
    /// instruction executed inline and checked only for what its class
    /// can change, and its budget, retired count and clock are settled
    /// once, when it exits. The process is looked up once per run of
    /// blocks, again only after a syscall. Every per-instruction
    /// accounting rule of the uncached path — clock, `insns_retired`,
    /// hook callbacks, signal-delivery interleaving — is reproduced
    /// exactly, so cached and uncached runs are bit-identical under
    /// [`state_fingerprint`](Kernel::state_fingerprint).
    fn step_slice(&mut self, pid: Pid, budget: u64) {
        let mut hook = self.hook.take();
        let use_cache = self.block_cache_enabled;
        // Hot-path stats are accumulated locally and flushed to the
        // metrics registry once per slice.
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut cache_invalidations = 0u64;
        let mut version_swaps = 0u64;
        let mut superblocks_built = 0u64;
        let mut capacity_evictions = 0u64;
        let mut retired = 0u64;
        let mut budget_left = budget;
        'slice: while budget_left > 0 {
            // One lookup per run of blocks: blocks, faults and the trap
            // journal touch only the process, `self.flight` and
            // `self.clock_ns`, so the borrow lasts until a syscall, the
            // one step that can change the process table.
            let Some(proc) = self.procs.get_mut(&pid) else {
                break;
            };
            let syscall_pc = loop {
                if budget_left == 0 || !proc.is_runnable() {
                    break 'slice;
                }
                if !use_cache {
                    // The reference path starts every instruction, its
                    // signal delivery included, with an empty soft TLB,
                    // so parity with it also checks the TLB.
                    proc.mem.empty_tlb();
                }
                // Deliver pending (asynchronous) signals first.
                if let Some(signal) = proc.pending_signals.pop_front() {
                    let pc = proc.cpu.pc;
                    interp::deliver_signal(proc, signal, pc, hook.as_deref_mut());
                    if proc.is_exited() {
                        break 'slice;
                    }
                }
                let entry = proc.cpu.pc;

                if !use_cache {
                    // Uncached reference path: one fetch/decode/exec per
                    // budget unit.
                    budget_left -= 1;
                    let (insn, len) = match interp::fetch_insn(&mut proc.mem, entry) {
                        Ok(pair) => pair,
                        Err((signal, fault_addr)) => {
                            interp::deliver_signal(proc, signal, fault_addr, hook.as_deref_mut());
                            self.clock_ns += 1;
                            continue;
                        }
                    };
                    match interp::exec_insn(&mut proc.cpu, &mut proc.mem, &insn, len) {
                        Exec::Done | Exec::Wrote | Exec::Branched => {
                            proc.insns_retired = proc.insns_retired.saturating_add(1);
                            retired += 1;
                            self.clock_ns += 1;
                            if let Some(hook) = hook.as_deref_mut() {
                                hook.on_insn(pid, entry);
                            }
                        }
                        Exec::Fault(signal, fault_addr) => {
                            let handled = interp::deliver_signal(
                                proc,
                                signal,
                                fault_addr,
                                hook.as_deref_mut(),
                            );
                            self.clock_ns += 1;
                            if signal == Signal::Sigtrap {
                                // A patched trap byte fired: record the
                                // hit and attribute it to the policy that
                                // planted it, so unhandled traps are not
                                // just opaque 128+SIGTRAP exit codes.
                                self.flight.record_trap_hit(
                                    self.clock_ns,
                                    proc,
                                    fault_addr,
                                    handled,
                                );
                            }
                            if proc.is_exited() {
                                break 'slice;
                            }
                        }
                        Exec::Syscall => {
                            proc.insns_retired = proc.insns_retired.saturating_add(1);
                            retired += 1;
                            self.clock_ns += SYSCALL_COST_NS;
                            if let Some(hook) = hook.as_deref_mut() {
                                hook.on_insn(pid, entry);
                            }
                            break entry;
                        }
                    }
                    continue;
                }

                // ----- cached dispatch ----------------------------------
                // The block runs by reference out of the cache while the
                // CPU and the space are borrowed beside it: no refcount
                // moves.
                let Process {
                    cpu,
                    mem,
                    block_cache,
                    pending_signals,
                    ..
                } = &mut *proc;
                // One probe: a carried entry's first valid dispatch is a
                // version swap, no re-decode.
                let found = match block_cache.hit(entry, mem) {
                    Probe::Valid(found) => {
                        cache_hits += 1;
                        Some(found)
                    }
                    Probe::Swapped(found) => {
                        cache_hits += 1;
                        version_swaps += 1;
                        Some(found)
                    }
                    Probe::Stale => {
                        cache_invalidations += 1;
                        block_cache.remove(entry);
                        None
                    }
                    Probe::Absent => None,
                };
                let block = match found {
                    Some(found) => {
                        // Hot entry: re-decode chained across predicted
                        // branches and replace the plain block in place
                        // (the entry keeps its dispatch profile). The
                        // plain block just validated, so a decode failure
                        // is unreachable in practice; it runs the valid
                        // block.
                        if found.wants_promotion() {
                            if let Ok(superblock) = interp::decode_block(mem, entry, true) {
                                found.promote(superblock, mem);
                                superblocks_built += 1;
                            }
                        }
                        found.block()
                    }
                    None => {
                        cache_misses += 1;
                        match interp::decode_block(mem, entry, false) {
                            Ok(block) => {
                                let (block, evicted) = block_cache.insert(entry, block, mem);
                                capacity_evictions += evicted;
                                block
                            }
                            Err((signal, fault_addr)) => {
                                // Same accounting as an uncached fetch
                                // error: one budget unit, one clock tick,
                                // nothing retired.
                                budget_left -= 1;
                                interp::deliver_signal(
                                    proc,
                                    signal,
                                    fault_addr,
                                    hook.as_deref_mut(),
                                );
                                self.clock_ns += 1;
                                continue;
                            }
                        }
                    }
                };

                // Nothing inside a block can queue a signal (hooks see
                // only `(pid, pc)`; syscalls and faults end the block), so
                // one test at entry stands for every instruction. A
                // signal still queued behind the one delivered above is
                // due after this block's first instruction, which shares
                // the delivery's budget unit as on the uncached path. A
                // block longer than the budget left runs to the end of
                // the slice; the next slice re-enters at the current pc
                // (a fresh cache key).
                let run = if pending_signals.is_empty() {
                    &block.insns[..]
                } else {
                    &block.insns[..1]
                };
                let run = &run[..run
                    .len()
                    .min(usize::try_from(budget_left).unwrap_or(usize::MAX))];
                let (completed, exit) =
                    interp::run_block(cpu, mem, block, run, pid, hook.as_deref_mut());
                // Settle the block's accounting once. Each instruction
                // that completed took a budget unit and a clock tick and
                // retired, a syscall's tick being `SYSCALL_COST_NS`; a
                // faulting one took a unit and a tick and did not retire.
                let completed = completed as u64;
                let (units, ticks) = match exit {
                    BlockExit::Fault(..) => (completed + 1, completed + 1),
                    BlockExit::Syscall(_) => (completed, completed - 1 + SYSCALL_COST_NS),
                    BlockExit::Redispatch | BlockExit::Invalidated => (completed, completed),
                };
                budget_left -= units;
                proc.insns_retired = proc.insns_retired.saturating_add(completed);
                retired += completed;
                self.clock_ns += ticks;
                match exit {
                    BlockExit::Redispatch => {}
                    BlockExit::Invalidated => {
                        cache_invalidations += 1;
                        proc.block_cache.remove(entry);
                    }
                    BlockExit::Fault(signal, fault_addr) => {
                        let handled =
                            interp::deliver_signal(proc, signal, fault_addr, hook.as_deref_mut());
                        if signal == Signal::Sigtrap {
                            self.flight
                                .record_trap_hit(self.clock_ns, proc, fault_addr, handled);
                        }
                        if proc.is_exited() {
                            break 'slice;
                        }
                    }
                    BlockExit::Syscall(pc) => break pc,
                }
            };
            if self.do_syscall(pid, syscall_pc, hook.as_deref_mut()) {
                break;
            }
        }
        let metrics = self.flight.metrics_mut();
        for (counter, by) in [
            (Counter::InsnsRetired, retired),
            (Counter::BlockCacheHits, cache_hits),
            (Counter::BlockCacheMisses, cache_misses),
            (Counter::BlockCacheInvalidations, cache_invalidations),
            (Counter::BlockCacheVersionSwaps, version_swaps),
            (Counter::BlockCacheSuperblocks, superblocks_built),
            (Counter::BlockCacheCapacityEvictions, capacity_evictions),
        ] {
            if by > 0 {
                metrics.add(counter, by);
            }
        }
        self.hook = hook;
    }
}

/// The syscall layer (DESIGN §15); its decoders live in [`crate::syscall`].
impl Kernel {
    /// Runs the syscall at `pc` and applies its [`Outcome`]: the one place
    /// that writes `r0`, rewinds `pc` and parks the caller. Returns `true`
    /// if the caller's slice ends.
    fn do_syscall(&mut self, pid: Pid, pc: u64, mut hook: Option<&mut (dyn Hook + '_)>) -> bool {
        let proc = self.procs.get_mut(&pid).expect("caller checked");
        let nr = proc.cpu.reg(Reg::R0);
        if let Some(hook) = hook.as_deref_mut() {
            hook.on_syscall(pid, nr);
        }
        // Seccomp-style filtering (paper §5): a blocked syscall kills the
        // process with SIGSYS, like `SECCOMP_RET_KILL`.
        let outcome = if proc.syscall_allowed(nr) {
            let result = self.syscall(pid, hook);
            result.unwrap_or_else(|errno| {
                self.flight.metrics_mut().add(errno.failed_counter(), 1);
                Outcome::Ret(errno.ret())
            })
        } else {
            proc.kill(Signal::Sigsys);
            Outcome::End(None)
        };
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        match outcome {
            Outcome::Ret(value) => proc.cpu.set_reg(Reg::R0, value),
            Outcome::Restart(reason) => {
                proc.cpu.pc = pc;
                proc.state = ProcState::Blocked(reason);
            }
            Outcome::End(Some(reason)) => {
                proc.cpu.set_reg(Reg::R0, 0);
                proc.state = ProcState::Blocked(reason);
            }
            Outcome::Resume | Outcome::End(None) => {}
        }
        matches!(outcome, Outcome::Restart(_) | Outcome::End(_))
    }

    /// The handler of the permitted syscall in the caller's `r0`.
    fn syscall(&mut self, pid: Pid, hook: Option<&mut (dyn Hook + '_)>) -> Result<Outcome, Errno> {
        use Outcome::{End, Restart, Resume, Ret};
        use TcpState::{Closed, Repair};
        let proc = self.procs.get_mut(&pid).expect("caller checked");
        let sysno = Sysno::from_raw(proc.cpu.reg(Reg::R0)).ok_or(Errno::Enosys)?;
        let args = [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5].map(|reg| proc.cpu.reg(reg));
        match sysno {
            Sysno::Exit => {
                proc.exit(args[0]);
                Ok(End(None))
            }
            Sysno::Write => {
                let fd = syscall::fd(args[0])?;
                let buf = syscall::copy_from_user(&proc.mem, args[1], args[2])?;
                self.clock_ns += args[2] / 8;
                match proc.fds.get(fd) {
                    Some(FileDesc::Console) => proc.console.extend_from_slice(&buf),
                    Some(FileDesc::Conn(id)) => match self.net.conn_mut(*id) {
                        Some(conn) if conn.state != Closed => conn.to_client.extend(buf),
                        _ => return Err(Errno::Epipe),
                    },
                    _ => return Err(Errno::Ebadf),
                }
                Ok(Ret(args[2]))
            }
            Sysno::Read => {
                let fd = syscall::fd(args[0])?;
                // A length only caps the copy, so saturating it is exact.
                let len = usize::try_from(args[2]).unwrap_or(usize::MAX);
                // A source is consumed only once its copy succeeded: EFAULT keeps it.
                let n = match proc.fds.get_mut(fd) {
                    Some(FileDesc::File { file, pos }) => {
                        let at = usize::try_from(*pos).unwrap_or(usize::MAX);
                        let rest = file.contents.get(at..).unwrap_or_default();
                        let n = len.min(rest.len());
                        syscall::copy_to_user(&mut proc.mem, args[1], &rest[..n])?;
                        *pos += n as u64;
                        n
                    }
                    Some(FileDesc::Conn(id)) => match self.net.conn_mut(*id) {
                        Some(conn) if !conn.to_server.is_empty() && conn.state != Repair => {
                            let n = len.min(conn.to_server.len());
                            let bytes = &conn.to_server.make_contiguous()[..n];
                            syscall::copy_to_user(&mut proc.mem, args[1], bytes)?;
                            conn.to_server.drain(..n);
                            n
                        }
                        // Gone, or closed and drained: end of file.
                        None | Some(TcpConn { state: Closed, .. }) => 0,
                        Some(_) => return Ok(Restart(WaitReason::ReadFd(fd))),
                    },
                    Some(FileDesc::Console) => return Ok(Restart(WaitReason::ReadFd(fd))),
                    _ => return Err(Errno::Ebadf),
                };
                self.clock_ns += n as u64 / 8;
                Ok(Ret(n as u64))
            }
            Sysno::Open => {
                let path = syscall::copy_from_user(&proc.mem, args[0], args[1])?;
                let path = String::from_utf8(path).map_err(|_| Errno::Enoent)?;
                let contents = Arc::clone(self.vfs.get(&path).ok_or(Errno::Enoent)?);
                let file = VfsFile { path, contents };
                syscall::new_fd(&mut proc.fds, FileDesc::File { file, pos: 0 })
            }
            Sysno::Close => {
                let desc = proc.fds.close(syscall::fd(args[0])?).ok_or(Errno::Ebadf)?;
                if let FileDesc::Conn(id) = desc {
                    self.net.close(id);
                    // A close readies any read blocked on the connection (it returns 0).
                    self.sched.note(WakeHint::Conn(id));
                }
                Ok(Ret(0))
            }
            Sysno::Socket => syscall::new_fd(&mut proc.fds, FileDesc::Socket),
            Sysno::Bind => {
                let (fd, port) = (syscall::fd(args[0])?, syscall::port(args[1])?);
                let Some(desc @ FileDesc::Socket) = proc.fds.get_mut(fd) else {
                    return Err(Errno::Ebadf);
                };
                *desc = FileDesc::Listener { port };
                Ok(Ret(0))
            }
            Sysno::Listen => match proc.fds.get(syscall::fd(args[0])?) {
                Some(FileDesc::Listener { port }) => {
                    self.net.listen(*port);
                    Ok(Ret(0))
                }
                _ => Err(Errno::Ebadf),
            },
            Sysno::Accept => {
                let fd = syscall::fd(args[0])?;
                let Some(&FileDesc::Listener { port }) = proc.fds.get(fd) else {
                    return Err(Errno::Ebadf);
                };
                // EMFILE before the backlog pop, so a full table loses no connection.
                proc.fds.next_fd().ok_or(Errno::Emfile)?;
                match self.net.accept(port) {
                    Some(id) => syscall::new_fd(&mut proc.fds, FileDesc::Conn(id)),
                    None => Ok(Restart(WaitReason::Accept(fd))),
                }
            }
            Sysno::Fork => {
                let child_pid = self.alloc_pid().map_err(|_| Errno::Eagain)?;
                let mut child = self.procs[&pid].clone();
                child.pid = child_pid;
                child.parent = Some(pid);
                child.sched = SchedRecord::default();
                child.cpu.set_reg(Reg::R0, 0);
                child.console.clear();
                child.insns_retired = 0;
                self.procs.insert(child_pid, child);
                self.sched.note(WakeHint::Pid(child_pid));
                if let Some(hook) = hook {
                    hook.on_fork(pid, child_pid);
                }
                Ok(Ret(u64::from(child_pid.0)))
            }
            Sysno::Getpid => Ok(Ret(u64::from(pid.0))),
            Sysno::Nanosleep => {
                let until = self.clock_ns.saturating_add(args[0]);
                Ok(End(Some(WaitReason::Until(until))))
            }
            Sysno::Sigaction => {
                let signal = syscall::signal(args[0])?;
                if !signal.catchable() {
                    return Err(Errno::Einval);
                }
                proc.sigactions[signal as usize] = SigAction {
                    handler: args[1],
                    restorer: args[2],
                    mask: args[3],
                };
                Ok(Ret(0))
            }
            Sysno::Sigreturn => {
                if interp::sigreturn(proc, args[0]).is_err() {
                    proc.kill(Signal::Sigsegv);
                    return Ok(End(None));
                }
                Ok(Resume)
            }
            Sysno::Mmap => {
                let (hint, len) = (args[0], syscall::page_len(args[1], Errno::Enomem)?);
                // Take the hint only if its whole range is free; else map elsewhere.
                let addr = match proc.mem.find_free(hint, len) {
                    Some(free) if free == hint && hint != 0 => hint,
                    _ => proc.mem.find_free(MMAP_BASE, len).ok_or(Errno::Enomem)?,
                };
                let mapped = proc.mem.map(addr, len, perms_from_bits(args[2]), "anon");
                mapped.map(|()| Ret(addr)).map_err(|_| Errno::Enomem)
            }
            Sysno::Munmap => {
                let len = syscall::page_len(args[1], Errno::Einval)?;
                let unmapped = proc.mem.unmap(args[0], len);
                unmapped.map(|()| Ret(0)).map_err(|_| Errno::Einval)
            }
            Sysno::Mprotect => {
                let len = syscall::page_len(args[1], Errno::Einval)?;
                let changed = proc.mem.protect(args[0], len, perms_from_bits(args[2]));
                changed.map(|()| Ret(0)).map_err(|_| Errno::Einval)
            }
            Sysno::ClockGettime => Ok(Ret(self.clock_ns)),
            Sysno::EmitEvent => {
                self.inject_event(pid, args[0]);
                if let Some(hook) = hook {
                    hook.on_event(pid, args[0]);
                }
                Ok(Ret(0))
            }
            Sysno::Kill => {
                let (target, signal) = (syscall::pid(args[0])?, syscall::signal(args[1])?);
                self.post_signal(target, signal).map_err(|_| Errno::Esrch)?;
                Ok(Ret(0))
            }
        }
    }
}

/// FNV-1a over a byte slice — cheap content hashing for
/// [`Kernel::state_fingerprint`]. Not cryptographic; the fingerprint
/// compares two states of the *same* deterministic simulation, where a
/// 64-bit collision between a rolled-back page and its pristine twin is
/// not a realistic failure mode.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_isa::{Assembler, Insn};
    use dynacut_obj::{Image, ModuleBuilder, ObjectKind};

    fn build_exe(asm: &mut Assembler) -> Image {
        let mut builder = ModuleBuilder::new("sched_record", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.entry("_start");
        builder.link(&[]).unwrap()
    }

    /// The levels of the run queues `pid` sits in.
    fn queued_levels(kernel: &Kernel, pid: Pid) -> Vec<usize> {
        (0..crate::SCHED_LEVELS)
            .flat_map(|level| {
                let queue = &kernel.sched.queues[level];
                queue.iter().filter(move |&&p| p == pid).map(move |_| level)
            })
            .collect()
    }

    /// A forked child starts from a fresh scheduling record — level 0,
    /// `Normal`, `trap_hits.none` — however the parent's reads.
    #[test]
    fn forked_child_starts_normal_at_level_zero_under_trap_hits_none() {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.push(Insn::Movi(Reg::R0, Sysno::Fork as u64));
        asm.push(Insn::Syscall);
        asm.label("zzz");
        asm.push(Insn::Movi(Reg::R0, Sysno::Nanosleep as u64));
        asm.push(Insn::Movi(Reg::R1, 1_000_000_000));
        asm.push(Insn::Syscall);
        asm.jmp("zzz");
        let mut kernel = Kernel::new();
        let parent = kernel
            .spawn(&LoadSpec::exe_only(build_exe(&mut asm)))
            .unwrap();
        kernel.set_sched_class(parent, SchedClass::Background);
        kernel.set_trap_policy(parent, Counter::TrapHitsVerify);
        kernel.procs.get_mut(&parent).unwrap().sched.level = 2;
        kernel.run_for(10_000);

        let pids = kernel.pids();
        assert_eq!(pids.len(), 2, "the parent forked once");
        let child = kernel.process(pids[1]).unwrap();
        assert_eq!(child.parent, Some(parent));
        assert_eq!(child.sched.class, SchedClass::Normal);
        assert_eq!(child.sched.level, 0);
        assert_eq!(child.sched.trap_hits, Counter::TrapHitsNone);
        let record = kernel.process(parent).unwrap().sched;
        assert_eq!(record.class, SchedClass::Background);
        assert_eq!(record.level, 2, "blocking keeps the parent's level");
        assert_eq!(record.trap_hits, Counter::TrapHitsVerify);
    }

    /// Removing a process takes it out of the run queues and resets its
    /// level, so re-inserting it queues it once, at level 0.
    #[test]
    fn removed_and_reinserted_process_starts_at_level_zero_queued_once() {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.label("spin");
        asm.push(Insn::Addi(Reg::R5, 1));
        asm.jmp("spin");
        let mut kernel = Kernel::new();
        let pid = kernel
            .spawn(&LoadSpec::exe_only(build_exe(&mut asm)))
            .unwrap();
        kernel.run_for(2_000);
        let demoted = kernel.process(pid).unwrap().sched.level;
        assert!(demoted > 0, "a busy loop burns full quanta");
        assert_eq!(queued_levels(&kernel, pid), [demoted]);

        let proc = kernel.remove_process(pid).unwrap();
        assert_eq!(proc.sched.level, 0);
        assert!(!proc.sched.queued);
        assert!(queued_levels(&kernel, pid).is_empty());
        kernel.insert_process(proc).unwrap();
        assert_eq!(queued_levels(&kernel, pid), [0]);
        let retired = kernel.process(pid).unwrap().insns_retired;
        kernel.run_for(1_000);
        assert!(kernel.process(pid).unwrap().insns_retired > retired);
    }
}
