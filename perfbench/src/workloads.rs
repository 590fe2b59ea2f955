//! The three workloads. Each episode builds the redis image, boots the
//! replicas, warms them with a fixed request sequence (the set-up), and
//! then runs a fixed, seed-generated sequence of request batches and
//! ops (the measured phase). A fixed sequence, not a fixed duration:
//! every customize op leaves one more handler library mapped, so op
//! cost grows with the op index and only a fixed count of ops measures
//! the same thing twice.

use crate::client::{mix, Client, Cmd, Model, Rng, Tally};
use crate::trace::{Recorder, SpanId, ROOT};
use dynacut::{
    CustomizeReport, Downtime, DynaCut, FaultPolicy, Feature, Phase, RewritePlan, RolloutDecision,
    RolloutPlan,
};
use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_obj::Image;
use dynacut_vm::{Kernel, LoadSpec, Pid};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// An 8-replica fleet serving a GET/SET/PING mix; nothing is
    /// customized. Its ops are replica restarts, after the serving.
    Serve,
    /// One process whose SET is disabled and re-enabled in turn, with a
    /// batch of requests between ops.
    Toggle,
    /// An 8-replica fleet running canary → soak → promote rollouts that
    /// disable and re-enable SETRANGE in turn.
    Rollout,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve" => Some(Workload::Serve),
            "toggle" => Some(Workload::Toggle),
            "rollout" => Some(Workload::Rollout),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Toggle => "toggle",
            Workload::Rollout => "rollout",
        }
    }

    /// Episodes a run of `seconds` makes, at least `min`: `seconds` over
    /// the host seconds one episode takes on an unloaded 2-vCPU host.
    /// The count depends only on the arguments, so a slower commit or a
    /// busier host never changes how many episodes a best is taken
    /// over, and the best's downward bias stays the same.
    pub fn episodes(self, seconds: u64, min: usize) -> usize {
        let episode_s = match self {
            Workload::Serve => 0.45,
            Workload::Toggle => 0.35,
            Workload::Rollout => 1.9,
        };
        ((seconds as f64 / episode_s).round() as usize).max(min)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::Serve => Shape {
                replicas: 8,
                in_flight: 2,
                reconnect_every: 8,
                warmup: 2_000,
                ops: 100,
                batch: 500,
                batches: 40,
            },
            Workload::Toggle => Shape {
                replicas: 1,
                in_flight: 1,
                reconnect_every: 8,
                warmup: 2_000,
                ops: 100,
                batch: 40,
                batches: 101,
            },
            Workload::Rollout => Shape {
                replicas: 8,
                in_flight: 2,
                reconnect_every: 1,
                warmup: 2_000,
                ops: 100,
                batch: 10,
                batches: 101,
            },
        }
    }
}

/// The fixed sizes of one episode.
#[derive(Debug, Clone, Copy)]
struct Shape {
    replicas: usize,
    in_flight: usize,
    reconnect_every: u32,
    /// Requests in the set-up's warm-up, sent in batches of
    /// [`WARMUP_BATCH`].
    warmup: usize,
    /// Ops: on `toggle` and `rollout` one after each batch but the
    /// last; on `serve`, replica restarts after the measured phase.
    ops: usize,
    /// Requests per batch.
    batch: usize,
    /// Request batches in the measured phase.
    batches: usize,
}

/// Rollout soak and serve-slice lengths (simulated time). Short, so
/// that an episode of 100 rollouts stays near two seconds.
const ROLLOUT_PLAN: RolloutPlan = RolloutPlan {
    soak_slices: 2,
    serve_slice_ns: 10_000,
};

/// Requests per timed warm-up batch.
const WARMUP_BATCH: usize = 100;

/// Simulated time a (re)booted replica may take to initialize.
const BOOT_LIMIT_NS: u64 = 500_000_000;

/// Kernel counters read around the measured phase and around each op.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub insns: u64,
    pub bcache_hits: u64,
    pub bcache_misses: u64,
    pub bcache_invalidations: u64,
    pub bcache_version_swaps: u64,
    pub quanta: u64,
    pub wakeups: u64,
    pub preemptions: u64,
    pub idle_ns: u64,
}

impl Counters {
    fn read(kernel: &Kernel) -> Self {
        let metrics = kernel.flight().metrics();
        Counters {
            insns: metrics.counter("insns_retired"),
            bcache_hits: metrics.counter("block_cache.hits"),
            bcache_misses: metrics.counter("block_cache.misses"),
            bcache_invalidations: metrics.counter("block_cache.invalidations"),
            bcache_version_swaps: metrics.counter("block_cache.version_swaps"),
            quanta: metrics.counter("sched.quanta"),
            wakeups: metrics.counter("sched.wakeups"),
            preemptions: metrics.counter("sched.preemptions"),
            idle_ns: metrics.counter("sched.idle_ns"),
        }
    }

    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Counters {
            insns: f(self.insns, other.insns),
            bcache_hits: f(self.bcache_hits, other.bcache_hits),
            bcache_misses: f(self.bcache_misses, other.bcache_misses),
            bcache_invalidations: f(self.bcache_invalidations, other.bcache_invalidations),
            bcache_version_swaps: f(self.bcache_version_swaps, other.bcache_version_swaps),
            quanta: f(self.quanta, other.quanta),
            wakeups: f(self.wakeups, other.wakeups),
            preemptions: f(self.preemptions, other.preemptions),
            idle_ns: f(self.idle_ns, other.idle_ns),
        }
    }

    fn since(self, before: Self) -> Self {
        self.zip(before, u64::saturating_sub)
    }

    pub fn plus(self, other: Self) -> Self {
        self.zip(other, u64::saturating_add)
    }
}

/// Per-layer raw figures of one traced episode's measured phase.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Requests completed in the measured phase.
    pub requests: u64,
    /// Customize or rollout ops (0 on `serve`).
    pub ops: u64,
    /// Busy time inside `Kernel::run_for` pump slices.
    pub run_for_ns: u64,
    /// Time inside the client calls (connect, send, recv, close).
    pub client_ns: u64,
    /// Counter deltas over the measured phase outside ops.
    pub serve: Counters,
    /// Counter deltas over the whole measured phase, ops included.
    pub all: Counters,
    /// Per-op samples in microseconds, by per-layer metric name.
    pub per_op_us: BTreeMap<&'static str, Vec<f64>>,
    /// Every promoted replica's freeze window, microseconds.
    pub promote_windows_us: Vec<f64>,
    /// Summed over ops: page bytes moved while frozen, serialized image
    /// bytes, page bytes the restore copied, dump nanoseconds.
    pub frozen_bytes: u64,
    pub image_bytes: u64,
    pub restore_copied_bytes: u64,
    pub dump_ns: u64,
    /// Mapped modules per process after each op.
    pub modules_per_proc: Vec<f64>,
    /// Page store at the end of the episode: unique and logical bytes.
    pub store_unique_bytes: u64,
    pub store_logical_bytes: u64,
}

/// What one episode measured.
#[derive(Debug, Default, Clone)]
pub struct Episode {
    /// Host-wall duration of each set-up step (the image build, each
    /// replica's boot, each warm-up batch), in order, microseconds.
    pub setup_us: Vec<f64>,
    /// Host-wall duration of each step of the measured phase (each
    /// request batch, and each op on `toggle` and `rollout`), in order,
    /// microseconds.
    pub slot_us: Vec<f64>,
    /// Requests completed in the measured phase.
    pub completed: u64,
    /// Requests of the measured phase. Its counts include the warm-up.
    pub requests: Tally,
    /// Ops attempted and failed.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Host-wall duration of every op, microseconds.
    pub op_us: Vec<f64>,
    /// Traced episodes only.
    pub layers: Option<Layers>,
}

/// A booted fleet of identical redis replicas sharing one kernel and
/// one listening port.
struct Fleet {
    kernel: Kernel,
    pids: Vec<Pid>,
    spec: LoadSpec,
    exe: Arc<Image>,
    registry: ModuleRegistry,
}

/// Builds the redis image and boots `replicas` replicas, each run to
/// its ready marker before the next is spawned. Times the image build
/// and each boot as set-up steps.
fn boot(replicas: usize, setup_us: &mut Vec<f64>) -> Fleet {
    let start = Instant::now();
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    setup_us.push(us(start.elapsed()));
    let pids = (0..replicas)
        .map(|_| {
            let start = Instant::now();
            let pid = kernel.spawn(&spec).expect("spawn a redis replica");
            kernel
                .run_until_event(EVENT_READY, BOOT_LIMIT_NS)
                .expect("replica initializes");
            setup_us.push(us(start.elapsed()));
            pid
        })
        .collect();
    Fleet {
        kernel,
        pids,
        spec,
        exe,
        registry,
    }
}

/// The metric name of a customize stage's span.
fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::PreDump => "criu.pre_dump",
        Phase::Freeze => "core.freeze",
        Phase::Dump => "criu.dump",
        Phase::ImageEdit => "core.image_edit",
        Phase::Inject => "core.inject",
        Phase::RestorePrepare => "criu.restore_prepare",
        Phase::RestoreCommit => "criu.restore_commit",
        Phase::BaselineStore => "criu.baseline_store",
        Phase::Soak => "core.soak",
        Phase::Promote => "core.promote",
        _ => "core.stage",
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Per-op bookkeeping shared by the toggle and rollout loops.
struct OpLog<'a> {
    rec: &'a mut Recorder,
    layers: Layers,
    op_counters: Counters,
}

impl OpLog<'_> {
    /// Records the op's span and, from the report's stage durations,
    /// its children laid out back to back from the op's start, plus the
    /// report's byte counts. The op's self time is what no child covers.
    fn op(
        &mut self,
        name: &'static str,
        id: u32,
        start: Instant,
        wall: Duration,
        report: &CustomizeReport,
        windows: &[Duration],
    ) {
        if !self.rec.on() {
            return;
        }
        self.layers.frozen_bytes += report.frozen_page_bytes as u64;
        self.layers.image_bytes += report.image_bytes as u64;
        self.layers.restore_copied_bytes += report.restore_copied_bytes as u64;
        self.layers.dump_ns += phase_ns(&report.phases, Phase::Dump);
        let op: SpanId = self.rec.record(name, ROOT, id, start, wall);
        let mut at = start;
        let mut covered = Duration::ZERO;
        for &(phase, elapsed) in &report.phases {
            self.rec.record(phase_span(phase), op, id, at, elapsed);
            self.layers
                .per_op_us
                .entry(phase_span(phase))
                .or_default()
                .push(us(elapsed));
            at += elapsed;
            covered += elapsed;
        }
        self.layers
            .per_op_us
            .entry("core.freeze_window")
            .or_default()
            .push(us(report.freeze_window()));
        for &window in windows {
            self.rec.record("core.promote_window", op, id, at, window);
            self.layers.promote_windows_us.push(us(window));
            at += window;
            covered += window;
        }
        let promote_sum: Duration = windows.iter().sum();
        self.layers
            .per_op_us
            .entry("core.promote_windows_sum")
            .or_default()
            .push(us(promote_sum));
        self.layers
            .per_op_us
            .entry("core.engine_other")
            .or_default()
            .push(us(wall.saturating_sub(covered)));
    }

    fn modules(&mut self, kernel: &Kernel, pids: &[Pid]) {
        if !self.rec.on() {
            return;
        }
        let total: usize = pids
            .iter()
            .filter_map(|&pid| kernel.process(pid).ok())
            .map(|proc| proc.modules.len())
            .sum();
        self.layers
            .modules_per_proc
            .push(total as f64 / pids.len().max(1) as f64);
    }
}

/// Runs one episode of `workload` for `seed`, recording spans into
/// `rec` when it is on.
pub fn episode(workload: Workload, seed: u64, rec: &mut Recorder) -> Episode {
    let shape = workload.shape();
    // One rotation runs through the warm-up and every batch.
    let cmds = mix(
        &mut Rng::new(seed, 1),
        shape.warmup + shape.batches * shape.batch,
    );
    let (warmup, measured) = cmds.split_at(shape.warmup);
    let batches: Vec<&[Cmd]> = measured.chunks(shape.batch).collect();
    let mut model = Model::new(&mut Rng::new(seed, 2), shape.replicas == 1);
    let mut client = Client::new(redis::PORT, shape.in_flight, shape.reconnect_every);
    let mut out = Episode::default();

    // Set-up: image build, boot, warm-up.
    let mut fleet = boot(shape.replicas, &mut out.setup_us);
    let mut warm = Tally::default();
    for batch in warmup.chunks(WARMUP_BATCH) {
        let start = Instant::now();
        client.run(&mut fleet.kernel, batch, &mut model, rec, &mut warm);
        out.setup_us.push(us(start.elapsed()));
    }
    if workload != Workload::Toggle {
        client.close_all(&mut fleet.kernel, rec);
    }
    rec.clear();

    let mut log = OpLog {
        rec,
        layers: Layers::default(),
        op_counters: Counters::default(),
    };
    let before = Counters::read(&fleet.kernel);
    let mut tally = Tally::default();
    match workload {
        Workload::Serve => {
            for &batch in &batches {
                let start = Instant::now();
                client.run(&mut fleet.kernel, batch, &mut model, log.rec, &mut tally);
                out.slot_us.push(us(start.elapsed()));
            }
            client.close_all(&mut fleet.kernel, log.rec);
        }
        Workload::Toggle => toggle(
            &mut fleet,
            &batches,
            &mut client,
            &mut model,
            &mut log,
            &mut tally,
            &mut out,
        ),
        Workload::Rollout => rollout(
            &mut fleet,
            &batches,
            &mut client,
            &mut model,
            &mut log,
            &mut tally,
            &mut out,
        ),
    }
    let all = Counters::read(&fleet.kernel).since(before);
    let completed = tally.attempted - tally.failed;
    out.completed = completed;

    if log.rec.on() {
        let rec = &*log.rec;
        let layers = &mut log.layers;
        layers.requests = completed;
        layers.run_for_ns = rec.total_ns("vm.run_for");
        layers.client_ns = [
            "vm.client_connect",
            "vm.client_send",
            "vm.client_recv",
            "vm.client_close",
        ]
        .iter()
        .map(|name| rec.total_ns(name))
        .sum();
        layers.all = all;
        layers.serve = all.since(log.op_counters);
        layers.ops = out.ops_attempted;
    }

    if workload == Workload::Serve {
        restarts(
            &mut fleet,
            shape.ops,
            &mut Rng::new(seed, 3),
            log.rec,
            &mut out,
        );
    }

    // Warm-up requests are checked too: a wrong reply anywhere fails.
    tally.attempted += warm.attempted;
    tally.failed += warm.failed;
    out.requests = tally;
    if log.rec.on() {
        out.layers = Some(log.layers);
    }
    out
}

/// The toggle loop: a batch, then SET disabled (even ops) or
/// re-enabled (odd ops), redirecting to the error reply.
fn toggle(
    fleet: &mut Fleet,
    batches: &[&[Cmd]],
    client: &mut Client,
    model: &mut Model,
    log: &mut OpLog<'_>,
    tally: &mut Tally,
    out: &mut Episode,
) {
    let set = Feature::from_function("SET", &fleet.exe, "rd_cmd_set")
        .and_then(|f| f.redirect_to_function(&fleet.exe, redis::ERROR_HANDLER))
        .expect("redis exports rd_cmd_set and its error path");
    let mut dynacut = DynaCut::new(fleet.registry.clone());
    let pids = fleet.pids.clone();
    for (index, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        client.run(&mut fleet.kernel, batch, model, log.rec, tally);
        out.slot_us.push(us(start.elapsed()));
        if index + 1 == batches.len() {
            break;
        }
        let disable = index % 2 == 0;
        let plan = if disable {
            RewritePlan::new().disable(set.clone())
        } else {
            RewritePlan::new().enable(set.clone())
        }
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
        let before = log.rec.on().then(|| Counters::read(&fleet.kernel));
        let start = Instant::now();
        let result = dynacut.customize(&mut fleet.kernel, &pids, &plan);
        let wall = start.elapsed();
        out.ops_attempted += 1;
        out.op_us.push(us(wall));
        out.slot_us.push(us(wall));
        if let Some(before) = before {
            log.op_counters = log
                .op_counters
                .plus(Counters::read(&fleet.kernel).since(before));
        }
        match result {
            Ok(report) => {
                model.set_blocked = disable;
                log.op("core.customize", index as u32, start, wall, &report, &[]);
                log.modules(&fleet.kernel, &pids);
            }
            Err(err) => {
                eprintln!("toggle op {index} failed: {err}");
                out.ops_failed += 1;
            }
        }
    }
}

/// The rollout loop: a batch of fresh-connection requests, then a
/// canary → soak → promote rollout that disables (even ops) or
/// re-enables (odd ops) SETRANGE, which the mix never sends.
fn rollout(
    fleet: &mut Fleet,
    batches: &[&[Cmd]],
    client: &mut Client,
    model: &mut Model,
    log: &mut OpLog<'_>,
    tally: &mut Tally,
    out: &mut Episode,
) {
    let setrange = Feature::from_function("SETRANGE", &fleet.exe, "rd_cmd_setrange")
        .expect("redis exports rd_cmd_setrange");
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups: Vec<Vec<Pid>> = fleet.pids.iter().map(|&pid| vec![pid]).collect();
    for (index, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        client.run(&mut fleet.kernel, batch, model, log.rec, tally);
        client.close_all(&mut fleet.kernel, log.rec);
        out.slot_us.push(us(start.elapsed()));
        if index + 1 == batches.len() {
            break;
        }
        let plan = if index % 2 == 0 {
            RewritePlan::new().disable(setrange.clone())
        } else {
            RewritePlan::new().enable(setrange.clone())
        }
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
        let before = log.rec.on().then(|| Counters::read(&fleet.kernel));
        let start = Instant::now();
        let result = dynacut.rollout(&mut fleet.kernel, &groups, &plan, &ROLLOUT_PLAN);
        let wall = start.elapsed();
        out.ops_attempted += 1;
        out.op_us.push(us(wall));
        out.slot_us.push(us(wall));
        if let Some(before) = before {
            log.op_counters = log
                .op_counters
                .plus(Counters::read(&fleet.kernel).since(before));
        }
        let report = match result {
            Ok(report) => report,
            Err(err) => {
                eprintln!("rollout op {index} failed: {err}");
                out.ops_failed += 1;
                continue;
            }
        };
        let promoted_clean = report.decision == RolloutDecision::Promoted
            && report.promotion_copied_bytes == 0
            && report.promoted.len() + 1 == groups.len()
            && report
                .promoted
                .iter()
                .all(|replica| replica.copied_bytes == 0);
        if !promoted_clean {
            eprintln!(
                "rollout op {index}: {:?}, {} promotion bytes copied",
                report.decision, report.promotion_copied_bytes
            );
            out.ops_failed += 1;
        }
        let windows: Vec<Duration> = report.promoted.iter().map(|r| r.freeze_window).collect();
        log.op(
            "core.rollout",
            index as u32,
            start,
            wall,
            &report.canary_report,
            &windows,
        );
        log.modules(&fleet.kernel, &fleet.pids);
    }
    log.layers.store_unique_bytes = dynacut.store().unique_pages_bytes() as u64;
    log.layers.store_logical_bytes = dynacut.store().logical_pages_bytes() as u64;
}

fn phase_ns(phases: &[(Phase, Duration)], which: Phase) -> u64 {
    phases
        .iter()
        .filter(|(phase, _)| *phase == which)
        .map(|(_, elapsed)| elapsed.as_nanos() as u64)
        .sum()
}

/// The serve workload's ops: restart one seeded replica at a time
/// (remove it, spawn a fresh one, run it to its ready marker) — the
/// way a fleet changes its code without process rewriting.
fn restarts(fleet: &mut Fleet, count: usize, rng: &mut Rng, rec: &mut Recorder, out: &mut Episode) {
    for index in 0..count {
        let slot = rng.below(fleet.pids.len());
        let start = Instant::now();
        let kernel = &mut fleet.kernel;
        let restarted = kernel.remove_process(fleet.pids[slot]).ok().and_then(|_| {
            let pid = kernel.spawn(&fleet.spec).ok()?;
            kernel.run_until_event(EVENT_READY, BOOT_LIMIT_NS)?;
            Some(pid)
        });
        let wall = start.elapsed();
        rec.record("vm.restart", ROOT, index as u32, start, wall);
        out.ops_attempted += 1;
        out.op_us.push(us(wall));
        match restarted {
            Some(pid) => fleet.pids[slot] = pid,
            None => {
                eprintln!("serve restart {index} failed");
                out.ops_failed += 1;
            }
        }
    }
}
