//! The fleet experiment: customize an N-replica Redis fleet with
//! [`DynaCut::customize_fleet`] and measure what the staged engine and
//! the content-addressed page store buy over the monolithic path:
//!
//! * **per-process freeze windows** that stay flat as the fleet grows —
//!   the engine serializes the freeze windows and every other replica
//!   keeps serving, so each process pays for its own pages only;
//! * **checkpoint dedup** — N just-booted replicas of one binary have
//!   near-identical pages, so the store's content addressing keeps one
//!   physical copy per distinct page and the dedup ratio approaches N.
//!
//! Emits `results/fleet.json` (`dynacut-fleet-v1`), schema-gated by CI:
//! the dedup ratio must be ≥ 1.0 and every process's phase durations
//! must sum to its reported total.

use crate::experiments::fig8_incremental::freeze_window_ns;
use crate::report::{fmt_bytes, Table};
use crate::workloads::{boot_fleet, FleetWorkload};
use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, FleetReport, RewritePlan};
use dynacut_apps::redis;

/// Replicas in the headline fleet.
pub const FLEET_SIZE: usize = 8;

/// Schema identifier embedded in the JSON for forward compatibility.
pub const SCHEMA: &str = "dynacut-fleet-v1";

/// Top-level keys the JSON must contain (the CI schema check).
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "fleet_size",
    "groups",
    "processes",
    "dedup_ratio",
    "unique_page_bytes",
    "shared_page_bytes",
    "stored_page_bytes",
    "frozen_page_bytes",
    "prewritten_page_bytes",
    "max_freeze_window_ns",
    "sum_freeze_window_ns",
    "procs",
    "phases",
];

/// One process's slice of the fleet run.
#[derive(Debug, Clone)]
pub struct ProcRow {
    /// The process id.
    pub pid: u32,
    /// Sum of the process's phase durations (its cycle's wall cost).
    pub total_ns: u64,
    /// Measured freeze-window share of `total_ns` (freeze through
    /// restore-commit phases).
    pub freeze_window_ns: u64,
    /// Deterministic modeled freeze window from the bytes moved while
    /// frozen ([`freeze_window_ns`]) — host-timing-independent, what the
    /// flat-window assertion checks.
    pub modeled_freeze_ns: u64,
    /// Page bytes copied inside this process's freeze window.
    pub frozen_page_bytes: usize,
    /// Page bytes its pre-dump moved while the replica still served.
    pub prewritten_page_bytes: usize,
    /// Per-phase durations in execution order, nanoseconds.
    pub phases: Vec<(String, u64)>,
}

/// The whole figure: per-process rows plus the engine's fleet totals.
#[derive(Debug, Clone)]
pub struct FleetFigure {
    /// Replica count the run was asked for.
    pub fleet_size: usize,
    /// Per-process measurements, pid order.
    pub procs: Vec<ProcRow>,
    /// The engine's aggregates (groups, dedup, window max/sum).
    pub totals: dynacut::FleetTotals,
}

/// Boots the fleet and customizes it once (disable SET, redirect
/// policy), returning the workload for journal/serving inspection next
/// to the engine's report.
pub fn execute(fleet_size: usize) -> (FleetWorkload, FleetReport) {
    let mut fleet = boot_fleet(fleet_size);
    // A fixed dose of traffic — independent of fleet size — dirties a
    // handful of heap/stack pages on the replicas that serve it, giving
    // the freeze windows a real dirty residue to move. The replicas'
    // text/data pages stay identical, the regime the dedup claim is
    // about.
    for index in 0..12 {
        let request = match index % 3 {
            0 => format!("SET key{index} v{index}\n"),
            1 => format!("GET key{index}\n"),
            _ => "PING\n".to_owned(),
        };
        let reply = fleet.request(request.as_bytes());
        assert!(!reply.is_empty(), "fleet serves before the cycle");
    }
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let feature = Feature::from_function("SET", &fleet.exe, "rd_cmd_set")
        .unwrap()
        .redirect_to_function(&fleet.exe, redis::ERROR_HANDLER)
        .unwrap();
    let plan = RewritePlan::new()
        .disable(feature)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let groups = fleet.groups.clone();
    let report = dynacut
        .customize_fleet(&mut fleet.kernel, &groups, &plan)
        .expect("fleet customize");
    (fleet, report)
}

/// Runs the experiment and shapes the figure.
pub fn run(fleet_size: usize) -> FleetFigure {
    let (_fleet, report) = execute(fleet_size);
    figure(fleet_size, &report)
}

fn figure(fleet_size: usize, report: &FleetReport) -> FleetFigure {
    let procs = report
        .procs
        .iter()
        .map(|(pid, proc_report)| ProcRow {
            pid: pid.0,
            total_ns: proc_report.phase_total().as_nanos() as u64,
            freeze_window_ns: proc_report.freeze_window().as_nanos() as u64,
            modeled_freeze_ns: freeze_window_ns(proc_report.frozen_page_bytes),
            frozen_page_bytes: proc_report.frozen_page_bytes,
            prewritten_page_bytes: proc_report.prewritten_page_bytes,
            phases: proc_report
                .phases
                .iter()
                .map(|(phase, elapsed)| (phase.name().to_owned(), elapsed.as_nanos() as u64))
                .collect(),
        })
        .collect();
    FleetFigure {
        fleet_size,
        procs,
        totals: report.totals.clone(),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialises the figure as the `dynacut-fleet-v1` JSON document.
pub fn to_json(figure: &FleetFigure) -> String {
    let mut procs = Vec::new();
    for row in &figure.procs {
        let phases: Vec<String> = row
            .phases
            .iter()
            .map(|(name, ns)| format!("        {{\"phase\": \"{}\", \"ns\": {ns}}}", escape(name)))
            .collect();
        procs.push(format!(
            concat!(
                "    {{\n",
                "      \"pid\": {pid},\n",
                "      \"total_ns\": {total},\n",
                "      \"freeze_window_ns\": {window},\n",
                "      \"modeled_freeze_ns\": {modeled},\n",
                "      \"frozen_page_bytes\": {frozen},\n",
                "      \"prewritten_page_bytes\": {prewritten},\n",
                "      \"phases\": [\n{phases}\n      ]\n",
                "    }}"
            ),
            pid = row.pid,
            total = row.total_ns,
            window = row.freeze_window_ns,
            modeled = row.modeled_freeze_ns,
            frozen = row.frozen_page_bytes,
            prewritten = row.prewritten_page_bytes,
            phases = phases.join(",\n"),
        ));
    }
    let totals = &figure.totals;
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{schema}\",\n",
            "  \"fleet_size\": {fleet_size},\n",
            "  \"groups\": {groups},\n",
            "  \"processes\": {processes},\n",
            "  \"dedup_ratio\": {dedup:.4},\n",
            "  \"unique_page_bytes\": {unique},\n",
            "  \"shared_page_bytes\": {shared},\n",
            "  \"stored_page_bytes\": {stored},\n",
            "  \"frozen_page_bytes\": {frozen},\n",
            "  \"prewritten_page_bytes\": {prewritten},\n",
            "  \"image_bytes\": {image},\n",
            "  \"max_freeze_window_ns\": {max_window},\n",
            "  \"sum_freeze_window_ns\": {sum_window},\n",
            "  \"procs\": [\n{procs}\n  ]\n",
            "}}\n"
        ),
        schema = SCHEMA,
        fleet_size = figure.fleet_size,
        groups = totals.groups,
        processes = totals.processes,
        dedup = totals.dedup_ratio,
        unique = totals.unique_page_bytes,
        shared = totals.shared_page_bytes,
        stored = totals.stored_page_bytes,
        frozen = totals.frozen_page_bytes,
        prewritten = totals.prewritten_page_bytes,
        image = totals.image_bytes,
        max_window = totals.max_freeze_window.as_nanos(),
        sum_window = totals.sum_freeze_window.as_nanos(),
        procs = procs.join(",\n"),
    )
}

/// Checks the schema invariants CI relies on: every required key appears
/// in the document, one row per customized process, the store dedup
/// ratio is sane (≥ 1.0 — content addressing can only shrink), and every
/// process's phase durations sum to its reported cycle total.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate(json: &str, figure: &FleetFigure) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(format!("missing required key `{key}`"));
        }
    }
    if figure.procs.is_empty() {
        return Err("no processes in report".to_owned());
    }
    if figure.procs.len() != figure.totals.processes {
        return Err(format!(
            "{} proc rows but totals.processes = {}",
            figure.procs.len(),
            figure.totals.processes
        ));
    }
    if figure.totals.dedup_ratio < 1.0 {
        return Err(format!(
            "dedup ratio {:.4} < 1.0 — the store grew the data",
            figure.totals.dedup_ratio
        ));
    }
    for row in &figure.procs {
        let sum: u64 = row.phases.iter().map(|(_, ns)| ns).sum();
        if sum != row.total_ns {
            return Err(format!(
                "pid {}: phase durations sum to {sum} but total_ns is {}",
                row.pid, row.total_ns
            ));
        }
        if row.freeze_window_ns > row.total_ns {
            return Err(format!(
                "pid {}: freeze window {} exceeds cycle total {}",
                row.pid, row.freeze_window_ns, row.total_ns
            ));
        }
    }
    Ok(())
}

/// Prints the per-process table and fleet totals, writes
/// `results/fleet.json`, and panics if the document violates the schema
/// (the CI gate).
pub fn print() {
    println!("== Fleet: staged engine over {FLEET_SIZE} Redis replicas, shared page store ==\n");
    let figure = run(FLEET_SIZE);
    let mut table = Table::new(&[
        "pid",
        "frozen",
        "pre-copied",
        "modeled window",
        "cycle share frozen",
    ]);
    for row in &figure.procs {
        table.row(&[
            row.pid.to_string(),
            fmt_bytes(row.frozen_page_bytes as u64),
            fmt_bytes(row.prewritten_page_bytes as u64),
            crate::report::fmt_duration(std::time::Duration::from_nanos(row.modeled_freeze_ns)),
            format!(
                "{:.1}%",
                row.freeze_window_ns as f64 * 100.0 / row.total_ns.max(1) as f64
            ),
        ]);
    }
    print!("{}", table.render());
    let totals = &figure.totals;
    println!(
        "\nstore: {} logical stored as {} unique ({} shared away), dedup {:.2}x",
        fmt_bytes(totals.stored_page_bytes as u64),
        fmt_bytes(totals.unique_page_bytes as u64),
        fmt_bytes(totals.shared_page_bytes as u64),
        totals.dedup_ratio,
    );
    println!(
        "freeze windows: serialized, max per process {:?}, sum over fleet {:?}",
        totals.max_freeze_window, totals.sum_freeze_window,
    );
    let json = to_json(&figure);
    if let Err(violation) = validate(&json, &figure) {
        panic!("fleet JSON failed schema validation: {violation}");
    }
    let path = "results/fleet.json";
    if let Err(err) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &json))
    {
        eprintln!("\n(could not write {path}: {err})");
    } else {
        println!("\nwrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut::{EventKind, Phase};

    /// The acceptance claims: an 8-replica fleet dedups its checkpoints
    /// better than 4×, and the per-process freeze window (measured
    /// deterministically in page bytes moved while frozen) does not grow
    /// with fleet size.
    #[test]
    fn fleet_of_8_dedups_over_4x_with_flat_freeze_windows() {
        let small = run(2);
        let large = run(FLEET_SIZE);
        assert_eq!(large.procs.len(), FLEET_SIZE);
        assert!(
            large.totals.dedup_ratio > 4.0,
            "dedup ratio {:.2} not > 4x",
            large.totals.dedup_ratio
        );
        // Per-process freeze cost is a function of that process's pages,
        // not of the fleet: the worst window of the 8-fleet must not
        // exceed the worst window of the 2-fleet (10% slack for
        // incidental page-count noise).
        let worst = |figure: &FleetFigure| {
            figure
                .procs
                .iter()
                .map(|row| row.frozen_page_bytes)
                .max()
                .unwrap()
        };
        let (small_worst, large_worst) = (worst(&small), worst(&large));
        assert!(small_worst > 0);
        assert!(
            large_worst <= small_worst + small_worst / 10,
            "per-process frozen bytes grew with fleet size: {large_worst} vs {small_worst}"
        );
        // And the serialized schedule means the fleet-wide aggregate is
        // spread across groups: the max is genuinely per-group, well
        // under the sum a whole-fleet freeze would impose.
        assert!(large.totals.max_freeze_window <= large.totals.sum_freeze_window);
        assert_eq!(large.totals.groups, FLEET_SIZE);
    }

    /// The engine pumps the kernel between freeze windows, so a request
    /// queued into the shared backlog before the fleet cycle starts is
    /// answered by the time it returns — without the test ever running
    /// the kernel itself. Unfrozen replicas served during the cycle.
    #[test]
    fn fleet_serves_queued_traffic_during_the_cycle() {
        let mut fleet = boot_fleet(4);
        let reply = fleet.request(b"PING\n");
        assert!(!reply.is_empty(), "fleet serves before the cycle");

        let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
        let feature = Feature::from_function("SET", &fleet.exe, "rd_cmd_set")
            .unwrap()
            .redirect_to_function(&fleet.exe, redis::ERROR_HANDLER)
            .unwrap();
        let plan = RewritePlan::new()
            .disable(feature)
            .with_fault_policy(FaultPolicy::Redirect)
            .with_downtime(Downtime::None);

        let conn = fleet.kernel.client_connect(fleet.port).expect("listening");
        fleet.kernel.client_send(conn, b"PING\n").expect("send");

        let groups = fleet.groups.clone();
        dynacut
            .customize_fleet(&mut fleet.kernel, &groups, &plan)
            .expect("fleet customize");

        let reply = fleet.kernel.client_recv(conn).expect("recv");
        assert!(
            !reply.is_empty(),
            "request queued before the cycle was served during it"
        );
        let _ = fleet.kernel.client_close(conn);

        // And the fleet still serves afterwards, with SET redirected.
        assert!(!fleet.request(b"GET key0\n").is_empty());
        let set_reply = fleet.request(b"SET key0 v\n");
        assert!(!set_reply.is_empty(), "disabled command still answered");
    }

    /// The freeze-serialization invariant, read off the flight journal:
    /// per-pid `StageScheduled(Freeze)` … `StageRetired(RestoreCommit)`
    /// spans never interleave across groups, and every process journals
    /// the full incremental stage sequence.
    #[test]
    fn journal_orders_stage_interleaving_and_serializes_freeze_windows() {
        let (fleet, report) = execute(3);
        assert_eq!(report.procs.len(), 3);

        let mut open: Option<u32> = None;
        let mut windows = 0usize;
        let mut scheduled: std::collections::BTreeMap<u32, Vec<Phase>> = Default::default();
        for event in fleet.kernel.flight().iter() {
            let Some(pid) = event.pid else { continue };
            match event.kind {
                EventKind::StageScheduled { stage } => {
                    scheduled.entry(pid.0).or_default().push(stage);
                    if stage == Phase::Freeze {
                        assert_eq!(
                            open, None,
                            "pid {} froze while pid {:?} held the freeze window",
                            pid.0, open
                        );
                        open = Some(pid.0);
                    }
                }
                EventKind::StageRetired {
                    stage: Phase::RestoreCommit,
                    ..
                } => {
                    assert_eq!(open, Some(pid.0), "retired a window it never opened");
                    open = None;
                    windows += 1;
                }
                _ => {}
            }
        }
        assert_eq!(open, None, "a freeze window never closed");
        assert_eq!(windows, 3, "one serialized window per group");
        for (pid, stages) in &scheduled {
            assert_eq!(
                stages,
                &vec![
                    Phase::PreDump,
                    Phase::Freeze,
                    Phase::Dump,
                    Phase::ImageEdit,
                    Phase::Inject,
                    Phase::RestorePrepare,
                    Phase::RestoreCommit,
                    Phase::BaselineStore,
                ],
                "pid {pid} scheduled an unexpected stage sequence"
            );
        }
    }

    #[test]
    fn fleet_json_is_schema_valid_and_tampering_is_caught() {
        let mut figure = run(2);
        let json = to_json(&figure);
        validate(&json, &figure).expect("schema valid");
        figure.procs[0].total_ns += 1;
        let json = to_json(&figure);
        assert!(validate(&json, &figure).is_err());
    }
}
