//! The rollout experiment: deploy one rewrite across an N-replica Redis
//! fleet the production way — **canary → soak → promote** — with
//! [`DynaCut::rollout`], and measure what shared-image promotion buys:
//!
//! * **O(1 canary cycle + N fast promotions)** — the whole fleet pays
//!   for exactly one dump/rewrite/restore (the canary's); every other
//!   replica takes only the canary's code changes, in place, so the
//!   journal shows one `ProcessDumped` no matter the fleet size;
//! * **zero-copy promotion** — every installed page is a shared frame
//!   out of the content-addressed store, so the promotion wave copies
//!   zero page bytes and the per-replica freeze window stays flat;
//! * **all-or-nothing demotion** — a verifier report during the soak
//!   rolls the canary back through the transaction machinery, and the
//!   fleet's clock-masked state fingerprint round-trips bit-identically.
//!
//! Emits `results/rollout.json` (`dynacut-rollout-v1`), schema-gated by
//! CI: one dump, zero promotion bytes, a journalled promotion, and
//! demotion fingerprint parity.

use crate::report::{fmt_bytes, write_result, Table};
use crate::workloads::{boot_fleet, FleetWorkload};
use dynacut::{
    Downtime, DynaCut, EventKind, FaultPolicy, Feature, RewritePlan, RolloutDecision, RolloutPlan,
    RolloutReport, VERIFIER_EVENT_BIT,
};

/// Replicas in the headline rollout.
pub const FLEET_SIZE: usize = 8;

/// Replicas in the demotion round-trip run.
pub const DEMOTE_FLEET_SIZE: usize = 4;

/// Schema identifier embedded in the JSON for forward compatibility.
pub const SCHEMA: &str = "dynacut-rollout-v1";

/// Keys the JSON must contain (the CI schema check).
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "fleet_size",
    "soak_slices",
    "canary_cycle_ns",
    "canary_frozen_page_bytes",
    "process_dumps",
    "canary_promoted",
    "promotion_copied_bytes",
    "max_promoted_window_ns",
    "sum_promoted_window_ns",
    "promoted",
    "demotion_fleet_size",
    "demotion_soak_slices",
    "demotion_verifier_reports",
    "demotion_fingerprints_match",
];

/// One promoted replica group's cost.
#[derive(Debug, Clone)]
pub struct PromotedRow {
    /// First pid of the group (single-pid groups for Redis).
    pub pid: u32,
    /// Freeze-to-commit wall window for this group, nanoseconds.
    pub freeze_window_ns: u64,
    /// Page bytes the promotion physically copied (gated to 0).
    pub copied_bytes: u64,
}

/// The whole figure: one promote run and one demote round-trip.
#[derive(Debug, Clone)]
pub struct RolloutFigure {
    /// Replica count of the promote run.
    pub fleet_size: usize,
    /// Serve slices the canary soaked clean.
    pub soak_slices: u64,
    /// The canary's cycle cost — the only full customize the fleet paid.
    pub canary_cycle_ns: u64,
    /// Page bytes moved inside the canary's freeze window.
    pub canary_frozen_page_bytes: usize,
    /// `ProcessDumped` journal entries during the whole rollout. The
    /// O(1)-cost claim, deterministically: always 1.
    pub process_dumps: usize,
    /// A `CanaryPromoted` event was journalled.
    pub canary_promoted: bool,
    /// Page bytes the whole promotion wave copied (gated to 0).
    pub promotion_copied_bytes: u64,
    /// Per-promoted-group rows, promotion order.
    pub promoted: Vec<PromotedRow>,
    /// Replica count of the demote run.
    pub demotion_fleet_size: usize,
    /// Slices the demote run soaked before the report decided.
    pub demotion_soak_slices: u64,
    /// Verifier reports that triggered the demotion.
    pub demotion_verifier_reports: usize,
    /// The fleet's clock-masked fingerprint after the demotion equals
    /// the pre-attempt snapshot (gated to true).
    pub demotion_fingerprints_match: bool,
}

/// The verifier-policy plan a rollout requires: "misclassify" SETRANGE
/// as undesired, so any SETRANGE during the soak would self-heal and
/// report (the promote run sends none).
fn verify_plan(fleet: &FleetWorkload) -> RewritePlan {
    let setrange = Feature::from_function("SETRANGE", &fleet.exe, "rd_cmd_setrange").unwrap();
    RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None)
}

fn rollout_plan() -> RolloutPlan {
    RolloutPlan {
        soak_slices: 4,
        serve_slice_ns: 200_000,
    }
}

/// Boots the fleet, doses it with benign traffic, and rolls the rewrite
/// out. Returns the workload next to the engine's report plus the
/// journal-derived dump count and promotion marker.
pub fn execute(fleet_size: usize) -> (FleetWorkload, RolloutReport, usize, bool) {
    let mut fleet = boot_fleet(fleet_size);
    // Benign traffic dirties a few pages on whichever replicas serve it
    // — the regime the canary's pre-dump and the promotion dedup claim
    // are about. No SETRANGE: the soak must be clean.
    for index in 0..12 {
        let request = match index % 3 {
            0 => format!("SET key{index} v{index}\n"),
            1 => format!("GET key{index}\n"),
            _ => "PING\n".to_owned(),
        };
        let reply = fleet.request(request.as_bytes());
        assert!(!reply.is_empty(), "fleet serves before the rollout");
    }
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let plan = verify_plan(&fleet);
    let groups = fleet.groups.clone();
    let seq0 = fleet.kernel.flight().next_seq();
    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &rollout_plan())
        .expect("rollout");
    let dumps = fleet
        .kernel
        .flight()
        .since(seq0)
        .filter(|e| matches!(e.kind, EventKind::ProcessDumped { .. }))
        .count();
    let promoted_event = fleet
        .kernel
        .flight()
        .since(seq0)
        .any(|e| matches!(e.kind, EventKind::CanaryPromoted { .. }));
    (fleet, report, dumps, promoted_event)
}

/// Runs the demotion round-trip: snapshot the fleet's clock-masked
/// fingerprint, plant a synthetic verifier report, roll out, and check
/// the demotion restored the snapshot. Returns the report and whether
/// the fingerprints matched.
pub fn execute_demotion(fleet_size: usize) -> (RolloutReport, bool) {
    let mut fleet = boot_fleet(fleet_size);
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let plan = verify_plan(&fleet);
    let groups = fleet.groups.clone();
    let pristine = fleet.kernel.state_fingerprint_timeless();
    fleet
        .kernel
        .inject_event(groups[0][0], VERIFIER_EVENT_BIT | 0xBAD);
    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &rollout_plan())
        .expect("a report demotes, it does not error");
    assert_eq!(
        report.decision,
        RolloutDecision::Demoted,
        "soak saw the report"
    );
    let matched = fleet.kernel.state_fingerprint_timeless() == pristine;
    (report, matched)
}

/// Runs both halves of the experiment and shapes the figure.
pub fn run(fleet_size: usize, demote_fleet_size: usize) -> RolloutFigure {
    let (_fleet, report, dumps, promoted_event) = execute(fleet_size);
    let (demotion, matched) = execute_demotion(demote_fleet_size);
    figure(
        fleet_size,
        &report,
        dumps,
        promoted_event,
        demote_fleet_size,
        &demotion,
        matched,
    )
}

#[allow(clippy::too_many_arguments)]
fn figure(
    fleet_size: usize,
    report: &RolloutReport,
    dumps: usize,
    promoted_event: bool,
    demotion_fleet_size: usize,
    demotion: &RolloutReport,
    fingerprints_match: bool,
) -> RolloutFigure {
    RolloutFigure {
        fleet_size,
        soak_slices: report.soak_slices,
        canary_cycle_ns: report.canary_report.phase_total().as_nanos() as u64,
        canary_frozen_page_bytes: report.canary_report.frozen_page_bytes,
        process_dumps: dumps,
        canary_promoted: promoted_event,
        promotion_copied_bytes: report.promotion_copied_bytes,
        promoted: report
            .promoted
            .iter()
            .map(|replica| PromotedRow {
                pid: replica.pids.first().map_or(0, |pid| pid.0),
                freeze_window_ns: replica.freeze_window.as_nanos() as u64,
                copied_bytes: replica.copied_bytes,
            })
            .collect(),
        demotion_fleet_size,
        demotion_soak_slices: demotion.soak_slices,
        demotion_verifier_reports: demotion.verifier_reports.len(),
        demotion_fingerprints_match: fingerprints_match,
    }
}

/// Serialises the figure as the `dynacut-rollout-v1` JSON document.
pub fn to_json(figure: &RolloutFigure) -> String {
    let promoted: Vec<String> = figure
        .promoted
        .iter()
        .map(|row| {
            format!(
                "    {{\"pid\": {}, \"freeze_window_ns\": {}, \"copied_bytes\": {}}}",
                row.pid, row.freeze_window_ns, row.copied_bytes
            )
        })
        .collect();
    let max_window = figure
        .promoted
        .iter()
        .map(|row| row.freeze_window_ns)
        .max()
        .unwrap_or(0);
    let sum_window: u64 = figure.promoted.iter().map(|row| row.freeze_window_ns).sum();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{schema}\",\n",
            "  \"fleet_size\": {fleet_size},\n",
            "  \"soak_slices\": {soak},\n",
            "  \"canary_cycle_ns\": {canary_ns},\n",
            "  \"canary_frozen_page_bytes\": {canary_frozen},\n",
            "  \"process_dumps\": {dumps},\n",
            "  \"canary_promoted\": {promoted_event},\n",
            "  \"promotion_copied_bytes\": {copied},\n",
            "  \"max_promoted_window_ns\": {max_window},\n",
            "  \"sum_promoted_window_ns\": {sum_window},\n",
            "  \"promoted\": [\n{promoted}\n  ],\n",
            "  \"demotion_fleet_size\": {demote_size},\n",
            "  \"demotion_soak_slices\": {demote_soak},\n",
            "  \"demotion_verifier_reports\": {demote_reports},\n",
            "  \"demotion_fingerprints_match\": {fingerprints}\n",
            "}}\n"
        ),
        schema = SCHEMA,
        fleet_size = figure.fleet_size,
        soak = figure.soak_slices,
        canary_ns = figure.canary_cycle_ns,
        canary_frozen = figure.canary_frozen_page_bytes,
        dumps = figure.process_dumps,
        promoted_event = figure.canary_promoted,
        copied = figure.promotion_copied_bytes,
        max_window = max_window,
        sum_window = sum_window,
        promoted = promoted.join(",\n"),
        demote_size = figure.demotion_fleet_size,
        demote_soak = figure.demotion_soak_slices,
        demote_reports = figure.demotion_verifier_reports,
        fingerprints = figure.demotion_fingerprints_match,
    )
}

/// Checks the invariants CI relies on: every required key present, one
/// promoted row per non-canary replica, exactly **one** process dump
/// for the whole rollout, a journalled promotion, **zero** promotion
/// page bytes (whole wave and per replica), and demotion fingerprint
/// parity.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate(json: &str, figure: &RolloutFigure) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(format!("missing required key `{key}`"));
        }
    }
    if figure.promoted.len() + 1 != figure.fleet_size {
        return Err(format!(
            "{} promoted rows for a fleet of {}",
            figure.promoted.len(),
            figure.fleet_size
        ));
    }
    if figure.process_dumps != 1 {
        return Err(format!(
            "the fleet paid {} dumps; a rollout pays exactly the canary's",
            figure.process_dumps
        ));
    }
    if !figure.canary_promoted {
        return Err("no CanaryPromoted event journalled".to_owned());
    }
    if figure.promotion_copied_bytes != 0 {
        return Err(format!(
            "promotion copied {} page bytes; shared-image promotion must copy none",
            figure.promotion_copied_bytes
        ));
    }
    for row in &figure.promoted {
        if row.copied_bytes != 0 {
            return Err(format!(
                "pid {} copied {} page bytes during its promotion window",
                row.pid, row.copied_bytes
            ));
        }
    }
    if figure.canary_cycle_ns == 0 {
        return Err("canary cycle measured zero cost".to_owned());
    }
    if figure.demotion_verifier_reports == 0 {
        return Err("demotion run saw no verifier report".to_owned());
    }
    if !figure.demotion_fingerprints_match {
        return Err("demotion did not restore the fleet's clock-masked fingerprint".to_owned());
    }
    Ok(())
}

/// Prints the rollout tables, writes `results/rollout.json`, and panics
/// if the document violates the schema (the CI gate).
pub fn print() {
    println!(
        "== Rollout: canary → soak → promote over {FLEET_SIZE} Redis replicas, \
         shared-image promotion ==\n"
    );
    let figure = run(FLEET_SIZE, DEMOTE_FLEET_SIZE);
    let mut table = Table::new(&["promoted pid", "freeze window", "page bytes copied"]);
    for row in &figure.promoted {
        table.row(&[
            row.pid.to_string(),
            crate::report::fmt_duration(std::time::Duration::from_nanos(row.freeze_window_ns)),
            fmt_bytes(row.copied_bytes),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\ncanary cycle: {:?} ({} moved frozen) — the only dump the fleet paid ({} journalled)",
        std::time::Duration::from_nanos(figure.canary_cycle_ns),
        fmt_bytes(figure.canary_frozen_page_bytes as u64),
        figure.process_dumps,
    );
    println!(
        "promotion: {} replicas, {} page bytes copied, soak {} slices clean",
        figure.promoted.len(),
        figure.promotion_copied_bytes,
        figure.soak_slices,
    );
    println!(
        "demotion round-trip ({} replicas): {} report(s) at slice {}, fingerprint parity: {}",
        figure.demotion_fleet_size,
        figure.demotion_verifier_reports,
        figure.demotion_soak_slices,
        figure.demotion_fingerprints_match,
    );
    let json = to_json(&figure);
    if let Err(violation) = validate(&json, &figure) {
        panic!("rollout JSON failed schema validation: {violation}");
    }
    write_result("rollout", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance claims, at a CI-friendly size: one dump for the
    /// whole fleet, zero promotion page bytes, demotion parity — and
    /// the serialized JSON passes its own gate.
    #[test]
    fn rollout_figure_validates_at_small_scale() {
        let figure = run(4, 3);
        assert_eq!(figure.process_dumps, 1, "one canary dump for the fleet");
        assert_eq!(figure.promotion_copied_bytes, 0, "zero-copy promotion");
        assert_eq!(figure.promoted.len(), 3);
        assert!(figure.canary_promoted);
        assert!(figure.demotion_fingerprints_match);
        let json = to_json(&figure);
        validate(&json, &figure).expect("schema gate holds");
        assert!(json.contains("\"schema\": \"dynacut-rollout-v1\""));
    }

    /// A tampered figure fails the gate: every headline claim is
    /// actually checked, not just serialized.
    #[test]
    fn validate_rejects_violations() {
        let mut figure = run(3, 2);
        let json = to_json(&figure);
        validate(&json, &figure).unwrap();
        figure.promotion_copied_bytes = 4096;
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("copied"));
        figure.promotion_copied_bytes = 0;
        figure.process_dumps = 3;
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("dumps"));
        figure.process_dumps = 1;
        figure.demotion_fingerprints_match = false;
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("fingerprint"));
        assert!(validate("{}", &figure).unwrap_err().contains("missing"));
    }
}
