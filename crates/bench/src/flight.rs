//! The machine-readable flight report: per-phase downtime breakdown plus
//! an event-journal summary, emitted as JSON next to the text figures.
//!
//! The text tables answer "how long did it take"; this report answers it
//! in a form tooling can consume (`results/flight.json`), with the
//! schema invariants CI checks: every required key present, and the
//! per-phase durations summing to the reported total.

use crate::workloads::{boot_server, Server};
use dynacut::{Downtime, DynaCut, EventKind, FaultPolicy, Feature, RewritePlan};
use std::collections::BTreeMap;

/// Schema identifier embedded in the JSON for forward compatibility.
pub const SCHEMA: &str = "dynacut-flight-v1";

/// Top-level keys the JSON must contain (the CI schema check).
pub const REQUIRED_KEYS: &[&str] = &[
    "schema", "apps", "app", "total_ns", "phases", "journal", "recorded", "dropped", "events",
    "counters",
];

/// One application's flight summary.
#[derive(Debug, Clone)]
pub struct FlightReport {
    /// Application name.
    pub app: String,
    /// Per-phase durations in nanoseconds, in execution order.
    pub phases: Vec<(String, u64)>,
    /// Total customize downtime: the sum of `phases` by construction.
    pub total_ns: u64,
    /// Events ever recorded by the journal (including any later evicted).
    pub recorded: u64,
    /// Events evicted from the full ring — the explicit-loss counter.
    pub dropped: u64,
    /// Event counts by kind, over the events still held.
    pub events: BTreeMap<String, u64>,
    /// The metrics registry's counters.
    pub counters: BTreeMap<String, u64>,
}

fn kind_label(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::CustomizeBegin { .. } => "customize_begin",
        EventKind::CustomizeCommit => "customize_commit",
        EventKind::CustomizeRollback => "customize_rollback",
        EventKind::PhaseStart { .. } => "phase_start",
        EventKind::PhaseEnd { .. } => "phase_end",
        EventKind::ProcessPreDumped { .. } => "process_pre_dumped",
        EventKind::ProcessDumped { .. } => "process_dumped",
        EventKind::ProcessRestored => "process_restored",
        EventKind::LibraryInjected { .. } => "library_injected",
        EventKind::RollbackStep { .. } => "rollback_step",
        EventKind::VerifierReport { .. } => "verifier_report",
        EventKind::TrapHit { .. } => "trap_hit",
        EventKind::GuestMarker { .. } => "guest_marker",
        EventKind::StageScheduled { .. } => "stage_scheduled",
        EventKind::StageRetired { .. } => "stage_retired",
        _ => "other",
    }
}

fn one_app(server: Server) -> FlightReport {
    let mut workload = boot_server(server, false);
    let mut dynacut = DynaCut::new(workload.registry.clone());
    let features: Vec<Feature> = match server {
        Server::Nginx => vec![
            Feature::from_function("PUT", &workload.exe, "ngx_put_handler")
                .unwrap()
                .redirect_to_function(&workload.exe, dynacut_apps::nginx::ERROR_HANDLER)
                .unwrap(),
        ],
        Server::Lighttpd => vec![
            Feature::from_function("PUT", &workload.exe, "lt_put_handler")
                .unwrap()
                .redirect_to_function(&workload.exe, dynacut_apps::lighttpd::ERROR_HANDLER)
                .unwrap(),
        ],
        Server::Redis => vec![Feature::from_function("SET", &workload.exe, "rd_cmd_set")
            .unwrap()
            .redirect_to_function(&workload.exe, dynacut_apps::redis::ERROR_HANDLER)
            .unwrap()],
    };
    let mut plan = RewritePlan::new()
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    for feature in features {
        plan = plan.disable(feature);
    }
    let report = dynacut
        .customize(&mut workload.kernel, &workload.pids, &plan)
        .expect("customize succeeds");

    let phases: Vec<(String, u64)> = report
        .phases
        .iter()
        .map(|(phase, elapsed)| (phase.name().to_owned(), elapsed.as_nanos() as u64))
        .collect();
    let total_ns = phases.iter().map(|(_, ns)| ns).sum();

    let flight = workload.kernel.flight();
    let mut events: BTreeMap<String, u64> = BTreeMap::new();
    for event in flight.iter() {
        *events
            .entry(kind_label(&event.kind).to_owned())
            .or_insert(0) += 1;
    }
    FlightReport {
        app: server.module().to_owned(),
        phases,
        total_ns,
        recorded: flight.next_seq(),
        dropped: flight.dropped(),
        events,
        counters: flight
            .metrics()
            .counters()
            .map(|(name, value)| (name.to_owned(), value))
            .collect(),
    }
}

/// Runs one redirect customization per application and summarises each
/// kernel's flight recorder.
pub fn run() -> Vec<FlightReport> {
    [Server::Lighttpd, Server::Nginx, Server::Redis]
        .into_iter()
        .map(one_app)
        .collect()
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

fn map_json(map: &BTreeMap<String, u64>, indent: &str) -> String {
    if map.is_empty() {
        return "{}".to_owned();
    }
    let body: Vec<String> = map
        .iter()
        .map(|(key, value)| format!("{indent}  \"{}\": {value}", escape(key)))
        .collect();
    format!("{{\n{}\n{indent}}}", body.join(",\n"))
}

/// Serialises the reports as the `dynacut-flight-v1` JSON document.
pub fn to_json(reports: &[FlightReport]) -> String {
    let mut apps = Vec::new();
    for report in reports {
        let phases: Vec<String> = report
            .phases
            .iter()
            .map(|(name, ns)| format!("        {{\"phase\": \"{}\", \"ns\": {ns}}}", escape(name)))
            .collect();
        apps.push(format!(
            concat!(
                "    {{\n",
                "      \"app\": \"{app}\",\n",
                "      \"total_ns\": {total},\n",
                "      \"phases\": [\n{phases}\n      ],\n",
                "      \"journal\": {{\n",
                "        \"recorded\": {recorded},\n",
                "        \"dropped\": {dropped},\n",
                "        \"events\": {events}\n",
                "      }},\n",
                "      \"counters\": {counters}\n",
                "    }}"
            ),
            app = escape(&report.app),
            total = report.total_ns,
            phases = phases.join(",\n"),
            recorded = report.recorded,
            dropped = report.dropped,
            events = map_json(&report.events, "        "),
            counters = map_json(&report.counters, "      "),
        ));
    }
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"apps\": [\n{}\n  ]\n}}\n",
        apps.join(",\n")
    )
}

/// Checks the schema invariants CI relies on: every required key appears
/// in the serialized document, every app ran every success-path phase,
/// and each app's phase durations sum to its reported total.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate(json: &str, reports: &[FlightReport]) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(format!("missing required key `{key}`"));
        }
    }
    if reports.is_empty() {
        return Err("no apps in report".to_owned());
    }
    for report in reports {
        let sum: u64 = report.phases.iter().map(|(_, ns)| ns).sum();
        if sum != report.total_ns {
            return Err(format!(
                "{}: phase durations sum to {sum} but total_ns is {}",
                report.app, report.total_ns
            ));
        }
        for phase in [
            "freeze",
            "dump",
            "image_edit",
            "inject",
            "restore_prepare",
            "restore_commit",
        ] {
            if !report.phases.iter().any(|(name, _)| name == phase) {
                return Err(format!("{}: phase `{phase}` missing", report.app));
            }
        }
        if report.events.get("customize_commit").copied().unwrap_or(0) != 1 {
            return Err(format!("{}: expected exactly one commit event", report.app));
        }
        if report.recorded < report.dropped {
            return Err(format!("{}: recorded < dropped", report.app));
        }
    }
    Ok(())
}

/// Prints the text summary, writes `results/flight.json`, and panics if
/// the document violates the schema (the CI gate).
pub fn print() {
    println!("== Flight report: per-phase downtime + journal summary ==\n");
    let reports = run();
    let mut table = crate::report::Table::new(&["app", "phase", "duration", "share"]);
    for report in &reports {
        for (phase, ns) in &report.phases {
            table.row(&[
                report.app.clone(),
                phase.clone(),
                crate::report::fmt_duration(std::time::Duration::from_nanos(*ns)),
                format!("{:.1}%", *ns as f64 * 100.0 / report.total_ns.max(1) as f64),
            ]);
        }
        table.row(&[
            report.app.clone(),
            "total".to_owned(),
            crate::report::fmt_duration(std::time::Duration::from_nanos(report.total_ns)),
            "100.0%".to_owned(),
        ]);
    }
    print!("{}", table.render());
    for report in &reports {
        println!(
            "\n{}: journal recorded {} events ({} dropped), counters: {}",
            report.app,
            report.recorded,
            report.dropped,
            report
                .counters
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    let json = to_json(&reports);
    if let Err(violation) = validate(&json, &reports) {
        panic!("flight JSON failed schema validation: {violation}");
    }
    let path = "results/flight.json";
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

    #[test]
    fn flight_json_is_schema_valid_and_phases_sum_to_total() {
        let reports = run();
        assert_eq!(reports.len(), 3);
        let json = to_json(&reports);
        validate(&json, &reports).expect("schema valid");
        // The journal must show the whole success path and no rollback.
        for report in &reports {
            assert_eq!(report.events.get("customize_begin"), Some(&1));
            assert_eq!(report.events.get("customize_commit"), Some(&1));
            assert_eq!(report.events.get("customize_rollback"), None);
            assert_eq!(report.events.get("rollback_step"), None);
            assert!(report.events.get("process_dumped").copied().unwrap_or(0) >= 1);
            assert!(report.events.get("process_restored").copied().unwrap_or(0) >= 1);
            assert!(report.counters.get("customize.commits") == Some(&1));
            assert!(report.counters.get("blocks_patched").copied().unwrap_or(0) >= 1);
        }
    }

    #[test]
    fn validate_rejects_mismatched_total() {
        let mut reports = run();
        reports[0].total_ns += 1;
        let json = to_json(&reports);
        assert!(validate(&json, &reports).is_err());
    }
}
