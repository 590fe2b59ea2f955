//! The scheduler experiment: serving tail latency under the preemptive
//! MLFQ while customize-class guest work churns in the background.
//!
//! Each run boots an N-replica Redis fleet, turns a small slice of it
//! into compute-bound "crunchers" by feeding them long pipelined
//! command blobs, and tags those replicas [`SchedClass::Background`] —
//! the class the customize engine pins on cycle-driven guest work. A
//! sequence of fresh-connection `PING` probes then measures serving
//! latency on the deterministic guest clock (simulated time, not host
//! time). The woken acceptor dispatches at level 0 ahead of the
//! background crunchers, so the probe's p99 stays flat as the fleet
//! (and its cruncher share) grows, and the wait-object registry means a
//! wake costs one list pop, not an O(N) scan.
//!
//! Emits `results/sched.json` (`dynacut-sched-v2`), schema-gated by CI:
//! the MLFQ p99 must stay within 2x from the smallest to the largest
//! fleet, and MLFQ wakeups must stay flat across fleet sizes — O(1) per
//! probe, never scaling with N.

use crate::report::{fmt_duration, write_result, Table};
use crate::workloads::boot_fleet;
use dynacut_vm::{Pid, SchedClass};
use std::time::Duration;

/// Fleet sizes the headline figure sweeps.
pub const FLEET_SIZES: &[usize] = &[100, 250, 1000];

/// Serving probes per fleet size.
pub const PROBES: usize = 40;

/// Pump chunk while probing: bounds the guest-clock quantisation of a
/// measured latency to a couple of chunks.
pub const PROBE_PUMP_NS: u64 = 500;

/// Pipelined commands per cruncher blob — enough dispatch work that no
/// cruncher drains before the probe sequence ends.
const CRUNCH_CMDS: usize = 20_000;

/// Schema identifier embedded in the JSON for forward compatibility.
pub const SCHEMA: &str = "dynacut-sched-v2";

/// Top-level keys the JSON must contain (the CI schema check).
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "probes",
    "rows",
    "fleet_size",
    "crunchers",
    "mlfq_p50_ns",
    "mlfq_p99_ns",
    "wakeups",
    "quanta",
];

/// Compute-bound replicas for a fleet of `fleet_size`: a fixed share,
/// so the background load scales with the fleet the way a fleet-wide
/// customize cycle's guest work does.
pub fn crunchers_for(fleet_size: usize) -> usize {
    (fleet_size / 50).max(2)
}

/// One fleet size's probe measurements.
#[derive(Debug, Clone, Copy)]
pub struct SizeRow {
    /// Replica count.
    pub fleet_size: usize,
    /// Compute-bound replicas among them.
    pub crunchers: usize,
    /// Median probe latency, guest nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile probe latency, guest nanoseconds.
    pub p99_ns: u64,
    /// `sched.wakeups` over the probe window.
    pub wakeups: u64,
    /// `sched.quanta` over the probe window.
    pub quanta: u64,
}

/// The whole figure.
#[derive(Debug, Clone)]
pub struct SchedFigure {
    /// Probes per cell.
    pub probes: usize,
    /// One row per fleet size, ascending.
    pub rows: Vec<SizeRow>,
}

/// Boots a fresh fleet, loads its crunchers, and probes it.
pub fn measure(fleet_size: usize) -> SizeRow {
    let mut fleet = boot_fleet(fleet_size);
    fleet.kernel.set_pump_chunk_ns(PROBE_PUMP_NS);

    // Feed the crunchers: each pipelined blob keeps one replica
    // dispatching commands for far longer than the probe sequence
    // lasts. Pumping between feeds lets each accept land before the
    // next connection arrives, so the blobs spread over distinct
    // replicas.
    let blob = "PING\n".repeat(CRUNCH_CMDS);
    for _ in 0..crunchers_for(fleet_size) {
        let conn = fleet.kernel.client_connect(fleet.port).expect("listening");
        fleet
            .kernel
            .client_send(conn, blob.as_bytes())
            .expect("send");
        fleet.kernel.run_for(2_000);
    }
    // Tag the crunching replicas Background — exactly the class the
    // customize engine pins on cycle-driven guest work.
    let busy: Vec<Pid> = fleet
        .kernel
        .pids()
        .into_iter()
        .filter(|&pid| {
            fleet
                .kernel
                .process(pid)
                .map(|proc| proc.is_runnable())
                .unwrap_or(false)
        })
        .collect();
    assert!(!busy.is_empty(), "cruncher blobs left no replica runnable");
    for &pid in &busy {
        fleet.kernel.set_sched_class(pid, SchedClass::Background);
    }

    let metrics_before = (
        fleet.kernel.flight().metrics().counter("sched.wakeups"),
        fleet.kernel.flight().metrics().counter("sched.quanta"),
    );
    let mut latencies = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let conn = fleet.kernel.client_connect(fleet.port).expect("listening");
        let sent_at = fleet.kernel.clock_ns();
        let reply = fleet
            .kernel
            .client_request(conn, b"PING\n", 5_000_000)
            .expect("probe served");
        assert!(!reply.is_empty(), "probe got a reply");
        latencies.push(fleet.kernel.clock_ns() - sent_at);
        let _ = fleet.kernel.client_close(conn);
        // Think time between probes: the serving replica re-parks in
        // accept before the next probe arrives.
        fleet.kernel.run_for(2_000);
    }
    latencies.sort_unstable();
    let p50 = latencies[latencies.len() / 2];
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    SizeRow {
        fleet_size,
        crunchers: crunchers_for(fleet_size),
        p50_ns: p50,
        p99_ns: p99,
        wakeups: fleet.kernel.flight().metrics().counter("sched.wakeups") - metrics_before.0,
        quanta: fleet.kernel.flight().metrics().counter("sched.quanta") - metrics_before.1,
    }
}

/// Runs the sweep over `sizes` and shapes the figure.
pub fn run(sizes: &[usize]) -> SchedFigure {
    let rows = sizes
        .iter()
        .map(|&fleet_size| measure(fleet_size))
        .collect();
    SchedFigure {
        probes: PROBES,
        rows,
    }
}

/// Serialises the figure as the `dynacut-sched-v2` JSON document.
pub fn to_json(figure: &SchedFigure) -> String {
    let rows: Vec<String> = figure
        .rows
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"fleet_size\": {size},\n",
                    "      \"crunchers\": {crunchers},\n",
                    "      \"mlfq_p50_ns\": {mp50},\n",
                    "      \"mlfq_p99_ns\": {mp99},\n",
                    "      \"wakeups\": {wakeups},\n",
                    "      \"quanta\": {quanta}\n",
                    "    }}"
                ),
                size = row.fleet_size,
                crunchers = row.crunchers,
                mp50 = row.p50_ns,
                mp99 = row.p99_ns,
                wakeups = row.wakeups,
                quanta = row.quanta,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{schema}\",\n",
            "  \"probes\": {probes},\n",
            "  \"rows\": [\n{rows}\n  ]\n",
            "}}\n"
        ),
        schema = SCHEMA,
        probes = figure.probes,
        rows = rows.join(",\n"),
    )
}

/// Quantisation floor for the flatness gate: a probe latency is only
/// resolved to a couple of pump chunks plus a dispatch quantum, so two
/// small numbers an epsilon apart must not trip a ratio gate.
const FLATNESS_FLOOR_NS: u64 = 4 * PROBE_PUMP_NS;

/// Checks the claims CI relies on: every required key appears, rows
/// cover ascending fleet sizes, the MLFQ p99 stays within 2x across the
/// sweep (above the quantisation floor), and MLFQ wakeups stay flat
/// from the smallest to the largest fleet (each probe costs O(1)
/// wake-list pops, so the count must not scale with N), never exceeding
/// the quanta they gate.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate(json: &str, figure: &SchedFigure) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(format!("missing required key `{key}`"));
        }
    }
    if figure.rows.len() < 2 {
        return Err("need at least two fleet sizes to compare".to_owned());
    }
    if !figure
        .rows
        .windows(2)
        .all(|w| w[0].fleet_size < w[1].fleet_size)
    {
        return Err("rows must sweep ascending fleet sizes".to_owned());
    }
    let (first, last) = (figure.rows[0], *figure.rows.last().unwrap());
    for row in &figure.rows {
        if row.p99_ns == 0 {
            return Err(format!("fleet {}: empty latency cell", row.fleet_size));
        }
        if row.quanta == 0 {
            return Err(format!("fleet {}: MLFQ burned no quanta", row.fleet_size));
        }
        if row.wakeups > row.quanta {
            return Err(format!(
                "fleet {}: {} wakeups against {} quanta — the registry is polling",
                row.fleet_size, row.wakeups, row.quanta
            ));
        }
    }
    if last.wakeups > 2 * first.wakeups.max(figure.probes as u64) {
        return Err(format!(
            "MLFQ wakeups grew {} -> {} from fleet {} to {} — wakes are \
             scaling with the fleet, not with the probes",
            first.wakeups, last.wakeups, first.fleet_size, last.fleet_size
        ));
    }
    if last.p99_ns > 2 * first.p99_ns.max(FLATNESS_FLOOR_NS) {
        return Err(format!(
            "MLFQ p99 grew {} -> {} ns from fleet {} to {} — not flat within 2x",
            first.p99_ns, last.p99_ns, first.fleet_size, last.fleet_size
        ));
    }
    Ok(())
}

/// Prints the sweep table, writes `results/sched.json`, and panics if
/// the document violates the schema (the CI gate).
pub fn print() {
    println!(
        "== Sched: serving p99 under the MLFQ (guest time), \
         background-heavy Redis fleets ==\n"
    );
    let figure = run(FLEET_SIZES);
    let mut table = Table::new(&[
        "fleet",
        "crunchers",
        "mlfq p50",
        "mlfq p99",
        "wakeups/quanta",
    ]);
    for row in &figure.rows {
        table.row(&[
            row.fleet_size.to_string(),
            row.crunchers.to_string(),
            fmt_duration(Duration::from_nanos(row.p50_ns)),
            fmt_duration(Duration::from_nanos(row.p99_ns)),
            format!("{}/{}", row.wakeups, row.quanta),
        ]);
    }
    print!("{}", table.render());
    let (first, last) = (figure.rows[0], *figure.rows.last().unwrap());
    println!(
        "\nmlfq p99 {} -> {} ({}x) over {}x fleet growth",
        fmt_duration(Duration::from_nanos(first.p99_ns)),
        fmt_duration(Duration::from_nanos(last.p99_ns)),
        last.p99_ns / first.p99_ns.max(1),
        last.fleet_size / first.fleet_size.max(1),
    );
    let json = to_json(&figure);
    if let Err(violation) = validate(&json, &figure) {
        panic!("sched JSON failed schema validation: {violation}");
    }
    write_result("sched", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small sweep: the MLFQ burns quanta, its wakeups neither rival
    /// the quanta nor grow with the fleet, and the JSON carries every
    /// schema key.
    #[test]
    fn small_sweep_keeps_wakeups_flat_and_validates() {
        let figure = run(&[16, 64]);
        let json = to_json(&figure);
        for key in REQUIRED_KEYS {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        let (first, last) = (figure.rows[0], *figure.rows.last().unwrap());
        assert!(last.quanta > 0);
        assert!(
            last.wakeups <= last.quanta,
            "{} wakeups vs {} quanta",
            last.wakeups,
            last.quanta
        );
        assert!(
            last.wakeups <= 2 * first.wakeups.max(PROBES as u64),
            "wakeups grew with the fleet: {} -> {}",
            first.wakeups,
            last.wakeups
        );
    }

    #[test]
    fn tampering_is_caught() {
        let mut figure = SchedFigure {
            probes: PROBES,
            rows: vec![
                SizeRow {
                    fleet_size: 16,
                    crunchers: 2,
                    p50_ns: 900,
                    p99_ns: 1_500,
                    wakeups: 50,
                    quanta: 4_000,
                },
                SizeRow {
                    fleet_size: 64,
                    crunchers: 2,
                    p50_ns: 900,
                    p99_ns: 1_600,
                    wakeups: 60,
                    quanta: 5_000,
                },
            ],
        };
        let json = to_json(&figure);
        validate(&json, &figure).expect("healthy figure validates");

        // A polling registry (wakeups rivaling quanta) is rejected.
        figure.rows[1].wakeups = figure.rows[1].quanta;
        assert!(validate(&to_json(&figure), &figure).is_err());
        figure.rows[1].wakeups = 60;

        // A p99 that grows with the fleet under MLFQ is rejected.
        figure.rows[1].p99_ns = 10_000;
        assert!(validate(&to_json(&figure), &figure).is_err());
    }
}
