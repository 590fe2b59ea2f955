//! The restore experiment: what the zero-copy CoW restore physically
//! copies on an N-replica Redis fleet, against the payload a
//! byte-copying restore would move (DESIGN §12).
//!
//! The run is deterministic (boot N replicas, serve a fixed dose of
//! traffic, disable SET fleet-wide in one incremental fleet cycle):
//!
//! * the **copy baseline** is Σ `stored_page_bytes` over the cycle.
//!   Each group's first incremental cycle stores its full post-edit
//!   payload — injected handler pages included — which is exactly what
//!   a restore that writes every page byte for byte would move; its
//!   cost scales with resident set × replicas;
//! * the **zero-copy restore** hands out shared frames from the
//!   content-addressed store and physically copies only first-sight
//!   pages — its cost scales with *distinct rewritten pages* and stays
//!   flat as the fleet grows.
//!
//! Emits `results/restore.json` (`dynacut-restore-v2`), gated by CI on
//! deterministic byte counts, never host timing: the copy baseline must
//! be ≥ 5× the zero-copy bytes at the headline fleet size, the store
//! must end every run with zero leaked page refs, and the zero-copy
//! cost must stay flat from 2 to 8 replicas. Byte identity of the
//! restored processes is the round-trip tests' job (a re-dump equals
//! what the store materializes). Restore-phase wall times ride along
//! informationally.

use crate::report::{fmt_bytes, write_result, Table};
use crate::workloads::boot_fleet;
use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, Phase, RewritePlan};
use dynacut_apps::redis;

/// Replicas in the headline measurement.
pub const FLEET_SIZE: usize = 8;

/// Replicas in the scaling reference point.
pub const SMALL_FLEET: usize = 2;

/// Schema identifier embedded in the JSON for forward compatibility.
pub const SCHEMA: &str = "dynacut-restore-v2";

/// Top-level keys the JSON must contain (the CI schema check).
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "fleet_size",
    "small_fleet_size",
    "zero_copy",
    "zero_copy_small",
    "restore_copied_bytes",
    "copy_baseline_bytes",
    "copied_bytes_ratio",
    "refcount_leaked_bytes",
];

/// The restore accounting of one fleet cycle.
#[derive(Debug, Clone)]
pub struct RestoreRun {
    /// Replica count of this run.
    pub fleet_size: usize,
    /// Page bytes the restore phases physically copied, fleet-wide —
    /// the deterministic cost the gates compare.
    pub restore_copied_bytes: usize,
    /// Σ `stored_page_bytes` over the cycle: the payload a byte-copying
    /// restore would have moved.
    pub copy_baseline_bytes: usize,
    /// Page bytes left for the freeze windows (dump side), for scale.
    pub frozen_page_bytes: usize,
    /// Restore-phase (prepare + commit) wall time summed over the
    /// fleet, nanoseconds. Informational: host timing, not gated.
    pub restore_wall_ns: u64,
    /// `|logical − stored|` page bytes in the session's store after the
    /// run: any live page ref not owned by a stored checkpoint is a
    /// leak. Must be zero.
    pub refcount_leaked_bytes: usize,
}

/// The whole figure: both fleet sizes plus the derived gate value.
#[derive(Debug, Clone)]
pub struct RestoreFigure {
    /// The run at [`FLEET_SIZE`].
    pub zero_copy: RestoreRun,
    /// The run at [`SMALL_FLEET`].
    pub zero_copy_small: RestoreRun,
    /// `zero_copy.copy_baseline_bytes / zero_copy.restore_copied_bytes`.
    pub copied_bytes_ratio: f64,
}

/// Boots a fleet, serves the fixed traffic dose, customizes it once
/// (disable SET, redirect policy), and reads the deterministic byte
/// accounting off the report and the session store.
pub fn measure(fleet_size: usize) -> RestoreRun {
    let mut fleet = boot_fleet(fleet_size);
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
    let restore_wall_ns = report
        .procs
        .values()
        .flat_map(|proc_report| proc_report.phases.iter())
        .filter(|(phase, _)| matches!(phase, Phase::RestorePrepare | Phase::RestoreCommit))
        .map(|(_, elapsed)| elapsed.as_nanos() as u64)
        .sum();
    let store = dynacut.store();
    RestoreRun {
        fleet_size,
        restore_copied_bytes: report.totals.restore_copied_bytes,
        copy_baseline_bytes: report.totals.stored_page_bytes,
        frozen_page_bytes: report.totals.frozen_page_bytes,
        restore_wall_ns,
        refcount_leaked_bytes: store
            .logical_pages_bytes()
            .abs_diff(store.stored_pages_bytes()),
    }
}

/// Runs both fleet sizes and derives the gate value.
pub fn run() -> RestoreFigure {
    let zero_copy = measure(FLEET_SIZE);
    let zero_copy_small = measure(SMALL_FLEET);
    let copied_bytes_ratio =
        zero_copy.copy_baseline_bytes as f64 / zero_copy.restore_copied_bytes.max(1) as f64;
    RestoreFigure {
        zero_copy,
        zero_copy_small,
        copied_bytes_ratio,
    }
}

fn run_json(key: &str, run: &RestoreRun) -> String {
    format!(
        concat!(
            "  \"{key}\": {{\n",
            "    \"fleet_size\": {fleet_size},\n",
            "    \"restore_copied_bytes\": {copied},\n",
            "    \"copy_baseline_bytes\": {baseline},\n",
            "    \"frozen_page_bytes\": {frozen},\n",
            "    \"restore_wall_ns\": {wall},\n",
            "    \"refcount_leaked_bytes\": {leaked}\n",
            "  }}"
        ),
        key = key,
        fleet_size = run.fleet_size,
        copied = run.restore_copied_bytes,
        baseline = run.copy_baseline_bytes,
        frozen = run.frozen_page_bytes,
        wall = run.restore_wall_ns,
        leaked = run.refcount_leaked_bytes,
    )
}

/// Serialises the figure as the `dynacut-restore-v2` JSON document.
pub fn to_json(figure: &RestoreFigure) -> String {
    let leaked =
        figure.zero_copy.refcount_leaked_bytes + figure.zero_copy_small.refcount_leaked_bytes;
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{schema}\",\n",
            "  \"fleet_size\": {fleet_size},\n",
            "  \"small_fleet_size\": {small},\n",
            "{zero_copy},\n",
            "{zero_copy_small},\n",
            "  \"copied_bytes_ratio\": {ratio:.4},\n",
            "  \"refcount_leaked_bytes\": {leaked}\n",
            "}}\n"
        ),
        schema = SCHEMA,
        fleet_size = FLEET_SIZE,
        small = SMALL_FLEET,
        zero_copy = run_json("zero_copy", &figure.zero_copy),
        zero_copy_small = run_json("zero_copy_small", &figure.zero_copy_small),
        ratio = figure.copied_bytes_ratio,
        leaked = leaked,
    )
}

/// Checks the gates CI relies on — all deterministic byte counts:
///
/// * every required key appears in the document,
/// * at the headline fleet size the copy baseline is ≥ 5× the bytes
///   the zero-copy restore copied (the acceptance ratio),
/// * no run leaked a single page ref,
/// * restore cost scales with rewritten pages, not resident set: the
///   zero-copy cost stays within 2× from 2 to 8 replicas while the copy
///   baseline at least triples.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate(json: &str, figure: &RestoreFigure) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(format!("missing required key `{key}`"));
        }
    }
    if figure.copied_bytes_ratio < 5.0 {
        return Err(format!(
            "copy-baseline/zero-copy byte ratio {:.2} < 5x at {} replicas",
            figure.copied_bytes_ratio, FLEET_SIZE
        ));
    }
    for run in [&figure.zero_copy, &figure.zero_copy_small] {
        if run.refcount_leaked_bytes != 0 {
            return Err(format!(
                "{} bytes of leaked page refs ({} replicas)",
                run.refcount_leaked_bytes, run.fleet_size
            ));
        }
        if run.restore_copied_bytes == 0 || run.copy_baseline_bytes == 0 {
            return Err(format!(
                "no restore bytes accounted ({} replicas)",
                run.fleet_size
            ));
        }
    }
    let (big, small) = (&figure.zero_copy, &figure.zero_copy_small);
    if big.restore_copied_bytes > 2 * small.restore_copied_bytes {
        return Err(format!(
            "zero-copy restore cost grew with the fleet: {} bytes at {} \
             replicas vs {} at {}",
            big.restore_copied_bytes, FLEET_SIZE, small.restore_copied_bytes, SMALL_FLEET
        ));
    }
    if big.copy_baseline_bytes < 3 * small.copy_baseline_bytes {
        return Err(format!(
            "copy baseline failed to scale with the fleet: {} bytes at {} \
             replicas vs {} at {}",
            big.copy_baseline_bytes, FLEET_SIZE, small.copy_baseline_bytes, SMALL_FLEET
        ));
    }
    Ok(())
}

/// Prints the size table, writes `results/restore.json`, and panics if
/// the document violates the gates (the CI check).
pub fn print() {
    println!(
        "== Restore: zero-copy CoW restore vs the copy baseline, {FLEET_SIZE}-replica Redis fleet ==\n"
    );
    let figure = run();
    let mut table = Table::new(&[
        "replicas",
        "restore copied",
        "copy baseline",
        "frozen",
        "restore wall",
    ]);
    for run in [&figure.zero_copy_small, &figure.zero_copy] {
        table.row(&[
            run.fleet_size.to_string(),
            fmt_bytes(run.restore_copied_bytes as u64),
            fmt_bytes(run.copy_baseline_bytes as u64),
            fmt_bytes(run.frozen_page_bytes as u64),
            crate::report::fmt_duration(std::time::Duration::from_nanos(run.restore_wall_ns)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\na byte-copying restore would move {:.1}x the bytes at {} replicas",
        figure.copied_bytes_ratio, FLEET_SIZE,
    );
    let json = to_json(&figure);
    if let Err(violation) = validate(&json, &figure) {
        panic!("restore JSON failed gate validation: {violation}");
    }
    write_result("restore", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance claims, end to end: ≥ 5× fewer bytes than the
    /// copy baseline at 8 replicas, zero leaked refs, flat zero-copy
    /// scaling — and the validator catches tampering.
    #[test]
    fn restore_figure_meets_the_acceptance_gates() {
        let figure = run();
        let json = to_json(&figure);
        validate(&json, &figure).unwrap_or_else(|violation| panic!("gate failed: {violation}"));
        assert!(
            figure.copied_bytes_ratio >= 5.0,
            "ratio {:.2}",
            figure.copied_bytes_ratio
        );

        let mut tampered = figure.clone();
        tampered.zero_copy.refcount_leaked_bytes = 4096;
        assert!(validate(&to_json(&tampered), &tampered).is_err());
        let mut tampered = figure.clone();
        tampered.zero_copy.restore_copied_bytes = 4 * tampered.zero_copy_small.restore_copied_bytes;
        assert!(validate(&to_json(&tampered), &tampered).is_err());
        let mut tampered = figure;
        tampered.copied_bytes_ratio = 1.5;
        assert!(validate(&to_json(&tampered), &tampered).is_err());
    }
}
