//! The interpreter experiment: guest throughput (MIPS) with the
//! superblock-chaining block cache (DESIGN §11) against the uncached
//! interpreter — the ISA's semantic reference — on the Redis and Nginx
//! workloads.
//!
//! Each server is booted twice and driven with **identical** traffic: a
//! steady-state request batch timed on the host clock, then a full
//! customize cycle whose freshly planted traps must fire on the very
//! next request, then a post-cycle warm batch. The superblocked run
//! must clear [`MIN_SPEEDUP`]× the uncached run in steady state, the
//! customize commit must *carry* the cache (version swaps observed, not
//! a cold re-decode storm), and both kernels must land on the same
//! `state_fingerprint()` with the same retirement count — the cache is
//! a pure interpreter accelerator, invisible to the guest.
//!
//! Emits `results/interp.json` (`dynacut-interp-v3`), schema-gated by
//! CI: MIPS > 0, superblocks built, version swaps after the cycle,
//! warm-hit ratio positive, fingerprints bit-identical.

use crate::report::{write_result, Table};
use crate::workloads::{boot_server, Server, Workload};
use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::{nginx, redis};
use std::time::Instant;

/// Schema identifier embedded in the JSON for forward compatibility.
pub const SCHEMA: &str = "dynacut-interp-v3";

/// Steady-state requests per measured batch in the headline run.
pub const STEADY_REQUESTS: usize = 600;

/// The acceptance floor on the superblocked-over-uncached speedup.
pub const MIN_SPEEDUP: f64 = 2.0;

/// Timed trials per pass; the reported MIPS is the best trial, which
/// filters host scheduling noise out of the speedup ratios.
pub const TRIALS: usize = 3;

/// Top-level keys the JSON must contain (the CI schema check).
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "steady_requests",
    "servers",
    "server",
    "uncached_mips",
    "superblocked_mips",
    "speedup",
    "insns_measured",
    "cache_hits",
    "cache_misses",
    "cache_invalidations",
    "superblocks",
    "version_swaps",
    "warm_hits",
    "warm_misses",
    "warm_hit_ratio",
    "fingerprints_match",
];

/// One boot-drive-customize-warm pass over a server, with or without
/// the block cache.
#[derive(Debug, Clone)]
pub struct ServerRun {
    /// Guest instructions retired per host second, in millions.
    pub mips: f64,
    /// Instructions retired inside the timed batch.
    pub insns_measured: u64,
    /// Host wall time of the timed batch.
    pub wall_ns: u64,
    /// Block-cache hit count over the whole run.
    pub hits: u64,
    /// Block-cache miss count over the whole run.
    pub misses: u64,
    /// Block-cache invalidation count over the whole run.
    pub invalidations: u64,
    /// Superblocks promoted from hot entries over the whole run.
    pub superblocks: u64,
    /// Carried entries swapped in after the customize commit (the
    /// carried cache coming back without a re-decode).
    pub version_swaps: u64,
    /// Cache hits inside the post-cycle warm batch.
    pub warm_hits: u64,
    /// Cache misses inside the post-cycle warm batch.
    pub warm_misses: u64,
    /// `state_fingerprint()` after the cycle, traps and warm batch.
    pub fingerprint: String,
}

impl ServerRun {
    /// Hit fraction of the post-cycle warm batch — how much of the
    /// carried cache survived the customize commit.
    pub fn warm_hit_ratio(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }
}

/// The two passes over one server.
#[derive(Debug, Clone)]
pub struct ServerRow {
    /// Server module name ("redis" / "nginx").
    pub server: &'static str,
    /// The reference pass with the cache disabled.
    pub uncached: ServerRun,
    /// The block cache with hot-path superblocks.
    pub superblocked: ServerRun,
}

impl ServerRow {
    /// Steady-state MIPS ratio, superblocked over uncached.
    pub fn speedup(&self) -> f64 {
        self.superblocked.mips / self.uncached.mips
    }

    /// Whether both passes ended on the same kernel fingerprint.
    pub fn fingerprints_match(&self) -> bool {
        self.superblocked.fingerprint == self.uncached.fingerprint
    }
}

/// The whole figure: one row per server.
#[derive(Debug, Clone)]
pub struct InterpFigure {
    /// Steady-state batch size the rows were measured with.
    pub steady_requests: usize,
    /// Per-server measurements.
    pub rows: Vec<ServerRow>,
}

fn drive(workload: &mut Workload, server: Server, requests: usize) {
    match server {
        Server::Redis => workload.exercise_redis_workload(requests),
        _ => workload.exercise_http_read_workload(requests),
    }
}

/// Runs the post-measurement customize cycle — disable one hot command
/// handler with the redirect policy — and pushes traffic through the
/// planted traps so the run exercises rewrite-precise invalidation and
/// the version-swap path (the commit carries the warm cache instead of
/// starting the replacement cold).
fn customize_and_trap(workload: &mut Workload, server: Server) {
    let mut dynacut = DynaCut::new(workload.registry.clone());
    let (handler, error_handler) = match server {
        Server::Redis => ("rd_cmd_set", redis::ERROR_HANDLER),
        _ => ("ngx_put_handler", nginx::ERROR_HANDLER),
    };
    let feature = Feature::from_function(handler, &workload.exe, handler)
        .expect("handler exists")
        .redirect_to_function(&workload.exe, error_handler)
        .expect("error handler exists");
    let plan = RewritePlan::new()
        .disable(feature)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let pids = workload.pids.clone();
    dynacut
        .customize(&mut workload.kernel, &pids, &plan)
        .expect("customize");
    for round in 0..4 {
        match server {
            Server::Redis => {
                let reply = workload.request(format!("SET key{round} v\n").as_bytes());
                assert_eq!(reply, redis::ERR_BLOCKED, "planted trap redirects SET");
                let reply = workload.request(b"PING\n");
                assert!(!reply.is_empty(), "server alive after trap");
            }
            _ => {
                let reply = workload.request(format!("PUT /t{round} data").as_bytes());
                assert_eq!(reply, nginx::RESP_403, "planted trap redirects PUT");
                let reply = workload.request(format!("GET /t{round}\n").as_bytes());
                assert_eq!(reply, nginx::RESP_200, "server alive after trap");
            }
        }
    }
}

/// Post-cycle warm traffic that avoids the disabled handler, so its
/// hit ratio measures how much of the carried cache is still live.
fn drive_warm(workload: &mut Workload, server: Server, requests: usize) {
    for index in 0..requests {
        let reply = match server {
            Server::Redis => {
                if index % 2 == 0 {
                    workload.request(format!("GET key{}\n", index % 8).as_bytes())
                } else {
                    workload.request(b"PING\n")
                }
            }
            _ => workload.request(format!("GET /warm{index}\n").as_bytes()),
        };
        assert!(!reply.is_empty(), "server alive in the warm batch");
    }
}

/// Boots `server` with or without the block cache, measures a
/// steady-state batch, runs the customize cycle with trap traffic,
/// measures the post-cycle warm batch, and fingerprints the kernel.
fn measure(server: Server, cache_enabled: bool, requests: usize) -> ServerRun {
    let mut workload = boot_server(server, false);
    workload.kernel.set_block_cache_enabled(cache_enabled);
    let counter =
        |workload: &Workload, name: &str| workload.kernel.flight().metrics().counter(name);
    // Boot ran with the default (enabled) cache either way; count cache
    // activity only from this point, once the toggle is in effect.
    let hits_base = counter(&workload, "block_cache.hits");
    let misses_base = counter(&workload, "block_cache.misses");
    let invals_base = counter(&workload, "block_cache.invalidations");
    let supers_base = counter(&workload, "block_cache.superblocks");
    // Warmup: populate page tables, listener state and (if enabled) the
    // block cache, so the timed batches are steady state.
    drive(&mut workload, server, requests / 4 + 8);
    // Guest execution is deterministic; host wall time is not. Take the
    // best of [`TRIALS`] identical batches so the MIPS ratio compares
    // the two dispatch paths, not host scheduling jitter.
    let mut mips = 0.0_f64;
    let mut insns_measured = 0;
    let mut wall_ns = 0;
    for _ in 0..TRIALS {
        let insns_before = counter(&workload, "insns_retired");
        let start = Instant::now();
        drive(&mut workload, server, requests);
        let trial_wall = (start.elapsed().as_nanos() as u64).max(1);
        let trial_insns = counter(&workload, "insns_retired") - insns_before;
        mips = mips.max(trial_insns as f64 * 1_000.0 / trial_wall as f64);
        insns_measured += trial_insns;
        wall_ns += trial_wall;
    }
    // Version swaps count from the commit onwards: a carried entry
    // swaps in on its first post-cycle dispatch, which starts inside the
    // trap traffic.
    let swaps_base = counter(&workload, "block_cache.version_swaps");
    customize_and_trap(&mut workload, server);
    let warm_hits_base = counter(&workload, "block_cache.hits");
    let warm_misses_base = counter(&workload, "block_cache.misses");
    drive_warm(&mut workload, server, requests / 8 + 8);
    let metrics = workload.kernel.flight().metrics();
    ServerRun {
        mips,
        insns_measured,
        wall_ns,
        hits: metrics.counter("block_cache.hits") - hits_base,
        misses: metrics.counter("block_cache.misses") - misses_base,
        invalidations: metrics.counter("block_cache.invalidations") - invals_base,
        superblocks: metrics.counter("block_cache.superblocks") - supers_base,
        version_swaps: metrics.counter("block_cache.version_swaps") - swaps_base,
        warm_hits: metrics.counter("block_cache.hits") - warm_hits_base,
        warm_misses: metrics.counter("block_cache.misses") - warm_misses_base,
        fingerprint: workload.kernel.state_fingerprint(),
    }
}

/// Measures one server with and without the cache, identical traffic.
pub fn run_server(server: Server, requests: usize) -> ServerRow {
    ServerRow {
        server: server.module(),
        uncached: measure(server, false, requests),
        superblocked: measure(server, true, requests),
    }
}

/// Runs the whole figure: Redis and Nginx, both passes each.
pub fn run(requests: usize) -> InterpFigure {
    InterpFigure {
        steady_requests: requests,
        rows: vec![
            run_server(Server::Redis, requests),
            run_server(Server::Nginx, requests),
        ],
    }
}

/// Serialises the figure as the `dynacut-interp-v3` JSON document.
pub fn to_json(figure: &InterpFigure) -> String {
    let rows: Vec<String> = figure
        .rows
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"server\": \"{server}\",\n",
                    "      \"uncached_mips\": {unc:.4},\n",
                    "      \"superblocked_mips\": {sup:.4},\n",
                    "      \"speedup\": {speedup:.4},\n",
                    "      \"insns_measured\": {insns},\n",
                    "      \"uncached_wall_ns\": {unc_wall},\n",
                    "      \"superblocked_wall_ns\": {sup_wall},\n",
                    "      \"cache_hits\": {hits},\n",
                    "      \"cache_misses\": {misses},\n",
                    "      \"cache_invalidations\": {invals},\n",
                    "      \"superblocks\": {supers},\n",
                    "      \"version_swaps\": {swaps},\n",
                    "      \"warm_hits\": {warm_hits},\n",
                    "      \"warm_misses\": {warm_misses},\n",
                    "      \"warm_hit_ratio\": {warm_ratio:.4},\n",
                    "      \"fingerprints_match\": {fp}\n",
                    "    }}"
                ),
                server = row.server,
                unc = row.uncached.mips,
                sup = row.superblocked.mips,
                speedup = row.speedup(),
                insns = row.superblocked.insns_measured,
                unc_wall = row.uncached.wall_ns,
                sup_wall = row.superblocked.wall_ns,
                hits = row.superblocked.hits,
                misses = row.superblocked.misses,
                invals = row.superblocked.invalidations,
                supers = row.superblocked.superblocks,
                swaps = row.superblocked.version_swaps,
                warm_hits = row.superblocked.warm_hits,
                warm_misses = row.superblocked.warm_misses,
                warm_ratio = row.superblocked.warm_hit_ratio(),
                fp = row.fingerprints_match(),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{schema}\",\n",
            "  \"steady_requests\": {requests},\n",
            "  \"servers\": [\n{rows}\n  ]\n",
            "}}\n"
        ),
        schema = SCHEMA,
        requests = figure.steady_requests,
        rows = rows.join(",\n"),
    )
}

/// Checks the invariants CI relies on: every required key appears, the
/// cache really ran (hits, superblocks), throughput is positive and the
/// cached pass is no slower than the uncached one, both passes retired
/// the **same** instruction count over the timed batch and ended
/// bit-identical, the customize commit carried the cache (version swaps
/// observed, warm batch hits), and the headline speedup clears
/// [`MIN_SPEEDUP`].
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate(json: &str, figure: &InterpFigure) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(format!("missing required key `{key}`"));
        }
    }
    if figure.rows.is_empty() {
        return Err("no server rows".to_owned());
    }
    for row in &figure.rows {
        let server = row.server;
        if row.uncached.mips <= 0.0 || row.superblocked.mips <= 0.0 {
            return Err(format!("{server}: non-positive MIPS"));
        }
        if row.superblocked.mips < row.uncached.mips {
            return Err(format!(
                "{server}: superblocked {:.2} MIPS slower than uncached {:.2}",
                row.superblocked.mips, row.uncached.mips
            ));
        }
        if row.speedup() < MIN_SPEEDUP {
            return Err(format!(
                "{server}: speedup {:.2}x below the {MIN_SPEEDUP}x floor",
                row.speedup()
            ));
        }
        if row.superblocked.insns_measured != row.uncached.insns_measured {
            return Err(format!(
                "{server}: retirement drift between passes ({} / {})",
                row.uncached.insns_measured, row.superblocked.insns_measured
            ));
        }
        if row.superblocked.hits == 0 {
            return Err(format!("{server}: cache never hit"));
        }
        if row.uncached.hits != 0 {
            return Err(format!("{server}: disabled cache reported hits"));
        }
        if row.superblocked.superblocks == 0 {
            return Err(format!("{server}: no superblocks were promoted"));
        }
        if row.superblocked.version_swaps == 0 {
            return Err(format!(
                "{server}: customize commit did not version-swap the cache"
            ));
        }
        if row.superblocked.warm_hit_ratio() <= 0.0 {
            return Err(format!(
                "{server}: post-cycle warm batch never hit the carried cache"
            ));
        }
        if !row.fingerprints_match() {
            return Err(format!("{server}: fingerprints diverge"));
        }
    }
    Ok(())
}

/// Prints the MIPS table, writes `results/interp.json`, and panics if
/// the document violates the schema (the CI gate).
pub fn print() {
    println!("== Interp: guest MIPS uncached vs superblocked block cache (steady state) ==\n");
    let figure = run(STEADY_REQUESTS);
    let mut table = Table::new(&[
        "server",
        "uncached MIPS",
        "superblocked MIPS",
        "speedup",
        "superblocks",
        "version swaps",
        "warm hit %",
        "bit-identical",
    ]);
    for row in &figure.rows {
        table.row(&[
            row.server.to_owned(),
            format!("{:.2}", row.uncached.mips),
            format!("{:.2}", row.superblocked.mips),
            format!("{:.2}x", row.speedup()),
            row.superblocked.superblocks.to_string(),
            row.superblocked.version_swaps.to_string(),
            format!("{:.1}", row.superblocked.warm_hit_ratio() * 100.0),
            row.fingerprints_match().to_string(),
        ]);
    }
    print!("{}", table.render());
    let json = to_json(&figure);
    if let Err(violation) = validate(&json, &figure) {
        panic!("interp JSON failed schema validation: {violation}");
    }
    write_result("interp", &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_row(speedup: f64) -> ServerRow {
        let base = ServerRun {
            mips: 10.0,
            insns_measured: 1_000,
            wall_ns: 100_000,
            hits: 0,
            misses: 40,
            invalidations: 1,
            superblocks: 0,
            version_swaps: 0,
            warm_hits: 0,
            warm_misses: 10,
            fingerprint: "fp".to_owned(),
        };
        ServerRow {
            server: "redis",
            uncached: base.clone(),
            superblocked: ServerRun {
                mips: 10.0 * speedup,
                hits: 500,
                superblocks: 7,
                version_swaps: 5,
                warm_hits: 80,
                warm_misses: 4,
                ..base
            },
        }
    }

    #[test]
    fn schema_is_valid_and_tampering_is_caught() {
        let mut figure = InterpFigure {
            steady_requests: 10,
            rows: vec![synthetic_row(4.0)],
        };
        let json = to_json(&figure);
        validate(&json, &figure).expect("schema valid");

        figure.rows[0].superblocked.mips = figure.rows[0].uncached.mips * 1.5;
        assert!(
            validate(&to_json(&figure), &figure)
                .unwrap_err()
                .contains("floor"),
            "sub-2x headline speedup is rejected"
        );

        let mut figure = InterpFigure {
            steady_requests: 10,
            rows: vec![synthetic_row(4.0)],
        };
        figure.rows[0].superblocked.fingerprint = "other".to_owned();
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("fingerprints"));

        let mut figure = InterpFigure {
            steady_requests: 10,
            rows: vec![synthetic_row(4.0)],
        };
        figure.rows[0].superblocked.insns_measured += 1;
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("drift"));

        let mut figure = InterpFigure {
            steady_requests: 10,
            rows: vec![synthetic_row(4.0)],
        };
        figure.rows[0].superblocked.superblocks = 0;
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("superblocks"));

        let mut figure = InterpFigure {
            steady_requests: 10,
            rows: vec![synthetic_row(4.0)],
        };
        figure.rows[0].superblocked.version_swaps = 0;
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("version-swap"));

        let mut figure = InterpFigure {
            steady_requests: 10,
            rows: vec![synthetic_row(4.0)],
        };
        figure.rows[0].superblocked.warm_hits = 0;
        assert!(validate(&to_json(&figure), &figure)
            .unwrap_err()
            .contains("warm batch"));
    }

    /// A small real pass: identical retirement, matching fingerprints,
    /// live cache, promoted superblocks and a version-swapped commit.
    /// (The speedup floor is asserted by the release-mode `figures
    /// interp` run in CI, not in debug unit tests.)
    #[test]
    fn small_redis_pass_is_bit_identical_with_a_live_cache() {
        let row = run_server(Server::Redis, 40);
        assert!(row.fingerprints_match(), "fingerprints diverge");
        assert_eq!(row.superblocked.insns_measured, row.uncached.insns_measured);
        assert!(row.superblocked.hits > 0, "superblocked cache never hit");
        assert_eq!(row.uncached.hits, 0);
        assert!(row.superblocked.superblocks > 0, "no superblocks promoted");
        assert!(
            row.superblocked.version_swaps > 0,
            "commit flushed instead of version-swapping"
        );
        assert!(
            row.superblocked.warm_hit_ratio() > 0.0,
            "post-cycle warm batch never hit"
        );
        assert!(row.superblocked.mips > 0.0 && row.uncached.mips > 0.0);
    }
}
