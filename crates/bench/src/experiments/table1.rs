//! Table 1: Redis CVEs mitigatable with DynaCut's feature blocking.
//!
//! Each CVE maps to one of the modelled vulnerable handlers; the harness
//! actually fires each exploit twice — against a vanilla server (which
//! crashes) and against a DynaCut-customized server (which answers
//! `-ERR blocked` and stays up).

use crate::workloads::{boot_server, Server};
use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::redis;
use dynacut_vm::Signal;

/// One row of the table.
#[derive(Debug, Clone)]
pub struct CveRow {
    /// CVE identifier.
    pub cve: &'static str,
    /// Affected command / handler function.
    pub command: &'static str,
    /// Paper description.
    pub description: &'static str,
    /// The handler function implementing the command.
    pub handler: &'static str,
    /// Exploit request fired at the server.
    pub exploit: String,
    /// Whether the vanilla server crashed with SIGSEGV.
    pub vanilla_crashed: bool,
    /// Whether the customized server survived and answered `-ERR blocked`.
    pub blocked_survived: bool,
}

fn exploits() -> Vec<(
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    String,
)> {
    let a = "a".repeat(32);
    let b = "b".repeat(32);
    let stralgo = format!("STRALGO {a} {b}\n");
    let config = format!("CONFIG {}\n", "v".repeat(64));
    vec![
        (
            "CVE-2021-32625",
            "STRALGO LCS",
            "STRALGO LCS command in Redis versions 6.0+ (integer overflow)",
            "rd_cmd_stralgo",
            stralgo.clone(),
        ),
        (
            "CVE-2021-29477",
            "STRALGO LCS",
            "STRALGO LCS command in Redis versions 6.0+ (integer overflow)",
            "rd_cmd_stralgo",
            stralgo,
        ),
        (
            "CVE-2019-10193",
            "SETRANGE",
            "SETRANGE command (stack-buffer overflow)",
            "rd_cmd_setrange",
            "SETRANGE 5000 xyz\n".to_owned(),
        ),
        (
            "CVE-2019-10192",
            "SETRANGE",
            "SETRANGE command (heap-buffer overflow)",
            "rd_cmd_setrange",
            "SETRANGE 8000 xyz\n".to_owned(),
        ),
        (
            "CVE-2016-8339",
            "CONFIG SET",
            "CONFIG SET command in Redis 3.2.x prior to 3.2.4 (buffer overflow)",
            "rd_cmd_config",
            config,
        ),
    ]
}

fn fire(exploit: &str, block_handler: Option<&str>) -> (Vec<u8>, Option<Signal>) {
    let mut workload = boot_server(Server::Redis, false);
    if let Some(handler) = block_handler {
        let mut dynacut = DynaCut::new(workload.registry.clone());
        let feature = Feature::from_function(handler, &workload.exe, handler)
            .unwrap()
            .redirect_to_function(&workload.exe, redis::ERROR_HANDLER)
            .unwrap();
        let plan = RewritePlan::new()
            .disable(feature)
            .with_fault_policy(FaultPolicy::Redirect)
            .with_downtime(Downtime::None);
        dynacut
            .customize(&mut workload.kernel, &workload.pids.clone(), &plan)
            .expect("block handler");
    }
    let reply = workload.request(exploit.as_bytes());
    let fatal = workload
        .kernel
        .exit_status(workload.pids[0])
        .and_then(|s| s.fatal_signal);
    (reply, fatal)
}

/// Runs every exploit against vanilla and customized servers.
pub fn run() -> Vec<CveRow> {
    exploits()
        .into_iter()
        .map(|(cve, command, description, handler, exploit)| {
            let (_, vanilla_fatal) = fire(&exploit, None);
            let (blocked_reply, blocked_fatal) = fire(&exploit, Some(handler));
            CveRow {
                cve,
                command,
                description,
                handler,
                exploit,
                vanilla_crashed: vanilla_fatal == Some(Signal::Sigsegv),
                blocked_survived: blocked_fatal.is_none() && blocked_reply == redis::ERR_BLOCKED,
            }
        })
        .collect()
}

/// Prints the table.
pub fn print() {
    println!("== Table 1: Redis CVEs mitigated by DynaCut feature blocking ==\n");
    let rows = run();
    let mut table = crate::report::Table::new(&[
        "CVE #",
        "command",
        "vanilla server",
        "with DynaCut",
        "description",
    ]);
    for row in &rows {
        table.row(&[
            row.cve.to_owned(),
            row.command.to_owned(),
            if row.vanilla_crashed {
                "CRASH (SIGSEGV)".to_owned()
            } else {
                "survived?!".to_owned()
            },
            if row.blocked_survived {
                "blocked, alive".to_owned()
            } else {
                "NOT MITIGATED".to_owned()
            },
            row.description.to_owned(),
        ]);
    }
    print!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_cves_crash_vanilla_and_are_mitigated() {
        let rows = run();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.vanilla_crashed, "{} crashes vanilla redis", row.cve);
            assert!(row.blocked_survived, "{} mitigated by DynaCut", row.cve);
        }
    }
}
