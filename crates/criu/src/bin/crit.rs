//! `crit` — the CRIU image tool for DCVM checkpoints, mirroring the
//! workflows the paper built on ("users can use CRIT to print all memory
//! regions of the application (i.e., `crit x <dir> mems`) or check the
//! register values of a process snapshot (i.e., `crit show core.img`)",
//! §3.3).
//!
//! ```text
//! crit decode <checkpoint.dcr>        # full human-readable dump
//! crit mems   <checkpoint.dcr>        # VMA listing per process
//! crit core   <checkpoint.dcr>        # registers + sigactions
//! crit info   <checkpoint.dcr>        # one-line summary
//! ```

use dynacut_criu::CheckpointImage;

fn usage() -> ! {
    eprintln!("usage: crit <decode|mems|core|info> <checkpoint-file>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, path) = match args.as_slice() {
        [command, path] => (command.as_str(), path.as_str()),
        _ => usage(),
    };
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(err) => {
            eprintln!("crit: cannot read `{path}`: {err}");
            std::process::exit(1);
        }
    };
    let checkpoint = match CheckpointImage::from_bytes(&raw) {
        Ok(checkpoint) => checkpoint,
        Err(err) => {
            eprintln!("crit: `{path}` is not a valid checkpoint: {err}");
            std::process::exit(1);
        }
    };
    match command {
        "decode" => print!("{}", checkpoint.decode_text()),
        "mems" => {
            for image in &checkpoint.procs {
                println!("pid {} ({}):", image.core.pid.0, image.core.name);
                for vma in &image.mm.vmas {
                    println!(
                        "  {:012x}-{:012x} {} {}",
                        vma.start, vma.end, vma.perms, vma.name
                    );
                }
            }
        }
        "core" => {
            for image in &checkpoint.procs {
                println!("pid {} ({}):", image.core.pid.0, image.core.name);
                println!("  pc: {:#x}", image.core.pc);
                for (index, value) in image.core.regs.iter().enumerate() {
                    if *value != 0 {
                        println!("  r{index}: {value:#x}");
                    }
                }
                for (signo, action) in image.core.sigactions.iter().enumerate() {
                    if action.is_handled() {
                        println!(
                            "  sigaction[{signo}]: handler={:#x} restorer={:#x}",
                            action.handler, action.restorer
                        );
                    }
                }
            }
        }
        "info" => {
            println!(
                "checkpoint @ {} ns: {} process(es), {} page bytes",
                checkpoint.time_ns,
                checkpoint.procs.len(),
                checkpoint.pages_bytes()
            );
            for image in &checkpoint.procs {
                println!(
                    "  pid {} {} — {} vmas, {} pages, {} fds, {} tcp conns{}",
                    image.core.pid.0,
                    image.core.name,
                    image.mm.vmas.len(),
                    image.pages.len(),
                    image.files.fds.len(),
                    image.tcp.conns.len(),
                    if image.exec_pages_dumped {
                        " (exec pages dumped)"
                    } else {
                        ""
                    }
                );
            }
        }
        _ => usage(),
    }
}
