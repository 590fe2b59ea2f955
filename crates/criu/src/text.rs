//! `crit decode`-style textual rendering of images.

use crate::images::{CheckpointImage, FdImage, ProcessImage};
use dynacut_obj::PAGE_LEN;
use std::fmt::Write as _;

impl ProcessImage {
    /// Renders the image set as human-readable text, the way
    /// `crit show core.img` / `crit x <dir> mems` do for CRIU images
    /// (paper §3.3).
    pub fn decode_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "core:");
        let _ = writeln!(out, "  pid: {}", self.core.pid.0);
        let _ = writeln!(out, "  name: {}", self.core.name);
        let _ = writeln!(out, "  pc: {:#x}", self.core.pc);
        for (index, reg) in self.core.regs.iter().enumerate() {
            if *reg != 0 {
                let _ = writeln!(out, "  r{index}: {reg:#x}");
            }
        }
        for (signo, action) in self.core.sigactions.iter().enumerate() {
            if action.is_handled() {
                let _ = writeln!(
                    out,
                    "  sigaction[{signo}]: handler={:#x} restorer={:#x} mask={:#x}",
                    action.handler, action.restorer, action.mask
                );
            }
        }
        let _ = writeln!(out, "  modules:");
        for module in &self.core.modules {
            let _ = writeln!(out, "    {} @ {:#x}", module.name, module.base);
        }
        let _ = writeln!(out, "mm: {} vmas", self.mm.vmas.len());
        for vma in &self.mm.vmas {
            let _ = writeln!(
                out,
                "  {:012x}-{:012x} {} {}",
                vma.start, vma.end, vma.perms, vma.name
            );
        }
        let _ = writeln!(
            out,
            "pagemap: {} pages ({} bytes)",
            self.pages.len(),
            self.pages.len() * PAGE_LEN
        );
        let _ = writeln!(out, "files:");
        for (fd, entry) in &self.files.fds {
            let desc = match entry {
                FdImage::Console => "console".to_owned(),
                FdImage::File { path, pos } => format!("file {path} @ {pos}"),
                FdImage::Socket => "socket".to_owned(),
                FdImage::Listener { port } => format!("listener :{port}"),
                FdImage::Conn { id } => format!("{id}"),
            };
            let _ = writeln!(out, "  fd {fd}: {desc}");
        }
        let _ = writeln!(out, "tcp: {} repaired connections", self.tcp.conns.len());
        out
    }
}

impl CheckpointImage {
    /// Renders all process images.
    pub fn decode_text(&self) -> String {
        let mut out = format!(
            "checkpoint @ {} ns, {} processes\n",
            self.time_ns,
            self.procs.len()
        );
        for image in &self.procs {
            out.push_str(&image.decode_text());
        }
        out
    }
}
