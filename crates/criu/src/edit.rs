//! CRIT-style image editing — the paper's extended `crit` APIs
//! ("update memory contents, enlarge or unmap the VMAs, and insert
//! position-independent shared libraries", §3.3).

use crate::images::{ProcessImage, VmaImage};
use crate::restore::link_error;
use crate::{page_offset, CriuError};
use dynacut_obj::{checked_page_align, materialize, page_align, Image, Perms, PAGE_LEN, PAGE_SIZE};
use dynacut_vm::{SharedFrame, SigAction, Signal};

impl ProcessImage {
    /// Reads `len` bytes at `addr` from the image (unpopulated pages read
    /// as zero).
    ///
    /// # Errors
    ///
    /// Fails if any byte lies outside every VMA.
    pub fn read_mem(&self, addr: u64, len: usize) -> Result<Vec<u8>, CriuError> {
        self.check_mapped(addr, len)?;
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let cursor = addr + done as u64;
            let page_base = cursor & !(PAGE_SIZE - 1);
            let in_page = page_offset(cursor);
            let chunk = (PAGE_LEN - in_page).min(len - done);
            if let Some(frame) = self.pages.get(&page_base) {
                out[done..done + chunk].copy_from_slice(&frame.bytes()[in_page..in_page + chunk]);
            }
            done += chunk;
        }
        Ok(out)
    }

    /// Writes bytes into the image at `addr`, materialising zero pages as
    /// needed — the primitive behind "replacing arbitrary instructions
    /// with one-byte `int3` instructions" (paper §3.2.1). Only the pages
    /// written are touched: a frame another handle can see (the dumped
    /// process, a checkpoint store) is copied first, one this image
    /// alone holds is written in place.
    ///
    /// # Errors
    ///
    /// Fails if any byte lies outside every VMA.
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) -> Result<(), CriuError> {
        self.check_mapped(addr, bytes.len())?;
        let mut done = 0usize;
        while done < bytes.len() {
            let cursor = addr + done as u64;
            let page_base = cursor & !(PAGE_SIZE - 1);
            let in_page = page_offset(cursor);
            let chunk = (PAGE_LEN - in_page).min(bytes.len() - done);
            let page = self
                .pages
                .entry(page_base)
                .or_insert_with(SharedFrame::zeroed)
                .make_mut();
            page[in_page..in_page + chunk].copy_from_slice(&bytes[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }

    /// Overwrites `[addr, addr+len)` with a constant byte (the "wipe out a
    /// block of code memory" policy).
    ///
    /// # Errors
    ///
    /// Fails if the range is not mapped.
    pub fn fill_mem(&mut self, addr: u64, len: usize, value: u8) -> Result<(), CriuError> {
        self.write_mem(addr, &vec![value; len])
    }

    /// Adds a fresh VMA to the image and returns its start address.
    ///
    /// # Errors
    ///
    /// Fails if the requested range overlaps an existing VMA or runs
    /// past the top of the address space.
    pub fn add_vma(
        &mut self,
        start: u64,
        len: u64,
        perms: Perms,
        name: &str,
    ) -> Result<u64, CriuError> {
        let end = checked_page_align(len.max(1))
            .and_then(|len| start.checked_add(len))
            .ok_or_else(|| {
                CriuError::Inconsistent(format!(
                    "vma of {len:#x} bytes at {start:#x} runs past the top of the address space"
                ))
            })?;
        if self.mm.vmas.iter().any(|v| v.start < end && start < v.end) {
            return Err(CriuError::VmaOverlap(start));
        }
        self.mm.vmas.push(VmaImage {
            start,
            end,
            perms,
            name: name.to_owned(),
        });
        self.mm.vmas.sort_by_key(|v| v.start);
        Ok(start)
    }

    /// Removes `[start, end)` from the VMA list and drops its pages — the
    /// "unmap an entire memory page" policy. VMAs straddling the range are
    /// split.
    ///
    /// # Errors
    ///
    /// Fails if the bounds are not page-aligned.
    pub fn unmap_range(&mut self, start: u64, end: u64) -> Result<(), CriuError> {
        if !start.is_multiple_of(PAGE_SIZE) || !end.is_multiple_of(PAGE_SIZE) || start >= end {
            return Err(CriuError::Inconsistent(format!(
                "bad unmap range {start:#x}..{end:#x}"
            )));
        }
        let mut next = Vec::with_capacity(self.mm.vmas.len() + 1);
        for vma in self.mm.vmas.drain(..) {
            if !(vma.start < end && start < vma.end) {
                next.push(vma);
                continue;
            }
            if vma.start < start {
                next.push(VmaImage {
                    start: vma.start,
                    end: start,
                    perms: vma.perms,
                    name: vma.name.clone(),
                });
            }
            if vma.end > end {
                next.push(VmaImage {
                    start: end,
                    end: vma.end,
                    perms: vma.perms,
                    name: vma.name.clone(),
                });
            }
        }
        next.sort_by_key(|v| v.start);
        self.mm.vmas = next;
        self.pages.retain(|&base, _| base < start || base >= end);
        Ok(())
    }

    /// Installs a signal disposition in the core image — how DynaCut
    /// "adds the signal handler address, restorer address, and signal mask
    /// into the SIGTRAP sigaction field" (paper §3.3).
    pub fn set_sigaction(&mut self, signal: Signal, action: SigAction) {
        self.core.sigactions[signal.index()] = action;
    }

    /// Installs a syscall allow-bitmask in the core image (bit *n*
    /// permits syscall number *n*) — dynamic seccomp filtering through
    /// process rewriting, the paper's §5 extension.
    pub fn set_syscall_filter(&mut self, filter: u64) {
        self.core.syscall_filter = filter;
    }

    /// Injects a position-independent shared library into the image at
    /// `base` (or a free address chosen from `hint` when `base` is
    /// `None`), resolving its imports against the modules already mapped.
    /// Returns the base address used.
    ///
    /// This reproduces §3.3's library injection: new VMAs and pages are
    /// created, the library's GOT is filled with the resolved libc symbol
    /// addresses, and global-data relocations are applied relative to the
    /// chosen base.
    ///
    /// # Errors
    ///
    /// Fails on overlap, unresolved imports, or malformed library images.
    pub fn inject_library(
        &mut self,
        library: &Image,
        base: Option<u64>,
        registry: &crate::ModuleRegistry,
    ) -> Result<u64, CriuError> {
        if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::LibraryInjection) {
            return Err(CriuError::FaultInjected(
                dynacut_vm::fault::FaultPhase::LibraryInjection,
            ));
        }
        let footprint = page_align(library.footprint());
        let base = match base {
            Some(base) => base,
            None => self
                .mm
                .find_free(0x6000_0000_0000, footprint)
                .ok_or_else(|| {
                    CriuError::Inconsistent(format!("no free range for library `{}`", library.name))
                })?,
        };
        // Resolve import symbols against the mapped modules.
        let segments = materialize(library, base, |symbol| {
            registry.resolve(&self.core.modules, symbol)
        })
        .map_err(link_error)?;
        for segment in &segments {
            self.add_vma(
                segment.vaddr,
                segment.map_len(),
                segment.perms,
                &segment.name,
            )?;
            if !segment.bytes.is_empty() {
                self.write_mem(segment.vaddr, &segment.bytes)?;
            }
        }
        // Record the module so future dumps and rewrites can find it.
        self.core.modules.push(crate::images::ModuleRef {
            name: library.name.clone(),
            base,
        });
        Ok(base)
    }

    /// Unloads a previously injected module: every VMA inside its
    /// footprint is unmapped, its pages dropped, and its [`ModuleRef`]
    /// removed — "unused shared library code can be dynamically unloaded
    /// through the process rewriting approach" (paper §5). If the
    /// `SIGTRAP` sigaction points into the module it is reset to the
    /// default disposition.
    ///
    /// Returns the number of pages removed.
    ///
    /// # Errors
    ///
    /// Fails if no module of that name is mapped or its binary is missing
    /// from the registry (needed to know the footprint), and with
    /// [`CriuError::Inconsistent`] if the image places the module so
    /// that its footprint runs past the top of the address space.
    ///
    /// [`ModuleRef`]: crate::images::ModuleRef
    pub fn unload_module(
        &mut self,
        name: &str,
        registry: &crate::ModuleRegistry,
    ) -> Result<u64, CriuError> {
        let position = self
            .core
            .modules
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| CriuError::UnknownModule(name.to_owned()))?;
        let base = self.core.modules[position].base;
        let binary = registry
            .get(name)
            .ok_or_else(|| CriuError::UnknownModule(name.to_owned()))?;
        // `base` comes from the image, so it may be anything.
        let end = checked_page_align(binary.footprint())
            .and_then(|len| base.checked_add(len))
            .ok_or_else(|| {
                CriuError::Inconsistent(format!(
                    "module `{name}` at {base:#x} runs past the top of the address space"
                ))
            })?;
        let pages_before = self.pages.len();
        self.unmap_range(base, end)?;
        self.core.modules.remove(position);
        // A dangling SIGTRAP handler inside the unloaded module would
        // fault on delivery; reset it.
        let trap = Signal::Sigtrap.index();
        let action = self.core.sigactions[trap];
        if action.handler >= base && action.handler < end {
            self.core.sigactions[trap] = SigAction::default();
        }
        Ok((pages_before - self.pages.len()) as u64)
    }

    fn check_mapped(&self, addr: u64, len: usize) -> Result<(), CriuError> {
        let mut cursor = addr;
        let end = addr
            .checked_add(len as u64)
            .ok_or(CriuError::AddressNotMapped(addr))?;
        while cursor < end {
            let vma = self
                .mm
                .vma_at(cursor)
                .ok_or(CriuError::AddressNotMapped(cursor))?;
            cursor = vma.end.min(end);
        }
        Ok(())
    }
}
