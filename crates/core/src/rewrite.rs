//! Image-level rewriting: disabling, wiping, unmapping and restoring
//! basic blocks.
//!
//! # Block-cache invalidation contract
//!
//! Every function here edits a [`ProcessImage`], never live kernel
//! memory — rewrites reach a running process only through the restore
//! swap (`RestoreTransaction::commit`), whose replacement is built new,
//! with a cold decoded-block translation cache. The engine's customize
//! commit then carries the *original's* cache into it
//! (`BlockCache::carry_into`), seeding the generation of every page a
//! carried block decodes from, and of each one an edit here touched past
//! any carried snapshot, so a carried block over rewritten bytes can
//! never validate (DESIGN §11). Host-side patches that *do*
//! touch live memory (e.g. via `write_unchecked`) are covered
//! separately by the per-page generation counters in the VM. Either
//! way, no cached block can hide a freshly planted `int3`, a wiped
//! block, or a re-enabled byte.

use crate::original::OriginalText;
use crate::plan::{BlockPolicy, RewritePlan};
use crate::{DynacutError, Feature};
use dynacut_criu::{ModuleRegistry, ProcessImage};
use dynacut_isa::{coalesce_blocks, BasicBlock, TRAP_OPCODE};
use dynacut_obj::{checked_page_align, Perms, PAGE_LEN, PAGE_SIZE};

/// What a disable operation did, and what the fault handler needs to
/// know about it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisableOutcome {
    /// Bytes overwritten with `int3`.
    pub bytes_written: u64,
    /// Whole pages unmapped.
    pub pages_unmapped: u64,
    /// `(blocked absolute address, redirect absolute address)` pairs for
    /// the fault-handler table.
    pub redirects: Vec<(u64, u64)>,
    /// `(absolute address, original byte)` pairs for the verifier table.
    pub originals: Vec<(u64, u8)>,
    /// Number of blocks affected.
    pub blocks: usize,
}

/// The base address `module` is mapped at in `image`'s process.
pub(crate) fn module_base(image: &ProcessImage, module: &str) -> Result<u64, DynacutError> {
    image
        .core
        .modules
        .iter()
        .find(|m| m.name == module)
        .map(|m| m.base)
        .ok_or_else(|| DynacutError::UnknownModule(module.to_owned()))
}

/// Refuses `feature` if one of its blocks, placed in the module mapped
/// at `base` and rounded out to whole pages, would pass the top of the
/// address space; the edits then add the base and round without a
/// check.
fn check_blocks_fit(base: u64, feature: &Feature) -> Result<(), DynacutError> {
    for block in &feature.blocks {
        let end = block
            .addr
            .checked_add(u64::from(block.size))
            .and_then(|end| end.checked_add(base))
            .and_then(checked_page_align);
        if end.is_none() {
            return Err(DynacutError::BlockOutOfRange {
                feature: feature.name.clone(),
                offset: block.addr,
            });
        }
    }
    Ok(())
}

/// Refuses a plan naming a block (at least its first byte) or a redirect
/// target outside its module's text as `registry` holds it, which would
/// edit whatever else is mapped there. A module the registry does not
/// hold is left to the edit, which skips a module no process maps.
pub(crate) fn check_in_text(
    plan: &RewritePlan,
    registry: &ModuleRegistry,
) -> Result<(), DynacutError> {
    let features = plan.disable.iter().chain(&plan.enable);
    let named = features.map(|f| (f.name.as_str(), &f.module, &f.blocks, f.redirect_to));
    let init = plan
        .remove_blocks
        .iter()
        .map(|(m, b)| ("<init>", m, b, None));
    for (feature, module, blocks, redirect) in named.chain(init) {
        let Some(binary) = registry.get(module) else {
            continue;
        };
        let sizes = blocks.iter().map(|block| (block.addr, block.size.max(1)));
        for (offset, size) in sizes.chain(redirect.map(|offset| (offset, 1))) {
            let end = offset.checked_add(u64::from(size));
            if end.is_none_or(|end| end > binary.text.len() as u64) {
                return Err(DynacutError::BlockOutOfRange {
                    feature: feature.to_owned(),
                    offset,
                });
            }
        }
    }
    Ok(())
}

/// Disables a feature in the image according to `policy` (paper §3.2.2).
///
/// # Errors
///
/// Fails if the module is unknown, or if blocks or the redirect target
/// fall outside mapped memory or past the top of the address space.
pub fn disable_in_image(
    image: &mut ProcessImage,
    feature: &Feature,
    policy: BlockPolicy,
) -> Result<DisableOutcome, DynacutError> {
    let base = module_base(image, &feature.module)?;
    check_blocks_fit(base, feature)?;
    let redirect_abs = feature
        .redirect_to
        .map(|offset| {
            base.checked_add(offset)
                .ok_or_else(|| DynacutError::BlockOutOfRange {
                    feature: feature.name.clone(),
                    offset,
                })
        })
        .transpose()?;
    let mut outcome = DisableOutcome::default();

    let record_block_entry = |outcome: &mut DisableOutcome, image: &ProcessImage, addr: u64| {
        if let Some(to) = redirect_abs {
            outcome.redirects.push((addr, to));
        }
        if let Ok(orig) = image.read_mem(addr, 1) {
            outcome.originals.push((addr, orig[0]));
        }
    };

    match policy {
        BlockPolicy::EntryByte => {
            // "placing an int3 instruction in the first byte of the first
            // basic block executed in this list".
            let Some(entry) = feature.entry_block() else {
                return Ok(outcome);
            };
            let addr = base + entry.addr;
            record_block_entry(&mut outcome, image, addr);
            image.write_mem(addr, &[TRAP_OPCODE])?;
            outcome.bytes_written += 1;
            outcome.blocks = feature.blocks.len();
        }
        BlockPolicy::WipeBlocks => {
            for block in &feature.blocks {
                let addr = base + block.addr;
                record_block_entry(&mut outcome, image, addr);
                // Capture every original byte so the verifier can heal any
                // mid-block landing.
                if let Ok(orig) = image.read_mem(addr, block.size as usize) {
                    for (index, byte) in orig.iter().enumerate().skip(1) {
                        outcome.originals.push((addr + index as u64, *byte));
                    }
                }
                image.fill_mem(addr, block.size as usize, TRAP_OPCODE)?;
                outcome.bytes_written += u64::from(block.size);
            }
            outcome.blocks = feature.blocks.len();
        }
        BlockPolicy::UnmapPages => {
            let ranges = coalesce_blocks(&feature.blocks);
            for range in &ranges {
                let abs = (base + range.start)..(base + range.end);
                // Pages entirely inside the range are unmapped; the
                // partial head/tail bytes are wiped.
                let first_full = abs.start.div_ceil(PAGE_SIZE) * PAGE_SIZE;
                let last_full = (abs.end / PAGE_SIZE) * PAGE_SIZE;
                if first_full < last_full {
                    image.unmap_range(first_full, last_full)?;
                    outcome.pages_unmapped += (last_full - first_full) / PAGE_SIZE;
                }
                let head = abs.start..first_full.min(abs.end);
                let tail = last_full.max(abs.start)..abs.end;
                for part in [head, tail] {
                    if part.start < part.end && image.mm.vma_at(part.start).is_some() {
                        let len = usize::try_from(part.end - part.start).map_err(|_| {
                            DynacutError::BlockOutOfRange {
                                feature: feature.name.clone(),
                                offset: part.start - base,
                            }
                        })?;
                        image.fill_mem(part.start, len, TRAP_OPCODE)?;
                        outcome.bytes_written += part.end - part.start;
                    }
                }
            }
            for block in &feature.blocks {
                let addr = base + block.addr;
                if image.mm.vma_at(addr).is_some() {
                    record_block_entry(&mut outcome, image, addr);
                }
            }
            outcome.blocks = feature.blocks.len();
        }
    }
    Ok(outcome)
}

/// Re-enables a feature by restoring the original instruction bytes (and
/// re-mapping any pages a previous unmap removed).
///
/// # Errors
///
/// Fails if the module is unknown to the registry, or if a block falls
/// past the top of the address space.
pub fn enable_in_image(
    image: &mut ProcessImage,
    feature: &Feature,
    registry: &ModuleRegistry,
    original: &mut OriginalText,
) -> Result<u64, DynacutError> {
    let base = module_base(image, &feature.module)?;
    check_blocks_fit(base, feature)?;
    let mut restored = 0u64;

    // Re-map any missing pages first, restoring their full original
    // content.
    let ranges = coalesce_blocks(&feature.blocks);
    for range in &ranges {
        let abs_start = (base + range.start) & !(PAGE_SIZE - 1);
        let abs_end = (base + range.end).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut page = abs_start;
        while page < abs_end {
            if image.mm.vma_at(page).is_none() {
                image
                    .add_vma(
                        page,
                        PAGE_SIZE,
                        Perms::RX,
                        &format!("{}.text", feature.module),
                    )
                    .map_err(DynacutError::Criu)?;
                let offset = page - base;
                let bytes = original.bytes(image, registry, &feature.module, offset, PAGE_LEN);
                // The page may extend past the text end; clamp gracefully.
                let bytes = match bytes {
                    Ok(bytes) => bytes,
                    Err(_) => {
                        let text_len = registry.get(&feature.module).map_or(0, |b| b.text.len());
                        let avail = usize::try_from(offset)
                            .map_or(0, |offset| text_len.saturating_sub(offset));
                        original.bytes(image, registry, &feature.module, offset, avail)?
                    }
                };
                image.write_mem(page, &bytes)?;
                restored += bytes.len() as u64;
            }
            page += PAGE_SIZE;
        }
    }

    // Restore the block bytes themselves.
    for block in &feature.blocks {
        let bytes = original.bytes(
            image,
            registry,
            &feature.module,
            block.addr,
            block.size as usize,
        )?;
        image.write_mem(base + block.addr, &bytes)?;
        restored += u64::from(block.size);
    }
    Ok(restored)
}

/// Removes arbitrary (e.g. initialization-only) blocks from a module —
/// the Figure 7/9 operation. Equivalent to disabling an anonymous feature
/// with no redirect.
///
/// # Errors
///
/// Fails if the module is unknown or blocks are out of range.
pub fn remove_blocks_in_image(
    image: &mut ProcessImage,
    module: &str,
    blocks: &[BasicBlock],
    policy: BlockPolicy,
) -> Result<DisableOutcome, DynacutError> {
    // Init-code removal replaces *all* the listed blocks' instructions,
    // not just entries ("the overhead of initialization code removal is
    // mainly due to replacing all unused basic block instructions",
    // §4.1); honour EntryByte by upgrading it to WipeBlocks semantics
    // per block.
    let effective = match policy {
        BlockPolicy::EntryByte => BlockPolicy::WipeBlocks,
        other => other,
    };
    let feature = Feature::new("<init>", module, blocks.to_vec());
    disable_in_image(image, &feature, effective)
}
