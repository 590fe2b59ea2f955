//! Recovering original instruction bytes from the binary.
//!
//! Re-enabling a feature replaces the `int3` bytes "with the original
//! instruction bytes" (paper §3). The authoritative source is the binary
//! on disk — here, the [`Image`] in the module registry — materialised at
//! the module's recorded base so load-time relocations (GOT-resolved
//! `movi` immediates) are reproduced exactly.

use crate::rewrite::module_base;
use crate::DynacutError;
use dynacut_criu::{ModuleRegistry, ProcessImage};
use dynacut_obj::{materialize, Image};
use std::collections::btree_map::{BTreeMap, Entry};

/// A cache of materialised module text for one process image.
#[derive(Debug, Default)]
pub struct OriginalText {
    /// module name → text bytes with relocations applied.
    cache: BTreeMap<String, Vec<u8>>,
}

impl OriginalText {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The original text bytes for `[offset, offset+len)` of `module` as
    /// loaded in `image`'s process.
    ///
    /// # Errors
    ///
    /// Fails if the module is unknown or the range is out of bounds.
    pub fn bytes(
        &mut self,
        image: &ProcessImage,
        registry: &ModuleRegistry,
        module: &str,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, DynacutError> {
        let text = match self.cache.entry(module.to_owned()) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => slot.insert(Self::materialise(image, registry, module)?),
        };
        let range = usize::try_from(offset)
            .ok()
            .and_then(|start| Some(start..start.checked_add(len)?))
            .filter(|range| range.end <= text.len())
            .ok_or_else(|| DynacutError::BlockOutOfRange {
                feature: format!("<original text of {module}>"),
                offset,
            })?;
        Ok(text[range].to_vec())
    }

    fn materialise(
        image: &ProcessImage,
        registry: &ModuleRegistry,
        module: &str,
    ) -> Result<Vec<u8>, DynacutError> {
        let base = module_base(image, module)?;
        let binary: &Image = registry
            .get(module)
            .ok_or_else(|| DynacutError::UnknownModule(module.to_owned()))?;
        let segments = materialize(binary, base, |symbol| {
            registry.resolve(&image.core.modules, symbol)
        })
        .map_err(DynacutError::Handler)?;
        let text_segment = segments
            .into_iter()
            .find(|s| s.perms.exec)
            .ok_or_else(|| DynacutError::UnknownModule(format!("{module} has no text")))?;
        Ok(text_segment.bytes)
    }
}
