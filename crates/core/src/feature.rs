//! Features: named groups of basic blocks that can be disabled and
//! re-enabled.

use dynacut_analysis::CovGraph;
use dynacut_isa::BasicBlock;
use dynacut_obj::Image;

/// A code feature: a set of module-relative basic blocks, an optional
/// redirect target for unintended accesses, and a name.
///
/// Features are built either from **trace diffs** (paper §3.1,
/// [`Feature::from_cov_graph`]) or **by function name** from the binary's
/// symbol table ([`Feature::from_function`]) when the operator knows which
/// handler implements the feature (the Redis CVE case study, Table 1).
///
/// ```
/// use dynacut::Feature;
/// use dynacut_isa::BasicBlock;
///
/// let feature = Feature::new(
///     "HTTP PUT",
///     "nginx",
///     vec![BasicBlock::new(0x40, 12), BasicBlock::new(0x20, 8)],
/// )
/// .redirect_to_offset(0x100);
/// assert_eq!(feature.entry_block(), Some(BasicBlock::new(0x20, 8)));
/// assert_eq!(feature.code_bytes(), 20);
/// assert_eq!(feature.redirect_to, Some(0x100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// Human-readable feature name (`"HTTP PUT"`, `"STRALGO"`, …).
    pub name: String,
    /// Module (binary) the blocks live in.
    pub module: String,
    /// Module-relative blocks, sorted by address.
    pub blocks: Vec<BasicBlock>,
    /// Module-relative address of the application's default error handler
    /// to redirect unintended accesses to (e.g. the `403 Forbidden`
    /// response path). `None` means terminate-on-access.
    pub redirect_to: Option<u64>,
}

impl Feature {
    /// Creates a feature from explicit blocks.
    pub fn new(name: &str, module: &str, mut blocks: Vec<BasicBlock>) -> Self {
        blocks.sort();
        blocks.dedup();
        Feature {
            name: name.to_owned(),
            module: module.to_owned(),
            blocks,
            redirect_to: None,
        }
    }

    /// Builds a feature from a coverage-graph diff (the `tracediff`
    /// output), keeping only blocks of `module`.
    pub fn from_cov_graph(name: &str, module: &str, graph: &CovGraph) -> Self {
        let blocks = graph
            .module_blocks(module)
            .into_iter()
            .map(|(offset, size)| BasicBlock::new(offset, size))
            .collect();
        Feature::new(name, module, blocks)
    }

    /// Builds a feature from every basic block of a named function in the
    /// binary.
    pub fn from_function(name: &str, image: &Image, function: &str) -> Option<Self> {
        let blocks = image.blocks_of_function(function);
        if blocks.is_empty() {
            return None;
        }
        Some(Feature::new(name, &image.name, blocks))
    }

    /// Sets the redirect target to the entry of a named function (e.g.
    /// the server's error-response path) and returns the feature.
    pub fn redirect_to_function(mut self, image: &Image, function: &str) -> Option<Self> {
        let def = image.symbols.get(function)?;
        self.redirect_to = Some(def.offset);
        Some(self)
    }

    /// Sets an explicit module-relative redirect target.
    pub fn redirect_to_offset(mut self, offset: u64) -> Self {
        self.redirect_to = Some(offset);
        self
    }

    /// Extends the feature with the PLT stubs its code calls, so that
    /// disabling/re-enabling the feature carries its outgoing linkage
    /// along. Without this, shedding "all unused code" while a feature is
    /// blocked can strand the feature's PLT stubs, and a later re-enable
    /// would restore the handler but not its calls.
    pub fn with_plt_dependencies(mut self, image: &Image) -> Self {
        let mut extra = Vec::new();
        for block in &self.blocks {
            let Ok(start) = usize::try_from(block.addr) else {
                continue;
            };
            let end = start
                .saturating_add(block.size as usize)
                .min(image.text.len());
            if start >= end {
                continue;
            }
            for item in dynacut_isa::disasm(&image.text[start..end]) {
                let Ok((offset, insn)) = item else { break };
                if let Some(disp) = insn.rel_target() {
                    let next = block.addr + offset as u64 + insn.len() as u64;
                    let target = next.wrapping_add_signed(i64::from(disp));
                    let is_plt = image.plt.iter().any(|entry| entry.stub_offset == target);
                    if is_plt {
                        if let Some(stub) = image.block_containing(target) {
                            extra.push(stub);
                        }
                    }
                }
            }
        }
        self.blocks.extend(extra);
        self.blocks.sort();
        self.blocks.dedup();
        self
    }

    /// The entry block — the first (lowest-address) block, whose first
    /// byte is what the entry-blocking policy overwrites.
    pub fn entry_block(&self) -> Option<BasicBlock> {
        self.blocks.first().copied()
    }

    /// Total bytes covered by the feature's blocks.
    pub fn code_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.size)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_analysis::BlockKey;

    #[test]
    fn blocks_are_sorted_and_deduplicated() {
        let feature = Feature::new(
            "f",
            "app",
            vec![
                BasicBlock::new(0x20, 4),
                BasicBlock::new(0x10, 8),
                BasicBlock::new(0x20, 4),
            ],
        );
        assert_eq!(
            feature.blocks,
            vec![BasicBlock::new(0x10, 8), BasicBlock::new(0x20, 4)]
        );
        assert_eq!(feature.entry_block(), Some(BasicBlock::new(0x10, 8)));
        assert_eq!(feature.code_bytes(), 12);
    }

    #[test]
    fn from_cov_graph_filters_module() {
        let mut graph = CovGraph::new();
        graph.insert(BlockKey {
            module: "app".into(),
            offset: 0x40,
            size: 6,
        });
        graph.insert(BlockKey {
            module: "libc".into(),
            offset: 0x0,
            size: 4,
        });
        let feature = Feature::from_cov_graph("put", "app", &graph);
        assert_eq!(feature.blocks, vec![BasicBlock::new(0x40, 6)]);
    }

    #[test]
    fn empty_feature_has_no_entry() {
        let feature = Feature::new("empty", "app", vec![]);
        assert_eq!(feature.entry_block(), None);
        assert_eq!(feature.code_bytes(), 0);
    }
}
