//! The drcov-style trace log format.

use dynacut_isa::BasicBlock;
use std::collections::BTreeSet;
use std::fmt;

/// One module row of the drcov module table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRecord {
    /// Module id referenced by block records.
    pub id: u16,
    /// Load base address.
    pub base: u64,
    /// End of the module's text.
    pub end: u64,
    /// Module (binary) name.
    pub name: String,
}

/// One executed basic block: `<BB addr, BB size>` expressed
/// module-relative, as drcov does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockRecord {
    /// Index into the module table.
    pub module: u16,
    /// Offset of the block inside the module.
    pub offset: u32,
    /// Block size in bytes.
    pub size: u32,
}

/// Errors raised by the trace layer: drcov parsing, module registration
/// and block-offset validation.
///
/// The drcov format narrows module ids to `u16` and block offsets to
/// `u32`; anything that does not fit is a typed error here, never a
/// silent `as`-truncation (which would alias distinct blocks or modules
/// and corrupt tracediff).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A drcov text log is malformed.
    Malformed(String),
    /// A block's module-relative offset exceeds the drcov `u32` offset
    /// field.
    OffsetOverflow {
        /// Module the block belongs to (name, or `id N` while parsing).
        module: String,
        /// The out-of-range offset.
        offset: u64,
    },
    /// Registering another module would overflow the `u16` id space.
    ModuleLimit {
        /// The module count that did not fit.
        count: usize,
    },
    /// The kernel rejected an operation (e.g. tracking a missing pid).
    Vm(dynacut_vm::VmError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed(reason) => write!(f, "malformed drcov log: {reason}"),
            TraceError::OffsetOverflow { module, offset } => write!(
                f,
                "block offset {offset:#x} in module `{module}` exceeds the drcov u32 offset field"
            ),
            TraceError::ModuleLimit { count } => {
                write!(
                    f,
                    "module table of {count} entries exceeds the drcov u16 id space"
                )
            }
            TraceError::Vm(err) => write!(f, "kernel error: {err}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Vm(err) => Some(err),
            _ => None,
        }
    }
}

impl From<dynacut_vm::VmError> for TraceError {
    fn from(err: dynacut_vm::VmError) -> Self {
        TraceError::Vm(err)
    }
}

/// A coverage log: module table plus the deduplicated set of executed
/// blocks.
///
/// ```
/// use dynacut_trace::{BlockRecord, ModuleRecord, TraceLog};
///
/// let mut log = TraceLog::default();
/// log.modules.push(ModuleRecord { id: 0, base: 0x40_0000, end: 0x40_1000, name: "app".into() });
/// log.blocks.insert(BlockRecord { module: 0, offset: 0x40, size: 12 });
/// let text = log.to_drcov_text();
/// assert_eq!(TraceLog::from_drcov_text(&text)?, log);
/// # Ok::<(), dynacut_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    /// Module table.
    pub modules: Vec<ModuleRecord>,
    /// Executed blocks (sorted, deduplicated).
    pub blocks: BTreeSet<BlockRecord>,
}

impl TraceLog {
    /// Number of distinct executed blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total size in bytes of the executed blocks.
    pub fn covered_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.size)).sum()
    }

    /// The module record by name, if present.
    pub fn module(&self, name: &str) -> Option<&ModuleRecord> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Executed blocks of one module, as module-relative [`BasicBlock`]s.
    pub fn blocks_of(&self, name: &str) -> Vec<BasicBlock> {
        let Some(module) = self.module(name) else {
            return Vec::new();
        };
        self.blocks
            .iter()
            .filter(|b| b.module == module.id)
            .map(|b| BasicBlock::new(u64::from(b.offset), b.size))
            .collect()
    }

    /// Merges another log into this one (set union). Module identity is by
    /// name; ids are remapped as needed. This is the paper's "merge
    /// multiple trace files of different requests".
    ///
    /// # Errors
    ///
    /// Fails with [`TraceError::ModuleLimit`] if the union would not fit
    /// the `u16` module-id space; `self` is untouched in that case.
    pub fn merge(&mut self, other: &TraceLog) -> Result<(), TraceError> {
        // Validate before mutating: the merge is all-or-nothing.
        let new_names: BTreeSet<&str> = other
            .modules
            .iter()
            .map(|m| m.name.as_str())
            .filter(|name| !self.modules.iter().any(|m| &m.name == name))
            .collect();
        let merged_count = self.modules.len() + new_names.len();
        if merged_count > usize::from(u16::MAX) + 1 {
            return Err(TraceError::ModuleLimit {
                count: merged_count,
            });
        }
        let mut remap = vec![0u16; other.modules.len()];
        for module in &other.modules {
            let id = match self.modules.iter().position(|m| m.name == module.name) {
                Some(index) => u16::try_from(index).expect("table bounded above"),
                None => {
                    let id = u16::try_from(self.modules.len()).expect("table bounded above");
                    self.modules.push(ModuleRecord {
                        id,
                        ..module.clone()
                    });
                    id
                }
            };
            remap[module.id as usize] = id;
        }
        for block in &other.blocks {
            self.blocks.insert(BlockRecord {
                module: remap[block.module as usize],
                ..*block
            });
        }
        Ok(())
    }

    /// Serialises in a drcov-like text format.
    pub fn to_drcov_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "DRCOV VERSION: 2");
        let _ = writeln!(out, "Module Table: version 2, count {}", self.modules.len());
        let _ = writeln!(out, "Columns: id, base, end, path");
        for module in &self.modules {
            let _ = writeln!(
                out,
                "{:3}, {:#018x}, {:#018x}, {}",
                module.id, module.base, module.end, module.name
            );
        }
        let _ = writeln!(out, "BB Table: {} bbs", self.blocks.len());
        for block in &self.blocks {
            let _ = writeln!(
                out,
                "module[{:3}]: {:#010x}, {:3}",
                block.module, block.offset, block.size
            );
        }
        out
    }

    /// Parses a log produced by [`TraceLog::to_drcov_text`].
    ///
    /// # Errors
    ///
    /// Fails with [`TraceError`] on malformed input.
    pub fn from_drcov_text(text: &str) -> Result<TraceLog, TraceError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or(TraceError::Malformed("empty log".into()))?;
        if !header.starts_with("DRCOV VERSION") {
            return Err(TraceError::Malformed("missing DRCOV header".into()));
        }
        let module_header = lines
            .next()
            .ok_or(TraceError::Malformed("missing module table".into()))?;
        let count: usize = module_header
            .rsplit(' ')
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(TraceError::Malformed("bad module count".into()))?;
        let _columns = lines.next();
        // Grown line by line: the header's count is untrusted input, and
        // a count past the lines present runs out of them as a typed
        // error instead of sizing an allocation.
        let mut modules = Vec::new();
        for _ in 0..count {
            let line = lines
                .next()
                .ok_or(TraceError::Malformed("truncated module table".into()))?;
            let mut fields = line.splitn(4, ',').map(str::trim);
            let id: u16 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(TraceError::Malformed(format!("bad module id in `{line}`")))?;
            let base = parse_hex(
                fields
                    .next()
                    .ok_or(TraceError::Malformed("missing base".into()))?,
            )?;
            let end = parse_hex(
                fields
                    .next()
                    .ok_or(TraceError::Malformed("missing end".into()))?,
            )?;
            let name = fields
                .next()
                .ok_or(TraceError::Malformed("missing name".into()))?
                .to_owned();
            modules.push(ModuleRecord {
                id,
                base,
                end,
                name,
            });
        }
        let bb_header = lines
            .next()
            .ok_or(TraceError::Malformed("missing bb table".into()))?;
        if !bb_header.starts_with("BB Table") {
            return Err(TraceError::Malformed("missing BB table header".into()));
        }
        let mut blocks = BTreeSet::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            // module[  0]: 0x00000040,  12
            let rest = line
                .strip_prefix("module[")
                .ok_or(TraceError::Malformed(format!("bad bb line `{line}`")))?;
            let (id_str, rest) = rest
                .split_once("]:")
                .ok_or(TraceError::Malformed(format!("bad bb line `{line}`")))?;
            let module: u16 = id_str
                .trim()
                .parse()
                .map_err(|_| TraceError::Malformed(format!("bad module id `{id_str}`")))?;
            let (offset_str, size_str) = rest
                .split_once(',')
                .ok_or(TraceError::Malformed(format!("bad bb line `{line}`")))?;
            let raw_offset = parse_hex(offset_str.trim())?;
            let offset = u32::try_from(raw_offset).map_err(|_| TraceError::OffsetOverflow {
                module: modules
                    .iter()
                    .find(|m| m.id == module)
                    .map(|m| m.name.clone())
                    .unwrap_or_else(|| format!("id {module}")),
                offset: raw_offset,
            })?;
            let size: u32 = size_str
                .trim()
                .parse()
                .map_err(|_| TraceError::Malformed(format!("bad size `{size_str}`")))?;
            blocks.insert(BlockRecord {
                module,
                offset,
                size,
            });
        }
        Ok(TraceLog { modules, blocks })
    }
}

fn parse_hex(s: &str) -> Result<u64, TraceError> {
    let stripped = s
        .strip_prefix("0x")
        .ok_or(TraceError::Malformed(format!("`{s}` is not hex")))?;
    u64::from_str_radix(stripped, 16)
        .map_err(|_| TraceError::Malformed(format!("`{s}` is not hex")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceLog {
        let mut log = TraceLog {
            modules: vec![
                ModuleRecord {
                    id: 0,
                    base: 0x40_0000,
                    end: 0x40_1000,
                    name: "app".into(),
                },
                ModuleRecord {
                    id: 1,
                    base: 0x7000_0000_0000,
                    end: 0x7000_0000_1000,
                    name: "libc".into(),
                },
            ],
            blocks: BTreeSet::new(),
        };
        log.blocks.insert(BlockRecord {
            module: 0,
            offset: 0x40,
            size: 12,
        });
        log.blocks.insert(BlockRecord {
            module: 1,
            offset: 0x0,
            size: 5,
        });
        log
    }

    #[test]
    fn text_round_trip() {
        let log = sample();
        let text = log.to_drcov_text();
        let parsed = TraceLog::from_drcov_text(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn merge_unions_and_remaps_modules() {
        let mut a = sample();
        let mut b = TraceLog::default();
        b.modules.push(ModuleRecord {
            id: 0,
            base: 0x7000_0000_0000,
            end: 0x7000_0000_1000,
            name: "libc".into(),
        });
        b.blocks.insert(BlockRecord {
            module: 0,
            offset: 0x100,
            size: 7,
        });
        a.merge(&b).unwrap();
        assert_eq!(a.modules.len(), 2, "libc not duplicated");
        assert_eq!(a.block_count(), 3);
        // The libc block from `b` was remapped to module id 1.
        assert!(a.blocks.contains(&BlockRecord {
            module: 1,
            offset: 0x100,
            size: 7
        }));
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = sample();
        let before = a.clone();
        let copy = a.clone();
        a.merge(&copy).unwrap();
        assert_eq!(a, before);
    }

    #[test]
    fn blocks_of_filters_by_module() {
        let log = sample();
        let app_blocks = log.blocks_of("app");
        assert_eq!(app_blocks, vec![BasicBlock::new(0x40, 12)]);
        assert!(log.blocks_of("missing").is_empty());
    }

    #[test]
    fn covered_bytes_sums_sizes() {
        assert_eq!(sample().covered_bytes(), 17);
    }

    #[test]
    fn malformed_logs_are_rejected() {
        assert!(TraceLog::from_drcov_text("").is_err());
        assert!(TraceLog::from_drcov_text("garbage\n").is_err());
        let mut text = sample().to_drcov_text();
        text.push_str("module[ 0]: nonsense\n");
        assert!(TraceLog::from_drcov_text(&text).is_err());
    }
}
