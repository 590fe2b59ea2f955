//! Error type for linking, encoding and loading DCO images.

use std::error::Error;
use std::fmt;

/// Errors raised by the DCO linker, codec and loader.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ObjError {
    /// A referenced symbol is defined neither locally nor by any library
    /// given to the linker.
    UnresolvedSymbol(String),
    /// The same symbol is defined more than once in a module.
    DuplicateSymbol(String),
    /// A PC-relative data reference crosses a module boundary; only
    /// function imports (via the PLT) are supported across modules.
    CrossModuleData(String),
    /// An executable was linked without an entry symbol.
    MissingEntry,
    /// The named entry symbol does not exist in the module.
    BadEntry(String),
    /// A relocation displacement does not fit in its field.
    RelocOverflow {
        /// The symbol whose displacement overflowed.
        symbol: String,
        /// The displacement value.
        displacement: i64,
    },
    /// The byte stream is not a valid DCO image.
    BadImage(String),
    /// A load-time import could not be resolved.
    MissingImport {
        /// Module doing the importing.
        module: String,
        /// Symbol that could not be resolved.
        symbol: String,
    },
    /// An assembler error surfaced during linking.
    Isa(dynacut_isa::IsaError),
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::UnresolvedSymbol(name) => write!(f, "unresolved symbol `{name}`"),
            ObjError::DuplicateSymbol(name) => write!(f, "duplicate symbol `{name}`"),
            ObjError::CrossModuleData(name) => write!(
                f,
                "pc-relative reference to `{name}` crosses a module boundary"
            ),
            ObjError::MissingEntry => write!(f, "executable has no entry symbol"),
            ObjError::BadEntry(name) => write!(f, "entry symbol `{name}` is not defined"),
            ObjError::RelocOverflow {
                symbol,
                displacement,
            } => write!(
                f,
                "relocation to `{symbol}` overflows: displacement {displacement}"
            ),
            ObjError::BadImage(reason) => write!(f, "malformed DCO image: {reason}"),
            ObjError::MissingImport { module, symbol } => {
                write!(f, "module `{module}` imports unresolvable `{symbol}`")
            }
            ObjError::Isa(err) => write!(f, "assembly error: {err}"),
        }
    }
}

impl Error for ObjError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ObjError::Isa(err) => Some(err),
            _ => None,
        }
    }
}

impl From<dynacut_isa::IsaError> for ObjError {
    fn from(err: dynacut_isa::IsaError) -> Self {
        ObjError::Isa(err)
    }
}

impl From<crate::wire::WireError> for ObjError {
    fn from(err: crate::wire::WireError) -> Self {
        ObjError::BadImage(err.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty() {
        let samples = [
            ObjError::UnresolvedSymbol("f".into()),
            ObjError::DuplicateSymbol("g".into()),
            ObjError::CrossModuleData("tbl".into()),
            ObjError::MissingEntry,
            ObjError::BadEntry("main".into()),
            ObjError::RelocOverflow {
                symbol: "x".into(),
                displacement: 1 << 40,
            },
            ObjError::BadImage("truncated".into()),
            ObjError::MissingImport {
                module: "app".into(),
                symbol: "libc_write".into(),
            },
        ];
        for err in samples {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn isa_error_is_wrapped_with_source() {
        let err = ObjError::from(dynacut_isa::IsaError::BadOpcode(0xEE));
        assert!(err.source().is_some());
    }
}
