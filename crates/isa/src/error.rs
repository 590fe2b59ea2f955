//! Error type for encoding, decoding and assembly.

use std::error::Error;
use std::fmt;

/// Errors raised while encoding, decoding or assembling DCVM code.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaError {
    /// A register operand byte was outside `0..=15`.
    BadRegister(u8),
    /// An opcode byte does not name any DCVM instruction.
    BadOpcode(u8),
    /// The byte stream ended in the middle of an instruction.
    TruncatedInsn {
        /// Offset of the instruction's opcode byte.
        offset: usize,
        /// Bytes the instruction needs.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch target is too far away to encode in a 32-bit displacement.
    DisplacementOverflow {
        /// The label whose displacement overflowed.
        label: String,
        /// The displacement that did not fit.
        displacement: i64,
    },
    /// Assembled text, or one basic block of it, is larger than its size
    /// field holds (a block's size is 32 bits; the text must fit in host
    /// memory). Only an alignment of gigabytes gets here.
    TextTooLarge {
        /// Offset of the text or block that is too large.
        offset: u64,
        /// Its size in bytes.
        len: u64,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::BadRegister(value) => {
                write!(f, "register operand {value} is outside 0..=15")
            }
            IsaError::BadOpcode(value) => write!(f, "unknown opcode byte {value:#04x}"),
            IsaError::TruncatedInsn {
                offset,
                needed,
                available,
            } => write!(
                f,
                "instruction at offset {offset:#x} needs {needed} bytes but only {available} remain"
            ),
            IsaError::UndefinedLabel(name) => write!(f, "undefined label `{name}`"),
            IsaError::DuplicateLabel(name) => write!(f, "duplicate label `{name}`"),
            IsaError::DisplacementOverflow {
                label,
                displacement,
            } => write!(
                f,
                "displacement {displacement} to label `{label}` does not fit in 32 bits"
            ),
            IsaError::TextTooLarge { offset, len } => {
                write!(
                    f,
                    "{len} bytes of text at offset {offset:#x} exceed the size field"
                )
            }
        }
    }
}

impl Error for IsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_nonempty_messages() {
        let samples = [
            IsaError::BadRegister(99),
            IsaError::BadOpcode(0xEE),
            IsaError::TruncatedInsn {
                offset: 4,
                needed: 10,
                available: 2,
            },
            IsaError::UndefinedLabel("loop".into()),
            IsaError::DuplicateLabel("loop".into()),
            IsaError::DisplacementOverflow {
                label: "far".into(),
                displacement: i64::MAX,
            },
            IsaError::TextTooLarge {
                offset: 0,
                len: u64::MAX,
            },
        ];
        for err in samples {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: Error + Send + Sync + 'static>(_: E) {}
        takes_error(IsaError::BadOpcode(0));
    }
}
