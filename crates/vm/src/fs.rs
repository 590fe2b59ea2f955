//! File descriptors and a minimal in-memory filesystem.
//!
//! The guest servers read configuration files during their initialization
//! phase (the very code DynaCut later sheds), so the kernel provides a
//! tiny virtual filesystem alongside socket descriptors.

use crate::net::ConnId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A file registered in the kernel's virtual filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VfsFile {
    /// Full path, e.g. `"/etc/nginx.conf"`.
    pub path: String,
    /// File contents.
    pub contents: Arc<Vec<u8>>,
}

/// What a file descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileDesc {
    /// Standard output/error sink; bytes are collected per process.
    Console,
    /// An open VFS file with a read cursor.
    File {
        /// The backing file.
        file: VfsFile,
        /// Current read offset.
        pos: u64,
    },
    /// An unbound TCP socket.
    Socket,
    /// A listening TCP socket bound to a port.
    Listener {
        /// Bound port.
        port: u16,
    },
    /// An established TCP connection.
    Conn(ConnId),
}

/// A process's file-descriptor table.
///
/// Descriptor 0 is pre-opened as the console. `fork` clones the table
/// (descriptors referring to the same connection share it, as on Linux).
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    entries: BTreeMap<u32, FileDesc>,
    /// The next never-used number: a `u64`, so it cannot wrap to 0.
    next: u64,
}

impl FdTable {
    /// Creates a table with fd 0 opened on the console.
    pub fn new() -> Self {
        let mut table = FdTable {
            entries: BTreeMap::new(),
            next: 1,
        };
        table.entries.insert(0, FileDesc::Console);
        table
    }

    /// The number [`alloc`](FdTable::alloc) hands out next, or `None`
    /// once `u32::MAX` has been used.
    pub(crate) fn next_fd(&self) -> Option<u32> {
        u32::try_from(self.next).ok()
    }

    /// Installs `desc` at the next never-used number (not the lowest free
    /// one) and returns it, or `None` once the `u32` space is used up.
    pub fn alloc(&mut self, desc: FileDesc) -> Option<u32> {
        let fd = self.next_fd()?;
        self.entries.insert(fd, desc);
        self.next += 1;
        Some(fd)
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: u32) -> Option<&FileDesc> {
        self.entries.get(&fd)
    }

    /// Looks up a descriptor mutably.
    pub fn get_mut(&mut self, fd: u32) -> Option<&mut FileDesc> {
        self.entries.get_mut(&fd)
    }

    /// Closes a descriptor, returning what it referred to.
    pub fn close(&mut self, fd: u32) -> Option<FileDesc> {
        self.entries.remove(&fd)
    }

    /// Iterates over `(fd, desc)` pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &FileDesc)> {
        self.entries.iter().map(|(&fd, desc)| (fd, desc))
    }

    /// Replaces the descriptor stored at `fd` (used by checkpoint restore).
    pub fn insert(&mut self, fd: u32, desc: FileDesc) {
        self.entries.insert(fd, desc);
        self.next = self.next.max(u64::from(fd) + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_zero_is_console() {
        let table = FdTable::new();
        assert_eq!(table.get(0), Some(&FileDesc::Console));
    }

    #[test]
    fn alloc_returns_increasing_fds() {
        let mut table = FdTable::new();
        let a = table.alloc(FileDesc::Socket).unwrap();
        let b = table.alloc(FileDesc::Socket).unwrap();
        assert!(b > a);
        assert!(table.get(a).is_some());
    }

    #[test]
    fn close_removes_descriptor() {
        let mut table = FdTable::new();
        let fd = table.alloc(FileDesc::Socket).unwrap();
        assert_eq!(table.close(fd), Some(FileDesc::Socket));
        assert!(table.get(fd).is_none());
        assert_eq!(table.close(fd), None);
    }

    #[test]
    fn insert_bumps_next_allocation() {
        let mut table = FdTable::new();
        table.insert(10, FileDesc::Socket);
        let fd = table.alloc(FileDesc::Socket).unwrap();
        assert!(fd > 10);
    }
}
