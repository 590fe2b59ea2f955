//! A synthetic process image for tests that need pages but no guest.

use dynacut_criu::{CoreImage, FilesImage, MmImage, ProcessImage, TcpImage, VmaImage};
use dynacut_obj::{Perms, PAGE_SIZE};
use dynacut_vm::{Pid, SharedFrame, SigAction, Signal};

/// Start of the one VMA [`image_with_pages`] maps.
pub const VMA_START: u64 = 0x10_0000;

/// A process image with one 256-page read-write VMA at [`VMA_START`]
/// and, for each `(base, fill)`, a page at `base` filled with `fill`.
pub fn image_with_pages(pages: impl IntoIterator<Item = (u64, u8)>) -> ProcessImage {
    ProcessImage {
        core: CoreImage {
            pid: Pid(1),
            parent: None,
            name: "synthetic".into(),
            regs: [0; 16],
            pc: VMA_START,
            flags_bits: 0,
            sigactions: [SigAction::default(); Signal::COUNT],
            signal_depth: 0,
            insns_retired: 0,
            modules: Vec::new(),
            syscall_filter: u64::MAX,
        },
        mm: MmImage {
            vmas: vec![VmaImage {
                start: VMA_START,
                end: VMA_START + 256 * PAGE_SIZE,
                perms: Perms::RW,
                name: "heap".into(),
            }],
        },
        pages: pages
            .into_iter()
            .map(|(base, fill)| (base, SharedFrame::new(&[fill; PAGE_SIZE as usize])))
            .collect(),
        files: FilesImage::default(),
        tcp: TcpImage::default(),
        exec_pages_dumped: true,
    }
}
