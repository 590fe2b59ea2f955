//! Property tests for the checkpoint codec: round trips, truncation and
//! bit-flip robustness on arbitrary synthetic images.

use dynacut_criu::{
    CheckpointImage, CoreImage, FdImage, FilesImage, MmImage, ModuleRef, PagemapImage,
    PagesImage, ProcessImage, TcpConnImage, TcpImage, VmaImage,
};
use dynacut_obj::{Perms, PAGE_SIZE};
use dynacut_vm::{ConnId, Pid, SigAction, Signal};
use proptest::prelude::*;

fn arb_perms() -> impl Strategy<Value = Perms> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(read, write, exec)| Perms {
        read,
        write,
        exec,
    })
}

fn arb_proc_image() -> impl Strategy<Value = ProcessImage> {
    (
        1u32..1000,                                             // pid
        proptest::option::of(1u32..1000),                       // parent
        "[a-z]{1,12}",                                          // name
        proptest::array::uniform16(any::<u64>()),               // regs
        any::<u64>(),                                           // pc
        0u64..8,                                                // flags
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), Signal::COUNT),
        proptest::collection::vec((0u64..1 << 30, 1u64..64), 0..6), // vmas (page idx, pages)
        0usize..5,                                              // populated pages
        proptest::collection::vec((0u32..64, 0u8..5), 0..6),    // fds
        proptest::collection::vec(any::<u8>(), 0..32),          // tcp payload
        any::<bool>(),                                          // exec_pages_dumped
    )
        .prop_map(
            |(pid, parent, name, regs, pc, flags, sigs, vmas, pages, fds, payload, exec_dumped)| {
                let mut sigactions = [SigAction::default(); Signal::COUNT];
                for (index, (handler, restorer, mask)) in sigs.iter().enumerate() {
                    sigactions[index] = SigAction {
                        handler: *handler,
                        restorer: *restorer,
                        mask: *mask,
                    };
                }
                let mut sorted_vmas: Vec<VmaImage> = Vec::new();
                let mut cursor = 0u64;
                for (gap, len) in vmas {
                    let start = cursor + (gap % 64 + 1) * PAGE_SIZE;
                    let end = start + len * PAGE_SIZE;
                    cursor = end;
                    sorted_vmas.push(VmaImage {
                        start,
                        end,
                        perms: Perms::RW,
                        name: "anon".into(),
                    });
                }
                let pagemap: Vec<u64> = sorted_vmas
                    .iter()
                    .flat_map(|v| (v.start..v.end).step_by(PAGE_SIZE as usize))
                    .take(pages)
                    .collect();
                let page_bytes = vec![0xA5u8; pagemap.len() * PAGE_SIZE as usize];
                let fds = fds
                    .into_iter()
                    .map(|(fd, kind)| {
                        let entry = match kind {
                            0 => FdImage::Console,
                            1 => FdImage::File {
                                path: "/etc/x".into(),
                                pos: u64::from(fd),
                            },
                            2 => FdImage::Socket,
                            3 => FdImage::Listener { port: fd as u16 },
                            _ => FdImage::Conn {
                                id: ConnId(u64::from(fd)),
                            },
                        };
                        (fd, entry)
                    })
                    .collect();
                ProcessImage {
                    core: CoreImage {
                        pid: Pid(pid),
                        parent: parent.map(Pid),
                        name: name.clone(),
                        regs,
                        pc,
                        flags_bits: flags,
                        sigactions,
                        signal_depth: 0,
                        insns_retired: pc,
                        modules: vec![ModuleRef {
                            name,
                            base: 0x40_0000,
                        }],
                        syscall_filter: pc ^ flags,
                    },
                    mm: MmImage { vmas: sorted_vmas },
                    pagemap: PagemapImage { pages: pagemap },
                    pages: PagesImage { bytes: page_bytes },
                    files: FilesImage { fds },
                    tcp: TcpImage {
                        conns: vec![TcpConnImage {
                            id: ConnId(7),
                            port: 80,
                            to_server: payload.clone(),
                            to_client: payload,
                        }],
                    },
                    exec_pages_dumped: exec_dumped,
                }
            },
        )
}

fn arb_perms_unused() -> impl Strategy<Value = Perms> {
    arb_perms()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoint serialisation round trips for arbitrary images.
    #[test]
    fn checkpoint_codec_round_trips(
        procs in proptest::collection::vec(arb_proc_image(), 1..3),
        time in any::<u64>(),
    ) {
        let checkpoint = CheckpointImage { procs, time_ns: time };
        let bytes = checkpoint.to_bytes();
        prop_assert_eq!(checkpoint.encoded_len(), bytes.len());
        let parsed = CheckpointImage::from_bytes(&bytes).expect("parses");
        prop_assert_eq!(parsed, checkpoint);
    }

    /// Truncation fails cleanly at every cut point (sampled).
    #[test]
    fn checkpoint_truncation_never_panics(
        image in arb_proc_image(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let checkpoint = CheckpointImage { procs: vec![image], time_ns: 1 };
        let bytes = checkpoint.to_bytes();
        let cut = cut.index(bytes.len());
        prop_assert!(CheckpointImage::from_bytes(&bytes[..cut]).is_err());
    }

    /// Random bit flips never panic the parser.
    #[test]
    fn checkpoint_bitflips_never_panic(
        image in arb_proc_image(),
        position in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let checkpoint = CheckpointImage { procs: vec![image], time_ns: 1 };
        let mut bytes = checkpoint.to_bytes();
        let position = position.index(bytes.len());
        bytes[position] ^= flip;
        let _ = CheckpointImage::from_bytes(&bytes);
    }

    /// Editing invariants: write_mem/read_mem round trip inside mapped
    /// memory and fail outside it.
    #[test]
    fn edit_round_trip(
        mut image in arb_proc_image(),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assume!(!image.mm.vmas.is_empty());
        let vma = image.mm.vmas[0].clone();
        prop_assume!(vma.end - vma.start >= payload.len() as u64);
        image.write_mem(vma.start, &payload).expect("mapped write");
        let back = image.read_mem(vma.start, payload.len()).expect("mapped read");
        prop_assert_eq!(back, payload);
        // Unmapped access fails.
        let beyond = image.mm.vmas.last().unwrap().end + PAGE_SIZE;
        prop_assert!(image.read_mem(beyond, 1).is_err());
        // Pagemap stays sorted and consistent.
        for window in image.pagemap.pages.windows(2) {
            prop_assert!(window[0] < window[1]);
        }
        prop_assert_eq!(
            image.pages.bytes.len(),
            image.pagemap.pages.len() * PAGE_SIZE as usize
        );
    }
}

#[test]
fn strategies_compile() {
    // Keep the helper alive even if unused by a future refactor.
    let _ = arb_perms_unused();
}
