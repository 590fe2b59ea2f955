//! Property tests for the checkpoint codec: round trips, truncation and
//! bit-flip robustness on arbitrary synthetic images, and the checks
//! that keep a `pagemap.img` + `pages.img` pair that disagrees with
//! itself from decoding.

use dynacut_criu::{
    CheckpointImage, CoreImage, CriuError, FdImage, FilesImage, MmImage, ModuleRef, ProcessImage,
    TcpConnImage, TcpImage, VmaImage,
};
use dynacut_obj::{Perms, PAGE_SIZE};
use dynacut_vm::{ConnId, Pid, SharedFrame, SigAction, Signal};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod common;

fn arb_perms() -> impl Strategy<Value = Perms> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(read, write, exec)| Perms {
        read,
        write,
        exec,
    })
}

fn arb_proc_image() -> impl Strategy<Value = ProcessImage> {
    (
        1u32..1000,                               // pid
        proptest::option::of(1u32..1000),         // parent
        "[a-z]{1,12}",                            // name
        proptest::array::uniform16(any::<u64>()), // regs
        any::<u64>(),                             // pc
        0u64..8,                                  // flags
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), Signal::COUNT),
        proptest::collection::vec((0u64..1 << 30, 1u64..64), 0..6), // vmas (page idx, pages)
        0usize..5,                                                  // populated pages
        proptest::collection::vec((0u32..64, 0u8..5), 0..6),        // fds
        proptest::collection::vec(any::<u8>(), 0..32),              // tcp payload
        any::<bool>(),                                              // exec_pages_dumped
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
                let pages: BTreeMap<u64, SharedFrame> = sorted_vmas
                    .iter()
                    .flat_map(|v| (v.start..v.end).step_by(PAGE_SIZE as usize))
                    .take(pages)
                    .zip(1u8..)
                    .map(|(base, fill)| (base, SharedFrame::new(&[fill; PAGE_SIZE as usize])))
                    .collect();
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
                    pages,
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
    /// memory and fail outside it, and an edit copies a frame another
    /// handle can see before writing it: an image sharing the edited
    /// image's frames still reads as it did.
    #[test]
    fn edit_round_trip(
        mut image in arb_proc_image(),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assume!(!image.mm.vmas.is_empty());
        let vma = image.mm.vmas[0].clone();
        prop_assume!(vma.end - vma.start >= payload.len() as u64);
        let sharing = image.clone();
        let deep = CheckpointImage::from_bytes(
            &CheckpointImage { procs: vec![image.clone()], time_ns: 0 }.to_bytes(),
        )
        .expect("parses");
        image.write_mem(vma.start, &payload).expect("mapped write");
        let back = image.read_mem(vma.start, payload.len()).expect("mapped read");
        prop_assert_eq!(back, payload);
        prop_assert_eq!(&sharing, &deep.procs[0], "the edit wrote a shared frame");
        // Unmapped access fails.
        let beyond = image.mm.vmas.last().unwrap().end + PAGE_SIZE;
        prop_assert!(image.read_mem(beyond, 1).is_err());
    }

    /// `from_bytes` accepts a pagemap exactly when its entries are
    /// page-aligned and strictly ascending: one entry of a valid image,
    /// overwritten with a neighbour's base, a neighbour's base moved by
    /// a few bytes, or an arbitrary value, decodes to exactly the listed
    /// bases or fails with `BadImage`.
    #[test]
    fn from_bytes_accepts_only_ascending_aligned_pagemaps(
        image in arb_proc_image(),
        entry in any::<proptest::sample::Index>(),
        neighbour in any::<proptest::sample::Index>(),
        shift in 0u64..16,
        arbitrary in any::<u64>(),
        pick in 0u8..3,
    ) {
        prop_assume!(image.pages.len() >= 2);
        let mut bases: Vec<u64> = image.pages.keys().copied().collect();
        let (mut bytes, at) = encode_locating_pagemap(image);
        let neighbour = bases[neighbour.index(bases.len())];
        let value = match pick {
            0 => neighbour,
            1 => neighbour.wrapping_add(shift),
            _ => arbitrary,
        };
        let entry = entry.index(bases.len());
        bases[entry] = value;
        bytes[at + 8 * entry..][..8].copy_from_slice(&value.to_le_bytes());
        let valid = bases.windows(2).all(|pair| pair[0] < pair[1])
            && bases.iter().all(|base| base.is_multiple_of(PAGE_SIZE));
        match CheckpointImage::from_bytes(&bytes) {
            Ok(parsed) => {
                prop_assert!(valid, "decoded a pagemap listing {:x?}", bases);
                prop_assert_eq!(parsed.procs[0].pages.keys().copied().collect::<Vec<_>>(), bases);
            }
            Err(err) => {
                prop_assert!(!valid, "refused a valid pagemap: {}", err);
                prop_assert!(matches!(err, CriuError::BadImage(_)));
            }
        }
    }
}

// ----- a pagemap that disagrees with itself never decodes ---------------

/// Encodes a one-process checkpoint of `image` and returns the bytes with
/// the offset of the first `pagemap.img` entry. The entries follow as
/// little-endian `u64`s, then the `pages.img` length and its pages.
fn encode_locating_pagemap(image: ProcessImage) -> (Vec<u8>, usize) {
    let mut pagemap = (image.pages.len() as u32).to_le_bytes().to_vec();
    for base in image.pages.keys() {
        pagemap.extend_from_slice(&base.to_le_bytes());
    }
    let bytes = CheckpointImage {
        procs: vec![image],
        time_ns: 1,
    }
    .to_bytes();
    let at = bytes
        .windows(pagemap.len())
        .position(|window| window == pagemap)
        .expect("the pagemap is encoded");
    (bytes, at + 4)
}

const BASES: [u64; 4] = [
    common::VMA_START,
    common::VMA_START + PAGE_SIZE,
    common::VMA_START + 2 * PAGE_SIZE,
    common::VMA_START + 3 * PAGE_SIZE,
];

/// A page at each of [`BASES`], page `i` filled with `i + 1`.
fn image_with_pages() -> ProcessImage {
    common::image_with_pages(BASES.into_iter().zip(1u8..))
}

fn assert_bad_image(bytes: &[u8]) {
    let err = CheckpointImage::from_bytes(bytes).unwrap_err();
    assert!(matches!(err, CriuError::BadImage(_)), "got {err}");
}

/// Regression: two pagemap entries swapped, with their pages swapped to
/// match, used to decode; the image then read zeros from the moved page.
#[test]
fn from_bytes_rejects_pagemap_entries_out_of_order() {
    let (mut bytes, at) = encode_locating_pagemap(image_with_pages());
    bytes[at..][..8].copy_from_slice(&BASES[1].to_le_bytes());
    bytes[at + 8..][..8].copy_from_slice(&BASES[0].to_le_bytes());
    let pages = at + 8 * BASES.len() + 8;
    let (first, second) = bytes[pages..].split_at_mut(PAGE_SIZE as usize);
    first.swap_with_slice(&mut second[..PAGE_SIZE as usize]);
    assert_bad_image(&bytes);
}

/// Regression: a base listed twice used to decode, and the image then
/// held one page fewer than its pagemap listed.
#[test]
fn from_bytes_rejects_a_repeated_pagemap_entry() {
    let (mut bytes, at) = encode_locating_pagemap(image_with_pages());
    bytes[at + 8..][..8].copy_from_slice(&BASES[0].to_le_bytes());
    assert_bad_image(&bytes);
}

/// Regression: a base 8 bytes past a page boundary used to decode and
/// could be stored.
#[test]
fn from_bytes_rejects_an_unaligned_pagemap_entry() {
    let (mut bytes, at) = encode_locating_pagemap(image_with_pages());
    bytes[at + 8..][..8].copy_from_slice(&(BASES[1] + 8).to_le_bytes());
    assert_bad_image(&bytes);
}

/// Regression: a checkpoint whose `pages.img` is 2 KiB short of its
/// pagemap used to decode, and a restore of it then panicked the host
/// on a partial page frame. A payload of any length but one page per
/// entry is refused.
#[test]
fn from_bytes_rejects_a_payload_that_disagrees_with_its_pagemap() {
    let (bytes, at) = encode_locating_pagemap(image_with_pages());
    let len_at = at + 8 * BASES.len();
    let payload = BASES.len() * PAGE_SIZE as usize;
    for len in [
        payload - 2048,
        payload - PAGE_SIZE as usize,
        payload + PAGE_SIZE as usize,
    ] {
        let mut cut = bytes[..len_at].to_vec();
        cut.extend_from_slice(&(len as u64).to_le_bytes());
        cut.extend_from_slice(&bytes[len_at + 8..][..len.min(payload)]);
        cut.resize(cut.len() + len.saturating_sub(payload), 0);
        cut.extend_from_slice(&bytes[len_at + 8 + payload..]);
        assert_bad_image(&cut);
    }
}

/// Regression: a checkpoint with bytes appended used to decode.
#[test]
fn from_bytes_rejects_trailing_bytes() {
    let mut bytes = CheckpointImage {
        procs: vec![image_with_pages()],
        time_ns: 1,
    }
    .to_bytes();
    bytes.push(0);
    assert_bad_image(&bytes);
}

#[test]
fn strategies_compile() {
    // Keep the helper alive even if unused by a future refactor.
    let _ = arb_perms_unused();
}
