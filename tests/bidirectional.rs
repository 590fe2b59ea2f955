//! Property tests for the central DESIGN.md invariant: rewriting is
//! **bidirectional** — `disable(blocks)` followed by `enable(blocks)`
//! restores the original text bytes exactly, for arbitrary block subsets
//! and any policy.

use dynacut::{disable_in_image, enable_in_image, BlockPolicy, Feature, OriginalText};
use dynacut_apps::{libc::guest_libc, lighttpd};
use dynacut_criu::{dump, DumpOptions, ModuleRegistry};
use dynacut_vm::{Kernel, LoadSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// Boots the Lighttpd analogue once and returns a frozen process image
/// plus the registry and module text length.
fn frozen_world() -> (
    dynacut_criu::ProcessImage,
    ModuleRegistry,
    Arc<dynacut_obj::Image>,
) {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    let pid = kernel.spawn(&spec).unwrap();
    kernel
        .run_until_event(dynacut_apps::EVENT_READY, 200_000_000)
        .unwrap();
    kernel.freeze(pid).unwrap();
    let image = dump(&mut kernel, pid, &DumpOptions::default()).unwrap();
    (image, registry, exe)
}

fn text_snapshot(image: &dynacut_criu::ProcessImage, base: u64, len: usize) -> Vec<u8> {
    image.read_mem(base, len).expect("text mapped")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// disable∘enable == identity on the whole text, for random block
    /// subsets under every policy.
    #[test]
    fn disable_then_enable_is_identity(
        indices in proptest::collection::btree_set(0usize..300, 1..40),
        policy_pick in 0u8..3,
    ) {
        let (mut image, registry, exe) = frozen_world();
        let base = image
            .core
            .modules
            .iter()
            .find(|m| m.name == lighttpd::MODULE)
            .unwrap()
            .base;
        let before = text_snapshot(&image, base, exe.text.len());

        let blocks: Vec<_> = indices
            .iter()
            .filter_map(|&i| exe.blocks.get(i).copied())
            .collect();
        prop_assume!(!blocks.is_empty());
        let feature = Feature::new("prop", lighttpd::MODULE, blocks);
        let policy = match policy_pick {
            0 => BlockPolicy::EntryByte,
            1 => BlockPolicy::WipeBlocks,
            _ => BlockPolicy::UnmapPages,
        };

        let outcome = disable_in_image(&mut image, &feature, policy).expect("disable");
        prop_assert!(outcome.blocks > 0);
        // Something actually changed (bytes or pages).
        prop_assert!(outcome.bytes_written > 0 || outcome.pages_unmapped > 0);

        let mut original = OriginalText::new();
        enable_in_image(&mut image, &feature, &registry, &mut original).expect("enable");
        let after = text_snapshot(&image, base, exe.text.len());
        prop_assert_eq!(before, after, "text restored byte-for-byte");
    }

    /// Disabling is idempotent: applying the same disable twice leaves
    /// the same memory as applying it once.
    #[test]
    fn disable_is_idempotent(
        indices in proptest::collection::btree_set(0usize..300, 1..20),
    ) {
        let (mut image, _registry, exe) = frozen_world();
        let base = image
            .core
            .modules
            .iter()
            .find(|m| m.name == lighttpd::MODULE)
            .unwrap()
            .base;
        let blocks: Vec<_> = indices
            .iter()
            .filter_map(|&i| exe.blocks.get(i).copied())
            .collect();
        prop_assume!(!blocks.is_empty());
        let feature = Feature::new("prop", lighttpd::MODULE, blocks);

        disable_in_image(&mut image, &feature, BlockPolicy::WipeBlocks).expect("first");
        let once = text_snapshot(&image, base, exe.text.len());
        disable_in_image(&mut image, &feature, BlockPolicy::WipeBlocks).expect("second");
        let twice = text_snapshot(&image, base, exe.text.len());
        prop_assert_eq!(once, twice);
    }

    /// The image stays internally consistent across arbitrary disables:
    /// every populated page is page-aligned and lies inside some VMA.
    /// (The pages are a map keyed by base holding one-page frames, so
    /// they are sorted, unique and one page each by construction.)
    #[test]
    fn image_consistency_after_random_unmaps(
        indices in proptest::collection::btree_set(0usize..300, 1..40),
    ) {
        let (mut image, _registry, exe) = frozen_world();
        let blocks: Vec<_> = indices
            .iter()
            .filter_map(|&i| exe.blocks.get(i).copied())
            .collect();
        prop_assume!(!blocks.is_empty());
        let feature = Feature::new("prop", lighttpd::MODULE, blocks);
        disable_in_image(&mut image, &feature, BlockPolicy::UnmapPages).expect("disable");

        for &page in image.pages.keys() {
            prop_assert!(page.is_multiple_of(dynacut_obj::PAGE_SIZE), "page {page:#x} unaligned");
            prop_assert!(image.mm.vma_at(page).is_some(), "page {page:#x} orphaned");
        }
        for window in image.mm.vmas.windows(2) {
            prop_assert!(window[0].end <= window[1].start, "VMAs non-overlapping");
        }
    }
}
