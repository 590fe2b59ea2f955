//! Property tests for the DCO linker and codec.

use dynacut_isa::{Assembler, Insn, Reg};
use dynacut_obj::{materialize, Image, ModuleBuilder, ObjectKind, PAGE_SIZE};
use proptest::prelude::*;

/// Generates a small module with arbitrary function/data composition.
fn arb_module() -> impl Strategy<Value = Image> {
    (
        1usize..8,                                     // functions
        0usize..4,                                     // rodata symbols
        0usize..4,                                     // data symbols
        0usize..3,                                     // bss symbols
        proptest::collection::vec(any::<u8>(), 1..64), // data payload
    )
        .prop_map(|(funcs, rodatas, datas, bsses, payload)| {
            let mut asm = Assembler::new();
            for index in 0..funcs {
                asm.func(&format!("f{index}"));
                asm.push(Insn::Movi(Reg::R1, index as u64));
                if index > 0 {
                    asm.call(&format!("f{}", index - 1));
                }
                asm.push(Insn::Ret);
            }
            asm.func("_start");
            asm.call("f0");
            asm.push(Insn::Ret);
            let mut builder = ModuleBuilder::new("prop", ObjectKind::Executable);
            builder.text(asm.finish().expect("assembles"));
            for index in 0..rodatas {
                builder.rodata(&format!("ro{index}"), &payload);
            }
            for index in 0..datas {
                builder.data(&format!("rw{index}"), &payload);
            }
            for index in 0..bsses {
                builder.bss(&format!("zero{index}"), payload.len() as u64);
            }
            builder.entry("_start");
            builder.link(&[]).expect("links")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialisation round trip is the identity for arbitrary modules.
    #[test]
    fn dco_codec_round_trips(image in arb_module()) {
        let bytes = image.to_bytes();
        let parsed = Image::from_bytes(&bytes).expect("parses");
        prop_assert_eq!(parsed, image);
    }

    /// Truncating serialized output anywhere fails gracefully.
    #[test]
    fn dco_truncation_never_panics(image in arb_module(), cut in any::<proptest::sample::Index>()) {
        let bytes = image.to_bytes();
        let cut = cut.index(bytes.len());
        prop_assert!(Image::from_bytes(&bytes[..cut]).is_err());
    }

    /// Mutating a single byte either fails to parse or parses into an
    /// image that materializes to `Ok` or a typed error — never a panic.
    #[test]
    fn dco_bitflips_never_panic(image in arb_module(), position in any::<proptest::sample::Index>(), flip in 1u8..=255) {
        let mut bytes = image.to_bytes();
        let position = position.index(bytes.len());
        bytes[position] ^= flip;
        if let Ok(parsed) = Image::from_bytes(&bytes) {
            let _ = materialize(&parsed, 0x40_0000, |_| Some(0)); // must not panic
        }
    }

    /// Inserting a run of 1 to 16 bytes anywhere, the end included,
    /// either fails to parse or parses into an image that materializes
    /// to `Ok` or a typed error — never a panic.
    #[test]
    fn dco_insertions_never_panic(
        image in arb_module(),
        position in any::<proptest::sample::Index>(),
        run in proptest::collection::vec(any::<u8>(), 1..=16),
    ) {
        let mut bytes = image.to_bytes();
        let position = position.index(bytes.len() + 1);
        bytes.splice(position..position, run);
        if let Ok(parsed) = Image::from_bytes(&bytes) {
            let _ = materialize(&parsed, 0x40_0000, |_| Some(0)); // must not panic
        }
    }

    /// Any value in any section offset or the `.bss` size: whatever
    /// `from_bytes` accepts, `materialize` maps to `Ok` or a typed
    /// error, and an image it refuses `materialize` refuses too.
    #[test]
    fn dco_layout_fields_never_panic(
        image in arb_module(),
        field in 0usize..5,
        value in prop_oneof![any::<u64>(), 0u64..4 * PAGE_SIZE, (u64::MAX - 2 * PAGE_SIZE)..=u64::MAX],
    ) {
        let mut image = image;
        *[
            &mut image.rodata_off,
            &mut image.data_off,
            &mut image.got_off,
            &mut image.bss_off,
            &mut image.bss_size,
        ][field] = value;
        let materialized = materialize(&image, 0x40_0000, |_| Some(0));
        if Image::from_bytes(&image.to_bytes()).is_err() {
            prop_assert!(materialized.is_err());
        }
    }

    /// Layout invariants hold for every linked module: page-aligned
    /// section starts, ordered sections, and symbols inside their
    /// sections.
    #[test]
    fn layout_invariants(image in arb_module()) {
        prop_assert_eq!(image.rodata_off % PAGE_SIZE, 0);
        prop_assert_eq!(image.data_off % PAGE_SIZE, 0);
        prop_assert!(image.text.len() as u64 <= image.rodata_off);
        prop_assert!(image.rodata_off + image.rodata.len() as u64 <= image.data_off);
        prop_assert!(image.got_off >= image.data_off);
        prop_assert!(image.bss_off >= image.got_off);
        for (name, def) in &image.symbols {
            prop_assert!(
                def.offset < image.footprint(),
                "symbol {name} at {:#x} outside footprint {:#x}",
                def.offset,
                image.footprint()
            );
        }
        // Blocks partition the text.
        let mut cursor = 0u64;
        for block in &image.blocks {
            prop_assert_eq!(block.addr, cursor);
            cursor = block.range().end;
        }
        prop_assert_eq!(cursor, image.text.len() as u64);
    }

    /// Materialisation at any page-aligned base produces disjoint,
    /// page-aligned segments covering the footprint.
    #[test]
    fn materialize_invariants(image in arb_module(), base_page in 1u64..1_000_000) {
        let base = base_page * PAGE_SIZE;
        let segments = materialize(&image, base, |_| Some(0)).expect("materializes");
        let mut prev_end = 0u64;
        for segment in &segments {
            prop_assert_eq!(segment.vaddr % PAGE_SIZE, 0);
            prop_assert_eq!(segment.map_len() % PAGE_SIZE, 0);
            prop_assert!(segment.vaddr >= prev_end, "segments disjoint and ordered");
            prev_end = segment.end();
        }
        prop_assert!(prev_end <= base + dynacut_obj::page_align(image.footprint()));
    }
}
