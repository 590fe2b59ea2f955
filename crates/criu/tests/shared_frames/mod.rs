//! One-process checkpoints whose pages share frame handles, as real
//! dumps do: a dump hands out the frame of every page the guest has not
//! written since its restore, so most pages of an image sit on a few
//! frames, and those are often the store's own.

use crate::common;
use dynacut_criu::{CheckpointImage, CheckpointStore, CkptId};
use dynacut_obj::PAGE_SIZE;
use dynacut_vm::SharedFrame;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Where a generated page's frame comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A frame of its own.
    Own,
    /// The frame of the image's last earlier page with the same fill,
    /// if there is one.
    Image,
    /// The store's frame for the fill, out of a live entry that holds
    /// it, if one does.
    Live,
}

/// One page per entry: its fill, drawn from a tiny alphabet so random
/// inputs collide, and where its frame comes from.
pub type Recipe = Vec<(u8, Source)>;

/// Recipes of up to `max_pages - 1` pages.
pub fn arb_recipe(max_pages: usize) -> impl Strategy<Value = Recipe> {
    let source = prop_oneof![Just(Source::Own), Just(Source::Image), Just(Source::Live)];
    proptest::collection::vec((0u8..4, source), 0..max_pages)
}

/// The checkpoint `recipe` describes: one process whose `i`-th page is
/// filled with the `i`-th fill, its `Live` frames taken from the
/// materialized images of the `live` entries of `store`.
pub fn build(
    recipe: &Recipe,
    store: &CheckpointStore,
    live: impl IntoIterator<Item = CkptId>,
) -> CheckpointImage {
    let mut held: BTreeMap<u8, SharedFrame> = BTreeMap::new();
    for id in live {
        let entry = store.materialize(id).expect("live entry");
        for frame in entry.procs[0].pages.values() {
            held.entry(frame.bytes()[0])
                .or_insert_with(|| frame.clone());
        }
    }
    let fills = recipe.iter().map(|&(fill, _)| fill);
    let mut image = CheckpointImage {
        procs: vec![common::image_with_pages(
            (common::VMA_START..).step_by(PAGE_SIZE as usize).zip(fills),
        )],
        time_ns: 0,
    };
    let mut last: BTreeMap<u8, SharedFrame> = BTreeMap::new();
    for (frame, &(fill, source)) in image.procs[0].pages.values_mut().zip(recipe) {
        let shared = match source {
            Source::Own => None,
            Source::Image => last.get(&fill),
            Source::Live => held.get(&fill),
        };
        if let Some(shared) = shared {
            *frame = shared.clone();
        }
        last.insert(fill, frame.clone());
    }
    image
}
