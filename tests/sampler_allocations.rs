//! A RIC draw into a warm [`SampleBuf`] allocates nothing, and neither does
//! grading the buffered draw against a seed set: every vector the sampler
//! works in — the coin scratch, the live-edge lists and the node bitmap
//! included — is scratch the buffer keeps between draws.
//!
//! The count comes from a `#[global_allocator]` that wraps the system
//! allocator and tallies per thread, so the test harness's own threads do
//! not show up in it. CI also runs this file in release — the codegen that
//! ships — in the `kernel-equivalence` job.

use imc_community::{CommunityId, CommunitySet};
use imc_core::{ImcInstance, SampleBuf};
use imc_graph::{generators::planted_partition, NodeId, WeightModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_draws_and_grading_allocate_nothing() {
    // One 300-member community (five cover limbs — wider than the 256
    // bits `influenced_by` once held inline) beside 8-member ones, on a
    // graph dense enough that wide samples reach most of it.
    let mut rng = StdRng::seed_from_u64(21);
    let pp = planted_partition(900, 3, 0.02, 0.004, &mut rng);
    let graph = pp.graph.reweighted(WeightModel::WeightedCascade);
    let mut parts = vec![(pp.blocks[0].clone(), 30, 40.0)];
    for block in &pp.blocks[1..] {
        parts.extend(block.chunks(8).map(|c| (c.to_vec(), 2, 1.0)));
    }
    let communities = CommunitySet::from_parts(900, parts).unwrap();
    let instance = ImcInstance::new(graph, communities).unwrap();
    let sampler = instance.sampler();
    let seeds: Vec<NodeId> = (0..25)
        .map(|_| NodeId::new(rng.random_range(0..900)))
        .collect();

    // Warm-up: scratch grows to the largest draw so far, and the metric
    // handles the sampler bumps are registered on first use. The wide
    // community is rooted explicitly so its scratch size is seen for sure.
    let mut buf = SampleBuf::default();
    let wide = CommunityId::new(0);
    let mut graded = 0usize;
    for _ in 0..50 {
        sampler.sample_rooted_into(wide, &mut rng, &mut buf);
        sampler.sample_into(&mut rng, &mut buf);
        graded += usize::from(buf.influenced_by(&seeds));
    }

    let before = ALLOCATIONS.with(Cell::get);
    let mut widest = 0;
    for _ in 0..1_000 {
        sampler.sample_into(&mut rng, &mut buf);
        graded += usize::from(buf.influenced_by(&seeds));
        widest = widest.max(buf.width());
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(widest, 300, "the measured draws include the wide community");
    assert!(graded > 0, "some draws are influenced");
    assert_eq!(
        allocations, 0,
        "1,000 warm draws made {allocations} allocator calls (the draws are seeded, so a \
         draw outgrowing the warm-up's scratch would be the same draw every run)"
    );
}
