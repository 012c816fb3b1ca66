//! A run's memory is its data (DESIGN.md "Footprint").
//!
//! The counting-allocator discipline of `tests/alloc_descriptors.rs`, but
//! counting bytes held as well as calls. Four budgets are on record here:
//!
//! * **Intruder's input.** `generate` ends holding an 8-byte header per
//!   packet and 24 B per flow (a checksum and the 16-byte generator state
//!   its payload is replayed from) — no payload word — and gets there in
//!   O(log n) allocator calls: vector growth only, nothing per packet or
//!   per flow. Rebuilding a fragment's words allocates nothing.
//! * **A view's metadata.** Creating a 4096-word view on a 16-thread system
//!   allocates the 32 KB heap plus a bounded amount of metadata: the orec
//!   table dense (8 B per orec), padding only where one thread writes or
//!   all threads hammer.
//! * **The flight recorder.** `zipf_adaptive_rec`'s recorder, 17 rings of
//!   16 384 events, holds 32 B per event slot (a timestamp and three
//!   encoded words; which event a slot holds follows from its ring's head)
//!   plus a small fixed amount per ring.
//! * **A view's heap.** `intruder_2v`'s queue view, 405 324 words, holds
//!   its words (8 B each, requested through `alloc_zeroed` so the
//!   allocator may leave untouched pages uncommitted) and two bitmaps
//!   (2 bits per word) that say where blocks were carved and which are
//!   live. Carving it into 2-word blocks adds nothing; freeing them adds
//!   only the free list.
//!
//! Giving `Packet` a heap field, storing the payload words again, padding
//! the orecs back to a cache line each (512 KB per view), giving a recorder
//! slot its own sequence word back (+2.2 MB), keeping a map entry per live
//! heap block (+2.4 MB to carve the queue view), or a heap word array that
//! does not reach the allocator as `alloc_zeroed`, fails it.
//!
//! The allocator counts per thread, and only inside a measured window.

use votm::{FlightRecorder, QuotaMode, TmAlgorithm, Votm};
use votm_intruder::{generate, GenConfig, Packet};
use votm_stm::WordHeap;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measured, Tally};

const VIEW_WORDS: usize = 4096;
const HEAP_BYTES: u64 = VIEW_WORDS as u64 * 8;

/// Bytes a ring may hold beyond its event slots: its cache-padded head,
/// slot pointer and mask take 256 B of it.
const RING_OVERHEAD: u64 = 512;

/// Words in `intruder_2v`'s queue view.
const QUEUE_VIEW_WORDS: usize = 405_324;

/// Metadata bytes of one 4096-word view on a 16-thread system, as this test
/// measured them when the orec table went dense; the bound is this + 25 %.
/// 15 360 B of it is the `View` itself (8 064 B of latency histograms, 4 096 B
/// of statistics stripes, the gate's and the clock's padded words); 2 048 B
/// each are the padded descriptor and contention-manager slots of 16
/// threads; the rest, bar some 300 B, is the algorithm's table: 4096 dense
/// orecs (32 768 B) or NOrec's 64 write summaries (512 B).
fn measured_view_metadata(algo: TmAlgorithm) -> u64 {
    match algo {
        TmAlgorithm::NOrec => 20_248,
        TmAlgorithm::OrecEagerRedo | TmAlgorithm::OrecLazy => 52_504,
    }
}

#[test]
fn memory_is_proportional_to_data() {
    assert_eq!(std::mem::size_of::<Packet>(), 8);

    // The repo benchmark's `intruder_2v` input, and 4× it.
    for flows in [1_000u64, 12_288, 49_152] {
        let config = GenConfig {
            attack_percent: 10,
            max_length: 128,
            flows,
            seed: 1,
        };
        let (input, Tally { calls, held, .. }) = measured(|| generate(&config));
        let packets = input.packets.len() as u64;
        // Per flow: its checksum (8 B) and its generator state (16 B).
        let budget = 8 * packets + 24 * flows;
        println!(
            "generate({flows} flows): {calls} allocator calls, {held} B held for \
             {packets} packets = {:.1} B per packet (budget {budget} B)",
            held as f64 / packets as f64
        );
        assert!(
            calls <= 64,
            "{flows} flows: {calls} allocator calls is more than vector growth"
        );
        assert!(
            held <= budget,
            "{flows} flows: {held} B held, budget {budget} B"
        );

        let (words, Tally { calls, held, .. }) = measured(|| {
            let data = |p| std::hint::black_box(input.data(p)).len() as u64;
            input.packets.iter().map(data).sum::<u64>()
        });
        println!("data() over {packets} packets: {words} payload words, {calls} allocator calls");
        assert_eq!((calls, held), (0, 0), "{flows} flows: data() allocated");
    }

    for algo in TmAlgorithm::ALL {
        let sys = Votm::builder().algo(algo).threads(16).build();
        let (view, Tally { held, .. }) =
            measured(|| sys.create_view(VIEW_WORDS, QuotaMode::Adaptive));
        let metadata = held - HEAP_BYTES;
        println!(
            "{algo:?}: a {VIEW_WORDS}-word view on 16 threads holds {held} B = \
             {HEAP_BYTES} B heap + {metadata} B metadata"
        );
        let bound = measured_view_metadata(algo) * 5 / 4;
        assert!(
            metadata <= bound && metadata < 128 << 10,
            "{algo:?}: {metadata} B of view metadata, bound {bound} B"
        );
        drop(view);
    }

    let (rings, events) = (17, 1 << 14);
    let (rec, Tally { held, .. }) = measured(|| FlightRecorder::new(rings, events));
    assert_eq!(rec.capacity(), events);
    let slots = (rings * events) as u64;
    let budget = 32 * slots + RING_OVERHEAD * rings as u64;
    println!(
        "FlightRecorder::new({rings}, {events}): {held} B held = {:.2} B per event slot \
         (budget {budget} B)",
        held as f64 / slots as f64
    );
    assert!(held <= budget, "recorder: {held} B held, budget {budget} B");

    let words = QUEUE_VIEW_WORDS as u64;
    let (heap, Tally { held, zeroed, .. }) = measured(|| WordHeap::new(QUEUE_VIEW_WORDS));
    let budget = 8 * words + words / 4 + 1024;
    println!(
        "WordHeap::new({QUEUE_VIEW_WORDS}): {held} B held, {zeroed} B of it zeroed by the \
         allocator (budget {budget} B)"
    );
    assert!(held <= budget, "heap: {held} B held, budget {budget} B");
    assert!(
        zeroed >= 8 * words,
        "heap: the word array was not requested through alloc_zeroed ({zeroed} B zeroed)"
    );

    let blocks = QUEUE_VIEW_WORDS / 2;
    let mut addrs = Vec::with_capacity(blocks);
    let ((), Tally { held, .. }) = measured(|| {
        addrs.extend((0..blocks).map(|_| heap.alloc_block(2).expect("heap has room")));
    });
    println!("carving {blocks} 2-word blocks: {held} B held");
    assert_eq!(held, 0, "heap: carving {blocks} blocks allocated {held} B");

    let ((), Tally { held, .. }) = measured(|| addrs.iter().for_each(|&a| heap.free_block(a)));
    println!(
        "freeing them: {held} B held = {:.2} B per block",
        held as f64 / blocks as f64
    );
    assert!(
        held <= 8 * blocks as u64,
        "heap: freeing {blocks} blocks holds {held} B, budget {} B",
        8 * blocks
    );
}
