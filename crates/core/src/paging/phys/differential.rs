//! Differential tests: [`PhysicalMemory`], which stores frame words only
//! for partly used blocks, against the frame-at-a-time
//! [`reference::PhysicalMemory`] with its dense bitmap. After every
//! operation both must return the same result and agree on every accessor;
//! the full state (every frame's bit, block counts, relocation cursor) is
//! compared too, and the new allocator's indexes and its fully-free
//! cursor are checked against its counts.

use facil_check::{cases, Gen};

use super::reference;
use super::{set_frames, PhysicalMemory, FRAMES_PER_HUGE, GROUP, NO_SLOT};
use crate::paging::pte::{BASE_PAGE_BITS, HUGE_PAGE_BITS};

/// Every public accessor agrees.
fn assert_accessors(new: &PhysicalMemory, old: &reference::PhysicalMemory) {
    assert_eq!(new.total_frames(), old.total_frames());
    assert_eq!(new.free_bytes(), old.free_bytes());
    assert_eq!(new.stats(), old.stats());
    assert_eq!(new.free_huge_blocks(), old.free_huge_blocks());
    assert_eq!(new.fmfi().to_bits(), old.fmfi().to_bits());
}

/// The whole state agrees, the new allocator's fully-free bitset and group
/// maxima are exactly what its block counts say, and no group below its
/// cursor holds a fully-free block. Its bitmap is each
/// block's words as it reads them: implied by the count for a full or
/// empty block, stored for a partly used one.
fn assert_same_state(new: &PhysicalMemory, old: &reference::PhysicalMemory) {
    assert_accessors(new, old);
    assert_eq!(new.scan_hint, old.scan_hint, "relocation cursor");
    assert_eq!(new.free_frames, old.free_frames);
    assert!(new.block_free == old.block_free, "block counts differ");
    let blocks = 0..new.block_free.len();
    for b in blocks.clone().filter(|&b| new.implied_word(b).is_none()) {
        assert_ne!(new.slot[b], NO_SLOT, "partly used block {b} stores no words");
    }
    let bits: Vec<u64> = blocks.flat_map(|b| new.words(b)).collect();
    assert!(bits == old.bits, "frame bitmaps differ");
    let mut reindexed = new.clone();
    reindexed.index_groups();
    assert_eq!(new.free_blocks, reindexed.free_blocks, "fully-free bitset");
    assert_eq!(new.group_max, reindexed.group_max, "group maxima");
    let below = &new.free_blocks[..new.free_group];
    assert!(below.iter().all(|&w| w == 0), "a fully-free block below the cursor");
}

/// Both allocators, driven by the same operations with the results
/// compared. Held pages are tracked so frees usually return real pages.
struct Pair {
    new: PhysicalMemory,
    old: reference::PhysicalMemory,
    huge: Vec<u64>,
    base: Vec<u64>,
}

impl Pair {
    fn new(total: u64) -> Self {
        Pair {
            new: PhysicalMemory::new(total),
            old: reference::PhysicalMemory::new(total),
            huge: Vec::new(),
            base: Vec::new(),
        }
    }

    fn fragment_to(&mut self, used_bytes: u64, fmfi: f64) {
        self.new.fragment_to(used_bytes, fmfi);
        self.old.fragment_to(used_bytes, fmfi);
        self.huge.clear();
        self.base.clear();
    }

    fn alloc_huge(&mut self) {
        let got = self.new.alloc_huge();
        assert_eq!(got, self.old.alloc_huge());
        if let Ok(a) = got {
            self.huge.push(a.pa);
        }
    }

    fn alloc_base(&mut self) {
        let got = self.new.alloc_base();
        assert_eq!(got, self.old.alloc_base());
        if let Ok(pa) = got {
            self.base.push(pa);
        }
    }

    fn free(&mut self, huge: bool, pa: u64) {
        if huge {
            self.new.free_huge(pa);
            self.old.free_huge(pa);
        } else {
            self.new.free_base(pa);
            self.old.free_base(pa);
        }
    }

    fn step(&mut self, g: &mut Gen) {
        let frames = self.new.total_frames();
        match g.u8(0..16) {
            0 => {
                let used = g.u64(0..=frames) << BASE_PAGE_BITS;
                let fmfi = g.f64(0.0..=1.0);
                self.fragment_to(used, fmfi);
            }
            1..=6 => self.alloc_huge(),
            7..=9 => self.alloc_base(),
            op => {
                // Usually a held page; otherwise any page at all: one of
                // fragment_to's anonymous frames, a page freed before, a
                // page compaction reused.
                let huge = op <= 12;
                let (held, page_bits) = if huge {
                    (&mut self.huge, HUGE_PAGE_BITS)
                } else {
                    (&mut self.base, BASE_PAGE_BITS)
                };
                let pa = if g.bool() && !held.is_empty() {
                    held.swap_remove(g.usize(..held.len()))
                } else {
                    g.u64(0..(frames << BASE_PAGE_BITS) >> page_bits) << page_bits
                };
                self.free(huge, pa);
            }
        }
    }
}

/// Seeded random programs of `fragment_to`, `alloc_huge`, `alloc_base`,
/// `free_huge` and `free_base` over 4 MB to 256 MB: one or two 64-block
/// groups, usually with a partial last group. A program starts from fresh
/// memory, from a random prepared state, or from a serving device's shape:
/// FMFI exactly 0 or exactly 1 with a used size that ends inside a block,
/// so that some block's words are stored from the start. Most programs
/// reach compaction.
#[test]
fn random_programs_match_the_reference() {
    let mut compacted = 0;
    cases(256, |g| {
        let total = g.u64(2..=2 * GROUP as u64) << HUGE_PAGE_BITS;
        let frames = total >> BASE_PAGE_BITS;
        let mut pair = Pair::new(total);
        match g.u8(0..4) {
            0 => {}
            1 => {
                let used = g.u64(0..=frames) << BASE_PAGE_BITS;
                let fmfi = g.f64(0.0..=1.0);
                pair.fragment_to(used, fmfi);
            }
            shape => {
                let blocks = g.u64(0..frames / FRAMES_PER_HUGE);
                let used = blocks * FRAMES_PER_HUGE + g.u64(1..FRAMES_PER_HUGE);
                pair.fragment_to(used << BASE_PAGE_BITS, if shape == 2 { 0.0 } else { 1.0 });
            }
        }
        assert_same_state(&pair.new, &pair.old);
        let mut compacts = false;
        for _ in 0..g.usize(1..=160) {
            pair.step(g);
            assert_same_state(&pair.new, &pair.old);
            compacts |= pair.new.stats().pages_compacted > 0;
        }
        compacted += u32::from(compacts);
    });
    assert!(compacted > 128, "only {compacted} of 256 programs compacted");
}

/// `fragment_to` at the edges of its separator masks: periods 2, 3, 63,
/// 64, 65 and 257 on 8 blocks, each with the scattered region ending inside
/// a word and inside a block just before a separator of the same word, and
/// one used frame left over to follow it. The reference's bitmap shows each
/// case at its edge: its first used frame is the first separator,
/// `period - 1`, and its last is the region's end. The full state is
/// compared after `fragment_to` and after every `alloc_huge`, direct and
/// then compacting, until both run out of memory.
#[test]
fn separator_edges_match_the_reference() {
    // (used frames, scattered free frames, period, end of the region)
    let cases = [
        (1000, 1000, 2, 1999),
        (700, 1399, 3, 2098),
        (35, 2163, 63, 2197),
        (35, 2185, 64, 2219),
        (30, 1910, 65, 1939),
        (10, 2555, 257, 2564),
    ];
    for (used, scattered, period, mixed) in cases {
        let mut pair = Pair::new(8 << HUGE_PAGE_BITS);
        let free = pair.new.total_frames() - used;
        pair.fragment_to(used << BASE_PAGE_BITS, scattered as f64 / free as f64);
        let used_frames = set_frames(&pair.old.bits, 0);
        assert_eq!(used_frames.first(), Some(&(period - 1)), "period {period}");
        assert_eq!(used_frames.last(), Some(&mixed), "period {period}");
        assert!(mixed % 64 != 0 && mixed % FRAMES_PER_HUGE != 0, "period {period}");
        assert_same_state(&pair.new, &pair.old);
        while pair.new.free_bytes() >= 1 << HUGE_PAGE_BITS {
            pair.alloc_huge();
            assert_same_state(&pair.new, &pair.old);
        }
        pair.alloc_huge();
        assert!(pair.new.stats().pages_compacted > 0, "period {period}");
    }
}

/// Table I's tightest column at full scale: 64 GB prepared with 1.1x the
/// 16.2 GB model free, then 7,725 huge pages, at FMFI 0.05 (all direct)
/// and 0.75 (mostly compacted). Accessors are compared after every
/// allocation, the full state every 256 allocations and at the end.
#[test]
#[ignore = "Table I scale, slow in debug; scripts/ci.sh runs it with --release --ignored"]
fn table1_scale_matches_the_reference() {
    let total: u64 = 64 << 30;
    let model_bytes = (16.2 * 1e9) as u64;
    let pages = model_bytes.div_ceil(1 << HUGE_PAGE_BITS);
    assert_eq!(pages, 7_725);
    let free = (model_bytes as f64 * 1.1) as u64;
    for (fmfi, compacts) in [(0.05, false), (0.75, true)] {
        let mut pair = Pair::new(total);
        pair.fragment_to(total - free, fmfi);
        assert_same_state(&pair.new, &pair.old);
        for i in 0..pages {
            pair.alloc_huge();
            assert_accessors(&pair.new, &pair.old);
            assert_eq!(pair.new.scan_hint, pair.old.scan_hint, "relocation cursor");
            if i % 256 == 0 {
                assert_same_state(&pair.new, &pair.old);
            }
        }
        assert_eq!(pair.new.stats().pages_compacted > 0, compacts, "fmfi {fmfi}");
        assert_same_state(&pair.new, &pair.old);
    }
}
