//! Physical-frame allocator with controllable fragmentation, plus the
//! huge-page allocation cost model behind Table I of the paper.
//!
//! The paper measures how memory utilization and the free-memory
//! fragmentation index (FMFI, Gorman & Whitcroft) inflate model load time
//! when weights must be placed in 2 MB huge pages. The mechanism is: a huge
//! page needs 512 contiguous, aligned 4 KB frames; under fragmentation the
//! kernel must reclaim/compact — i.e. *move* occupied frames — to mint one.
//! This module reproduces that mechanism: a bitmap allocator whose state can
//! be prepared at a target (utilization, FMFI) point, an `alloc_huge` that
//! falls back to compaction and reports how many frames it moved, and a
//! cost model turning (bytes read from storage, frames moved) into seconds.

use crate::error::{FacilError, Result};
use crate::paging::pte::{BASE_PAGE_BITS, HUGE_PAGE_BITS};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// Frames per 2 MB huge page.
pub const FRAMES_PER_HUGE: u64 = 1 << (HUGE_PAGE_BITS - BASE_PAGE_BITS);

/// Statistics of an allocation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Huge pages allocated directly from fully-free blocks.
    pub pages_direct: u64,
    /// Huge pages minted via compaction.
    pub pages_compacted: u64,
    /// 4 KB frames moved (relocated) during compaction.
    pub frames_moved: u64,
    /// Base (4 KB) pages allocated.
    pub base_pages: u64,
}

/// Result of one huge-page allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HugeAlloc {
    /// Physical base address (2 MB aligned).
    pub pa: u64,
    /// Frames moved to mint this page (0 = direct allocation).
    pub frames_moved: u64,
}

/// Bitmap physical-frame allocator: one bit per 4 KB frame, set = used.
///
/// It works a 64-frame word or a whole 2 MB block (8 words) at a time.
/// Next to the bitmap it keeps each block's free count and two indexes over
/// the counts, both exact after every operation: a bitset of the fully-free
/// blocks, and the largest count in each group of 64 blocks. The indexes
/// cost about one bit plus 1/32 byte per block. With `B` blocks:
///
/// * `alloc_huge`, direct: a scan of `B / 64` words for the lowest
///   fully-free block, then 8 word writes;
/// * `alloc_huge`, compacting: a scan of `B / 64` group maxima and one
///   group's 64 counts for the victim, then a relocation walk from the
///   rotating cursor that reads one count per block it passes and fills
///   words at a time;
/// * `free_huge`: 8 words; `free_base`: one bit;
/// * `alloc_base`: a scan of the `B` block counts for a partial block;
/// * `fragment_to`: one write per bitmap word plus one per separator frame
///   of the scattered region, then a popcount per word;
/// * `free_huge_blocks` and `fmfi`: a popcount of `B / 64` words.
///
/// Each count change also refreshes its group's maximum, rescanning the
/// group's 64 counts only when the group loses its maximum.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    /// 1 bit per frame; set = used.
    bits: Vec<u64>,
    /// Free frames per 2 MB block.
    block_free: Vec<u16>,
    /// Bit `b % 64` of word `b / 64` is set iff block `b` is fully free.
    free_blocks: Vec<u64>,
    /// Largest `block_free` of each group of [`GROUP`] consecutive blocks.
    group_max: Vec<u16>,
    frames: u64,
    free_frames: u64,
    stats: AllocStats,
    /// Rotating cursor for relocation-target search.
    scan_hint: u64,
}

/// Bitmap words per 2 MB block.
const BLOCK_WORDS: usize = (FRAMES_PER_HUGE / 64) as usize;

/// Blocks per group of the compaction-victim index: one word of the
/// fully-free bitset covers one group.
const GROUP: usize = 64;

/// The frames whose bits are set in `words`, lowest first, where bit 0 of
/// the first word is frame `first`.
fn set_frames(words: &[u64], first: u64) -> Vec<u64> {
    let mut frames = Vec::new();
    for (i, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            frames.push(first + i as u64 * 64 + u64::from(w.trailing_zeros()));
            w &= w - 1;
        }
    }
    frames
}

impl PhysicalMemory {
    /// Create an allocator over `total_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a multiple of 2 MB.
    pub fn new(total_bytes: u64) -> Self {
        assert_eq!(total_bytes % (1 << HUGE_PAGE_BITS), 0, "size must be a multiple of 2 MB");
        let frames = total_bytes >> BASE_PAGE_BITS;
        let blocks = (frames / FRAMES_PER_HUGE) as usize;
        let mut pm = PhysicalMemory {
            bits: vec![0u64; blocks * BLOCK_WORDS],
            block_free: vec![FRAMES_PER_HUGE as u16; blocks],
            free_blocks: vec![0; blocks.div_ceil(GROUP)],
            group_max: vec![0; blocks.div_ceil(GROUP)],
            frames,
            free_frames: frames,
            stats: AllocStats::default(),
            scan_hint: 0,
        };
        pm.index_groups();
        pm
    }

    /// Rebuild the fully-free bitset and the group maxima from the counts.
    fn index_groups(&mut self) {
        let groups = self.block_free.chunks(GROUP);
        for ((free, max), counts) in
            self.free_blocks.iter_mut().zip(&mut self.group_max).zip(groups)
        {
            *free = counts
                .iter()
                .rev()
                .fold(0, |w, &f| w << 1 | u64::from(u64::from(f) == FRAMES_PER_HUGE));
            *max = counts.iter().copied().max().unwrap_or(0);
        }
    }

    /// Set block `b`'s free count, keeping both indexes in step.
    fn set_block_free(&mut self, b: usize, free: u16) {
        let old = std::mem::replace(&mut self.block_free[b], free);
        let (g, bit) = (b / GROUP, 1u64 << (b % GROUP));
        if u64::from(free) == FRAMES_PER_HUGE {
            self.free_blocks[g] |= bit;
        } else {
            self.free_blocks[g] &= !bit;
        }
        let max = &mut self.group_max[g];
        if free >= *max {
            *max = free;
        } else if old == *max {
            let group = self.block_free[g * GROUP..].iter().take(GROUP);
            *max = group.copied().max().unwrap_or(0);
        }
    }

    /// Bitmap words of block `b`.
    fn block_words(&mut self, b: usize) -> &mut [u64] {
        &mut self.bits[b * BLOCK_WORDS..(b + 1) * BLOCK_WORDS]
    }

    /// The lowest fully-free block.
    fn first_free_block(&self) -> Option<usize> {
        let g = self.free_blocks.iter().position(|&w| w != 0)?;
        Some(g * GROUP + self.free_blocks[g].trailing_zeros() as usize)
    }

    /// Total physical frames.
    pub fn total_frames(&self) -> u64 {
        self.frames
    }

    /// Free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free_frames << BASE_PAGE_BITS
    }

    /// Allocation statistics so far.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Number of fully-free, aligned 2 MB blocks.
    pub fn free_huge_blocks(&self) -> u64 {
        self.free_blocks.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Free-memory fragmentation index for 2 MB allocations:
    /// `1 - (free bytes in fully-free 2 MB blocks) / (total free bytes)`.
    /// 0 = all free memory is huge-page ready; 1 = none is.
    pub fn fmfi(&self) -> f64 {
        if self.free_frames == 0 {
            return 0.0;
        }
        let big = self.free_huge_blocks() * FRAMES_PER_HUGE;
        1.0 - big as f64 / self.free_frames as f64
    }

    /// Allocate one 4 KB frame.
    ///
    /// # Errors
    ///
    /// [`FacilError::OutOfMemory`] when no frame is free.
    pub fn alloc_base(&mut self) -> Result<u64> {
        if self.free_frames == 0 {
            return Err(FacilError::OutOfMemory { requested: 1 << BASE_PAGE_BITS, free: 0 });
        }
        // Prefer a partial block so fully-free blocks stay huge-page ready
        // (mirrors the kernel's anti-fragmentation placement). Without one,
        // every block with a free frame is fully free.
        // `free_frames > 0` was checked above, and the counts are kept in
        // lockstep with the frame bitmap, so both lookups must succeed.
        #[allow(clippy::expect_used)]
        let block = self
            .block_free
            .iter()
            .position(|&f| f > 0 && u64::from(f) < FRAMES_PER_HUGE)
            .or_else(|| self.first_free_block())
            .expect("free frames exist");
        #[allow(clippy::expect_used)]
        let (i, word) = self
            .block_words(block)
            .iter_mut()
            .enumerate()
            .find(|(_, w)| **w != u64::MAX)
            .expect("block_free count says a frame is free");
        let bit = (!*word).trailing_zeros();
        *word |= 1 << bit;
        self.free_frames -= 1;
        self.set_block_free(block, self.block_free[block] - 1);
        self.stats.base_pages += 1;
        let frame = block as u64 * FRAMES_PER_HUGE + i as u64 * 64 + u64::from(bit);
        Ok(frame << BASE_PAGE_BITS)
    }

    /// Allocate one 2 MB huge page, compacting if necessary.
    ///
    /// Direct path: take the lowest fully-free aligned block. Compaction
    /// path: pick the partial block with the most free frames (the last one
    /// on a tie), relocate its used frames into free frames of other partial
    /// blocks (counted in `frames_moved`), then take the block.
    ///
    /// # Errors
    ///
    /// [`FacilError::OutOfMemory`] when fewer than 512 frames remain free.
    pub fn alloc_huge(&mut self) -> Result<HugeAlloc> {
        self.alloc_huge_inner(None)
    }

    /// [`Self::alloc_huge`], appending to `moves` one (source, destination)
    /// pair of physical addresses per 4 KB frame that compaction moved, so
    /// that the caller can follow its pages to their new frames.
    ///
    /// # Errors
    ///
    /// As [`Self::alloc_huge`].
    pub fn alloc_huge_with_moves(&mut self, moves: &mut Vec<(u64, u64)>) -> Result<HugeAlloc> {
        self.alloc_huge_inner(Some(moves))
    }

    fn alloc_huge_inner(&mut self, moves: Option<&mut Vec<(u64, u64)>>) -> Result<HugeAlloc> {
        if self.free_frames < FRAMES_PER_HUGE {
            return Err(FacilError::OutOfMemory {
                requested: 1 << HUGE_PAGE_BITS,
                free: self.free_bytes(),
            });
        }
        if let Some(block) = self.first_free_block() {
            self.claim(block);
            self.stats.pages_direct += 1;
            return Ok(HugeAlloc { pa: (block as u64) << HUGE_PAGE_BITS, frames_moved: 0 });
        }
        // No block is fully free, and the capacity check above guarantees
        // some block has free frames, so the victim is a partial block.
        #[allow(clippy::expect_used)]
        let victim = self.victim().expect("free frames exist, so blocks exist");
        let to_move = FRAMES_PER_HUGE - u64::from(self.block_free[victim]);
        match moves {
            None => self.relocate(victim, to_move, None),
            // The victim's used frames move, lowest first, to the frames
            // relocation takes, in the order it takes them.
            Some(moves) => {
                let first = victim as u64 * FRAMES_PER_HUGE;
                let sources = set_frames(self.block_words(victim), first);
                let mut targets = Vec::with_capacity(sources.len());
                self.relocate(victim, to_move, Some(&mut targets));
                let pa = |frame: u64| frame << BASE_PAGE_BITS;
                moves.extend(sources.into_iter().zip(targets).map(|(s, d)| (pa(s), pa(d))));
            }
        }
        self.claim(victim);
        self.stats.pages_compacted += 1;
        self.stats.frames_moved += to_move;
        Ok(HugeAlloc { pa: (victim as u64) << HUGE_PAGE_BITS, frames_moved: to_move })
    }

    /// The compaction victim: the last block holding the most free frames,
    /// as a `max_by_key` over all blocks picks it. `max_by_key` keeps the
    /// last maximum, so the last group holding the largest maximum holds it.
    fn victim(&self) -> Option<usize> {
        let (g, _) = self.group_max.iter().enumerate().max_by_key(|(_, &m)| m)?;
        let group = self.block_free[g * GROUP..].iter().take(GROUP);
        let (i, _) = group.enumerate().max_by_key(|(_, &f)| f)?;
        Some(g * GROUP + i)
    }

    /// Occupy `need` free frames outside `victim` (the frames compaction
    /// moves out of it): the lowest free frames of each block with any,
    /// visiting blocks in order from the rotating hint. Appends each frame
    /// taken to `taken`, if given.
    fn relocate(&mut self, victim: usize, mut need: u64, mut taken: Option<&mut Vec<u64>>) {
        let nblocks = self.block_free.len();
        let mut b = (self.scan_hint % nblocks as u64) as usize;
        let mut scanned = 0;
        while need > 0 && scanned < nblocks {
            if b != victim && self.block_free[b] > 0 {
                need -= self.take_lowest(b, need, taken.as_deref_mut());
            }
            b = (b + 1) % nblocks;
            scanned += 1;
        }
        self.scan_hint = b as u64;
        debug_assert_eq!(need, 0, "free_frames accounting guarantees room");
    }

    /// Occupy the lowest `need` free frames of block `b`, or all of them if
    /// it has fewer; returns how many it took, and appends them to `frames`
    /// if given. Whole words are filled at once; only a partly taken word
    /// is set a bit at a time.
    fn take_lowest(&mut self, b: usize, need: u64, mut frames: Option<&mut Vec<u64>>) -> u64 {
        let mut taken = 0;
        let first = b as u64 * FRAMES_PER_HUGE;
        for (i, word) in self.block_words(b).iter_mut().enumerate() {
            let old = *word;
            let mut free = !*word;
            let n = u64::from(free.count_ones());
            if taken + n <= need {
                *word = u64::MAX;
                taken += n;
            } else {
                for _ in taken..need {
                    let lowest = free & free.wrapping_neg();
                    *word |= lowest;
                    free ^= lowest;
                }
                taken = need;
            }
            if let Some(frames) = frames.as_deref_mut() {
                frames.extend(set_frames(&[*word & !old], first + i as u64 * 64));
            }
            if taken == need {
                break;
            }
        }
        self.free_frames -= taken;
        self.set_block_free(b, self.block_free[b] - taken as u16);
        taken
    }

    /// Occupy every frame of block `b`.
    fn claim(&mut self, b: usize) {
        self.block_words(b).fill(u64::MAX);
        self.free_frames -= u64::from(self.block_free[b]);
        self.set_block_free(b, 0);
    }

    /// Free a previously-allocated huge page: every used frame of its block.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 2 MB-aligned or lies beyond physical memory.
    pub fn free_huge(&mut self, pa: u64) {
        assert_eq!(pa & ((1 << HUGE_PAGE_BITS) - 1), 0);
        let b = (pa >> HUGE_PAGE_BITS) as usize;
        let words = self.block_words(b);
        let used: u32 = words.iter().map(|w| w.count_ones()).sum();
        words.fill(0);
        self.free_frames += u64::from(used);
        self.set_block_free(b, FRAMES_PER_HUGE as u16);
    }

    /// Free a previously-allocated 4 KB frame. Like [`Self::free_huge`],
    /// freeing a frame that is already free changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 4 KB-aligned or lies beyond physical memory.
    pub fn free_base(&mut self, pa: u64) {
        assert_eq!(pa & ((1 << BASE_PAGE_BITS) - 1), 0);
        let frame = pa >> BASE_PAGE_BITS;
        let (word, bit) = (&mut self.bits[(frame / 64) as usize], 1u64 << (frame % 64));
        if *word & bit != 0 {
            *word &= !bit;
            self.free_frames += 1;
            let b = (frame / FRAMES_PER_HUGE) as usize;
            self.set_block_free(b, self.block_free[b] + 1);
        }
    }

    /// Prepare the allocator at a target state: `used_bytes` occupied, with
    /// approximately the requested `fmfi` for the *free* memory.
    ///
    /// Deterministic: "mixed" blocks hold the scattered fraction of the free
    /// memory (free/used frames interleaved so no 2 MB run survives), then
    /// fully-used blocks, then fully-free blocks.
    ///
    /// # Panics
    ///
    /// Panics if `used_bytes` exceeds capacity or `fmfi` is outside [0, 1].
    pub fn fragment_to(&mut self, used_bytes: u64, fmfi: f64) {
        assert!((0.0..=1.0).contains(&fmfi), "fmfi must be in [0,1]");
        assert!(used_bytes <= self.frames << BASE_PAGE_BITS);
        self.bits.fill(0);
        self.stats = AllocStats::default();
        self.scan_hint = 0;

        let used_frames = used_bytes >> BASE_PAGE_BITS;
        let free_frames = self.frames - used_frames;
        // Scattered free frames: fmfi fraction of free memory lives inside
        // mixed blocks as runs of at most `free_run` frames, each run broken
        // by one used separator frame so no 2 MB-aligned run survives. The
        // run length adapts so even low-utilization, high-FMFI states are
        // representable (few used frames can break up a lot of free memory).
        let scattered = (free_frames as f64 * fmfi).round() as u64;
        let free_run = if scattered == 0 {
            1
        } else {
            scattered.div_ceil(used_frames.max(1)).clamp(1, FRAMES_PER_HUGE / 2)
        };
        let period = free_run + 1;
        // The mixed region repeats `free_run` free frames and one separator.
        // It ends just past the last scattered free frame, or just past the
        // last separator the used frames pay for, whichever comes first.
        let mixed = if scattered == 0 || used_frames == 0 {
            0
        } else {
            let past_scattered =
                (scattered - 1) / free_run * period + (scattered - 1) % free_run + 1;
            past_scattered.min(used_frames * period).min(self.frames)
        };
        for fr in (free_run..mixed).step_by(period as usize) {
            self.bits[(fr / 64) as usize] |= 1 << (fr % 64);
        }
        // The remaining used frames follow in one run: first they pad the
        // mixed region's tail block, so it is not accidentally huge-page
        // ready, then they fill whole blocks.
        let rest = used_frames - mixed / period;
        assert!(rest <= self.frames - mixed, "could not place all used frames");
        self.fill_used(mixed, mixed + rest);
        for (free, words) in self.block_free.iter_mut().zip(self.bits.chunks_exact(BLOCK_WORDS)) {
            let used: u32 = words.iter().map(|w| w.count_ones()).sum();
            *free = (FRAMES_PER_HUGE - u64::from(used)) as u16;
        }
        self.free_frames = free_frames;
        self.index_groups();
    }

    /// Mark frames `lo..hi` used in the bitmap (counts untouched).
    fn fill_used(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        let (first, last) = ((lo / 64) as usize, ((hi - 1) / 64) as usize);
        let head = u64::MAX << (lo % 64);
        let tail = u64::MAX >> (63 - (hi - 1) % 64);
        if first == last {
            self.bits[first] |= head & tail;
        } else {
            self.bits[first] |= head;
            self.bits[first + 1..last].fill(u64::MAX);
            self.bits[last] |= tail;
        }
    }
}

/// Cost model for Table I: model load time under huge-page allocation.
///
/// Calibrated against a Jetson AGX Orin with a Samsung 980 Pro NVMe SSD
/// (the paper's setup): sequential read ~1.85 GB/s effective for a 16.2 GB
/// fp16 model load (baseline ≈ 8.8 s), per-huge-page setup cost (zeroing,
/// page-table work), and per-frame compaction cost (4 KB copy + kernel
/// overhead).
#[derive(Debug, Clone, Copy)]
pub struct LoadCostModel {
    /// Effective storage streaming bandwidth, bytes/second.
    pub storage_bw: f64,
    /// Fixed cost per huge page allocated (seconds).
    pub per_huge_page: f64,
    /// Cost per 4 KB frame moved during compaction (seconds).
    pub per_frame_moved: f64,
    /// Fixed cost per 4 KB base page (baseline path), seconds.
    pub per_base_page: f64,
}

impl Default for LoadCostModel {
    fn default() -> Self {
        LoadCostModel {
            storage_bw: 1.85e9,
            per_huge_page: 170e-6,
            per_frame_moved: 4.5e-6,
            per_base_page: 0.12e-6,
        }
    }
}

impl LoadCostModel {
    /// Load time using huge pages, given the allocator outcome.
    pub fn huge_page_load_time(&self, model_bytes: u64, stats: &AllocStats) -> f64 {
        model_bytes as f64 / self.storage_bw
            + (stats.pages_direct + stats.pages_compacted) as f64 * self.per_huge_page
            + stats.frames_moved as f64 * self.per_frame_moved
    }

    /// Baseline load time with 4 KB pages only.
    pub fn base_page_load_time(&self, model_bytes: u64) -> f64 {
        let pages = model_bytes.div_ceil(1 << BASE_PAGE_BITS);
        model_bytes as f64 / self.storage_bw + pages as f64 * self.per_base_page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_is_unfragmented() {
        let pm = PhysicalMemory::new(64 << 20);
        assert_eq!(pm.free_bytes(), 64 << 20);
        assert_eq!(pm.fmfi(), 0.0);
        assert_eq!(pm.free_huge_blocks(), 32);
    }

    #[test]
    fn direct_huge_alloc_costs_nothing() {
        let mut pm = PhysicalMemory::new(16 << 20);
        let a = pm.alloc_huge().unwrap();
        assert_eq!(a.frames_moved, 0);
        assert_eq!(a.pa % (1 << HUGE_PAGE_BITS), 0);
        assert_eq!(pm.free_bytes(), 14 << 20);
        assert_eq!(pm.stats().pages_direct, 1);
    }

    #[test]
    fn fragmented_alloc_compacts() {
        let mut pm = PhysicalMemory::new(16 << 20);
        pm.fragment_to(8 << 20, 1.0);
        assert!(pm.fmfi() > 0.9, "fmfi = {}", pm.fmfi());
        let before_free = pm.free_bytes();
        let a = pm.alloc_huge().unwrap();
        assert!(a.frames_moved > 0, "must compact");
        assert_eq!(pm.free_bytes(), before_free - (2 << 20));
        assert_eq!(pm.stats().pages_compacted, 1);
    }

    #[test]
    fn compaction_reports_each_moved_frame() {
        let mut pm = PhysicalMemory::new(16 << 20);
        pm.fragment_to(8 << 20, 1.0);
        let mut plain = pm.clone();
        let mut moves = Vec::new();
        let a = pm.alloc_huge_with_moves(&mut moves).unwrap();
        assert_eq!(a, plain.alloc_huge().unwrap(), "asking for moves changes no choice");
        assert_eq!((pm.stats(), pm.free_bytes()), (plain.stats(), plain.free_bytes()));
        assert_eq!(moves.len() as u64, a.frames_moved);
        let block = |pa: u64| pa >> HUGE_PAGE_BITS;
        let mut targets: Vec<u64> = moves.iter().map(|&(_, to)| to).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), moves.len(), "each moved frame lands on its own frame");
        for &(from, to) in &moves {
            assert_eq!(block(from), block(a.pa), "frames move out of the new huge page");
            assert_ne!(block(to), block(a.pa));
        }
    }

    #[test]
    fn fragment_to_hits_requested_state() {
        let mut pm = PhysicalMemory::new(256 << 20);
        for target in [0.0f64, 0.45, 0.75] {
            pm.fragment_to(128 << 20, target);
            assert_eq!(pm.free_bytes(), 128 << 20);
            assert!((pm.fmfi() - target).abs() < 0.05, "target {target}, got {}", pm.fmfi());
        }
    }

    #[test]
    fn oom_when_exhausted() {
        let mut pm = PhysicalMemory::new(4 << 20);
        pm.alloc_huge().unwrap();
        pm.alloc_huge().unwrap();
        assert!(matches!(pm.alloc_huge(), Err(FacilError::OutOfMemory { .. })));
    }

    #[test]
    fn free_then_realloc() {
        let mut pm = PhysicalMemory::new(4 << 20);
        let a = pm.alloc_huge().unwrap();
        pm.free_huge(a.pa);
        assert_eq!(pm.free_bytes(), 4 << 20);
        pm.alloc_huge().unwrap();
    }

    #[test]
    fn base_alloc_prefers_partial_blocks() {
        let mut pm = PhysicalMemory::new(8 << 20);
        pm.fragment_to(2 << 20, 0.3);
        let ready_before = pm.free_huge_blocks();
        let a = pm.alloc_base().unwrap();
        let b = pm.alloc_base().unwrap();
        assert_ne!(a, b);
        assert_eq!(pm.stats().base_pages, 2);
        assert_eq!(pm.free_huge_blocks(), ready_before, "base pages must not break huge blocks");
    }

    #[test]
    fn more_fragmentation_moves_more_frames() {
        let mut totals = Vec::new();
        for fmfi in [0.05f64, 0.45, 0.75] {
            let mut pm = PhysicalMemory::new(512 << 20);
            pm.fragment_to(256 << 20, fmfi);
            let mut moved = 0;
            for _ in 0..64 {
                moved += pm.alloc_huge().unwrap().frames_moved;
            }
            totals.push(moved);
        }
        assert!(totals[0] <= totals[1] && totals[1] <= totals[2], "{totals:?}");
        assert!(totals[2] > totals[0], "{totals:?}");
    }

    #[test]
    fn cost_model_monotone_in_compaction() {
        let m = LoadCostModel::default();
        let cheap = AllocStats { pages_direct: 100, ..Default::default() };
        let costly =
            AllocStats { pages_compacted: 100, frames_moved: 100 * 384, ..Default::default() };
        let t0 = m.huge_page_load_time(1 << 30, &cheap);
        let t1 = m.huge_page_load_time(1 << 30, &costly);
        assert!(t1 > t0);
        assert!(m.base_page_load_time(1 << 30) > 0.0);
    }

    #[test]
    fn allocation_never_double_allocates() {
        let mut pm = PhysicalMemory::new(32 << 20);
        pm.fragment_to(8 << 20, 0.6);
        let mut seen = std::collections::HashSet::new();
        while let Ok(a) = pm.alloc_huge() {
            assert!(seen.insert(a.pa), "huge page {:#x} handed out twice", a.pa);
        }
        // All free memory consumed down to < 2 MB.
        assert!(pm.free_bytes() < 2 << 20);
    }
}
