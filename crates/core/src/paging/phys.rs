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

/// Physical-frame allocator: one bit per 4 KB frame, set = used, kept as
/// eight 64-frame words per 2 MB block only while the block is partly used.
///
/// Each block's free count is exact after every operation, and it implies
/// the words of a full block (all set) and of an empty one (all clear), so
/// those blocks store none. A partly used block owns a slot of eight words.
/// A block that fills or empties keeps its slot, stale, and a block whose
/// words are implied gets a slot, or has its stale slot refilled from its
/// count, before its first bit changes. A serving device prepared at FMFI
/// 0 therefore stores at most the one block its used memory ends in, while
/// its KV slabs come and go as huge pages; a Table I state stores its
/// partly used blocks' words.
///
/// Over the counts it keeps two indexes, both exact after every operation:
/// a bitset of the fully-free blocks, and the largest count in each group
/// of 64 blocks. A cursor names the lowest group that can still hold a
/// fully-free block: no group below it holds one. With `B` blocks, counts,
/// slot numbers and indexes cost about 6 bytes per block. Per operation:
///
/// * `alloc_huge`, direct: a scan of the bitset from the cursor to the
///   lowest fully-free block, which the cursor then names, and a count
///   update; a run of direct allocations reads each word of the bitset
///   about once;
/// * `alloc_huge`, compacting: a branch-free pass over the `B / 64` group
///   maxima for the largest, a search for the last group holding it, 32
///   maxima at a time from the end, and one group's 64 counts for the
///   victim; then a relocation walk from the rotating cursor that reads one
///   count per block it passes and fills stored words at a time, then a
///   count update for the victim;
/// * `free_huge`: a count update; `free_base`: one stored bit;
/// * `alloc_base`: a scan of the `B` block counts for a partial block, then
///   one stored bit;
/// * `fragment_to`: a fill of the `B` counts and slot numbers, then, a
///   word at a time, one shifted separator mask per word of the scattered
///   region and a popcount of each block that region or the used run's
///   partial ends touch;
/// * `free_huge_blocks` and `fmfi`: a popcount of `B / 64` words.
///
/// Each count change also refreshes its group's maximum, rescanning the
/// group's 64 counts only when the group loses its maximum, and lowers the
/// cursor to the group of a block that becomes fully free.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    /// Free frames per 2 MB block.
    block_free: Vec<u16>,
    /// Each block's index into `stored`, or [`NO_SLOT`]. Every partly used
    /// block has one, holding its current words.
    slot: Vec<u32>,
    /// Frame words of the blocks with a slot, 1 bit per frame, set = used;
    /// stale for a block that is now full or empty.
    stored: Vec<[u64; BLOCK_WORDS]>,
    /// Bit `b % 64` of word `b / 64` is set iff block `b` is fully free.
    free_blocks: Vec<u64>,
    /// Largest `block_free` of each group of [`GROUP`] consecutive blocks.
    group_max: Vec<u16>,
    /// No word of `free_blocks` below this one has a bit set.
    free_group: usize,
    frames: u64,
    free_frames: u64,
    stats: AllocStats,
    /// Rotating cursor for relocation-target search.
    scan_hint: u64,
}

/// Frame words per 2 MB block.
const BLOCK_WORDS: usize = (FRAMES_PER_HUGE / 64) as usize;

/// Blocks per group of the compaction-victim index: one word of the
/// fully-free bitset covers one group.
const GROUP: usize = 64;

/// The slot number of a block that has never stored words.
const NO_SLOT: u32 = u32::MAX;

/// Group maxima the victim search compares at once.
const MAX_CHUNK: usize = 32;

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

/// Set the bits of frames `lo..hi` in `words`, where bit 0 of the first
/// word is frame 0.
fn fill_used(words: &mut [u64], lo: u64, hi: u64) {
    if lo >= hi {
        return;
    }
    let (first, last) = ((lo / 64) as usize, ((hi - 1) / 64) as usize);
    let head = u64::MAX << (lo % 64);
    let tail = u64::MAX >> (63 - (hi - 1) % 64);
    if first == last {
        words[first] |= head & tail;
    } else {
        words[first] |= head;
        words[first + 1..last].fill(u64::MAX);
        words[last] |= tail;
    }
}

impl PhysicalMemory {
    /// Create an allocator over `total_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a multiple of 2 MB, or is so large
    /// that the block count does not fit a slot number.
    pub fn new(total_bytes: u64) -> Self {
        assert_eq!(total_bytes % (1 << HUGE_PAGE_BITS), 0, "size must be a multiple of 2 MB");
        let frames = total_bytes >> BASE_PAGE_BITS;
        let blocks = (frames / FRAMES_PER_HUGE) as usize;
        assert!(blocks < NO_SLOT as usize, "{blocks} blocks overflow the slot numbers");
        let mut pm = PhysicalMemory {
            block_free: vec![FRAMES_PER_HUGE as u16; blocks],
            slot: vec![NO_SLOT; blocks],
            stored: Vec::new(),
            free_blocks: vec![0; blocks.div_ceil(GROUP)],
            group_max: vec![0; blocks.div_ceil(GROUP)],
            free_group: 0,
            frames,
            free_frames: frames,
            stats: AllocStats::default(),
            scan_hint: 0,
        };
        pm.index_groups();
        pm
    }

    /// Rebuild the fully-free bitset and the group maxima from the counts,
    /// and reset the cursor to the first group.
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
        self.free_group = 0;
    }

    /// Set block `b`'s free count, keeping both indexes in step.
    fn set_block_free(&mut self, b: usize, free: u16) {
        let old = std::mem::replace(&mut self.block_free[b], free);
        let (g, bit) = (b / GROUP, 1u64 << (b % GROUP));
        if u64::from(free) == FRAMES_PER_HUGE {
            self.free_blocks[g] |= bit;
            self.free_group = self.free_group.min(g);
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

    /// The value of every frame word of block `b` if its count implies its
    /// words: all bits set for a full block, none for an empty one; `None`
    /// for a partly used block, whose words are stored.
    fn implied_word(&self, b: usize) -> Option<u64> {
        match u64::from(self.block_free[b]) {
            0 => Some(u64::MAX),
            FRAMES_PER_HUGE => Some(0),
            _ => None,
        }
    }

    /// Frame words of block `b`, implied by its count or stored.
    fn words(&self, b: usize) -> [u64; BLOCK_WORDS] {
        match self.implied_word(b) {
            Some(w) => [w; BLOCK_WORDS],
            None => self.stored[self.slot[b] as usize],
        }
    }

    /// Frame words of block `b`, stored so that its bits can change. A
    /// block whose words are implied first gets a slot, or has its stale
    /// slot refilled, from its count.
    fn words_mut(&mut self, b: usize) -> &mut [u64; BLOCK_WORDS] {
        let implied = self.implied_word(b);
        if self.slot[b] == NO_SLOT {
            assert!(implied.is_some(), "partly used block {b} stores no words");
            self.slot[b] = self.stored.len() as u32;
            self.stored.push([0; BLOCK_WORDS]);
        }
        let words = &mut self.stored[self.slot[b] as usize];
        if let Some(w) = implied {
            *words = [w; BLOCK_WORDS];
        }
        words
    }

    /// The lowest fully-free block. The cursor moves up to its group, or
    /// past the last group if there is none.
    fn first_free_block(&mut self) -> Option<usize> {
        let groups = &self.free_blocks[self.free_group..];
        self.free_group += groups.iter().position(|&w| w != 0).unwrap_or(groups.len());
        let w = self.free_blocks.get(self.free_group)?;
        Some(self.free_group * GROUP + w.trailing_zeros() as usize)
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
        // lockstep with the frame words, so both lookups must succeed.
        #[allow(clippy::expect_used)]
        let block = self
            .block_free
            .iter()
            .position(|&f| f > 0 && u64::from(f) < FRAMES_PER_HUGE)
            .or_else(|| self.first_free_block())
            .expect("free frames exist");
        #[allow(clippy::expect_used)]
        let (i, word) = self
            .words_mut(block)
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
                let sources = set_frames(&self.words(victim), first);
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
    /// found in the last group whose maximum is the largest. Whole chunks
    /// of maxima are compared without branching, from the end.
    fn victim(&self) -> Option<usize> {
        let max = self.group_max.iter().fold(0, |a, &m| a.max(m));
        let holds = |chunk: &[u16]| chunk.iter().fold(false, |hit, &m| hit | (m == max));
        let (c, chunk) = self.group_max.chunks(MAX_CHUNK).enumerate().rfind(|(_, ch)| holds(ch))?;
        let g = c * MAX_CHUNK + chunk.iter().rposition(|&m| m == max)?;
        let i = self.block_free[g * GROUP..].iter().take(GROUP).rposition(|&f| f == max)?;
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
        for (i, word) in self.words_mut(b).iter_mut().enumerate() {
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
        self.free_frames += FRAMES_PER_HUGE - u64::from(self.block_free[b]);
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
        let b = (frame / FRAMES_PER_HUGE) as usize;
        // Every frame of an empty block is free already; storing its words
        // would change nothing.
        if self.implied_word(b) == Some(0) {
            return;
        }
        let word = &mut self.words_mut(b)[(frame % FRAMES_PER_HUGE / 64) as usize];
        let bit = 1u64 << (frame % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.free_frames += 1;
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
        self.block_free.fill(FRAMES_PER_HUGE as u16);
        self.slot.fill(NO_SLOT);
        self.stored.clear();
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
        // The remaining used frames follow in one run: first they pad the
        // mixed region's tail block, so it is not accidentally huge-page
        // ready, then they fill whole blocks.
        let rest = used_frames - mixed / period;
        assert!(rest <= self.frames - mixed, "could not place all used frames");
        let used_end = mixed + rest;
        // A block's words: its separators, at the frames `free_run` modulo
        // `period` below `mixed`, and its share of the used run. A word's
        // separators are one mask, with a bit at every multiple of `period`,
        // shifted up to the word's first separator; a shift of 64 or more
        // leaves the word none.
        let separators = (0..64).step_by(period as usize).fold(0u64, |m, i| m | 1 << i);
        let words_of = |b: u64| {
            let (lo, hi) = (b * FRAMES_PER_HUGE, (b + 1) * FRAMES_PER_HUGE);
            let mut words: [u64; BLOCK_WORDS] = std::array::from_fn(|i| {
                let w0 = lo + i as u64 * 64;
                let phase = (free_run + period - w0 % period) % period;
                let below_mixed = mixed.saturating_sub(w0).min(64) as u32;
                let cut = u64::MAX.checked_shr(64 - below_mixed).unwrap_or(0);
                separators.checked_shl(phase as u32).unwrap_or(0) & cut
            });
            fill_used(&mut words, mixed.max(lo) - lo, used_end.clamp(lo, hi) - lo);
            words
        };
        // Words a block at a time for the mixed region and the used run's
        // partly used last block; the whole blocks between by count alone.
        let mixed_blocks = mixed.div_ceil(FRAMES_PER_HUGE);
        let full_end = (used_end / FRAMES_PER_HUGE).max(mixed_blocks);
        self.block_free[mixed_blocks as usize..full_end as usize].fill(0);
        for b in (0..mixed_blocks).chain(full_end..used_end.div_ceil(FRAMES_PER_HUGE)) {
            let words = words_of(b);
            let used: u32 = words.iter().map(|w| w.count_ones()).sum();
            let b = b as usize;
            self.block_free[b] = (FRAMES_PER_HUGE - u64::from(used)) as u16;
            if self.implied_word(b).is_none() {
                self.slot[b] = self.stored.len() as u32;
                self.stored.push(words);
            }
        }
        self.free_frames = free_frames;
        self.index_groups();
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

    /// The blocks that own a slot, and the partly used blocks.
    fn stored_and_partly_used(pm: &PhysicalMemory) -> (Vec<usize>, Vec<usize>) {
        let blocks = 0..pm.block_free.len();
        let stored = blocks.clone().filter(|&b| pm.slot[b] != NO_SLOT).collect();
        (stored, blocks.filter(|&b| pm.implied_word(b).is_none()).collect())
    }

    /// A serving device's 8 GiB, prepared at FMFI 0 with its weights used,
    /// stores words for at most the one block its weights end in, however
    /// often KV slabs come and go as huge pages. A Table I-shaped state
    /// stores exactly its partly used blocks' words.
    #[test]
    fn words_are_stored_only_for_partly_used_blocks() {
        let weights = 3 << 30;
        for (used, partial) in [(weights, 0), (weights + (5 << BASE_PAGE_BITS), 1)] {
            let mut pm = PhysicalMemory::new(8 << 30);
            pm.fragment_to(used, 0.0);
            let mut held = Vec::new();
            for round in 0..64 {
                held.push(pm.alloc_huge().unwrap().pa);
                held.push(pm.alloc_huge().unwrap().pa);
                pm.free_huge(held.swap_remove(round % held.len()));
            }
            let (stored, partly_used) = stored_and_partly_used(&pm);
            assert_eq!(stored, partly_used);
            assert_eq!(pm.stored.len(), partial, "used size {used}");
        }

        let mut pm = PhysicalMemory::new(8 << 30);
        pm.fragment_to(weights, 0.0);
        pm.alloc_base().unwrap();
        assert_eq!(pm.stored.len(), 1, "a base page from an empty block stores that block");
        pm.fragment_to(weights, 0.0);
        assert_eq!((pm.stored.len(), stored_and_partly_used(&pm).0.len()), (0, 0));

        // Table I's 64 GB and 16.2 GB model, scaled down 128 times.
        let total = 512 << 20;
        let free = (16.2e9 / 128.0 * 1.1) as u64;
        pm = PhysicalMemory::new(total);
        pm.fragment_to(total - free, 0.75);
        let (stored, partly_used) = stored_and_partly_used(&pm);
        assert!(partly_used.len() > 64, "{} partly used blocks", partly_used.len());
        assert_eq!(stored, partly_used);
        assert_eq!(pm.stored.len(), partly_used.len());
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
