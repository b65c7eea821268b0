//! The frame-at-a-time allocator that [`super::PhysicalMemory`] replaced,
//! kept verbatim as the oracle of the differential tests. Two things are
//! new: its fields are visible to the tests, and [`PhysicalMemory::free_base`]
//! frees one frame the way [`PhysicalMemory::free_huge`] frees each of 512.

use super::{AllocStats, HugeAlloc, FRAMES_PER_HUGE};
use crate::error::{FacilError, Result};
use crate::paging::pte::{BASE_PAGE_BITS, HUGE_PAGE_BITS};

/// Bitmap physical-frame allocator (one bit per 4 KB frame) with per-block
/// free counts, set one frame at a time.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    /// 1 bit per frame; set = used.
    pub(super) bits: Vec<u64>,
    /// Free frames per 2 MB block.
    pub(super) block_free: Vec<u16>,
    pub(super) frames: u64,
    pub(super) free_frames: u64,
    pub(super) stats: AllocStats,
    /// Rotating cursor for relocation-target search.
    pub(super) scan_hint: u64,
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
        PhysicalMemory {
            bits: vec![0u64; (frames as usize).div_ceil(64)],
            block_free: vec![FRAMES_PER_HUGE as u16; blocks],
            frames,
            free_frames: frames,
            stats: AllocStats::default(),
            scan_hint: 0,
        }
    }

    fn is_used(&self, frame: u64) -> bool {
        self.bits[(frame / 64) as usize] >> (frame % 64) & 1 == 1
    }

    fn set_used(&mut self, frame: u64) {
        debug_assert!(!self.is_used(frame));
        self.bits[(frame / 64) as usize] |= 1 << (frame % 64);
        self.block_free[(frame / FRAMES_PER_HUGE) as usize] -= 1;
        self.free_frames -= 1;
    }

    fn set_free(&mut self, frame: u64) {
        debug_assert!(self.is_used(frame));
        self.bits[(frame / 64) as usize] &= !(1 << (frame % 64));
        self.block_free[(frame / FRAMES_PER_HUGE) as usize] += 1;
        self.free_frames += 1;
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

    fn blocks(&self) -> u64 {
        self.block_free.len() as u64
    }

    /// Number of fully-free, aligned 2 MB blocks.
    pub fn free_huge_blocks(&self) -> u64 {
        self.block_free.iter().filter(|&&f| u64::from(f) == FRAMES_PER_HUGE).count() as u64
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
        // (mirrors the kernel's anti-fragmentation placement).
        // `free_frames > 0` was checked above, and `block_free` is kept in
        // lockstep with the frame bitmap, so both lookups must succeed.
        #[allow(clippy::expect_used)]
        let block = self
            .block_free
            .iter()
            .position(|&f| f > 0 && u64::from(f) < FRAMES_PER_HUGE)
            .or_else(|| self.block_free.iter().position(|&f| f > 0))
            .expect("free frames exist");
        let start = block as u64 * FRAMES_PER_HUGE;
        #[allow(clippy::expect_used)]
        let frame = (start..start + FRAMES_PER_HUGE)
            .find(|&f| !self.is_used(f))
            .expect("block_free count says a frame is free");
        self.set_used(frame);
        self.stats.base_pages += 1;
        Ok(frame << BASE_PAGE_BITS)
    }

    /// Allocate one 2 MB huge page, compacting if necessary.
    ///
    /// Direct path: take a fully-free aligned block. Compaction path: pick
    /// the partial block with the most free frames, relocate its used frames
    /// into free frames of other partial blocks (counted in `frames_moved`),
    /// then take the block.
    ///
    /// # Errors
    ///
    /// [`FacilError::OutOfMemory`] when fewer than 512 frames remain free.
    pub fn alloc_huge(&mut self) -> Result<HugeAlloc> {
        if self.free_frames < FRAMES_PER_HUGE {
            return Err(FacilError::OutOfMemory {
                requested: 1 << HUGE_PAGE_BITS,
                free: self.free_bytes(),
            });
        }
        // Direct path.
        if let Some(block) = self.block_free.iter().position(|&f| u64::from(f) == FRAMES_PER_HUGE) {
            let start = block as u64 * FRAMES_PER_HUGE;
            for fr in start..start + FRAMES_PER_HUGE {
                self.set_used(fr);
            }
            self.stats.pages_direct += 1;
            return Ok(HugeAlloc { pa: start << BASE_PAGE_BITS, frames_moved: 0 });
        }
        // Compaction path: victim = partial block with most free frames.
        // The capacity check at the top guarantees at least one such block.
        #[allow(clippy::expect_used)]
        let victim = self
            .block_free
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .max_by_key(|(_, &f)| f)
            .map(|(b, _)| b as u64)
            .expect("free frames exist, so some block has free frames");
        let to_move = FRAMES_PER_HUGE - u64::from(self.block_free[victim as usize]);
        let start = victim * FRAMES_PER_HUGE;
        // Relocate: occupy `to_move` free frames outside the victim block,
        // starting from the rotating hint.
        let mut moved = 0;
        let nblocks = self.blocks();
        let mut scanned = 0;
        let mut b = self.scan_hint % nblocks;
        while moved < to_move && scanned < nblocks {
            if b != victim && self.block_free[b as usize] > 0 {
                let bstart = b * FRAMES_PER_HUGE;
                let mut fr = bstart;
                while moved < to_move && fr < bstart + FRAMES_PER_HUGE {
                    if !self.is_used(fr) {
                        self.set_used(fr);
                        moved += 1;
                    }
                    fr += 1;
                }
            }
            b = (b + 1) % nblocks;
            scanned += 1;
        }
        self.scan_hint = b;
        debug_assert_eq!(moved, to_move, "free_frames accounting guarantees room");
        // Claim the whole victim block.
        for fr in start..start + FRAMES_PER_HUGE {
            if !self.is_used(fr) {
                self.set_used(fr);
            }
        }
        self.stats.pages_compacted += 1;
        self.stats.frames_moved += to_move;
        Ok(HugeAlloc { pa: start << BASE_PAGE_BITS, frames_moved: to_move })
    }

    /// Free a previously-allocated huge page.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 2 MB-aligned.
    pub fn free_huge(&mut self, pa: u64) {
        assert_eq!(pa & ((1 << HUGE_PAGE_BITS) - 1), 0);
        let start = pa >> BASE_PAGE_BITS;
        for fr in start..start + FRAMES_PER_HUGE {
            if self.is_used(fr) {
                self.set_free(fr);
            }
        }
    }

    /// Free one 4 KB frame if it is used.
    pub fn free_base(&mut self, pa: u64) {
        assert_eq!(pa & ((1 << BASE_PAGE_BITS) - 1), 0);
        let frame = pa >> BASE_PAGE_BITS;
        if self.is_used(frame) {
            self.set_free(frame);
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
        // Reset.
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.block_free.iter_mut().for_each(|f| *f = FRAMES_PER_HUGE as u16);
        self.free_frames = self.frames;
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
        let mut used_budget = used_frames;
        let free_run = if scattered == 0 {
            1
        } else {
            scattered.div_ceil(used_budget.max(1)).clamp(1, FRAMES_PER_HUGE / 2)
        };
        let period = free_run + 1;
        let mut remaining_scatter = scattered;
        let mut fr = 0u64;
        while remaining_scatter > 0 && used_budget > 0 && fr < self.frames {
            if fr % period < free_run {
                if remaining_scatter > 0 {
                    remaining_scatter -= 1;
                } else {
                    self.set_used(fr);
                    used_budget -= 1;
                }
            } else {
                self.set_used(fr);
                used_budget -= 1;
            }
            fr += 1;
        }
        // Round the mixed region up to a block boundary so the tail block is
        // not accidentally huge-page ready; pad it with used frames.
        while !fr.is_multiple_of(FRAMES_PER_HUGE) && used_budget > 0 && fr < self.frames {
            self.set_used(fr);
            used_budget -= 1;
            fr += 1;
        }
        // Remaining used frames fill whole blocks after the mixed region.
        while used_budget > 0 && fr < self.frames {
            self.set_used(fr);
            used_budget -= 1;
            fr += 1;
        }
        assert_eq!(used_budget, 0, "could not place all used frames");
    }
}
