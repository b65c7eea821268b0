//! OS paging support: PTEs carrying MapID, the radix page table and the
//! FACIL-extended `mmap` address space that every
//! [`crate::FacilSystem`] runs on, a TLB model, and the
//! fragmentation-aware physical-frame allocator.

pub mod mmap;
pub mod phys;
pub mod pte;
pub mod radix;
pub mod tlb;

pub use mmap::{AddressSpace, MmapFlags};
pub use phys::{AllocStats, HugeAlloc, LoadCostModel, PhysicalMemory, FRAMES_PER_HUGE};
pub use pte::{Pte, Translation, BASE_PAGE_BITS, PA_BITS};
pub use radix::RadixPageTable;
pub use tlb::{Tlb, TlbStats};
