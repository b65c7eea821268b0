//! A thread-safe memo for pure, expensive computations: the DRAM replays
//! behind `facil_sim`'s re-layout profiles and `facil_mapsearch`'s
//! measured scores.
//!
//! Each key owns one slot. The map's lock is held only to find or insert a
//! slot, never while a value is computed, so [`pool`](crate::pool) workers
//! computing different keys run concurrently. A caller that asks for a key
//! while another thread computes it waits for that value rather than
//! computing it again, so each key is computed once per memo.
//!
//! ```
//! use facil_telemetry::memo::Memo;
//!
//! let memo: Memo<u64, u64> = Memo::default();
//! assert_eq!(memo.get_or_insert_with(3, || 9), 9);
//! assert_eq!(memo.get_or_insert_with(3, || unreachable!()), 9);
//! assert_eq!(memo.len(), 1);
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Values computed once per key, shareable across threads.
#[derive(Debug)]
pub struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo { slots: Mutex::new(HashMap::new()) }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value for `key`, running `compute` only if no caller has
    /// computed it yet. If `compute` panics the slot stays empty and the
    /// next caller computes it.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = Arc::clone(self.lock().entry(key).or_default());
        slot.get_or_init(compute).clone()
    }

    /// Distinct keys asked for so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no key has been asked for yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot map. A panic elsewhere cannot leave it half-updated (the
    /// only operation under the lock is finding or inserting one slot), so
    /// a poisoned lock is still safe to use.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn each_key_is_computed_once_under_concurrency() {
        let memo: Memo<u64, u64> = Memo::default();
        let calls = AtomicUsize::new(0);
        let keys: Vec<u64> = (0..64).map(|i| i % 8).collect();
        let got = pool::par_map_with(4, &keys, |&k| {
            memo.get_or_insert_with(k, || {
                calls.fetch_add(1, Ordering::Relaxed);
                k * k
            })
        });
        assert_eq!(got, keys.iter().map(|k| k * k).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        assert_eq!(memo.len(), 8);
    }

    #[test]
    fn a_panicking_compute_leaves_the_key_to_the_next_caller() {
        let memo: Memo<u8, u8> = Memo::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_insert_with(1, || panic!("replay failed"))
        }));
        assert!(unwound.is_err());
        assert_eq!(memo.get_or_insert_with(1, || 7), 7);
        assert_eq!(memo.get_or_insert_with(1, || 8), 7);
    }
}
