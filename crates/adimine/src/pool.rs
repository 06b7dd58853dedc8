//! An LRU buffer pool over a [`PageFile`].

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use rustc_hash::FxHashMap;

use graphmine_storage::{StorageError, PAGE_SIZE};

use crate::file::{PageFile, PageId};

/// I/O accounting for experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read from disk.
    pub misses: u64,
    /// Pages read from disk.
    pub disk_reads: u64,
    /// Pages written to disk (evictions of dirty pages + flushes).
    pub disk_writes: u64,
}

struct Frame {
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
}

struct PoolInner {
    file: PageFile,
    frames: FxHashMap<PageId, Frame>,
    /// LRU order, least recent at the front. May contain stale entries for
    /// pages that were re-touched (filtered on eviction).
    lru: VecDeque<PageId>,
    capacity: usize,
    stats: PoolStats,
}

/// A single-writer LRU buffer pool. Access is closure-scoped
/// ([`BufferPool::with_page`] / [`BufferPool::with_page_mut`]) so pages are
/// never pinned across calls, which keeps eviction trivially safe.
pub(crate) struct BufferPool {
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Wraps `file` with a pool of `capacity` pages (at least 1).
    pub(crate) fn new(file: PageFile, capacity: usize) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner {
                file,
                frames: FxHashMap::default(),
                lru: VecDeque::new(),
                capacity: capacity.max(1),
                stats: PoolStats::default(),
            }),
        }
    }

    /// Enters the latch, ignoring poison: no frame-table or LRU update
    /// spans a caller's closure, so a panicking closure leaves them whole.
    fn latch(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocates a fresh page (zeroed, resident, clean).
    ///
    /// # Errors
    ///
    /// Propagates allocation and eviction I/O failures.
    pub(crate) fn allocate(&self) -> Result<PageId, StorageError> {
        let mut inner = self.latch();
        let pid = inner.file.allocate()?;
        inner.make_room()?;
        inner.frames.insert(pid, Frame { data: Box::new([0; PAGE_SIZE]), dirty: false });
        inner.lru.push_back(pid);
        Ok(pid)
    }

    /// Runs `f` with read access to page `pid`.
    ///
    /// # Errors
    ///
    /// Propagates faults from reading the page in.
    pub(crate) fn with_page<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        let mut inner = self.latch();
        inner.fault_in(pid)?;
        let frame = inner.frames.get(&pid).expect("faulted in");
        Ok(f(&frame.data))
    }

    /// Runs `f` with write access to page `pid`, marking it dirty.
    ///
    /// # Errors
    ///
    /// Propagates faults from reading the page in.
    pub(crate) fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        let mut inner = self.latch();
        inner.fault_in(pid)?;
        let frame = inner.frames.get_mut(&pid).expect("faulted in");
        frame.dirty = true;
        Ok(f(&mut frame.data))
    }

    /// Writes all dirty pages back and syncs the file.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub(crate) fn flush(&self) -> Result<(), StorageError> {
        let mut inner = self.latch();
        let dirty: Vec<PageId> =
            inner.frames.iter().filter(|(_, fr)| fr.dirty).map(|(&pid, _)| pid).collect();
        for pid in dirty {
            let frame = inner.frames.get(&pid).expect("listed above");
            let data = *frame.data;
            inner.file.write_page(pid, &data)?;
            inner.stats.disk_writes += 1;
            inner.frames.get_mut(&pid).expect("listed above").dirty = false;
        }
        inner.file.sync()?;
        Ok(())
    }

    /// Snapshot of the I/O counters.
    pub(crate) fn stats(&self) -> PoolStats {
        self.latch().stats
    }

    /// Resets the I/O counters (per-experiment accounting).
    pub(crate) fn reset_stats(&self) {
        self.latch().stats = PoolStats::default();
    }

    /// Number of allocated pages in the backing file.
    pub(crate) fn page_count(&self) -> u64 {
        self.latch().file.page_count()
    }
}

impl PoolInner {
    fn fault_in(&mut self, pid: PageId) -> Result<(), StorageError> {
        if self.frames.contains_key(&pid) {
            self.stats.hits += 1;
            self.lru.push_back(pid); // stale duplicates filtered on evict
            if self.lru.len() > self.capacity * 8 + 16 {
                self.compact_lru();
            }
            return Ok(());
        }
        self.stats.misses += 1;
        self.make_room()?;
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.file.read_page(pid, &mut data)?;
        self.stats.disk_reads += 1;
        self.frames.insert(pid, Frame { data, dirty: false });
        self.lru.push_back(pid);
        Ok(())
    }

    /// Drops stale duplicates from the LRU queue, keeping only the most
    /// recent entry per page.
    fn compact_lru(&mut self) {
        let mut seen = rustc_hash::FxHashSet::default();
        let mut kept: VecDeque<PageId> = VecDeque::with_capacity(self.frames.len());
        for &pid in self.lru.iter().rev() {
            if seen.insert(pid) {
                kept.push_front(pid);
            }
        }
        self.lru = kept;
    }

    /// Evicts least-recently-used frames until at most `capacity - 1`
    /// remain resident, leaving room for one more.
    fn make_room(&mut self) -> Result<(), StorageError> {
        while self.frames.len() >= self.capacity {
            let Some(pid) = self.lru.pop_front() else { break };
            // Stale LRU entry: the page was touched again later.
            if self.lru.contains(&pid) {
                continue;
            }
            if let Some(frame) = self.frames.remove(&pid) {
                if frame.dirty {
                    self.file.write_page(pid, &frame.data)?;
                    self.stats.disk_writes += 1;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;

    fn pool(capacity: usize) -> BufferPool {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pool.db");
        let file = PageFile::create(&path, Duration::ZERO).unwrap();
        // Leak the tempdir so the file outlives the test body.
        std::mem::forget(dir);
        BufferPool::new(file, capacity)
    }

    #[test]
    fn read_your_writes_through_the_pool() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[10] = 42).unwrap();
        let v = p.with_page(a, |pg| pg[10]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let pids: Vec<PageId> = (0..5).map(|_| p.allocate().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |pg| pg[0] = i as u8 + 1).unwrap();
        }
        // Early pages were evicted; reading them must fault in the
        // written-back contents.
        for (i, &pid) in pids.iter().enumerate() {
            let v = p.with_page(pid, |pg| pg[0]).unwrap();
            assert_eq!(v, i as u8 + 1, "page {pid}");
        }
        let s = p.stats();
        assert!(s.disk_writes >= 3, "dirty evictions happened: {s:?}");
        assert!(s.disk_reads >= 3, "faults happened: {s:?}");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let p = pool(8);
        let a = p.allocate().unwrap();
        p.reset_stats();
        p.with_page(a, |_| ()).unwrap();
        p.with_page(a, |_| ()).unwrap();
        let s = p.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn flush_clears_dirt() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[1] = 9).unwrap();
        p.flush().unwrap();
        let w0 = p.stats().disk_writes;
        p.flush().unwrap();
        assert_eq!(p.stats().disk_writes, w0, "second flush writes nothing");
    }

    #[test]
    fn capacity_one_still_works() {
        let p = pool(1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[0] = 1).unwrap();
        p.with_page_mut(b, |pg| pg[0] = 2).unwrap();
        assert_eq!(p.with_page(a, |pg| pg[0]).unwrap(), 1);
        assert_eq!(p.with_page(b, |pg| pg[0]).unwrap(), 2);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Allocate,
        Write { page: usize, at: usize, byte: u8 },
        Read { page: usize, at: usize },
        Flush,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            2 => Just(Op::Allocate),
            4 => (0..8usize, 0..PAGE_SIZE, any::<u8>())
                .prop_map(|(page, at, byte)| Op::Write { page, at, byte }),
            4 => (0..8usize, 0..PAGE_SIZE).prop_map(|(page, at)| Op::Read { page, at }),
            1 => Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pool behaves like an in-memory mirror of its pages under
        /// arbitrary operation sequences.
        #[test]
        fn pool_matches_in_memory_mirror(
            ops in proptest::collection::vec(op_strategy(), 1..60),
            capacity in 1usize..5,
        ) {
            let dir = tempfile::tempdir().unwrap();
            let file = PageFile::create(&dir.path().join("p.db"), Duration::ZERO).unwrap();
            let p = BufferPool::new(file, capacity);
            let mut mirror: Vec<[u8; PAGE_SIZE]> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Allocate => {
                        let pid = p.allocate().unwrap();
                        prop_assert_eq!(pid as usize, mirror.len());
                        mirror.push([0u8; PAGE_SIZE]);
                    }
                    Op::Write { page, at, byte } => {
                        if page < mirror.len() {
                            p.with_page_mut(page as u64, |pg| pg[at] = byte).unwrap();
                            mirror[page][at] = byte;
                        } else {
                            prop_assert!(p.with_page_mut(page as u64, |_| ()).is_err());
                        }
                    }
                    Op::Read { page, at } => {
                        if page < mirror.len() {
                            let v = p.with_page(page as u64, |pg| pg[at]).unwrap();
                            prop_assert_eq!(v, mirror[page][at]);
                        } else {
                            prop_assert!(p.with_page(page as u64, |_| ()).is_err());
                        }
                    }
                    Op::Flush => p.flush().unwrap(),
                }
            }
            for (pid, expect) in mirror.iter().enumerate() {
                let ok = p.with_page(pid as u64, |pg| pg == expect).unwrap();
                prop_assert!(ok, "page {} diverged", pid);
            }
        }
    }
}
