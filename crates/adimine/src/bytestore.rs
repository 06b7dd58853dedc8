//! An append-only record store over pages.
//!
//! Records are opaque byte strings packed contiguously into the page
//! stream; `append` returns the `(offset, len)` handle needed to `read` the
//! record back. The ADI index stores its edge posting lists this way, and
//! [`crate::graphstore::GraphStore`] its serialized graphs, behind a header
//! page. A store lives for one process: it is created, written and read,
//! never reopened.

use std::path::Path;
use std::time::Duration;

use graphmine_storage::{StorageError, PAGE_SIZE};

use crate::file::PageFile;
use crate::pool::{BufferPool, PoolStats};

/// Handle to a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordId {
    /// Byte offset of the record in the stream.
    pub(crate) offset: u64,
    /// Record length in bytes.
    pub(crate) len: u32,
}

/// An append-only byte-record store backed by a buffer pool.
pub(crate) struct ByteStore {
    pool: BufferPool,
    cursor: u64,
}

impl ByteStore {
    /// Creates an empty store at `path` with a pool of `pool_pages` pages
    /// and a simulated per-page I/O latency. Records start after the first
    /// `header` bytes, which [`ByteStore::write_header`] fills.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub(crate) fn create(
        path: &Path,
        pool_pages: usize,
        io_latency: Duration,
        header: usize,
    ) -> Result<Self, StorageError> {
        let file = PageFile::create(path, io_latency)?;
        Ok(ByteStore { pool: BufferPool::new(file, pool_pages), cursor: header as u64 })
    }

    /// Appends a record, returning its handle.
    ///
    /// # Errors
    ///
    /// Propagates allocation and write failures.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> Result<RecordId, StorageError> {
        let id = RecordId { offset: self.cursor, len: bytes.len() as u32 };
        write_stream(&self.pool, self.cursor, bytes)?;
        self.cursor += bytes.len() as u64;
        Ok(id)
    }

    /// Reads a record back.
    ///
    /// # Errors
    ///
    /// Out-of-range handles and read failures.
    pub(crate) fn read(&self, id: RecordId) -> Result<Vec<u8>, StorageError> {
        if id.offset + u64::from(id.len) > self.cursor {
            return Err(StorageError::Corrupt(format!(
                "record at {}+{} beyond stream end {}",
                id.offset, id.len, self.cursor
            )));
        }
        let mut buf = vec![0u8; id.len as usize];
        read_stream(&self.pool, id.offset, &mut buf)?;
        Ok(buf)
    }

    /// Writes `bytes` at offset 0, into the header space
    /// [`ByteStore::create`] kept before the records.
    ///
    /// # Errors
    ///
    /// Propagates allocation and write failures.
    pub(crate) fn write_header(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        write_stream(&self.pool, 0, bytes)
    }

    /// Writes all dirty pages back and syncs them to stable storage (the
    /// pool flush ends in [`PageFile::sync`], a real `fdatasync`).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub(crate) fn flush(&self) -> Result<(), StorageError> {
        self.pool.flush()
    }

    /// I/O counters of the pool.
    pub(crate) fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resets the I/O counters.
    pub(crate) fn reset_stats(&self) {
        self.pool.reset_stats()
    }
}

/// Writes `bytes` at stream offset `off`, allocating pages as needed.
fn write_stream(pool: &BufferPool, off: u64, bytes: &[u8]) -> Result<(), StorageError> {
    let end = off + bytes.len() as u64;
    let pages_needed = end.div_ceil(PAGE_SIZE as u64);
    while pool.page_count() < pages_needed {
        pool.allocate()?;
    }
    let mut written = 0usize;
    let mut cur = off;
    while written < bytes.len() {
        let pid = cur / PAGE_SIZE as u64;
        let in_page = (cur % PAGE_SIZE as u64) as usize;
        let n = (PAGE_SIZE - in_page).min(bytes.len() - written);
        pool.with_page_mut(pid, |pg| {
            pg[in_page..in_page + n].copy_from_slice(&bytes[written..written + n]);
        })?;
        written += n;
        cur += n as u64;
    }
    Ok(())
}

/// Reads `buf.len()` bytes at stream offset `off`.
fn read_stream(pool: &BufferPool, off: u64, buf: &mut [u8]) -> Result<(), StorageError> {
    let mut read = 0usize;
    let mut cur = off;
    while read < buf.len() {
        let pid = cur / PAGE_SIZE as u64;
        let in_page = (cur % PAGE_SIZE as u64) as usize;
        let n = (PAGE_SIZE - in_page).min(buf.len() - read);
        pool.with_page(pid, |pg| {
            buf[read..read + n].copy_from_slice(&pg[in_page..in_page + n]);
        })?;
        read += n;
        cur += n as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store() -> ByteStore {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("b.db");
        std::mem::forget(dir);
        ByteStore::create(&path, 4, Duration::ZERO, 0).unwrap()
    }

    #[test]
    fn append_read_round_trip() {
        let mut s = store();
        let a = s.append(b"hello").unwrap();
        let b = s.append(&[0u8; 10_000]).unwrap(); // spans pages
        let c = s.append(b"world").unwrap();
        assert_eq!(s.read(a).unwrap(), b"hello");
        assert_eq!(s.read(b).unwrap(), vec![0u8; 10_000]);
        assert_eq!(s.read(c).unwrap(), b"world");
        assert_eq!((a.offset, b.offset, c.offset), (0, 5, 5 + 10_000));
    }

    #[test]
    fn out_of_range_read_errors() {
        let mut s = store();
        s.append(b"x").unwrap();
        let bad = RecordId { offset: 0, len: 99 };
        assert!(matches!(s.read(bad), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn empty_record() {
        let mut s = store();
        let id = s.append(b"").unwrap();
        assert_eq!(s.read(id).unwrap(), Vec::<u8>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bytestore_round_trips_random_records(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..2000),
                1..20,
            ),
            capacity in 1usize..4,
        ) {
            let dir = tempfile::tempdir().unwrap();
            let mut s =
                ByteStore::create(&dir.path().join("b.db"), capacity, Duration::ZERO, 0).unwrap();
            let ids: Vec<_> = records.iter().map(|r| s.append(r).unwrap()).collect();
            for (id, expect) in ids.iter().zip(records.iter()) {
                prop_assert_eq!(&s.read(*id).unwrap(), expect);
            }
        }
    }
}
