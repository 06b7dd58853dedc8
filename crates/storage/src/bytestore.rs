//! An append-only record store over pages.
//!
//! Records are opaque byte strings packed contiguously into the page
//! stream; `append` returns the `(offset, len)` handle needed to `read` the
//! record back. The ADI index stores its edge posting lists this way, and
//! [`crate::GraphStore`] lays out serialized graphs with the same stream
//! helpers. A store lives for one process: it is created, written and read,
//! never reopened — the update journal, the one durable log, is a plain
//! file of its own ([`crate::UpdateJournal`]).

use std::path::Path;
use std::time::Duration;

use crate::{BufferPool, PageFile, PoolStats, StorageError, PAGE_SIZE};

/// Handle to a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordId {
    /// Byte offset of the record in the stream.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u32,
}

/// An append-only byte-record store backed by a buffer pool.
pub struct ByteStore {
    pool: BufferPool,
    cursor: u64,
}

impl ByteStore {
    /// Creates an empty store at `path` with a pool of `pool_pages` pages
    /// and a simulated per-page I/O latency.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create(
        path: &Path,
        pool_pages: usize,
        io_latency: Duration,
    ) -> Result<Self, StorageError> {
        let mut file = PageFile::create(path)?;
        file.set_io_latency(io_latency);
        Ok(ByteStore { pool: BufferPool::new(file, pool_pages), cursor: 0 })
    }

    /// Appends a record, returning its handle.
    ///
    /// # Errors
    ///
    /// Propagates allocation and write failures.
    pub fn append(&mut self, bytes: &[u8]) -> Result<RecordId, StorageError> {
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
    pub fn read(&self, id: RecordId) -> Result<Vec<u8>, StorageError> {
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

    /// Total bytes appended.
    pub fn len_bytes(&self) -> u64 {
        self.cursor
    }

    /// Writes all dirty pages back and syncs them to stable storage (the
    /// pool flush ends in [`PageFile::sync`], a real `fdatasync`).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn flush(&self) -> Result<(), StorageError> {
        self.pool.flush()
    }

    /// I/O counters of the pool.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

/// Writes `bytes` at stream offset `off`, allocating pages as needed.
pub(crate) fn write_stream(pool: &BufferPool, off: u64, bytes: &[u8]) -> Result<(), StorageError> {
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
pub(crate) fn read_stream(pool: &BufferPool, off: u64, buf: &mut [u8]) -> Result<(), StorageError> {
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

    fn store() -> ByteStore {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("b.db");
        std::mem::forget(dir);
        ByteStore::create(&path, 4, Duration::ZERO).unwrap()
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
        assert_eq!(s.len_bytes(), 5 + 10_000 + 5);
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
}
