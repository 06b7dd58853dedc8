//! A page-granular file store.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

use graphmine_storage::{StorageError, PAGE_SIZE};

/// Identifier of a page within a [`PageFile`].
pub(crate) type PageId = u64;

/// A file divided into fixed-size pages, the unit of I/O for the buffer
/// pool. All reads and writes are whole pages.
#[derive(Debug)]
pub(crate) struct PageFile {
    file: File,
    pages: u64,
    io_latency: Duration,
}

impl PageFile {
    /// Creates (truncating) a page file at `path` whose every page read
    /// and write is charged a simulated `io_latency`.
    ///
    /// Modern page caches make file I/O effectively free at benchmark
    /// scale; experiments that model the paper's 2006 disk/CPU ratio (a
    /// spinning 73 GB disk against a P4) set a latency to restore the cost
    /// of a genuine disk access. Zero disables the simulation.
    ///
    /// # Errors
    ///
    /// Any file-system error opening the file.
    pub(crate) fn create(path: &Path, io_latency: Duration) -> Result<Self, StorageError> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(PageFile { file, pages: 0, io_latency })
    }

    /// Number of allocated pages.
    pub(crate) fn page_count(&self) -> u64 {
        self.pages
    }

    #[inline]
    fn charge_io(&self) {
        if !self.io_latency.is_zero() {
            // Spin rather than sleep: OS sleep granularity (~50 µs+) would
            // distort sub-100 µs latencies, and a blocked I/O thread does
            // not yield useful work either way.
            let start = std::time::Instant::now();
            while start.elapsed() < self.io_latency {
                std::hint::spin_loop();
            }
        }
    }

    /// Allocates a fresh zeroed page at the end of the file.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub(crate) fn allocate(&mut self) -> Result<PageId, StorageError> {
        let pid = self.pages;
        self.file.seek(SeekFrom::Start(pid * PAGE_SIZE as u64))?;
        self.file.write_all(&[0u8; PAGE_SIZE])?;
        self.pages += 1;
        Ok(pid)
    }

    /// Reads page `pid` into `buf`.
    ///
    /// # Errors
    ///
    /// Out-of-range page ids and read failures.
    pub(crate) fn read_page(
        &mut self,
        pid: PageId,
        buf: &mut [u8; PAGE_SIZE],
    ) -> Result<(), StorageError> {
        if pid >= self.pages {
            return Err(StorageError::PageOutOfRange { page: pid, len: self.pages });
        }
        self.charge_io();
        self.file.seek(SeekFrom::Start(pid * PAGE_SIZE as u64))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    /// Writes `buf` to page `pid`.
    ///
    /// # Errors
    ///
    /// Out-of-range page ids and write failures.
    pub(crate) fn write_page(
        &mut self,
        pid: PageId,
        buf: &[u8; PAGE_SIZE],
    ) -> Result<(), StorageError> {
        if pid >= self.pages {
            return Err(StorageError::PageOutOfRange { page: pid, len: self.pages });
        }
        self.charge_io();
        self.file.seek(SeekFrom::Start(pid * PAGE_SIZE as u64))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    /// Flushes buffered writes and forces them to stable storage
    /// (`fdatasync`), so a pool flush pays what a disk-resident store's
    /// would.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failures.
    pub(crate) fn sync(&mut self) -> Result<(), StorageError> {
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let mut f = PageFile::create(&dir.path().join("p.db"), Duration::ZERO).unwrap();
        let p0 = f.allocate().unwrap();
        let p1 = f.allocate().unwrap();
        assert_eq!((p0, p1), (0, 1));
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        f.write_page(p1, &buf).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        f.read_page(p1, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);
        // Fresh pages read back zeroed.
        f.read_page(p0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_is_an_error() {
        let dir = tempfile::tempdir().unwrap();
        let mut f = PageFile::create(&dir.path().join("p.db"), Duration::ZERO).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(f.read_page(0, &mut buf), Err(StorageError::PageOutOfRange { .. })));
        assert!(matches!(f.write_page(3, &buf), Err(StorageError::PageOutOfRange { .. })));
    }
}
