//! Memory-mapped WAL appends.
//!
//! Appending through an `mmap`'d region writes straight into the kernel
//! page cache — no syscall per record — with exactly the durability of
//! a `write()` + flush: once the memcpy lands, the kernel owns the
//! dirty page and a process crash cannot lose it (power loss can, which
//! is what `Durability::Fsync` adds via `fdatasync`, flushing mapped
//! dirty pages like any others). This is the WAL's only append path.
//!
//! The mapped file is padded with zeros up to the mapped capacity; a
//! clean shutdown truncates the padding away, and after a crash the
//! recovery scan treats a trailing NUL run like any other torn tail.
//!
//! Every `unsafe` block below carries a `// SAFETY:` comment (enforced
//! workspace-wide by `udbms-lint` rule L2); the exclusive-access
//! obligations they cite are discharged by the WAL file mutex in
//! `group.rs` (`parking_lot::LockRank::WalFile`).

use std::fs::File;
use std::os::unix::io::AsRawFd;
use std::path::Path;

use udbms_core::Result;

mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_SHARED: c_int = 0x01;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// Capacity granularity: the file is extended (and remapped) in these
/// steps, so growth costs one `ftruncate` + `mmap` per 256 KiB of log.
const CHUNK: usize = 256 * 1024;

/// An append-only memory-mapped view of the WAL file.
///
/// Single-owner by construction (it lives behind the engine's WAL
/// mutex); the raw pointer never escapes this module.
#[derive(Debug)]
pub struct MmapAppender {
    file: File,
    ptr: *mut u8,
    /// Mapped bytes == file length (includes zero padding).
    cap: usize,
    /// Logical end of the log: bytes actually appended.
    len: usize,
}

// SAFETY: the mapping is private to this value and all access goes
// through &mut self; moving it across threads moves sole ownership.
unsafe impl Send for MmapAppender {}

impl MmapAppender {
    /// Open `path` for mapped appending; existing content (`data_len`
    /// bytes, as determined by recovery) is preserved and appends
    /// continue after it. The mapping is created lazily on the first
    /// append, so a log that is merely held open (or was just
    /// compacted) keeps its exact on-disk length.
    pub fn open(path: &Path, data_len: u64) -> Result<MmapAppender> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(MmapAppender {
            file,
            ptr: std::ptr::null_mut(),
            cap: 0,
            len: data_len as usize,
        })
    }

    fn remap(&mut self, new_cap: usize) -> Result<()> {
        self.unmap();
        // extend with explicit zero writes, not ftruncate: a sparse
        // extension defers block allocation to the memcpy's page fault,
        // where a full disk arrives as SIGBUS and kills the process —
        // a real write surfaces ENOSPC here as a clean error instead
        // (COW filesystems can still overcommit; this covers the
        // common block-allocating ones)
        let current = self.file.metadata()?.len();
        if (new_cap as u64) > current {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = &self.file;
            f.seek(SeekFrom::End(0))?;
            let zeros = [0u8; 8192];
            let mut remaining = new_cap as u64 - current;
            while remaining > 0 {
                let n = remaining.min(zeros.len() as u64) as usize;
                f.write_all(&zeros[..n])?;
                remaining -= n as u64;
            }
            f.flush()?;
        } else if (new_cap as u64) < current {
            self.file.set_len(new_cap as u64)?;
        }
        // SAFETY: fd is valid and the file is at least new_cap long;
        // MAP_SHARED + PROT_READ|WRITE over our own regular file.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                new_cap,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                self.file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return Err(std::io::Error::last_os_error().into());
        }
        self.ptr = ptr.cast();
        self.cap = new_cap;
        Ok(())
    }

    fn unmap(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: (ptr, cap) is exactly what mmap returned.
            unsafe { sys::munmap(self.ptr.cast(), self.cap) };
            self.ptr = std::ptr::null_mut();
            self.cap = 0;
        }
    }

    /// Append bytes: one memcpy into the page cache, no syscall (until
    /// the capacity chunk is exhausted and the map grows).
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let need = self.len + bytes.len();
        if self.ptr.is_null() || need > self.cap {
            self.remap(need.div_ceil(CHUNK).max(1).next_power_of_two() * CHUNK)?;
        }
        // SAFETY: len + bytes.len() <= cap, the mapping is writable,
        // and we hold the only reference.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr.add(self.len), bytes.len());
        }
        self.len += bytes.len();
        Ok(())
    }

    /// Logical log length (excludes zero padding).
    #[cfg(test)]
    pub fn data_len(&self) -> u64 {
        self.len as u64
    }

    /// Whether appending `add` more bytes would trigger a capacity
    /// remap. The fault layer treats growth as its own site
    /// (`mapped.remap`): the zero-extension inside [`remap`] is where a
    /// full disk actually bites.
    pub fn would_grow(&self, add: usize) -> bool {
        self.ptr.is_null() || self.len + add > self.cap
    }

    /// `fdatasync` the file — mapped dirty pages flush like any others.
    pub fn sync_data(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Trim the zero padding (used before a clean handoff/rewrite so
    /// on-disk bytes equal the logical log).
    pub fn trim(&mut self) -> Result<()> {
        let len = self.len as u64;
        self.unmap();
        self.file.set_len(len)?;
        Ok(())
    }
}

impl Drop for MmapAppender {
    fn drop(&mut self) {
        let _ = self.trim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("udbms-mmap-test-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn appends_are_visible_to_file_reads_before_any_sync() {
        let path = temp("visible");
        let mut m = MmapAppender::open(&path, 0).unwrap();
        m.append(b"hello\n").unwrap();
        m.append(b"world\n").unwrap();
        // page cache coherence: fs::read sees the memcpy'd bytes (file
        // is padded to CHUNK while the appender is live)
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..12], b"hello\nworld\n");
        assert!(bytes[12..].iter().all(|b| *b == 0), "zero padding");
        assert_eq!(m.data_len(), 12);
        drop(m); // clean drop trims the padding
        assert_eq!(std::fs::read(&path).unwrap(), b"hello\nworld\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn growth_beyond_one_chunk_preserves_content() {
        let path = temp("grow");
        let mut m = MmapAppender::open(&path, 0).unwrap();
        let line = vec![b'x'; 4096];
        for _ in 0..((CHUNK / 4096) + 3) {
            m.append(&line).unwrap();
        }
        let total = ((CHUNK / 4096) + 3) * 4096;
        assert_eq!(m.data_len(), total as u64);
        m.sync_data().unwrap();
        drop(m);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), total);
        assert!(bytes.iter().all(|b| *b == b'x'));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_continues_after_existing_data() {
        let path = temp("reopen");
        {
            let mut m = MmapAppender::open(&path, 0).unwrap();
            m.append(b"one\n").unwrap();
        }
        let existing = std::fs::metadata(&path).unwrap().len();
        let mut m = MmapAppender::open(&path, existing).unwrap();
        m.append(b"two\n").unwrap();
        drop(m);
        assert_eq!(std::fs::read(&path).unwrap(), b"one\ntwo\n");
        std::fs::remove_file(&path).unwrap();
    }
}
