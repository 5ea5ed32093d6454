//! A minimal `MAP_SHARED` file mapping for the append hot path.
//!
//! Appending through a shared mapping is a bounds-checked `memcpy` into
//! the page cache — no `write(2)` per record, which is the difference
//! between a WAL append costing ~3 µs and ~0.3 µs. Durability semantics
//! are unchanged: `MAP_SHARED` dirty pages belong to the file's page
//! cache, so they survive a process crash exactly like `write(2)` data
//! and are flushed by the same `fdatasync(fd)` the sync paths already
//! issue (no `msync` needed).
//!
//! The container toolchain has no `libc` crate, so the three syscall
//! wrappers are declared directly; the constants are the POSIX values
//! shared by Linux and the BSDs. Non-unix builds fall back to the
//! `write(2)` path in `wal.rs`.

#![cfg(unix)]

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_SHARED: c_int = 0x1;

/// A writable shared mapping of the leading `len` bytes of a file.
///
/// Invariant (upheld by `Wal`): the file is at least `len` bytes long for
/// the mapping's lifetime — writes beyond EOF through a mapping are
/// fatal — and every byte past the real data was zero-filled by
/// `write(2)` before the mapping was made, so no store through the
/// mapping ever allocates disk blocks (a full disk fails the `write`, not
/// a later store with SIGBUS). `Wal` pre-sizes one step (1 MiB, capped at
/// the rotation threshold) past the write position, grows by unmapping,
/// zero-filling the next step and remapping, and unmaps before it
/// truncates the padding away on seal or drop.
pub(crate) struct Region {
    ptr: *mut u8,
    len: usize,
}

// The region is an exclusively-owned raw buffer; `Wal` is used behind a
// lock like any other writer.
unsafe impl Send for Region {}

impl Region {
    pub(crate) fn map(file: &File, len: usize) -> io::Result<Region> {
        debug_assert!(len > 0);
        // Safety: len > 0, fd is valid for the borrow, and we hand the
        // resulting pointer only to bounds-checked writes below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Region {
            ptr: ptr as *mut u8,
            len,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Touches one byte per page from `from` (which must be inside the
    /// zero padding; `Wal` passes the start of the padding this mapping
    /// added) to the end of the region, installing writable PTEs
    /// up front so appends never pay the first-touch minor fault +
    /// `page_mkwrite` on their critical path. Writing a zero over the
    /// padding's zero is a no-op data-wise.
    pub(crate) fn prefault_padding(&mut self, from: usize) {
        const PAGE: usize = 4096;
        let mut off = from;
        while off < self.len {
            // Safety: off < len; the byte is pre-sizing padding (zero).
            unsafe { self.ptr.add(off).write_volatile(0) };
            off = (off / PAGE + 1) * PAGE;
        }
    }

    /// A writable view of `len` bytes at `offset`, for encoding a record
    /// payload directly into the segment (zero-copy append). Panics on
    /// out-of-bounds rather than corrupting memory.
    pub(crate) fn slice_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "mmap write out of bounds: {offset}+{len} > {}",
            self.len
        );
        // Safety: bounds just checked; the region is exclusively ours
        // (&mut self) and mapped for the lifetime of the borrow.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), len) }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // Safety: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            munmap(self.ptr as *mut c_void, self.len);
        }
    }
}
