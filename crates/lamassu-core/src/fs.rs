//! The [`FileSystem`] trait: the interface applications see above the shim.
//!
//! In the paper's prototype this surface is exported through FUSE and the
//! Linux VFS; applications use ordinary file I/O. In this reproduction the
//! same operations are exposed as an in-process trait so that the benchmark
//! harness, the examples and the CLI can drive any of the shims (PlainFS,
//! EncFS, CeFileFS, LamassuFS) identically.
//!
//! # Fd-centric, zero-copy I/O
//!
//! The shim sits on the data path of *every* block I/O, so per-operation
//! overhead is the product metric. The trait is therefore organised around
//! two allocation-free primitives:
//!
//! * [`FileSystem::read_into`] fills a caller-owned buffer, so steady-state
//!   readers reuse one buffer across calls instead of receiving a fresh
//!   `Vec` per operation;
//! * [`FileSystem::write_vectored`] accepts a scatter list
//!   ([`std::io::IoSlice`]), so callers can submit header + payload (or
//!   several fragments) in one call without concatenating them first.
//!
//! The familiar [`FileSystem::read`] / [`FileSystem::write`] remain as
//! default-implemented conveniences on top of the primitives, so existing
//! call sites keep working and can migrate incrementally.
//!
//! Internally, every shim resolves a descriptor to an `Arc` of its per-file
//! state **once at `open`/`create` time**; per-operation work is a single
//! descriptor-table lookup with no path strings cloned and no re-resolution.

use crate::{FsError, Result};
use std::io::IoSlice;

/// A file descriptor handed out by [`FileSystem::open`] / [`FileSystem::create`].
pub type Fd = u64;

/// Flags controlling how a file is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Truncate the file to zero length on open.
    pub truncate: bool,
}

/// Attributes of a stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAttr {
    /// Logical size in bytes: what the application sees, excluding any
    /// padding and embedded cryptographic metadata.
    pub logical_size: u64,
    /// Physical size in bytes as stored on the backing store, including
    /// block padding and (for LamassuFS) embedded metadata blocks.
    pub physical_size: u64,
}

/// Rejects an I/O range whose end `offset + len` is not representable: every
/// shim validates here, once, before any arithmetic on the range.
pub(crate) fn check_range(offset: u64, len: usize) -> Result<()> {
    let what = "I/O range ending past u64::MAX";
    let end = offset.checked_add(len as u64);
    end.map(drop).ok_or(FsError::Unsupported { what })
}

/// A mounted shim file system.
///
/// # Thread-safety contract
///
/// All methods are `&self` and every implementation in this workspace is
/// internally synchronized, so a multi-threaded workload generator can
/// drive one mount — and even one file — from many threads at once.
/// The shims guarantee, per open file:
///
/// * **Reads run under shared locks.** [`FileSystem::read_into`] (and the
///   [`FileSystem::read`] convenience), [`FileSystem::len`] and
///   [`FileSystem::stat`] take only a *read* guard of the per-file state:
///   any number of threads read one file concurrently, including the full
///   span pipeline (plan → vectored backend read → parallel batch decrypt →
///   integrity check).
/// * **Mutations are exclusive per file.** [`FileSystem::write_vectored`],
///   [`FileSystem::truncate`] and [`FileSystem::fsync`] take the *write*
///   guard, so a reader never observes a half-applied write, a mid-commit
///   metadata state, or a torn buffered block. Writers on *different* files
///   never contend with each other.
/// * **Descriptor and path bookkeeping is lock-ordered.** Descriptor
///   resolution is one sharded-map lookup; path-level lifecycle (`open`,
///   `close`, `rename`, `remove`) serializes on the per-mount path registry
///   so an `open` racing a last `close` still lands on one shared state.
///
/// A read that races a write on the same file returns either the old or the
/// new contents for each block, never a mixture within one block; the
/// ordering between the two operations is otherwise unspecified.
pub trait FileSystem: Send + Sync {
    /// Creates a new empty file and opens it.
    fn create(&self, path: &str) -> Result<Fd>;

    /// Opens an existing file.
    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd>;

    /// Closes a descriptor, flushing any buffered writes for it.
    fn close(&self, fd: Fd) -> Result<()>;

    /// Reads up to `buf.len()` bytes at `offset` into the caller's buffer,
    /// returning the number of bytes read. Reads past end-of-file are
    /// truncated (a short or zero count is returned, not an error).
    ///
    /// This is the primitive read operation: implementations fill `buf`
    /// without allocating, so a caller reusing one buffer pays no per-call
    /// allocation.
    fn read_into(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Writes the concatenation of `bufs` at `offset`, extending the file if
    /// needed. Returns the total number of bytes written (always the sum of
    /// the slice lengths on success).
    ///
    /// This is the primitive write operation: the scatter list lets callers
    /// submit multiple fragments in one call without building a contiguous
    /// copy first.
    ///
    /// `Ok` acknowledges the bytes — every later read on this mount returns
    /// them — but a shim may buffer them (LamassuFS: up to 1 MiB per file):
    /// they are durable only once [`FileSystem::fsync`] or
    /// [`FileSystem::close`] has returned `Ok`, and a buffering shim reports
    /// a failed write-out on whichever later call performs it.
    fn write_vectored(&self, fd: Fd, offset: u64, bufs: &[IoSlice<'_>]) -> Result<usize>;

    /// Reads up to `len` bytes at `offset` into a fresh vector. Reads past
    /// end-of-file are truncated (a short or empty vector is returned, not an
    /// error).
    ///
    /// Convenience wrapper over [`FileSystem::read_into`]; it allocates one
    /// vector per call, so hot loops should prefer the primitive. The
    /// allocation is clamped to the remaining file size, so "read the whole
    /// file" calls with a generous `len` stay cheap.
    fn read(&self, fd: Fd, offset: u64, len: usize) -> Result<Vec<u8>> {
        let remaining = self.len(fd)?.saturating_sub(offset);
        let len = len.min(usize::try_from(remaining).unwrap_or(usize::MAX));
        let mut buf = vec![0u8; len];
        let n = self.read_into(fd, offset, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Writes `data` at `offset`, extending the file if needed. Returns the
    /// number of bytes written (always `data.len()` on success).
    ///
    /// Convenience wrapper over [`FileSystem::write_vectored`] with a single
    /// slice.
    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> Result<usize> {
        self.write_vectored(fd, offset, &[IoSlice::new(data)])
    }

    /// Truncates (or extends with zeros) the file to `size` bytes.
    fn truncate(&self, fd: Fd, size: u64) -> Result<()>;

    /// Flushes buffered writes and commits them durably to the backing store.
    fn fsync(&self, fd: Fd) -> Result<()>;

    /// Logical size of the open file.
    fn len(&self, fd: Fd) -> Result<u64>;

    /// Attributes of a file by path.
    fn stat(&self, path: &str) -> Result<FileAttr>;

    /// Removes a file by path. Open descriptors to it become invalid.
    fn remove(&self, path: &str) -> Result<()>;

    /// Renames a file, replacing any existing file at `to`.
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Lists all file paths in the mount (unordered).
    fn list(&self) -> Result<Vec<String>>;

    /// Human-readable name of the shim (used in benchmark reports).
    fn kind(&self) -> &'static str;
}
