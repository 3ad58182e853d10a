//! PlainFS: the unencrypted pass-through baseline.
//!
//! The paper's *PlainFS* is "a simple pass-through front end for the relevant
//! Linux system calls associated with FUSE operations" (§4 setup). It exists
//! so that the encrypted systems can be compared against a baseline that
//! still pays the shim overhead but does no cryptography, and so that the
//! storage-efficiency experiments have an upper bound: plaintext blocks
//! deduplicate perfectly.
//!
//! Being the thinnest shim, PlainFS is where the fd-centric API pays off most
//! visibly: `read_into`/`write_vectored` forward straight from the descriptor
//! entry to the store with no allocation and no path materialization.
//!
//! PlainFS keeps **no per-file state at all**, so it is trivially the most
//! concurrent shim: reads and writes alike go straight to the (internally
//! sharded) store with nothing but the descriptor table's read lock taken.

use crate::fs::{check_range, FileAttr, FileSystem, OpenFlags};
use crate::handles::HandleTable;
use crate::iovec;
use crate::profiler::Profiler;
use crate::spanio::SpanIo;
use crate::{Fd, FsError, Result};
use lamassu_storage::ObjectStore;
use lamassu_telemetry::OpKind;
use std::io::{IoSlice, IoSliceMut};
use std::sync::Arc;

/// The unencrypted pass-through shim.
pub struct PlainFs {
    io: SpanIo,
    handles: HandleTable<()>,
    profiler: Arc<Profiler>,
}

impl PlainFs {
    /// Mounts a PlainFS over `store`. Data reads and writes go through the
    /// store's submission queue, one operation per call, so PlainFS stays
    /// the flat single-round-trip baseline at every queue depth.
    pub fn new(store: Arc<dyn ObjectStore>) -> Self {
        Self::with_profiler(store, Profiler::new())
    }

    /// [`PlainFs::new`] charging its time to `profiler` — the one the tiers
    /// below the shim were built with (see `lamassu::stack`).
    pub fn with_profiler(store: Arc<dyn ObjectStore>, profiler: Arc<Profiler>) -> Self {
        PlainFs {
            io: SpanIo::new(store, profiler.clone()),
            handles: HandleTable::new(),
            profiler,
        }
    }

    /// The latency profiler for this mount.
    pub fn profiler(&self) -> Arc<Profiler> {
        self.profiler.clone()
    }
}

impl FileSystem for PlainFs {
    fn create(&self, path: &str) -> Result<Fd> {
        self.io.create(path)?;
        Ok(self.handles.open(path, ()))
    }

    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        if !self.io.exists(path) {
            return Err(FsError::NotFound {
                path: path.to_string(),
            });
        }
        if flags.truncate {
            self.io.truncate(path, 0)?;
        }
        Ok(self.handles.open(path, ()))
    }

    fn close(&self, fd: Fd) -> Result<()> {
        self.handles.close(fd).map(|_| ())
    }

    fn read_into(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let entry = self.handles.get(fd)?;
        check_range(offset, buf.len())?;
        let _span = self.io.op_span(OpKind::Read, &entry, buf.len());
        let path = entry.path();
        self.io.read_one(&path, offset, &mut [IoSliceMut::new(buf)])
    }

    fn write_vectored(&self, fd: Fd, offset: u64, bufs: &[IoSlice<'_>]) -> Result<usize> {
        let entry = self.handles.get(fd)?;
        let total = iovec::total_len(bufs);
        check_range(offset, total)?;
        let _span = self.io.op_span(OpKind::Write, &entry, total);
        let path = entry.path();
        self.io.write_one(&path, offset, bufs)?;
        Ok(total)
    }

    fn truncate(&self, fd: Fd, size: u64) -> Result<()> {
        let entry = self.handles.get(fd)?;
        let _span = self.io.op_span(OpKind::Truncate, &entry, 0);
        let path = entry.path();
        self.io.truncate(&path, size)
    }

    fn fsync(&self, fd: Fd) -> Result<()> {
        let entry = self.handles.get(fd)?;
        let _span = self.io.op_span(OpKind::Fsync, &entry, 0);
        let path = entry.path();
        self.io.flush(&path)
    }

    fn len(&self, fd: Fd) -> Result<u64> {
        let entry = self.handles.get(fd)?;
        let path = entry.path();
        self.io.len(&path)
    }

    fn stat(&self, path: &str) -> Result<FileAttr> {
        if !self.io.exists(path) {
            return Err(FsError::NotFound {
                path: path.to_string(),
            });
        }
        let size = self.io.len(path)?;
        Ok(FileAttr {
            logical_size: size,
            physical_size: size,
        })
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.io.remove(path)?;
        self.handles.invalidate(path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.io.rename(from, to)?;
        self.handles.retarget(from, to);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.io.list())
    }

    fn kind(&self) -> &'static str {
        "PlainFS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamassu_storage::{DedupStore, StorageProfile};

    fn mount() -> PlainFs {
        PlainFs::new(Arc::new(DedupStore::new(4096, StorageProfile::instant())))
    }

    #[test]
    fn create_write_read_round_trip() {
        let fs = mount();
        let fd = fs.create("/x").unwrap();
        fs.write(fd, 0, b"hello world").unwrap();
        assert_eq!(fs.read(fd, 0, 11).unwrap(), b"hello world");
        assert_eq!(fs.read(fd, 6, 100).unwrap(), b"world");
        assert_eq!(fs.len(fd).unwrap(), 11);
        fs.close(fd).unwrap();
    }

    #[test]
    fn read_into_reuses_caller_buffer() {
        let fs = mount();
        let fd = fs.create("/x").unwrap();
        fs.write(fd, 0, b"abcdef").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(fs.read_into(fd, 1, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"bcde");
        // Short read at end of file.
        assert_eq!(fs.read_into(fd, 4, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ef");
    }

    #[test]
    fn write_vectored_concatenates_slices() {
        let fs = mount();
        let fd = fs.create("/x").unwrap();
        let n = fs
            .write_vectored(fd, 0, &[IoSlice::new(b"head-"), IoSlice::new(b"tail")])
            .unwrap();
        assert_eq!(n, 9);
        assert_eq!(fs.read(fd, 0, 9).unwrap(), b"head-tail");
    }

    #[test]
    fn read_past_eof_is_empty() {
        let fs = mount();
        let fd = fs.create("/x").unwrap();
        fs.write(fd, 0, b"abc").unwrap();
        assert!(fs.read(fd, 10, 5).unwrap().is_empty());
    }

    #[test]
    fn read_with_generous_len_is_clamped() {
        // "Read the whole file" with a huge upper bound must allocate only
        // the file's size, not `len` bytes.
        let fs = mount();
        let fd = fs.create("/x").unwrap();
        fs.write(fd, 0, b"small").unwrap();
        let back = fs.read(fd, 0, usize::MAX / 2).unwrap();
        assert_eq!(back, b"small");
        assert!(back.capacity() < 4096, "allocation was not clamped");
    }

    #[test]
    fn open_missing_fails() {
        let fs = mount();
        assert!(matches!(
            fs.open("/nope", OpenFlags::default()),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn create_existing_fails() {
        let fs = mount();
        fs.create("/x").unwrap();
        assert!(matches!(
            fs.create("/x"),
            Err(FsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn open_truncate_clears_content() {
        let fs = mount();
        let fd = fs.create("/x").unwrap();
        fs.write(fd, 0, b"data").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open("/x", OpenFlags { truncate: true }).unwrap();
        assert_eq!(fs.len(fd).unwrap(), 0);
    }

    #[test]
    fn stat_remove_rename_list() {
        let fs = mount();
        let fd = fs.create("/a").unwrap();
        fs.write(fd, 0, &[0u8; 100]).unwrap();
        let attr = fs.stat("/a").unwrap();
        assert_eq!(attr.logical_size, 100);
        fs.rename("/a", "/b").unwrap();
        assert!(fs.stat("/a").is_err());
        assert_eq!(fs.list().unwrap(), vec!["/b".to_string()]);
        // The old fd follows the rename.
        assert_eq!(fs.len(fd).unwrap(), 100);
        fs.remove("/b").unwrap();
        assert!(matches!(fs.len(fd), Err(FsError::BadFd { .. })));
        assert!(matches!(fs.remove("/b"), Err(FsError::NotFound { .. })));
    }

    #[test]
    fn bad_fd_rejected() {
        let fs = mount();
        assert!(matches!(fs.read(99, 0, 1), Err(FsError::BadFd { fd: 99 })));
        assert!(fs.write(99, 0, b"x").is_err());
        let mut buf = [0u8; 1];
        assert!(fs.read_into(99, 0, &mut buf).is_err());
        assert!(fs.close(99).is_err());
    }

    #[test]
    fn plaintext_deduplicates_perfectly() {
        let store = Arc::new(DedupStore::new(4096, StorageProfile::instant()));
        let fs = PlainFs::new(store.clone());
        let fd = fs.create("/a").unwrap();
        fs.write(fd, 0, &vec![7u8; 4096 * 4]).unwrap();
        let fd2 = fs.create("/b").unwrap();
        fs.write(fd2, 0, &vec![7u8; 4096 * 4]).unwrap();
        let report = store.run_dedup();
        assert_eq!(report.total_blocks, 8);
        assert_eq!(report.unique_blocks, 1);
    }
}
