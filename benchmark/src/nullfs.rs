//! A `FileSystem` that does nothing but copy bytes: replaying a schedule
//! against it measures what the harness itself costs per op
//! (`workloads.harness_ns_per_op`).

use crate::stack::{Fd, FileAttr, FileSystem, FsError, FsResult, OpenFlags};
use std::io::IoSlice;
use std::sync::Mutex;

/// One in-memory file, whatever path it is opened under.
#[derive(Default)]
pub struct NullFs {
    file: Mutex<Vec<u8>>,
}

impl NullFs {
    fn file(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.file
            .lock()
            .expect("no user panics while holding the lock")
    }
}

impl FileSystem for NullFs {
    fn create(&self, _path: &str) -> FsResult<Fd> {
        self.file().clear();
        Ok(0)
    }

    fn open(&self, _path: &str, flags: OpenFlags) -> FsResult<Fd> {
        if flags.truncate {
            self.file().clear();
        }
        Ok(0)
    }

    fn close(&self, _fd: Fd) -> FsResult<()> {
        Ok(())
    }

    fn read_into(&self, _fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let file = self.file();
        let start = (offset as usize).min(file.len());
        let n = buf.len().min(file.len() - start);
        buf[..n].copy_from_slice(&file[start..start + n]);
        Ok(n)
    }

    fn write_vectored(&self, _fd: Fd, offset: u64, bufs: &[IoSlice<'_>]) -> FsResult<usize> {
        let mut file = self.file();
        let mut at = offset as usize;
        for b in bufs {
            if file.len() < at + b.len() {
                file.resize(at + b.len(), 0);
            }
            file[at..at + b.len()].copy_from_slice(b);
            at += b.len();
        }
        Ok(at - offset as usize)
    }

    fn truncate(&self, _fd: Fd, size: u64) -> FsResult<()> {
        self.file().resize(size as usize, 0);
        Ok(())
    }

    fn fsync(&self, _fd: Fd) -> FsResult<()> {
        Ok(())
    }

    fn len(&self, _fd: Fd) -> FsResult<u64> {
        Ok(self.file().len() as u64)
    }

    fn stat(&self, _path: &str) -> FsResult<FileAttr> {
        let len = self.file().len() as u64;
        Ok(FileAttr {
            logical_size: len,
            physical_size: len,
        })
    }

    fn remove(&self, _path: &str) -> FsResult<()> {
        self.file().clear();
        Ok(())
    }

    fn rename(&self, from: &str, _to: &str) -> FsResult<()> {
        Err(FsError::NotFound {
            path: from.to_string(),
        })
    }

    fn list(&self) -> FsResult<Vec<String>> {
        Ok(Vec::new())
    }

    fn kind(&self) -> &'static str {
        "NullFS"
    }
}
