//! [`DirStore`]: an object store backed by a real directory.
//!
//! The paper's prototype "selects a configurable directory, mounted on the
//! native Linux file system, as its backing store" (§3) — typically an NFS
//! mount of the deduplicating filer. [`DirStore`] is that configuration for
//! this reproduction: every object becomes one file inside a chosen
//! directory, so the `lamassu` CLI and the examples can persist encrypted
//! volumes across process runs (and, if the directory happens to live on a
//! deduplicating filesystem or NFS filer, downstream dedup applies for real).
//!
//! Space accounting and post-process deduplication remain the province of
//! [`crate::DedupStore`]; `DirStore` only provides durable object I/O.

use crate::profile::{IoCounters, SimClock, StorageProfile};
use crate::store::ObjectStore;
use crate::submit::{Completion, SubmitQueue, SubmitTicket};
use crate::{iovec, Result, StorageError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A directory-backed object store.
pub struct DirStore {
    root: PathBuf,
    profile: StorageProfile,
    clock: SimClock,
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// A root that cannot be created (wrong permissions, a file in the way,
    /// a read-only or full file system) fails with
    /// [`StorageError::Backend`] — a backend I/O failure, *not* "not found".
    pub fn open(root: impl AsRef<Path>, profile: StorageProfile) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(|e| StorageError::Backend {
            name: root.display().to_string(),
            detail: format!("cannot create backing directory: {e}"),
        })?;
        Ok(DirStore {
            clock: SimClock::for_profile(&profile),
            root,
            profile,
        })
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Maps an object name to a file path, percent-encoding path separators
    /// so the namespace stays flat and cannot escape the root directory.
    fn path_for(&self, name: &str) -> PathBuf {
        let mut encoded = String::with_capacity(name.len());
        for ch in name.chars() {
            match ch {
                '/' => encoded.push_str("%2F"),
                '\\' => encoded.push_str("%5C"),
                '%' => encoded.push_str("%25"),
                c => encoded.push(c),
            }
        }
        self.root.join(encoded)
    }

    /// Reverses [`Self::path_for`]'s encoding for directory listings.
    fn decode_name(file_name: &str) -> String {
        file_name
            .replace("%2F", "/")
            .replace("%5C", "\\")
            .replace("%25", "%")
    }

    fn io_err(name: &str, e: std::io::Error) -> StorageError {
        if e.kind() == std::io::ErrorKind::NotFound {
            StorageError::NotFound {
                name: name.to_string(),
            }
        } else {
            StorageError::Backend {
                name: name.to_string(),
                detail: e.to_string(),
            }
        }
    }

    /// The data movement of a vectored span read, without touching the
    /// virtual clock: the blocking path charges the result serially, the
    /// submit path schedules it onto a queue-depth lane.
    fn vectored_read_uncharged(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> Result<usize> {
        let total = iovec::total_len(bufs);
        let path = self.path_for(name);
        let mut file = File::open(&path).map_err(|e| Self::io_err(name, e))?;
        let size = file.metadata().map_err(|e| Self::io_err(name, e))?.len();
        let n = size.saturating_sub(offset).min(total as u64) as usize;
        if n == 0 {
            return Ok(0);
        }
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| Self::io_err(name, e))?;
        let mut remaining = n;
        for buf in bufs.iter_mut() {
            let take = buf.len().min(remaining);
            file.read_exact(&mut buf[..take])
                .map_err(|e| Self::io_err(name, e))?;
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        Ok(n)
    }

    /// The data movement of a vectored span write, uncharged; returns the
    /// total byte count on success.
    fn vectored_write_uncharged(
        &self,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> Result<usize> {
        let total = iovec::total_len(bufs);
        let path = self.path_for(name);
        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| Self::io_err(name, e))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| Self::io_err(name, e))?;
        // `write_all_vectored` is unstable; loop over slices on the one open
        // descriptor instead (the kernel write combining is identical for a
        // buffered local file).
        for buf in bufs {
            file.write_all(buf).map_err(|e| Self::io_err(name, e))?;
        }
        Ok(total)
    }
}

impl ObjectStore for DirStore {
    fn create(&self, name: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        let path = self.path_for(name);
        if path.exists() {
            return Err(StorageError::AlreadyExists {
                name: name.to_string(),
            });
        }
        File::create(&path).map_err(|e| Self::io_err(name, e))?;
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.path_for(name).exists()
    }

    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> Result<usize> {
        // One span, one charged operation: the whole scatter list is a single
        // request/response on the modelled transport.
        let n = self.vectored_read_uncharged(name, offset, bufs)?;
        self.clock.charge_read(&self.profile, n);
        Ok(n)
    }

    fn write_at_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> Result<()> {
        self.clock
            .charge_write(&self.profile, iovec::total_len(bufs));
        self.vectored_write_uncharged(name, offset, bufs)?;
        Ok(())
    }

    fn submit_read_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &mut [std::io::IoSliceMut<'_>],
    ) -> SubmitTicket {
        // Execute eagerly, complete in virtual time: the bytes land now, the
        // transport cost lands on a queue-depth lane so up to
        // `profile.queue_depth` submissions from this thread overlap.
        let result = self.vectored_read_uncharged(name, offset, bufs);
        if let Ok(n) = result {
            self.clock.submit_read(&self.profile, n);
        }
        q.complete_now(result)
    }

    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[std::io::IoSlice<'_>],
    ) -> SubmitTicket {
        let result = self.vectored_write_uncharged(name, offset, bufs);
        if let Ok(total) = result {
            self.clock.submit_write(&self.profile, total);
        }
        q.complete_now(result)
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        q.release_all();
        q.drain_ready(out);
        // The transport barrier: subsequent operations on this thread's
        // channel start no earlier than the last drained submission.
        self.clock.drain();
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.clock.charge_op(&self.profile);
        fs::metadata(self.path_for(name))
            .map(|m| m.len())
            .map_err(|e| Self::io_err(name, e))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.clock.charge_op(&self.profile);
        let file = OpenOptions::new()
            .write(true)
            .open(self.path_for(name))
            .map_err(|e| Self::io_err(name, e))?;
        file.set_len(len).map_err(|e| Self::io_err(name, e))
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        fs::remove_file(self.path_for(name)).map_err(|e| Self::io_err(name, e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        fs::rename(self.path_for(from), self.path_for(to)).map_err(|e| Self::io_err(from, e))
    }

    fn list(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .map(|n| Self::decode_name(&n))
            .collect()
    }

    fn flush(&self, name: &str) -> Result<()> {
        self.clock.charge_op(&self.profile);
        let file = File::open(self.path_for(name)).map_err(|e| Self::io_err(name, e))?;
        file.sync_all().map_err(|e| Self::io_err(name, e))
    }

    fn sleep_virtual(&self, d: Duration) {
        self.clock.advance(d);
    }

    fn io_time(&self) -> Duration {
        self.clock.elapsed()
    }

    fn io_counters(&self) -> IoCounters {
        self.clock.counters()
    }

    fn reset_io_accounting(&self) {
        self.clock.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store() -> DirStore {
        let dir = std::env::temp_dir().join(format!(
            "lamassu-dirstore-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        DirStore::open(&dir, StorageProfile::instant()).unwrap()
    }

    #[test]
    fn create_write_read_round_trip() {
        let s = temp_store();
        s.create("/dir/file.bin").unwrap();
        s.write_at("/dir/file.bin", 0, b"hello").unwrap();
        s.write_at("/dir/file.bin", 5, b" world").unwrap();
        assert_eq!(s.read_at("/dir/file.bin", 0, 11).unwrap(), b"hello world");
        assert_eq!(s.len("/dir/file.bin").unwrap(), 11);
        assert!(s.exists("/dir/file.bin"));
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn names_with_slashes_stay_inside_root() {
        let s = temp_store();
        s.create("/a/b/c").unwrap();
        s.create("../escape").unwrap();
        // Both objects live directly inside the root directory.
        let files: Vec<_> = fs::read_dir(s.root()).unwrap().collect();
        assert_eq!(files.len(), 2);
        assert!(s.list().contains(&"/a/b/c".to_string()));
        assert!(s.list().contains(&"../escape".to_string()));
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn out_of_bounds_and_missing_objects_error() {
        let s = temp_store();
        assert!(matches!(
            s.read_at("missing", 0, 1),
            Err(StorageError::NotFound { .. })
        ));
        s.create("f").unwrap();
        s.write_at("f", 0, b"abc").unwrap();
        assert!(matches!(
            s.read_at("f", 0, 10),
            Err(StorageError::OutOfBounds { .. })
        ));
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn truncate_rename_remove() {
        let s = temp_store();
        s.create("a").unwrap();
        s.write_at("a", 0, &[1u8; 100]).unwrap();
        s.truncate("a", 10).unwrap();
        assert_eq!(s.len("a").unwrap(), 10);
        s.rename("a", "b").unwrap();
        assert!(!s.exists("a"));
        s.remove("b").unwrap();
        assert!(s.list().is_empty());
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn unusable_root_reports_backend_error_not_not_found() {
        // A plain file sitting where the root directory should go makes
        // `create_dir_all` fail — that is a backend problem, not "not found".
        let blocker = std::env::temp_dir().join(format!(
            "lamassu-dirstore-blocker-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::write(&blocker, b"in the way").unwrap();
        match DirStore::open(blocker.join("vol"), StorageProfile::instant()) {
            Err(StorageError::Backend { .. }) => {}
            Err(other) => panic!("expected Backend error, got {other:?}"),
            Ok(_) => panic!("expected Backend error, got a store"),
        }
        fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn submitted_reads_overlap_up_to_queue_depth() {
        let dir = std::env::temp_dir().join(format!(
            "lamassu-dirstore-submit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let profile = StorageProfile::nfs_1gbe().with_queue_depth(4);
        let s = DirStore::open(&dir, profile).unwrap();
        s.create("f").unwrap();
        s.write_at("f", 0, &[7u8; 16 * 1024]).unwrap();
        s.reset_io_accounting();

        let mut bufs = vec![[0u8; 4096]; 4];
        let mut q = SubmitQueue::new();
        let mut tickets = Vec::new();
        for (i, buf) in bufs.iter_mut().enumerate() {
            let mut iov = [std::io::IoSliceMut::new(&mut buf[..])];
            tickets.push(s.submit_read_vectored(&mut q, "f", i as u64 * 4096, &mut iov));
        }
        let mut out = Vec::new();
        s.wait_completions(&mut q, &mut out);
        assert_eq!(out.len(), 4);
        for (c, t) in out.iter().zip(&tickets) {
            assert_eq!(c.ticket, *t);
            assert!(matches!(c.result, Ok(4096)));
        }
        assert!(bufs.iter().all(|b| b.iter().all(|&x| x == 7)));
        // Four submissions on a depth-4 channel: one round trip of virtual
        // time, four ops of busy time — then a blocking read serializes
        // after the barrier.
        assert_eq!(s.io_time(), profile.read_cost(4096));
        assert_eq!(s.io_counters().read_ops, 4);
        let mut buf = [0u8; 4096];
        s.read_into("f", 0, &mut buf).unwrap();
        assert_eq!(s.io_time(), profile.read_cost(4096) * 2);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn duplicate_create_rejected() {
        let s = temp_store();
        s.create("f").unwrap();
        assert!(matches!(
            s.create("f"),
            Err(StorageError::AlreadyExists { .. })
        ));
        fs::remove_dir_all(s.root()).unwrap();
    }
}
