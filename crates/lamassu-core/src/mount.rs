//! The mount scaffold: everything about an open file that is not what its
//! bytes mean.
//!
//! [`Mount<E>`] owns the descriptor table, the per-path registry of shared
//! file states, the per-file `RwLock`, op-span tracing, offset validation and
//! the storage→file-system error mapping, and implements [`FileSystem`]
//! **once**. What differs between the stateful shims — how a file is laid out
//! on the store and what is done to a block on its way there — is the
//! [`MountEngine`] under it: [`LamassuFs`](crate::LamassuFs),
//! [`EncFs`](crate::EncFs) and [`CeFileFs`](crate::CeFileFs) are this one
//! scaffold over three engines, statically dispatched.

use crate::fs::{check_range, FileAttr, FileSystem, OpenFlags};
use crate::handles::HandleTable;
use crate::iovec;
use crate::profiler::Profiler;
use crate::spanio::SpanIo;
use crate::{Fd, FsError, Result};
use lamassu_telemetry::OpKind;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io::IoSlice;
use std::sync::Arc;

/// The per-file state of a [`MountEngine`], as far as the scaffold needs to
/// see into it.
pub trait MountFile: Send + Sync {
    /// The file's logical (application-visible) size in bytes.
    fn logical_size(&self) -> u64;

    /// Points the state at the object's new name after a rename.
    fn renamed(&mut self, to: &str);
}

/// What a stateful shim does to bytes: the object layout and the block codec
/// under a [`Mount`]. Sealed — the module is private, so the trait cannot be
/// named (let alone implemented) outside the crate.
///
/// `read` runs under the file's shared guard, everything taking `&mut File`
/// under the exclusive one; the scaffold has already resolved the descriptor,
/// validated the range and opened the op span.
pub trait MountEngine: Send + Sync {
    /// State kept per open file (shared by every descriptor on its path).
    type File: MountFile;

    /// The mount's handle on its backing store.
    fn io(&self) -> &SpanIo;

    /// Initialises the freshly created, empty object `path`.
    fn create(&self, path: &str) -> Result<Self::File>;

    /// Loads the state of the existing object `path`.
    fn load(&self, path: &str) -> Result<Self::File>;

    /// Fills `buf` from `offset`; the range lies within the logical size.
    fn read(&self, file: &Self::File, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes the (non-empty) concatenation of `bufs` at `offset`, extending
    /// the file if needed. May buffer; [`MountEngine::flush`] commits.
    fn write(&self, file: &mut Self::File, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()>;

    /// Truncates (or zero-extends) the file to `size` logical bytes.
    fn truncate(&self, file: &mut Self::File, size: u64) -> Result<()>;

    /// Writes everything buffered in `file` through to the store.
    fn flush(&self, file: &mut Self::File) -> Result<()>;

    /// Human-readable name of the shim.
    fn kind(&self) -> &'static str;
}

/// One path's shared state plus the number of descriptors pinning it.
struct RegEntry<S> {
    state: S,
    open_handles: usize,
}

/// Per-path shared-state registry: the single source of truth for "which
/// state object serves path P right now".
///
/// `open`/`create` **pin** an entry; `close` releases the pin and drops the
/// entry when no descriptors remain. Path-level operations (`stat`,
/// `verify`, …) look states up **without** pinning, mirroring the historical
/// behaviour where such entries live until an open/close cycle or a
/// remove/rename retires them.
struct PathRegistry<S: Clone> {
    entries: RwLock<HashMap<String, RegEntry<S>>>,
}

impl<S: Clone> PathRegistry<S> {
    fn new() -> Self {
        PathRegistry {
            entries: RwLock::new(HashMap::new()),
        }
    }

    /// Gets (or loads, via `load`) the state for `path` and pins it for a
    /// new descriptor. The whole transition happens under the map lock, so a
    /// concurrent last-`close` either runs before (and `load` produces a
    /// fresh state) or after (and the pin keeps the entry alive) — never in
    /// between.
    fn open_with(&self, path: &str, load: impl FnOnce() -> Result<S>) -> Result<S> {
        let mut entries = self.entries.write();
        if let Some(entry) = entries.get_mut(path) {
            entry.open_handles += 1;
            return Ok(entry.state.clone());
        }
        let state = load()?;
        entries.insert(
            path.to_string(),
            RegEntry {
                state: state.clone(),
                open_handles: 1,
            },
        );
        Ok(state)
    }

    /// Registers a freshly created file's state, pinned for its descriptor.
    fn insert_open(&self, path: &str, state: S) {
        self.entries.write().insert(
            path.to_string(),
            RegEntry {
                state,
                open_handles: 1,
            },
        );
    }

    /// Gets (or loads) the state for `path` without pinning it — for
    /// path-level operations that do not hand out a descriptor.
    fn lookup_with(&self, path: &str, load: impl FnOnce() -> Result<S>) -> Result<S> {
        let mut entries = self.entries.write();
        if let Some(entry) = entries.get(path) {
            return Ok(entry.state.clone());
        }
        let state = load()?;
        entries.insert(
            path.to_string(),
            RegEntry {
                state: state.clone(),
                open_handles: 0,
            },
        );
        Ok(state)
    }

    /// The state for `path`, if one is registered.
    fn peek(&self, path: &str) -> Option<S> {
        self.entries.read().get(path).map(|e| e.state.clone())
    }

    /// Releases one descriptor's pin; the entry is dropped when none remain.
    fn release(&self, path: &str) {
        let mut entries = self.entries.write();
        if let Some(entry) = entries.get_mut(path) {
            entry.open_handles = entry.open_handles.saturating_sub(1);
            if entry.open_handles == 0 {
                entries.remove(path);
            }
        }
    }

    /// Drops the entry for `path` (the file was removed).
    fn remove(&self, path: &str) {
        self.entries.write().remove(path);
    }

    /// Moves the entry (state and pins) from `from` to `to` in one critical
    /// section, returning the moved state so the caller can re-point it.
    fn rename(&self, from: &str, to: &str) -> Option<S> {
        let mut entries = self.entries.write();
        let entry = entries.remove(from)?;
        let state = entry.state.clone();
        entries.insert(to.to_string(), entry);
        Some(state)
    }
}

type Shared<E> = Arc<RwLock<<E as MountEngine>::File>>;

/// A mounted stateful shim: the one lifecycle scaffold, over the engine `E`.
/// Used through its aliases [`LamassuFs`](crate::LamassuFs),
/// [`EncFs`](crate::EncFs) and [`CeFileFs`](crate::CeFileFs); the engine
/// trait is sealed, so these three are the only instances.
///
/// # The rules every mount follows
///
/// * **Existence is checked once**, immediately before the engine loads the
///   file, under the registry lock: `open`, `stat` and the path-level
///   maintenance calls all report a missing file as [`FsError::NotFound`].
/// * **Truncate-on-open** is the engine's `truncate` to zero followed by its
///   `flush`; if either fails the registry pin taken for the descriptor is
///   released, so a later open reloads from the store.
/// * **`close` flushes, then releases the pin** — also when the flush fails.
/// * **`rename` flushes the engine state first**, so nothing buffered under
///   the old name is lost, then moves the registry entry and retargets the
///   open descriptors.
/// * **`fsync`** is a flush plus the store's own flush of the object.
/// * **Reads, writes, truncates and fsyncs open an op span** when a tracer is
///   attached to the mount's profiler.
/// * **`offset + len` is validated here**, before the engine sees it: a range
///   that ends past `u64::MAX` is an error, reads are clamped to the logical
///   size, and an engine only ever gets an in-range, non-empty request.
///
/// # Concurrency
///
/// The per-file state sits behind an `RwLock`: reads run under the **shared**
/// guard, so any number of threads read one file in parallel; write,
/// truncate, flush and the path-level maintenance calls take the exclusive
/// guard. All registry transitions — get-or-load, pin, release, rename — run
/// under a single map lock, so an `open` racing a last `close` can never end
/// up with two divergent states for one file.
pub struct Mount<E: MountEngine> {
    /// Boxed so a mount is a few words whatever its engine's crypto contexts
    /// weigh: callers hold mounts by value (in enums, behind `dyn`).
    engine: Box<E>,
    handles: HandleTable<Shared<E>>,
    /// Open-file states shared between descriptors on the same path.
    files: PathRegistry<Shared<E>>,
}

impl<E: MountEngine> Mount<E> {
    pub(crate) fn over(engine: E) -> Self {
        Mount {
            engine: Box::new(engine),
            handles: HandleTable::new(),
            files: PathRegistry::new(),
        }
    }

    pub(crate) fn engine(&self) -> &E {
        &self.engine
    }

    /// The latency profiler for this mount (drives Figure 9).
    pub fn profiler(&self) -> Arc<Profiler> {
        self.engine.io().profiler().clone()
    }

    /// Loads the per-file state for a path that must already exist.
    fn load_state(&self, path: &str) -> Result<Shared<E>> {
        if !self.engine.io().exists(path) {
            return Err(FsError::NotFound {
                path: path.to_string(),
            });
        }
        Ok(Arc::new(RwLock::new(self.engine.load(path)?)))
    }

    /// Shared state for path-level operations (no descriptor pin).
    fn file_state(&self, path: &str) -> Result<Shared<E>> {
        self.files.lookup_with(path, || self.load_state(path))
    }

    /// Runs a path-level maintenance operation on the file's shared state
    /// under its exclusive guard.
    pub(crate) fn with_file<T>(
        &self,
        path: &str,
        f: impl FnOnce(&mut E::File) -> Result<T>,
    ) -> Result<T> {
        f(&mut self.file_state(path)?.write())
    }
}

impl<E: MountEngine> FileSystem for Mount<E> {
    fn create(&self, path: &str) -> Result<Fd> {
        self.engine.io().create(path)?;
        let file = Arc::new(RwLock::new(self.engine.create(path)?));
        self.files.insert_open(path, file.clone());
        Ok(self.handles.open(path, file))
    }

    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        let state = self.files.open_with(path, || self.load_state(path))?;
        if flags.truncate {
            let mut file = state.write();
            let truncated = self
                .engine
                .truncate(&mut file, 0)
                .and_then(|()| self.engine.flush(&mut file));
            if let Err(e) = truncated {
                drop(file);
                self.files.release(path);
                return Err(e);
            }
        }
        Ok(self.handles.open(path, state))
    }

    fn close(&self, fd: Fd) -> Result<()> {
        let entry = self.handles.close(fd)?;
        let flushed = self.engine.flush(&mut entry.state.write());
        self.files.release(&entry.path());
        flushed
    }

    fn read_into(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let entry = self.handles.get(fd)?;
        check_range(offset, buf.len())?;
        let _span = self.engine.io().op_span(OpKind::Read, &entry, buf.len());
        // The whole read pipeline runs under the shared guard: concurrent
        // readers of one file proceed in parallel, excluded only by writers.
        let file = entry.state.read();
        let size = file.logical_size();
        if offset >= size || buf.is_empty() {
            return Ok(0);
        }
        let len = buf
            .len()
            .min(usize::try_from(size - offset).unwrap_or(usize::MAX));
        self.engine.read(&file, offset, &mut buf[..len])?;
        Ok(len)
    }

    fn write_vectored(&self, fd: Fd, offset: u64, bufs: &[IoSlice<'_>]) -> Result<usize> {
        let entry = self.handles.get(fd)?;
        let total = iovec::total_len(bufs);
        check_range(offset, total)?;
        let _span = self.engine.io().op_span(OpKind::Write, &entry, total);
        if total > 0 {
            self.engine.write(&mut entry.state.write(), offset, bufs)?;
        }
        Ok(total)
    }

    fn truncate(&self, fd: Fd, size: u64) -> Result<()> {
        let entry = self.handles.get(fd)?;
        let _span = self.engine.io().op_span(OpKind::Truncate, &entry, 0);
        let mut file = entry.state.write();
        self.engine.truncate(&mut file, size)
    }

    fn fsync(&self, fd: Fd) -> Result<()> {
        let entry = self.handles.get(fd)?;
        let _span = self.engine.io().op_span(OpKind::Fsync, &entry, 0);
        let mut file = entry.state.write();
        self.engine.flush(&mut file)?;
        self.engine.io().flush(&entry.path())
    }

    fn len(&self, fd: Fd) -> Result<u64> {
        let entry = self.handles.get(fd)?;
        let len = entry.state.read().logical_size();
        Ok(len)
    }

    fn stat(&self, path: &str) -> Result<FileAttr> {
        let logical_size = self.file_state(path)?.read().logical_size();
        let physical_size = self.engine.io().len(path)?;
        Ok(FileAttr {
            logical_size,
            physical_size,
        })
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.engine.io().remove(path)?;
        self.files.remove(path);
        self.handles.invalidate(path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        // Flush buffered writes under the old name first so nothing is lost.
        if let Some(state) = self.files.peek(from) {
            self.engine.flush(&mut state.write())?;
        }
        self.engine.io().rename(from, to)?;
        // The registry moves the entry under a single map lock, so no
        // concurrent open can observe (or resurrect) the old path's entry
        // mid-rename.
        if let Some(state) = self.files.rename(from, to) {
            state.write().renamed(to);
        }
        self.handles.retarget(from, to);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.engine.io().list())
    }

    fn kind(&self) -> &'static str {
        self.engine.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_pins_share_one_state_until_last_release() {
        let r: PathRegistry<u32> = PathRegistry::new();
        let a = r.open_with("/f", || Ok(1)).unwrap();
        let b = r.open_with("/f", || Ok(2)).unwrap();
        assert_eq!((a, b), (1, 1), "second open shares the first state");
        r.release("/f");
        assert_eq!(r.peek("/f"), Some(1), "still pinned by the other handle");
        r.release("/f");
        assert_eq!(r.peek("/f"), None, "dropped with the last pin");
        let c = r.open_with("/f", || Ok(3)).unwrap();
        assert_eq!(c, 3, "a fresh open reloads");
    }

    #[test]
    fn registry_lookup_does_not_pin() {
        let r: PathRegistry<u32> = PathRegistry::new();
        assert_eq!(r.lookup_with("/f", || Ok(7)).unwrap(), 7);
        // An open/close cycle retires the unpinned entry too.
        assert_eq!(r.open_with("/f", || Ok(8)).unwrap(), 7);
        r.release("/f");
        assert_eq!(r.peek("/f"), None);
    }

    #[test]
    fn registry_rename_moves_pins() {
        let r: PathRegistry<u32> = PathRegistry::new();
        r.insert_open("/a", 5);
        assert_eq!(r.rename("/a", "/b"), Some(5));
        assert_eq!(r.peek("/a"), None);
        assert_eq!(r.peek("/b"), Some(5));
        r.release("/b");
        assert_eq!(r.peek("/b"), None);
        assert_eq!(r.rename("/missing", "/x"), None);
    }

    #[test]
    fn registry_failed_load_inserts_nothing() {
        let r: PathRegistry<u32> = PathRegistry::new();
        assert!(r
            .open_with("/f", || Err(crate::FsError::BadFd { fd: 0 }))
            .is_err());
        assert_eq!(r.peek("/f"), None);
    }
}
