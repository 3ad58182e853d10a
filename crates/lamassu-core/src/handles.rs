//! The file-descriptor table used by all shims.
//!
//! [`HandleTable`] is generic over the shim's per-file state `S` (an
//! `Arc<RwLock<…>>` under [`crate::mount::Mount`], `()` for PlainFS):
//! [`HandleTable::open`] captures the state once, and every subsequent
//! operation resolves the descriptor to the same [`FdEntry`] with a single
//! map lookup — no path re-resolution, no `String` clone, no secondary
//! per-file-map lookup on the hot path. The per-path side (one shared state
//! per open path) is the mount scaffold's private registry.

use crate::{Fd, FsError, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One open descriptor: the (renameable) path plus the shim's per-file state.
pub(crate) struct FdEntry<S> {
    /// Current path of the file. Behind its own lock only because `rename`
    /// must retarget it; per-op readers take an uncontended read lock and
    /// clone the `Arc<str>` (a refcount bump, not a string copy).
    path: RwLock<Arc<str>>,
    /// Per-file state captured at open/create time.
    pub(crate) state: S,
}

impl<S> FdEntry<S> {
    /// The entry's current path, shared without copying the string bytes.
    pub(crate) fn path(&self) -> Arc<str> {
        self.path.read().clone()
    }
}

/// Maps descriptors to their entries and tracks open handles per path.
pub(crate) struct HandleTable<S> {
    next_fd: AtomicU64,
    fds: RwLock<HashMap<Fd, Arc<FdEntry<S>>>>,
}

impl<S> HandleTable<S> {
    pub(crate) fn new() -> Self {
        HandleTable {
            next_fd: AtomicU64::new(3), // 0-2 reserved, in the unix spirit
            fds: RwLock::new(HashMap::new()),
        }
    }

    /// Allocates a descriptor for `path`, capturing its per-file state.
    pub(crate) fn open(&self, path: &str, state: S) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(FdEntry {
            path: RwLock::new(Arc::from(path)),
            state,
        });
        self.fds.write().insert(fd, entry);
        fd
    }

    /// Resolves a descriptor to its entry.
    pub(crate) fn get(&self, fd: Fd) -> Result<Arc<FdEntry<S>>> {
        self.fds
            .read()
            .get(&fd)
            .cloned()
            .ok_or(FsError::BadFd { fd })
    }

    /// Releases a descriptor, returning the entry it referred to.
    pub(crate) fn close(&self, fd: Fd) -> Result<Arc<FdEntry<S>>> {
        self.fds.write().remove(&fd).ok_or(FsError::BadFd { fd })
    }

    /// True if any open descriptor still refers to `path` (kept for tests;
    /// the mount scaffold tracks per-path lifetimes in its registry).
    #[cfg(test)]
    pub(crate) fn is_open(&self, path: &str) -> bool {
        self.fds.read().values().any(|e| &**e.path.read() == path)
    }

    /// Rewrites the path behind every descriptor that points at `from`
    /// (used by `rename`).
    pub(crate) fn retarget(&self, from: &str, to: &str) {
        let to: Arc<str> = Arc::from(to);
        for entry in self.fds.read().values() {
            let mut path = entry.path.write();
            if &**path == from {
                *path = to.clone();
            }
        }
    }

    /// Invalidates all descriptors pointing at `path` (used by `remove`).
    pub(crate) fn invalidate(&self, path: &str) {
        self.fds.write().retain(|_, e| &**e.path.read() != path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_cycle() {
        let t: HandleTable<u32> = HandleTable::new();
        let fd = t.open("/a", 7);
        let entry = t.get(fd).unwrap();
        assert_eq!(&*entry.path(), "/a");
        assert_eq!(entry.state, 7);
        assert!(t.is_open("/a"));
        assert_eq!(&*t.close(fd).unwrap().path(), "/a");
        assert!(!t.is_open("/a"));
        assert!(matches!(t.get(fd), Err(FsError::BadFd { .. })));
        assert!(t.close(fd).is_err());
    }

    #[test]
    fn fds_are_unique_and_states_independent() {
        let t: HandleTable<u32> = HandleTable::new();
        let a = t.open("/a", 1);
        let b = t.open("/a", 2);
        assert_ne!(a, b);
        assert_eq!(t.get(a).unwrap().state, 1);
        assert_eq!(t.get(b).unwrap().state, 2);
        t.close(a).unwrap();
        assert!(t.is_open("/a"), "second handle still open");
    }

    #[test]
    fn retarget_and_invalidate() {
        let t: HandleTable<()> = HandleTable::new();
        let fd = t.open("/old", ());
        t.retarget("/old", "/new");
        assert_eq!(&*t.get(fd).unwrap().path(), "/new");
        t.invalidate("/new");
        assert!(t.get(fd).is_err());
    }

    #[test]
    fn entry_survives_close_via_arc() {
        // An in-flight operation holding the entry keeps it alive even if
        // the descriptor is closed concurrently.
        let t: HandleTable<u32> = HandleTable::new();
        let fd = t.open("/f", 9);
        let entry = t.get(fd).unwrap();
        t.close(fd).unwrap();
        assert_eq!(entry.state, 9);
    }
}
