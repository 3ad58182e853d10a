use std::fmt;

/// Errors returned by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The named object does not exist.
    NotFound {
        /// Name of the missing object.
        name: String,
    },
    /// An object with this name already exists.
    AlreadyExists {
        /// Name of the conflicting object.
        name: String,
    },
    /// A read extended past the end of the object.
    OutOfBounds {
        /// Name of the object.
        name: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Actual object size.
        size: u64,
    },
    /// The store has been "powered off" by fault injection; every operation
    /// fails until a new client mounts the surviving media.
    Crashed,
    /// A backend I/O failure that is *not* a missing object: permission
    /// problems, a full disk, a transport error. Distinct from
    /// [`StorageError::NotFound`] so callers (and users) never mistake a
    /// mis-permissioned volume for an absent one.
    Backend {
        /// Name of the object (or root directory) the operation touched.
        name: String,
        /// Human-readable description of the underlying failure.
        detail: String,
    },
}

impl StorageError {
    /// True when the failure is *transient*: the same operation may succeed
    /// if retried against the same backend (a transport hiccup, a powered-off
    /// member that will come back, a full queue). [`StorageError::Backend`]
    /// and [`StorageError::Crashed`] are transient — a crashed member can be
    /// healed (see `FaultyStore`'s transient schedules) or replaced.
    ///
    /// Everything else is *terminal*: retrying cannot change the outcome.
    /// `NotFound`, `AlreadyExists` and `OutOfBounds` describe the state of
    /// the namespace, not of the transport, so a retry layer must surface
    /// them immediately instead of burning its budget.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Crashed | StorageError::Backend { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound { name } => write!(f, "object not found: {name}"),
            StorageError::AlreadyExists { name } => write!(f, "object already exists: {name}"),
            StorageError::OutOfBounds {
                name,
                offset,
                len,
                size,
            } => write!(
                f,
                "read out of bounds on {name}: offset {offset} + len {len} > size {size}"
            ),
            StorageError::Crashed => write!(f, "storage backend crashed (fault injection)"),
            StorageError::Backend { name, detail } => {
                write!(f, "backend I/O error on {name}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}
