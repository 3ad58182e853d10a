use std::fmt;

/// Errors arising from geometry or metadata-block handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The requested geometry cannot hold even a single key slot.
    InvalidGeometry {
        /// The configured block size in bytes.
        block_size: usize,
        /// The configured number of reserved transient slots.
        reserved_slots: usize,
    },
    /// A serialized metadata block had the wrong length.
    BadMetadataLength {
        /// Observed length.
        got: usize,
        /// Required length.
        want: usize,
    },
    /// The AES-GCM tag of a metadata block failed to verify: the block was
    /// corrupted, truncated, or encrypted under a different outer key.
    MetadataAuthFailure,
    /// A slot index was outside the key table for this geometry.
    SlotOutOfRange {
        /// The offending slot index.
        slot: usize,
        /// Number of key slots per metadata block for this geometry.
        limit: usize,
    },
    /// The transient area already holds the maximum of `R` entries.
    TransientAreaFull {
        /// The configured number of reserved transient slots.
        reserved_slots: usize,
    },
    /// An authentic metadata block carries a format version this build
    /// does not know.
    UnknownVersion {
        /// The stored version number.
        number: u16,
    },
    /// A segment's metadata block carries a different format version from
    /// its file's (which segment 0 fixed at creation).
    VersionMismatch {
        /// The file's version number.
        file: u16,
        /// The segment's version number.
        segment: u16,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::InvalidGeometry {
                block_size,
                reserved_slots,
            } => write!(
                f,
                "invalid geometry: block_size={block_size}, reserved_slots={reserved_slots} \
                 leaves no room for key slots"
            ),
            FormatError::BadMetadataLength { got, want } => {
                write!(f, "metadata block has length {got}, expected {want}")
            }
            FormatError::MetadataAuthFailure => {
                write!(f, "metadata block failed AES-GCM authentication")
            }
            FormatError::SlotOutOfRange { slot, limit } => {
                write!(f, "key slot {slot} out of range (limit {limit})")
            }
            FormatError::TransientAreaFull { reserved_slots } => {
                write!(f, "transient area full ({reserved_slots} reserved slots)")
            }
            FormatError::UnknownVersion { number } => {
                write!(f, "metadata block has unknown format version {number}")
            }
            FormatError::VersionMismatch { file, segment } => write!(
                f,
                "metadata block has format version {segment}, its file is version {file}"
            ),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<lamassu_crypto::CryptoError> for FormatError {
    fn from(e: lamassu_crypto::CryptoError) -> Self {
        match e {
            lamassu_crypto::CryptoError::TagMismatch => FormatError::MetadataAuthFailure,
            // Length errors can only arise from internal mis-sizing, which the
            // geometry type prevents; map them to the auth failure bucket so
            // callers see a single "metadata unusable" error.
            _ => FormatError::MetadataAuthFailure,
        }
    }
}
