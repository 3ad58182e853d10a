//! Placement configuration for the routed tier.

/// Configuration of a [`crate::RoutedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Replication factor R: every placement unit is written to the first R
    /// distinct members of its owner chain. Clamped to the membership size
    /// (a 3-replica config over 2 backends keeps 2 copies) and to
    /// [`crate::ring::MAX_REPLICAS`].
    pub replicas: usize,
    /// Placement-unit size in bytes: unit `k` of an object covers bytes
    /// `[k * unit, (k + 1) * unit)` and is owned by the chain of
    /// `(name, k)`. A single large object therefore stripes across the
    /// whole cluster. The container object exists on *every* member
    /// (sparse outside the member's own units).
    pub unit: u64,
}

impl DistConfig {
    /// A config with the given replication factor and 1 MiB units.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas >= 1, "replication factor must be at least 1");
        assert!(
            replicas <= crate::ring::MAX_REPLICAS,
            "replication factor exceeds MAX_REPLICAS"
        );
        DistConfig {
            replicas,
            unit: 1024 * 1024,
        }
    }

    /// Sets the placement-unit size in bytes.
    pub fn unit(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "placement unit must be non-zero");
        self.unit = bytes;
        self
    }

    /// The placement-unit index covering byte `offset`.
    pub(crate) fn unit_of(&self, offset: u64) -> u64 {
        offset / self.unit
    }

    /// First byte past the placement unit covering `offset`.
    pub(crate) fn unit_end(&self, offset: u64) -> u64 {
        (offset / self.unit)
            .saturating_add(1)
            .saturating_mul(self.unit)
    }
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_geometry() {
        let c = DistConfig::new(2).unit(100);
        assert_eq!(c.unit_of(0), 0);
        assert_eq!(c.unit_of(99), 0);
        assert_eq!(c.unit_of(100), 1);
        assert_eq!(c.unit_end(0), 100);
        assert_eq!(c.unit_end(250), 300);
        assert_eq!(DistConfig::new(1).unit, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_unit_is_rejected() {
        let _ = DistConfig::new(1).unit(0);
    }
}
