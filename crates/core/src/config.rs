//! Tree configuration: node sizes and feature toggles.
//!
//! The paper tunes node sizes per tree (Table 1) and evaluates payload-size
//! sensitivity (Appendix A), so leaf layout must be runtime-parameterized.
//! Feature toggles express the design-principle ablations: the PTree is the
//! FPTree minus fingerprints (plus split key/value arrays for scan locality).
//! Every preset runs on the one tree engine, [`crate::ConcurrentTree`]; the
//! single-threaded presets differ only in node sizes and leaf layout.

/// Maximum number of entries per leaf: the validity bitmap must fit in one
/// 8-byte word so it can be committed p-atomically.
pub const MAX_LEAF_CAPACITY: usize = 64;

/// Default worker count for the parallel recovery pipeline: the machine's
/// available parallelism, or 1 if it cannot be determined. Recovery work is
/// dominated by leaf audits (pure per-leaf reads plus occasional slot
/// resets), which scale with cores up to SCM bandwidth.
pub fn default_recovery_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Configuration of a persistent tree instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Entries per leaf node (m). Paper default: 56 for the FPTree with
    /// fixed-size keys (bitmap + 56 fingerprints fill the first cache line).
    pub leaf_capacity: usize,
    /// Maximum children per inner node. Paper default: 4096 single-threaded,
    /// 128 concurrent (large nodes raise TSX conflict probability).
    pub inner_fanout: usize,
    /// Bytes reserved per value in the leaf; the logical value is a u64, the
    /// remainder models larger payloads (Appendix A sweeps 8–112 bytes).
    pub value_size: usize,
    /// Store one-byte key fingerprints in the leaf head (the FPTree's
    /// headline technique). Off reproduces the PTree.
    pub fingerprints: bool,
    /// Keys and values in separate in-leaf arrays (PTree layout: better
    /// locality for linear key scans without fingerprints).
    pub split_arrays: bool,
    /// Data-parallel probe fast paths (default on): the fingerprint scan
    /// compares 8 fingerprints per word (SWAR — no intrinsics, stable
    /// Rust) instead of byte-at-a-time, and leaves cache a transient
    /// sentinel record of their successor's minimum key so failed lookups
    /// and scan hops short-circuit without touching the next leaf's
    /// SCM-resident keys. Off falls back to the scalar byte loop
    /// (identical probe order and charged SCM lines — the differential
    /// proptests pin the equivalence).
    pub swar_probe: bool,
}

impl TreeConfig {
    /// Paper's single-threaded FPTree configuration (fixed-size keys).
    pub fn fptree() -> Self {
        TreeConfig {
            leaf_capacity: 56,
            inner_fanout: 4096,
            value_size: 8,
            fingerprints: true,
            split_arrays: false,
            swar_probe: true,
        }
    }

    /// Paper's concurrent FPTree configuration (fixed-size keys): smaller
    /// inner nodes (large nodes raise the conflict probability of the
    /// speculative sections).
    pub fn fptree_concurrent() -> Self {
        TreeConfig {
            leaf_capacity: 64,
            inner_fanout: 128,
            value_size: 8,
            fingerprints: true,
            split_arrays: false,
            swar_probe: true,
        }
    }

    /// Paper's PTree: selective persistence + unsorted leaves only, split
    /// key/value arrays, no fingerprints.
    pub fn ptree() -> Self {
        TreeConfig {
            leaf_capacity: 32,
            inner_fanout: 4096,
            value_size: 8,
            fingerprints: false,
            split_arrays: true,
            swar_probe: true,
        }
    }

    /// Variable-size-key FPTree (paper: inner 2048, leaf 56).
    pub fn fptree_var() -> Self {
        TreeConfig {
            inner_fanout: 2048,
            ..Self::fptree()
        }
    }

    /// Variable-size-key concurrent FPTree (paper: inner 64, leaf 64).
    pub fn fptree_concurrent_var() -> Self {
        TreeConfig {
            inner_fanout: 64,
            ..Self::fptree_concurrent()
        }
    }

    /// Variable-size-key PTree (paper: inner 256, leaf 32).
    pub fn ptree_var() -> Self {
        TreeConfig {
            inner_fanout: 256,
            ..Self::ptree()
        }
    }

    /// Sets the leaf capacity.
    pub fn with_leaf_capacity(mut self, m: usize) -> Self {
        self.leaf_capacity = m;
        self
    }

    /// Sets the inner fanout.
    pub fn with_inner_fanout(mut self, f: usize) -> Self {
        self.inner_fanout = f;
        self
    }

    /// Sets the value (payload) size in bytes.
    pub fn with_value_size(mut self, v: usize) -> Self {
        self.value_size = v;
        self
    }

    /// Enables or disables the SWAR probe + sentinel fast paths.
    pub fn with_swar_probe(mut self, on: bool) -> Self {
        self.swar_probe = on;
        self
    }

    /// Number of entries an ordered scan buffers per leaf: exactly the leaf
    /// capacity. The scan subsystem's fixed gather buffer is dimensioned by
    /// [`MAX_LEAF_CAPACITY`], so every valid configuration fits
    /// ([`TreeConfig::validate`] enforces `leaf_capacity <= 64`).
    pub fn scan_buffer_slots(&self) -> usize {
        self.leaf_capacity
    }

    /// Validates invariants, returning the violation message instead of
    /// panicking (the [`crate::api::TreeBuilder`] error path).
    pub fn try_validate(&self) -> Result<(), String> {
        if !(1..=MAX_LEAF_CAPACITY).contains(&self.leaf_capacity) {
            return Err(format!(
                "leaf capacity must be in 1..=64 (single-word p-atomic bitmap), got {}",
                self.leaf_capacity
            ));
        }
        if self.inner_fanout < 3 {
            return Err("inner fanout must be at least 3".to_string());
        }
        if self.value_size < 8 {
            return Err("value size must hold a u64".to_string());
        }
        if !self.value_size.is_multiple_of(8) {
            return Err("value size must be 8-byte aligned".to_string());
        }
        Ok(())
    }

    /// Validates invariants; panics with a descriptive message on misuse.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_table1() {
        let fp = TreeConfig::fptree();
        assert_eq!((fp.leaf_capacity, fp.inner_fanout), (56, 4096));
        assert!(fp.fingerprints && !fp.split_arrays);
        let fpc = TreeConfig::fptree_concurrent();
        assert_eq!((fpc.leaf_capacity, fpc.inner_fanout), (64, 128));
        let pt = TreeConfig::ptree();
        assert!(!pt.fingerprints && pt.split_arrays);
        assert_eq!(pt.leaf_capacity, 32);
    }

    #[test]
    fn validate_accepts_presets() {
        for cfg in [
            TreeConfig::fptree(),
            TreeConfig::fptree_concurrent(),
            TreeConfig::ptree(),
            TreeConfig::fptree_var(),
            TreeConfig::fptree_concurrent_var(),
            TreeConfig::ptree_var(),
        ] {
            cfg.validate();
        }
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn validate_rejects_oversized_leaf() {
        TreeConfig::fptree().with_leaf_capacity(65).validate();
    }

    #[test]
    #[should_panic(expected = "value size")]
    fn validate_rejects_tiny_value() {
        TreeConfig::fptree().with_value_size(4).validate();
    }

    #[test]
    fn swar_probe_defaults_on_everywhere_and_toggles() {
        for cfg in [
            TreeConfig::fptree(),
            TreeConfig::fptree_concurrent(),
            TreeConfig::ptree(),
            TreeConfig::fptree_var(),
            TreeConfig::fptree_concurrent_var(),
            TreeConfig::ptree_var(),
        ] {
            assert!(cfg.swar_probe, "SWAR fast paths default on");
        }
        let off = TreeConfig::fptree().with_swar_probe(false);
        assert!(!off.swar_probe);
        off.validate();
    }
}
