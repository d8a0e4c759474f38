//! Per-device memory spaces and mapping decisions.
//!
//! Section V-C: "When mapping a data region from host memory to device
//! memory, data are 'shared' between host CPU cores and/or GPUs that have
//! unified memory enabled. The mapped data are 'copied' between discrete
//! memory spaces." The [`MemorySpace`] tracks device allocations (with
//! peak accounting, so tests can assert the runtime maps only the
//! subregions a device actually needs), and [`mapping_decision`]
//! implements the copy-vs-share rule.

use crate::device::MemoryKind;
use std::collections::HashMap;

/// How a mapped variable reaches a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingDecision {
    /// The device addresses host memory directly — no transfer.
    Share,
    /// The runtime allocates device memory and copies over the link.
    Copy,
    /// Unified memory: shared semantics, paid for by on-demand page
    /// migration at `UNIFIED_PENALTY`× the explicit-copy cost.
    UnifiedMigration,
}

/// The slowdown the paper measured for unified memory against explicit
/// data movement ("maximum of 10 and 18 times slowdown in our BLAS
/// examples") — we use the geometric middle as the migration penalty.
pub const UNIFIED_PENALTY: f64 = 13.0;

/// Decide how to map host data onto a device of the given memory kind.
pub fn mapping_decision(device_memory: MemoryKind) -> MappingDecision {
    match device_memory {
        MemoryKind::Shared => MappingDecision::Share,
        MemoryKind::Discrete => MappingDecision::Copy,
        MemoryKind::Unified => MappingDecision::UnifiedMigration,
    }
}

/// Handle to one allocation in a [`MemorySpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(u64);

/// Error from [`MemorySpace`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// Allocation would exceed the space's capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// The allocation handle is unknown (double free or wrong space).
    UnknownAllocation,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::OutOfMemory { requested, free } => {
                write!(f, "out of device memory: requested {requested} bytes, {free} free")
            }
            MemoryError::UnknownAllocation => write!(f, "unknown allocation handle"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Byte-accounting model of one device's memory. It does not store
/// data — the actual array contents live host-side in the runtime — it
/// enforces capacity and records footprints.
#[derive(Debug, Clone)]
pub struct MemorySpace {
    capacity: u64,
    in_use: u64,
    peak: u64,
    next_id: u64,
    live: HashMap<u64, u64>,
}

impl MemorySpace {
    /// A space holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, in_use: 0, peak: 0, next_id: 0, live: HashMap::new() }
    }

    /// Allocate `bytes`.
    pub fn alloc(&mut self, bytes: u64) -> Result<AllocId, MemoryError> {
        let free = self.capacity - self.in_use;
        if bytes > free {
            return Err(MemoryError::OutOfMemory { requested: bytes, free });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, bytes);
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(AllocId(id))
    }

    /// Free a previous allocation.
    pub fn free(&mut self, id: AllocId) -> Result<(), MemoryError> {
        match self.live.remove(&id.0) {
            Some(bytes) => {
                self.in_use -= bytes;
                Ok(())
            }
            None => Err(MemoryError::UnknownAllocation),
        }
    }

    /// Resize a live allocation in place — the repartitioning path of a
    /// persistent data region, where a resident array's per-device share
    /// grows or shrinks between offloads without a free/alloc round trip
    /// (the handle and the allocation's identity survive). Fails without
    /// side effects if growth would exceed capacity or the handle is
    /// unknown.
    pub fn realloc(&mut self, id: AllocId, bytes: u64) -> Result<(), MemoryError> {
        let Some(&old) = self.live.get(&id.0) else {
            return Err(MemoryError::UnknownAllocation);
        };
        let free = self.capacity - self.in_use;
        if bytes > old && bytes - old > free {
            return Err(MemoryError::OutOfMemory { requested: bytes - old, free });
        }
        self.live.insert(id.0, bytes);
        self.in_use = self.in_use - old + bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decisions_follow_memory_kind() {
        assert_eq!(mapping_decision(MemoryKind::Shared), MappingDecision::Share);
        assert_eq!(mapping_decision(MemoryKind::Discrete), MappingDecision::Copy);
        assert_eq!(mapping_decision(MemoryKind::Unified), MappingDecision::UnifiedMigration);
    }

    #[test]
    fn alloc_free_accounting() {
        let mut m = MemorySpace::new(1000);
        let a = m.alloc(400).unwrap();
        let b = m.alloc(500).unwrap();
        assert_eq!(m.in_use(), 900);
        assert_eq!(m.peak(), 900);
        m.free(a).unwrap();
        assert_eq!(m.in_use(), 500);
        assert_eq!(m.peak(), 900, "peak is sticky");
        m.free(b).unwrap();
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.live_allocations(), 0);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut m = MemorySpace::new(100);
        m.alloc(90).unwrap();
        let err = m.alloc(20).unwrap_err();
        assert_eq!(err, MemoryError::OutOfMemory { requested: 20, free: 10 });
    }

    #[test]
    fn double_free_detected() {
        let mut m = MemorySpace::new(100);
        let a = m.alloc(10).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(MemoryError::UnknownAllocation));
    }

    #[test]
    fn realloc_grows_and_shrinks() {
        let mut m = MemorySpace::new(100);
        let a = m.alloc(40).unwrap();
        m.realloc(a, 70).unwrap();
        assert_eq!(m.in_use(), 70);
        assert_eq!(m.peak(), 70);
        m.realloc(a, 10).unwrap();
        assert_eq!(m.in_use(), 10);
        assert_eq!(m.peak(), 70, "peak is sticky");
        // Growth past capacity fails and leaves accounting untouched.
        let err = m.realloc(a, 200).unwrap_err();
        assert_eq!(err, MemoryError::OutOfMemory { requested: 190, free: 90 });
        assert_eq!(m.in_use(), 10);
        m.free(a).unwrap();
        assert_eq!(m.realloc(a, 5), Err(MemoryError::UnknownAllocation));
    }

    #[test]
    fn zero_byte_alloc_is_fine() {
        let mut m = MemorySpace::new(0);
        let a = m.alloc(0).unwrap();
        m.free(a).unwrap();
    }

    proptest! {
        /// in_use equals the sum of live allocation sizes under any
        /// interleaving of allocs and frees.
        #[test]
        fn accounting_invariant(ops in proptest::collection::vec(0u64..10_000, 1..50)) {
            let mut m = MemorySpace::new(u64::MAX);
            let mut live: Vec<(AllocId, u64)> = Vec::new();
            let mut expected = 0u64;
            for (i, sz) in ops.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let (id, sz) = live.remove(i % live.len());
                    m.free(id).unwrap();
                    expected -= sz;
                } else {
                    let id = m.alloc(*sz).unwrap();
                    live.push((id, *sz));
                    expected += sz;
                }
                prop_assert_eq!(m.in_use(), expected);
                prop_assert!(m.peak() >= m.in_use());
            }
        }
    }
}
