//! Deterministic discrete-event simulator of a heterogeneous
//! accelerator-based node — the hardware substrate for the HOMP runtime.
//!
//! The paper evaluates on a machine with two Xeon E5-2699 CPUs, four
//! NVIDIA K40 GPUs and two Intel Xeon Phi 7120P coprocessors. This crate
//! replaces that hardware with a simulator whose observable behaviour —
//! per-chunk completion times, transfer costs, DMA/compute overlap, bus
//! contention, launch overheads, run-to-run jitter — matches the shape
//! the scheduling algorithms in `homp-core` care about:
//!
//! * [`time`] — the virtual clock ([`SimTime`], [`SimSpan`]).
//! * [`noise`] — deterministic multiplicative jitter.
//! * [`device`] — device descriptors and the K40 / Xeon / Phi catalogs.
//! * [`machine`] — machines, presets, and the machine description file.
//! * [`memory`] — per-device memory spaces, copy-vs-share decisions.
//! * [`engine`] — the resource-calendar simulation core.
//! * [`fault`] — deterministic fault injection (transient DMA errors,
//!   launch timeouts, permanent device dropout).
//! * [`trace`] — operation traces, ASCII Gantt, CSV and Chrome exports.
//! * [`fixed`] — fixed-precision float rendering, byte-identical to
//!   `core::fmt`'s `{:.N}`, for reports and trace exports.
//! * [`metrics`] — per-device utilization, DMA/compute overlap, queue
//!   wait, byte/iteration counters and fault tallies, all derived from a
//!   finished trace (pure read-side observability).
//! * [`profile`] — simulated microbenchmark profiling of machine
//!   constants (the runtime measures devices, it never reads ground
//!   truth).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod device;
pub mod engine;
pub mod fault;
pub mod fixed;
pub mod machine;
pub mod memory;
pub mod metrics;
pub mod noise;
pub mod profile;
pub mod time;
pub mod trace;

pub use device::{DeviceDescriptor, DeviceId, DeviceType, Link, MemoryKind};
pub use engine::{ChunkWork, Dir, Engine, TeamSched};
pub use fault::{DeviceFaultPlan, Fault, FaultKind, FaultPlan, FlakyWindow, SlowdownWindow};
pub use machine::{Machine, MachineParseError};
pub use memory::{mapping_decision, AllocId, MappingDecision, MemoryError, MemorySpace};
pub use metrics::{DeviceMetrics, Metrics, TransferStats};
pub use noise::NoiseModel;
pub use profile::{profile_device, profile_machine, solve_hockney};
pub use time::{SimSpan, SimTime};
pub use trace::{LabelId, OpKind, Trace, TraceEvent, TraceLevel};
