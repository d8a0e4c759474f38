//! Device models.
//!
//! A [`DeviceDescriptor`] is the simulator's ground-truth description of
//! one computational device, mirroring what the paper's runtime reads
//! from its machine description file: device type, peak compute rate,
//! memory bandwidth, the PCIe link for accelerators, memory kind
//! (discrete vs shared vs unified) and per-offload launch overhead.
//!
//! Catalog constructors encode the evaluation machine of Section VI:
//! Xeon E5-2699 v3 sockets, NVIDIA K40 GPUs (paired on K80 cards, sharing
//! a bus group) and Intel Xeon Phi SC7120P coprocessors, using datasheet
//! numbers attenuated by a sustained-efficiency factor.

use homp_model::{DeviceParams, Hockney};

/// Identifier of a device within a [`crate::machine::Machine`] — an index
/// into the machine's device list.
pub type DeviceId = u32;

/// Kind of processor, the `dev_type_filter` of the extended `device`
/// clause (`device(0:*:HOMP_DEVICE_NVGPU)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// Host CPU (one socket or a combined host device).
    HostCpu,
    /// NVIDIA GPU.
    NvGpu,
    /// Intel Many Integrated Core coprocessor.
    IntelMic,
}

impl DeviceType {
    /// The HOMP source-level name of the type filter.
    pub fn homp_name(&self) -> &'static str {
        match self {
            DeviceType::HostCpu => "HOMP_DEVICE_HOSTCPU",
            DeviceType::NvGpu => "HOMP_DEVICE_NVGPU",
            DeviceType::IntelMic => "HOMP_DEVICE_ITLMIC",
        }
    }

    /// Parse a type filter name (either the full `HOMP_DEVICE_*` constant
    /// or a short alias).
    pub fn parse(s: &str) -> Option<DeviceType> {
        match s {
            "HOMP_DEVICE_HOSTCPU" | "host" | "cpu" | "HOSTCPU" => Some(DeviceType::HostCpu),
            "HOMP_DEVICE_NVGPU" | "nvgpu" | "gpu" | "NVGPU" => Some(DeviceType::NvGpu),
            "HOMP_DEVICE_ITLMIC" | "mic" | "itlmic" | "ITLMIC" => Some(DeviceType::IntelMic),
            _ => None,
        }
    }
}

impl std::fmt::Display for DeviceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceType::HostCpu => write!(f, "host"),
            DeviceType::NvGpu => write!(f, "nvgpu"),
            DeviceType::IntelMic => write!(f, "mic"),
        }
    }
}

/// Memory relationship between a device and the host (Section V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Shares the host address space — mapping is free ("shared").
    Shared,
    /// Separate device memory — mapping copies over the link.
    Discrete,
    /// CUDA-style unified memory: shared semantics, but pages migrate on
    /// demand over the bus at a penalty (the paper measured 10–18×
    /// slowdowns and disables it by default).
    Unified,
}

impl std::fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryKind::Shared => write!(f, "shared"),
            MemoryKind::Discrete => write!(f, "discrete"),
            MemoryKind::Unified => write!(f, "unified"),
        }
    }
}

/// Host link of an accelerator: a Hockney model plus the bus group it
/// contends on (both K40s of one K80 card share one PCIe slot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Latency/bandwidth of the link.
    pub hockney: Hockney,
    /// Devices with equal `bus_group` serialize their transfers.
    pub bus_group: u32,
}

/// Ground-truth description of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDescriptor {
    /// Index within the machine.
    pub id: DeviceId,
    /// Human-readable name, e.g. `"k40-0"`.
    pub name: String,
    /// Processor kind.
    pub dev_type: DeviceType,
    /// Datasheet peak, FLOP/s (double precision).
    pub peak_flops: f64,
    /// Local memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Fraction of peak sustained on real kernels (0, 1].
    pub efficiency: f64,
    /// Link to host memory; `None` for host devices.
    pub link: Option<Link>,
    /// Memory kind relative to the host.
    pub memory: MemoryKind,
    /// Per-offload fixed overhead, seconds.
    pub launch_overhead: f64,
    /// Device memory capacity in bytes (shared-memory devices use the
    /// host pool).
    pub mem_capacity: u64,
    /// Number of teams the device schedules internally (CUDA SMs, CPU
    /// cores, MIC cores) — the granularity of `dist_schedule(teams:…)`.
    pub teams: u32,
}

impl DeviceDescriptor {
    /// Sustained compute rate: peak × efficiency.
    pub fn sustained_flops(&self) -> f64 {
        self.peak_flops * self.efficiency
    }

    /// Sustained memory bandwidth: datasheet peak × efficiency (STREAM
    /// never reaches the datasheet number).
    pub fn sustained_bw(&self) -> f64 {
        self.mem_bw * self.efficiency
    }

    /// Whether transfers to this device cost anything.
    pub fn needs_copy(&self) -> bool {
        matches!(self.memory, MemoryKind::Discrete)
    }

    /// Model-facing view: what `MODEL_1`/`MODEL_2` would learn about this
    /// device from perfect microbenchmark profiling.
    pub fn to_params(&self) -> DeviceParams {
        DeviceParams {
            perf_flops: self.sustained_flops(),
            mem_bw: self.sustained_bw(),
            link: if self.needs_copy() { self.link.map(|l| l.hockney) } else { None },
            launch_overhead: self.launch_overhead,
        }
    }

    /// Datasheet view: the numbers the machine description file carries
    /// and the paper's runtime feeds its models — "we would use peak
    /// performance as guideline to distribute loop iterations". The gap
    /// between datasheet and sustained behaviour is what CUTOFF corrects
    /// for (Table V).
    pub fn datasheet_params(&self) -> DeviceParams {
        DeviceParams {
            perf_flops: self.peak_flops,
            mem_bw: self.mem_bw,
            link: if self.needs_copy() { self.link.map(|l| l.hockney) } else { None },
            launch_overhead: self.launch_overhead,
        }
    }
}

/// One Xeon E5-2699 v3 socket: 18 cores × 2.3 GHz × 16 DP FLOP/cycle
/// ≈ 662 GFLOP/s, ~68 GB/s per socket.
pub fn xeon_e5_2699v3(id: DeviceId) -> DeviceDescriptor {
    DeviceDescriptor {
        id,
        name: format!("xeon-e5-2699v3-{id}"),
        dev_type: DeviceType::HostCpu,
        peak_flops: 662e9,
        mem_bw: 68e9,
        efficiency: 0.80,
        link: None,
        memory: MemoryKind::Shared,
        launch_overhead: 1e-6,
        mem_capacity: 128 << 30,
        teams: 18, // cores per socket
    }
}

/// The paper's two sockets combined into one host device (how the CUTOFF
/// ratio of 100/7 counts them).
pub fn dual_xeon_host(id: DeviceId) -> DeviceDescriptor {
    DeviceDescriptor {
        id,
        name: format!("host-2x-e5-2699v3-{id}"),
        dev_type: DeviceType::HostCpu,
        peak_flops: 2.0 * 662e9,
        mem_bw: 2.0 * 68e9,
        efficiency: 0.80,
        link: None,
        memory: MemoryKind::Shared,
        launch_overhead: 1e-6,
        mem_capacity: 256 << 30,
        teams: 36, // both sockets
    }
}

/// One NVIDIA K40 (one half of a K80 card): 1.43 TFLOP/s DP, 288 GB/s
/// GDDR5, PCIe 3.0 x16 at a measured ~10 GB/s per direction with
/// ~10 µs latency. Pass distinct `bus_group`s for independent links,
/// or a shared group to model two K40s serializing on one K80 slot
/// (the `ablation_bus` bench compares the two).
pub fn nvidia_k40(id: DeviceId, bus_group: u32) -> DeviceDescriptor {
    DeviceDescriptor {
        id,
        name: format!("k40-{id}"),
        dev_type: DeviceType::NvGpu,
        peak_flops: 1.43e12,
        mem_bw: 288e9,
        efficiency: 0.70,
        link: Some(Link { hockney: Hockney::new(10e-6, 10e9), bus_group }),
        memory: MemoryKind::Discrete,
        launch_overhead: 10e-6,
        mem_capacity: 12 << 30, // 12 GB GDDR5
        teams: 15,              // SMX units
    }
}

/// One Intel Xeon Phi SC7120P: 1.21 TFLOP/s DP, 352 GB/s GDDR5, PCIe 2.0
/// x16 at ~6 GB/s. Compiler-generated offload kernels sustain a small
/// fraction of peak on KNC, and each Intel-offload transaction costs on
/// the order of a millisecond — both notorious in practice and the
/// reason CUTOFF prunes MICs in the paper's Table V.
pub fn xeon_phi_7120p(id: DeviceId, bus_group: u32) -> DeviceDescriptor {
    DeviceDescriptor {
        id,
        name: format!("phi-7120p-{id}"),
        dev_type: DeviceType::IntelMic,
        peak_flops: 1.21e12,
        mem_bw: 352e9,
        efficiency: 0.45,
        link: Some(Link { hockney: Hockney::new(20e-6, 6e9), bus_group }),
        memory: MemoryKind::Discrete,
        launch_overhead: 1e-3,
        mem_capacity: 16 << 30, // 16 GB GDDR5
        teams: 61,              // in-order cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_is_discrete_and_linked() {
        let d = nvidia_k40(0, 0);
        assert!(d.needs_copy());
        assert!(d.link.is_some());
        assert_eq!(d.dev_type, DeviceType::NvGpu);
    }

    #[test]
    fn host_params_have_no_link() {
        let d = xeon_e5_2699v3(0);
        let p = d.to_params();
        assert!(p.link.is_none());
        assert!((p.perf_flops - 662e9 * 0.8).abs() < 1.0);
    }

    #[test]
    fn sustained_below_peak() {
        for d in [xeon_e5_2699v3(0), nvidia_k40(1, 0), xeon_phi_7120p(2, 1)] {
            assert!(d.sustained_flops() < d.peak_flops);
            assert!(d.sustained_flops() > 0.0);
        }
    }

    #[test]
    fn type_names_roundtrip() {
        for t in [DeviceType::HostCpu, DeviceType::NvGpu, DeviceType::IntelMic] {
            assert_eq!(DeviceType::parse(t.homp_name()), Some(t));
        }
        assert_eq!(DeviceType::parse("gpu"), Some(DeviceType::NvGpu));
        assert_eq!(DeviceType::parse("bogus"), None);
    }

    #[test]
    fn gpu_faster_than_cpu_socket_on_paper_machine() {
        let gpu = nvidia_k40(0, 0);
        let cpu = xeon_e5_2699v3(1);
        assert!(gpu.sustained_flops() > cpu.sustained_flops());
        assert!(gpu.mem_bw > cpu.mem_bw);
    }
}
