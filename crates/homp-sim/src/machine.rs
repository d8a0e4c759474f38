//! Machines: named collections of devices, plus the machine description
//! file format.
//!
//! "When being initialized, the HOMP runtime reads from a given machine
//! description file the specification of host CPU and accelerators"
//! (Section V). We implement that file as a simple line-oriented
//! key/value format (no external parser dependencies) with a writer and
//! a parser that round-trip, plus preset machines matching the
//! evaluation platform.

use crate::device::{
    dual_xeon_host, nvidia_k40, xeon_e5_2699v3, xeon_phi_7120p, DeviceDescriptor, DeviceId,
    DeviceType, Link, MemoryKind,
};
use homp_model::Hockney;

/// A heterogeneous node: an ordered list of devices. Device IDs are the
/// indices into this list, matching the paper's `device(0:*)` numbering.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Display name, e.g. `"2cpu+4gpu+2mic"`.
    pub name: String,
    /// The devices, indexed by [`DeviceId`].
    pub devices: Vec<DeviceDescriptor>,
}

impl Machine {
    /// Build from parts, re-assigning IDs to match positions.
    pub fn new(name: impl Into<String>, mut devices: Vec<DeviceDescriptor>) -> Self {
        for (i, d) in devices.iter_mut().enumerate() {
            d.id = i as DeviceId;
        }
        Self { name: name.into(), devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the machine has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Devices of a given type.
    pub fn by_type(&self, t: DeviceType) -> Vec<DeviceId> {
        self.devices.iter().filter(|d| d.dev_type == t).map(|d| d.id).collect()
    }

    /// Whether all devices are of the same type with identical sustained
    /// rate (drives the BLOCK-vs-MODEL_1 heuristic of §VI-D).
    pub fn is_homogeneous(&self) -> bool {
        match self.devices.split_first() {
            None => true,
            Some((first, rest)) => rest.iter().all(|d| {
                d.dev_type == first.dev_type
                    && (d.sustained_flops() - first.sustained_flops()).abs()
                        < 1e-6 * first.sustained_flops()
            }),
        }
    }

    /// Datasheet parameters for every device (what the machine
    /// description file declares).
    pub fn datasheet_params(&self) -> Vec<homp_model::DeviceParams> {
        self.devices.iter().map(|d| d.datasheet_params()).collect()
    }

    /// The evaluation machine's GPU partition: 4 K40s on 2 K80 cards
    /// (Section VI-A, Figures 5–7).
    pub fn four_k40() -> Machine {
        Machine::new(
            "4xK40",
            vec![nvidia_k40(0, 0), nvidia_k40(1, 1), nvidia_k40(2, 2), nvidia_k40(3, 3)],
        )
    }

    /// `n` identical K40s, each on its own bus (for strong-scaling
    /// sweeps, Fig. 7).
    pub fn k40s(n: usize) -> Machine {
        Machine::new(
            format!("{n}xK40"),
            (0..n).map(|i| nvidia_k40(i as DeviceId, i as u32)).collect(),
        )
    }

    /// 2 CPU sockets + 2 MICs (Section VI-B, Figure 8).
    pub fn two_cpus_two_mics() -> Machine {
        Machine::new(
            "2cpu+2mic",
            vec![xeon_e5_2699v3(0), xeon_e5_2699v3(1), xeon_phi_7120p(2, 0), xeon_phi_7120p(3, 1)],
        )
    }

    /// The full node: host (2 sockets as one device, as the paper counts
    /// for CUTOFF) + 4 K40s + 2 MICs = 7 devices (Section VI-C, Figure 9,
    /// Table V).
    pub fn full_node() -> Machine {
        Machine::new(
            "2cpu+4gpu+2mic",
            vec![
                dual_xeon_host(0),
                nvidia_k40(1, 1),
                nvidia_k40(2, 2),
                nvidia_k40(3, 3),
                nvidia_k40(4, 4),
                xeon_phi_7120p(5, 5),
                xeon_phi_7120p(6, 6),
            ],
        )
    }

    /// Serialize to the machine description file format.
    pub fn to_description(&self) -> String {
        let mut out = String::new();
        out.push_str("# HOMP machine description\n");
        out.push_str(&format!("machine {}\n", self.name));
        for d in &self.devices {
            out.push_str(&format!(
                "device {} type={} peak_gflops={} mem_bw_gbs={} efficiency={} memory={} launch_us={} capacity_mb={} teams={}",
                d.name,
                d.dev_type,
                d.peak_flops / 1e9,
                d.mem_bw / 1e9,
                d.efficiency,
                d.memory,
                d.launch_overhead * 1e6,
                d.mem_capacity >> 20,
                d.teams,
            ));
            if let Some(l) = d.link {
                out.push_str(&format!(
                    " link_alpha_us={} link_beta_gbs={} bus_group={}",
                    l.hockney.alpha * 1e6,
                    l.hockney.beta / 1e9,
                    l.bus_group
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Parse a machine description file.
    ///
    /// Every number must be finite. Rates (`peak_gflops`, `mem_bw_gbs`,
    /// `efficiency`, `link_beta_gbs`) must be above zero; latencies and
    /// sizes (`launch_us`, `link_alpha_us`, `capacity_mb`) at least zero.
    pub fn parse_description(text: &str) -> Result<Machine, MachineParseError> {
        let mut name = String::from("unnamed");
        let mut devices = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("machine") => {
                    name = parts
                        .next()
                        .ok_or(MachineParseError::new(lineno, "machine needs a name"))?
                        .to_string();
                }
                Some("device") => {
                    let dev_name = parts
                        .next()
                        .ok_or(MachineParseError::new(lineno, "device needs a name"))?
                        .to_string();
                    let mut dev_type = None;
                    let mut peak = None;
                    let mut bw = None;
                    let mut eff = 1.0;
                    let mut memory = MemoryKind::Shared;
                    let mut launch = 1e-6;
                    let mut alpha = None;
                    let mut beta = None;
                    let mut bus_group = 0u32;
                    let mut capacity: u64 = 64 << 30;
                    let mut teams: u32 = 16;
                    for kv in parts {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or(MachineParseError::new(lineno, "expected key=value"))?;
                        // A finite number, above zero for rates (which
                        // divide) and at least zero for latencies and sizes.
                        let numeric = |zero_ok: bool| {
                            let x = v.parse::<f64>().map_err(|_| {
                                MachineParseError::new(lineno, format!("bad number for {k}: {v}"))
                            })?;
                            if x.is_finite() && (x > 0.0 || (zero_ok && x >= 0.0)) {
                                return Ok(x);
                            }
                            let bound = if zero_ok { ">= 0" } else { "> 0" };
                            Err(MachineParseError::new(
                                lineno,
                                format!("{k} must be finite and {bound}, got {v}"),
                            ))
                        };
                        let rate = || numeric(false);
                        let size = || numeric(true);
                        match k {
                            "type" => {
                                dev_type = Some(DeviceType::parse(v).ok_or_else(|| {
                                    MachineParseError::new(lineno, format!("unknown type {v}"))
                                })?)
                            }
                            "peak_gflops" => peak = Some(rate()? * 1e9),
                            "mem_bw_gbs" => bw = Some(rate()? * 1e9),
                            "efficiency" => eff = rate()?,
                            "launch_us" => launch = size()? * 1e-6,
                            "capacity_mb" => capacity = (size()? * (1 << 20) as f64) as u64,
                            "teams" => {
                                teams = v.parse().map_err(|_| {
                                    MachineParseError::new(lineno, format!("bad teams {v}"))
                                })?
                            }
                            "link_alpha_us" => alpha = Some(size()? * 1e-6),
                            "link_beta_gbs" => beta = Some(rate()? * 1e9),
                            "bus_group" => {
                                bus_group = v.parse().map_err(|_| {
                                    MachineParseError::new(lineno, format!("bad bus_group {v}"))
                                })?
                            }
                            "memory" => {
                                memory = match v {
                                    "shared" => MemoryKind::Shared,
                                    "discrete" => MemoryKind::Discrete,
                                    "unified" => MemoryKind::Unified,
                                    _ => {
                                        return Err(MachineParseError::new(
                                            lineno,
                                            format!("unknown memory kind {v}"),
                                        ))
                                    }
                                }
                            }
                            _ => {
                                return Err(MachineParseError::new(
                                    lineno,
                                    format!("unknown key {k}"),
                                ))
                            }
                        }
                    }
                    let dev_type =
                        dev_type.ok_or(MachineParseError::new(lineno, "device needs type="))?;
                    let peak =
                        peak.ok_or(MachineParseError::new(lineno, "device needs peak_gflops="))?;
                    let bw =
                        bw.ok_or(MachineParseError::new(lineno, "device needs mem_bw_gbs="))?;
                    let link = match (alpha, beta) {
                        (Some(a), Some(b)) => Some(Link { hockney: Hockney::new(a, b), bus_group }),
                        (None, None) => None,
                        _ => {
                            return Err(MachineParseError::new(
                                lineno,
                                "link needs both link_alpha_us and link_beta_gbs",
                            ))
                        }
                    };
                    if memory == MemoryKind::Discrete && link.is_none() {
                        return Err(MachineParseError::new(
                            lineno,
                            "discrete-memory device needs a link",
                        ));
                    }
                    devices.push(DeviceDescriptor {
                        id: devices.len() as DeviceId,
                        name: dev_name,
                        dev_type,
                        peak_flops: peak,
                        mem_bw: bw,
                        efficiency: eff,
                        link,
                        memory,
                        launch_overhead: launch,
                        mem_capacity: capacity,
                        teams,
                    });
                }
                Some(other) => {
                    return Err(MachineParseError::new(
                        lineno,
                        format!("unknown directive {other}"),
                    ))
                }
                None => unreachable!("empty lines are skipped"),
            }
        }
        if devices.is_empty() {
            return Err(MachineParseError::new(0, "machine has no devices"));
        }
        Ok(Machine { name, devices })
    }
}

/// Error from [`Machine::parse_description`], with the 0-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineParseError {
    /// 0-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl MachineParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self { line, message: message.into() }
    }
}

impl std::fmt::Display for MachineParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine description line {}: {}", self.line + 1, self.message)
    }
}

impl std::error::Error for MachineParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        assert_eq!(Machine::four_k40().len(), 4);
        assert!(Machine::four_k40().is_homogeneous());
        assert_eq!(Machine::two_cpus_two_mics().len(), 4);
        assert!(!Machine::two_cpus_two_mics().is_homogeneous());
        let full = Machine::full_node();
        assert_eq!(full.len(), 7);
        assert_eq!(full.by_type(DeviceType::NvGpu).len(), 4);
        assert_eq!(full.by_type(DeviceType::IntelMic).len(), 2);
        assert_eq!(full.by_type(DeviceType::HostCpu), vec![0]);
    }

    #[test]
    fn ids_match_positions() {
        for (i, d) in Machine::full_node().devices.iter().enumerate() {
            assert_eq!(d.id as usize, i);
        }
    }

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
    }

    #[test]
    fn description_roundtrips() {
        for m in [Machine::four_k40(), Machine::two_cpus_two_mics(), Machine::full_node()] {
            let text = m.to_description();
            let parsed = Machine::parse_description(&text).unwrap();
            assert_eq!(parsed.name, m.name);
            assert_eq!(parsed.len(), m.len());
            for (p, d) in parsed.devices.iter().zip(&m.devices) {
                assert_eq!(p.name, d.name);
                assert_eq!(p.dev_type, d.dev_type);
                assert_eq!(p.memory, d.memory);
                assert!(approx(p.peak_flops, d.peak_flops));
                assert!(approx(p.mem_bw, d.mem_bw));
                assert!(approx(p.efficiency, d.efficiency));
                assert!(approx(p.launch_overhead, d.launch_overhead));
                match (p.link, d.link) {
                    (None, None) => {}
                    (Some(pl), Some(dl)) => {
                        assert_eq!(pl.bus_group, dl.bus_group);
                        assert!(approx(pl.hockney.alpha, dl.hockney.alpha));
                        assert!(approx(pl.hockney.beta, dl.hockney.beta));
                    }
                    other => panic!("link mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Machine::parse_description("flurble").is_err());
        assert!(Machine::parse_description("device x type=gpu").is_err()); // missing peak
        assert!(Machine::parse_description(
            "device x type=gpu peak_gflops=1 mem_bw_gbs=1 link_alpha_us=1"
        )
        .is_err()); // half a link
        assert!(Machine::parse_description("").is_err()); // no devices
    }

    #[test]
    fn out_of_range_numbers_are_typed_errors() {
        // One case per numeric key: every value a simulation cannot
        // price (a zero rate divides, NaN and inf poison the clock).
        let cases: [(&str, &[&str]); 7] = [
            ("peak_gflops", &["0", "-1", "NaN", "inf"]),
            ("mem_bw_gbs", &["0", "-1", "NaN", "inf"]),
            ("efficiency", &["0", "-1", "NaN", "inf"]),
            ("launch_us", &["-1", "NaN", "inf"]),
            ("capacity_mb", &["-1", "NaN", "inf"]),
            ("link_alpha_us", &["-1", "NaN", "inf"]),
            ("link_beta_gbs", &["0", "-1", "NaN", "inf"]),
        ];
        let base = "device g type=gpu peak_gflops=1 mem_bw_gbs=1 link_alpha_us=1 link_beta_gbs=1";
        for (key, bad) in cases {
            for v in bad {
                let text = format!("machine m\n{base} {key}={v}\n");
                let err = Machine::parse_description(&text)
                    .expect_err(&format!("{key}={v} must be rejected"));
                assert_eq!(err.line, 1, "{key}={v}");
                assert!(err.message.contains(key), "{key}={v}: {err}");
            }
        }
        // The bounds are inclusive where zero is meaningful.
        for ok in ["launch_us=0", "capacity_mb=0", "link_alpha_us=0"] {
            assert!(Machine::parse_description(&format!("{base} {ok}")).is_ok(), "{ok}");
        }
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = Machine::parse_description("machine m\n\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn discrete_device_without_link_rejected() {
        let err = Machine::parse_description(
            "device x type=gpu peak_gflops=1 mem_bw_gbs=1 memory=discrete",
        )
        .unwrap_err();
        assert!(err.message.contains("link"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let m = Machine::parse_description(
            "# hello\n\nmachine test\ndevice h type=host peak_gflops=100 mem_bw_gbs=10\n",
        )
        .unwrap();
        assert_eq!(m.name, "test");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn k40s_scaling_preset() {
        for n in 1..=4 {
            let m = Machine::k40s(n);
            assert_eq!(m.len(), n);
            assert!(m.is_homogeneous());
        }
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;

    #[test]
    fn description_carries_capacity_and_teams() {
        let text = Machine::four_k40().to_description();
        assert!(text.contains("capacity_mb=12288"), "{text}");
        assert!(text.contains("teams=15"), "{text}");
        let parsed = Machine::parse_description(&text).unwrap();
        assert_eq!(parsed.devices[0].mem_capacity, 12 << 30);
        assert_eq!(parsed.devices[0].teams, 15);
    }

    #[test]
    fn capacity_defaults_when_omitted() {
        let m =
            Machine::parse_description("device h type=host peak_gflops=100 mem_bw_gbs=10").unwrap();
        assert_eq!(m.devices[0].mem_capacity, 64 << 30);
        assert_eq!(m.devices[0].teams, 16);
    }

    #[test]
    fn bad_teams_value_rejected() {
        let err = Machine::parse_description(
            "device h type=host peak_gflops=100 mem_bw_gbs=10 teams=lots",
        )
        .unwrap_err();
        assert!(err.message.contains("teams"));
    }

    #[test]
    fn fractional_capacity_mb_parses() {
        let m = Machine::parse_description(
            "device h type=host peak_gflops=100 mem_bw_gbs=10 capacity_mb=0.5",
        )
        .unwrap();
        assert_eq!(m.devices[0].mem_capacity, 512 << 10);
    }
}
