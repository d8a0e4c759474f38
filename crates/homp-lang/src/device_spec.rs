//! Resolution of `device(...)` specifiers against a concrete machine.
//!
//! A [`crate::ast::DeviceSpecifier`] like
//! `device(0:*:HOMP_DEVICE_NVGPU)` is resolved against the machine's
//! device list into concrete device IDs. This module is
//! machine-representation-agnostic: the caller supplies one type-name
//! string per device (`HOMP_DEVICE_HOSTCPU` / `HOMP_DEVICE_NVGPU` /
//! `HOMP_DEVICE_ITLMIC`), indexed by device ID.

use crate::ast::{Count, DeviceEntry, DeviceSpecifier, Env};

/// Error resolving a device specifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// A device ID is beyond the machine's device count.
    OutOfRange {
        /// The requested device ID.
        requested: u64,
        /// Number of devices in the machine.
        available: usize,
    },
    /// An explicit count walks past the end of the device list.
    CountOverrun {
        /// First device of the range.
        start: u64,
        /// Requested count.
        count: u64,
        /// Number of devices in the machine.
        available: usize,
    },
    /// The specifier matched no devices at all (e.g. a type filter with
    /// no devices of that type).
    Empty,
    /// A variable device entry has no binding, or a negative value.
    BadVariable {
        /// Variable name.
        name: String,
    },
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::OutOfRange { requested, available } => {
                write!(f, "device {requested} out of range (machine has {available})")
            }
            ResolveError::CountOverrun { start, count, available } => {
                write!(f, "device range {start}:{count} overruns the machine ({available} devices)")
            }
            ResolveError::Empty => write!(f, "device specifier selects no devices"),
            ResolveError::BadVariable { name } => {
                write!(f, "device variable `{name}` is unbound or negative")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// Resolve `spec` against a machine whose device `i` has type name
/// `device_types[i]`. Returns device IDs in specifier order with
/// duplicates removed (first occurrence wins).
pub fn resolve_devices(
    spec: &DeviceSpecifier,
    device_types: &[&str],
) -> Result<Vec<u32>, ResolveError> {
    resolve_devices_with_env(spec, device_types, &Env::new())
}

/// Like [`resolve_devices`], additionally resolving variable entries
/// (standard OpenMP `device(devid)`) against `env`.
pub fn resolve_devices_with_env(
    spec: &DeviceSpecifier,
    device_types: &[&str],
    env: &Env,
) -> Result<Vec<u32>, ResolveError> {
    let n = device_types.len();
    let mut out: Vec<u32> = Vec::new();
    let push = |id: u32, out: &mut Vec<u32>| {
        if !out.contains(&id) {
            out.push(id);
        }
    };

    for entry in &spec.entries {
        match entry {
            DeviceEntry::All => {
                for id in 0..n as u32 {
                    push(id, &mut out);
                }
            }
            DeviceEntry::Var(name) => {
                let id = match env.get(name) {
                    Some(&v) if v >= 0 => v as u64,
                    _ => return Err(ResolveError::BadVariable { name: name.clone() }),
                };
                if id as usize >= n {
                    return Err(ResolveError::OutOfRange { requested: id, available: n });
                }
                push(id as u32, &mut out);
            }
            DeviceEntry::Range { start, count, filter } => {
                if *start as usize >= n {
                    return Err(ResolveError::OutOfRange { requested: *start, available: n });
                }
                let matches_filter = |id: u64| -> bool {
                    match filter {
                        None => true,
                        Some(f) => type_matches(f, device_types[id as usize]),
                    }
                };
                match count {
                    Count::One => {
                        if matches_filter(*start) {
                            push(*start as u32, &mut out);
                        }
                    }
                    Count::N(c) => {
                        // An explicit count selects `c` consecutive
                        // devices of the filtered type.
                        let mut taken = 0u64;
                        let mut id = *start;
                        while taken < *c {
                            if id as usize >= n {
                                return Err(ResolveError::CountOverrun {
                                    start: *start,
                                    count: *c,
                                    available: n,
                                });
                            }
                            if matches_filter(id) {
                                push(id as u32, &mut out);
                                taken += 1;
                            }
                            id += 1;
                        }
                    }
                    Count::All => {
                        for id in *start..n as u64 {
                            if matches_filter(id) {
                                push(id as u32, &mut out);
                            }
                        }
                    }
                }
            }
        }
    }
    if out.is_empty() {
        return Err(ResolveError::Empty);
    }
    Ok(out)
}

/// Whether a filter name matches a device type name; both the canonical
/// `HOMP_DEVICE_*` constants and short aliases are accepted.
fn type_matches(filter: &str, type_name: &str) -> bool {
    if filter == type_name {
        return true;
    }
    fn canon(s: &str) -> &str {
        match s {
            "HOMP_DEVICE_HOSTCPU" | "host" | "cpu" | "HOSTCPU" => "HOMP_DEVICE_HOSTCPU",
            "HOMP_DEVICE_NVGPU" | "gpu" | "nvgpu" | "NVGPU" => "HOMP_DEVICE_NVGPU",
            "HOMP_DEVICE_ITLMIC" | "mic" | "itlmic" | "ITLMIC" => "HOMP_DEVICE_ITLMIC",
            other => other,
        }
    }
    canon(filter) == canon(type_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_directive;

    /// The paper's full node: host + 4 GPUs + 2 MICs.
    const FULL: &[&str] = &[
        "HOMP_DEVICE_HOSTCPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_NVGPU",
        "HOMP_DEVICE_ITLMIC",
        "HOMP_DEVICE_ITLMIC",
    ];

    fn spec(src: &str) -> DeviceSpecifier {
        parse_directive(&format!("target {src}")).unwrap().device().unwrap().clone()
    }

    #[test]
    fn star_selects_everything() {
        assert_eq!(resolve_devices(&spec("device(*)"), FULL).unwrap(), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn zero_colon_star_selects_everything() {
        assert_eq!(resolve_devices(&spec("device(0:*)"), FULL).unwrap(), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn explicit_list() {
        assert_eq!(resolve_devices(&spec("device(0, 2, 3, 5)"), FULL).unwrap(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn paper_example_ranges() {
        // device(0:2, 4:2) → 0,1,4,5 per the paper.
        assert_eq!(resolve_devices(&spec("device(0:2, 4:2)"), FULL).unwrap(), vec![0, 1, 4, 5]);
    }

    #[test]
    fn type_filter_selects_gpus() {
        assert_eq!(
            resolve_devices(&spec("device(0:*:HOMP_DEVICE_NVGPU)"), FULL).unwrap(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn short_alias_filter() {
        assert_eq!(resolve_devices(&spec("device(0:*:mic)"), FULL).unwrap(), vec![5, 6]);
    }

    #[test]
    fn counted_filter_skips_non_matching() {
        // Two GPUs starting from device 0: devices 1 and 2.
        assert_eq!(resolve_devices(&spec("device(0:2:gpu)"), FULL).unwrap(), vec![1, 2]);
    }

    #[test]
    fn duplicates_removed() {
        assert_eq!(resolve_devices(&spec("device(1, 1, 0:2)"), FULL).unwrap(), vec![1, 0]);
    }

    #[test]
    fn out_of_range_start() {
        assert_eq!(
            resolve_devices(&spec("device(9)"), FULL),
            Err(ResolveError::OutOfRange { requested: 9, available: 7 })
        );
    }

    #[test]
    fn count_overrun() {
        assert_eq!(
            resolve_devices(&spec("device(5:4)"), FULL),
            Err(ResolveError::CountOverrun { start: 5, count: 4, available: 7 })
        );
    }

    #[test]
    fn empty_selection_is_error() {
        let hosts_only: &[&str] = &["HOMP_DEVICE_HOSTCPU"];
        assert_eq!(resolve_devices(&spec("device(0:*:gpu)"), hosts_only), Err(ResolveError::Empty));
    }
}
