//! Machine description files and out-of-core streaming.
//!
//! "When being initialized, the HOMP runtime reads from a given machine
//! description file the specification of host CPU and accelerators"
//! (Section V). This example writes a custom machine file for an
//! imaginary box (one host + one fat GPU + one tiny 2 GB GPU), loads it
//! back, and shows two consequences of device memory limits:
//!
//! * a static BLOCK plan whose per-device mapping does not fit is
//!   rejected with `OutOfDeviceMemory`;
//! * the same workload *streams* under SCHED_DYNAMIC, whose footprint is
//!   two chunks regardless of loop size.
//!
//! ```text
//! cargo run --release --example machine_file
//! ```

use homp::kernels::matvec;
use homp::prelude::*;

const DESCRIPTION: &str = "\
# custom-box: host + fat GPU + tiny 2 GB GPU
machine custom-box
device bighost type=host peak_gflops=1000 mem_bw_gbs=100 efficiency=0.8 launch_us=1 capacity_mb=131072
device fatgpu  type=gpu  peak_gflops=4000 mem_bw_gbs=500 efficiency=0.7 launch_us=10 memory=discrete link_alpha_us=10 link_beta_gbs=16 bus_group=0 capacity_mb=32768
device tinygpu type=gpu  peak_gflops=2000 mem_bw_gbs=300 efficiency=0.7 launch_us=10 memory=discrete link_alpha_us=10 link_beta_gbs=16 bus_group=1 capacity_mb=2048
";

fn main() {
    // Round-trip the description through a real file.
    let path = std::env::temp_dir().join("homp-custom-box.machine");
    std::fs::write(&path, DESCRIPTION).expect("write machine file");
    let text = std::fs::read_to_string(&path).expect("read machine file");
    let machine = Machine::parse_description(&text).expect("valid description");
    println!("loaded machine `{}` from {}:", machine.name, path.display());
    for d in &machine.devices {
        println!(
            "  {:<8} {:>7.0} GF peak, {:>5.0} GB/s, {:>6} MiB, {}",
            d.name,
            d.peak_flops / 1e9,
            d.mem_bw / 1e9,
            d.mem_capacity >> 20,
            d.memory
        );
    }

    // matvec with a 7.2 GB matrix: a BLOCK third (~2.4 GB) exceeds the
    // tiny GPU's 2 GB.
    let n: u64 = 30_000; // A = n²·8 B ≈ 7.2 GB; a BLOCK third ≈ 2.4 GB
    let mut rt = Runtime::new(machine.clone(), 7);

    println!("\nmatvec-{n} (A ≈ {:.1} GB) under BLOCK:", (n * n * 8) as f64 / 1e9);
    let region = matvec::region(n, vec![0, 1, 2], Algorithm::Block);
    let mut phantom = PhantomKernel::new(matvec::intensity(n));
    match rt.offload(&region, &mut phantom).run() {
        Err(e) => println!("  rejected as expected: {e}"),
        Ok(r) => println!("  unexpectedly ran in {:.3} ms", r.time_ms()),
    }

    println!("\nsame workload under SCHED_DYNAMIC,1% (streams two chunks at a time):");
    let region = matvec::region(n, vec![0, 1, 2], Algorithm::Dynamic { chunk_pct: 1.0 });
    let mut phantom = PhantomKernel::new(matvec::intensity(n));
    match rt.offload(&region, &mut phantom).run() {
        Ok(r) => {
            println!(
                "  ran in {:.3} ms over {} chunks; per-device rows: {:?}",
                r.time_ms(),
                r.chunks,
                r.counts
            );
        }
        Err(e) => println!("  failed: {e}"),
    }

    println!("\nMODEL_2 with the tiny GPU cut off (15%):");
    let region = matvec::region(n, vec![0, 1, 2], Algorithm::Model2 { cutoff: Some(0.15) });
    let mut phantom = PhantomKernel::new(matvec::intensity(n));
    match rt.offload(&region, &mut phantom).run() {
        Ok(r) => println!("  ran in {:.3} ms; devices kept: {:?}", r.time_ms(), r.kept_devices),
        Err(e) => println!("  failed: {e}"),
    }

    let _ = std::fs::remove_file(&path);
}
