//! Fault injection and recovery: a GPU drops out mid-region, another
//! suffers transient DMA errors — the runtime retries, quarantines, and
//! re-queues the orphaned work onto the survivors so every iteration
//! still executes exactly once. Run with
//!
//! ```text
//! cargo run --release --example faults
//! ```

use homp::prelude::*;

const N: usize = 1_000_000;

fn run(homp: &mut Homp, label: &str) -> OffloadReport {
    let mut env = Env::new();
    env.insert("n".into(), N as i64);
    let region = homp
        .compile_source(
            &[
                "#pragma omp parallel target device(*) \
                 map(tofrom: y[0:n] partition([ALIGN(loop)])) \
                 map(to: x[0:n] partition([ALIGN(loop)]),a,n)",
                "#pragma omp parallel for distribute dist_schedule(target:[SCHED_DYNAMIC,2%])",
            ],
            &env,
            CompileOptions::for_loop("axpy", N as u64),
        )
        .expect("directives compile");

    let a = 2.0f64;
    let x: Vec<f64> = (0..N).map(|i| (i % 10) as f64).collect();
    let mut y: Vec<f64> = vec![1.0; N];
    let report = {
        let mut kernel = FnKernel::new(homp::kernels::axpy::intensity(), |r: Range| {
            for i in r.start as usize..r.end as usize {
                y[i] += a * x[i];
            }
        });
        homp.offload(&region, &mut kernel).run().expect("offload survives the faults")
    };

    // Exactly-once execution: the math is correct despite the failures.
    for (i, v) in y.iter().enumerate() {
        assert_eq!(*v, 1.0 + 2.0 * (i % 10) as f64, "y[{i}]");
    }

    println!("\n== {label} ==");
    println!("virtual time     : {:.3} ms", report.time_ms());
    println!("chunks scheduled : {}", report.chunks);
    println!("retries          : {}", report.faults.transient_retries);
    println!("dropouts         : {:?}", report.faults.dropouts);
    println!(
        "requeued         : {} chunks / {} iterations",
        report.faults.requeued_chunks, report.faults.requeued_iters
    );
    for (slot, (&dev, &count)) in report.devices.iter().zip(&report.counts).enumerate() {
        let d = &homp.runtime().machine().devices[dev as usize];
        println!(
            "  slot {slot}: {:<16} {:>9} iterations ({:>5.1} %)",
            d.name,
            count,
            count as f64 / N as f64 * 100.0
        );
    }
    report
}

fn main() {
    println!("HOMP fault injection — AXPY on a simulated 4-GPU node");

    // Baseline: no faults.
    let mut healthy = Homp::new(Machine::four_k40());
    let base = run(&mut healthy, "healthy node");

    // Device 3 drops out permanently mid-region; device 1's DMA engine
    // flips a transient error on ~2% of transfers.
    let plan = FaultPlan::new(7).with_dropout_at(3, 0.5e-3).with_transient_dma(1, 0.02);
    let faults = FaultConfig::new(plan);
    let mut faulty =
        Homp::with_runtime(Runtime::with_fault_config(Machine::four_k40(), 42, faults));
    let hit = run(&mut faulty, "device 3 dies at 0.5 ms, device 1 has flaky DMA");

    assert!(hit.faults.any(), "faults should have fired");
    println!(
        "\nrecovery cost: {:.3} ms -> {:.3} ms ({:+.1} %)",
        base.time_ms(),
        hit.time_ms(),
        (hit.time_ms() / base.time_ms() - 1.0) * 100.0
    );
}
