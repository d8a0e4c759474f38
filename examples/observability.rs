//! Observability: turn on the scheduler decision log, run the same
//! loop under a model-driven and a work-stealing schedule, and print
//! the full run report — per-device utilization, DMA/compute overlap,
//! transfer volumes, the paper's max/min load-balance ratio, and how
//! far the model's predicted chunk costs landed from what the
//! simulator actually charged. Run with
//!
//! ```text
//! cargo run --release --example observability
//! ```

use homp::prelude::*;

const N: usize = 1_000_000;

fn run(homp: &mut Homp, schedule: &str) -> OffloadReport {
    let mut env = Env::new();
    env.insert("n".into(), N as i64);
    let region = homp
        .compile_source(
            &[
                "#pragma omp parallel target device(*) \
                 map(tofrom: y[0:n] partition([ALIGN(loop)])) \
                 map(to: x[0:n] partition([ALIGN(loop)]),a,n)",
                &format!("#pragma omp parallel for distribute dist_schedule(target:[{schedule}])"),
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
        homp.offload(&region, &mut kernel).run().expect("offload")
    };
    assert!(y.iter().enumerate().all(|(i, &v)| v == 1.0 + a * ((i % 10) as f64)));
    report
}

fn main() {
    // One switch: every offload carries its decision log.
    let mut homp =
        Homp::with_runtime(RuntimeConfig::new().decision_log(true).build(Machine::full_node()));

    for schedule in ["MODEL_2_AUTO", "SCHED_DYNAMIC,2%"] {
        let report = run(&mut homp, schedule);
        print!("{}", report.run_report().to_text());
        println!();
    }
    println!(
        "(MODEL_2 predicts each chunk before it runs — the report grades those predictions; \
         SCHED_DYNAMIC measures instead of predicting, so its report shows none.)"
    );
}
