//! A tour of the HOMP directive language: every extension of Section
//! III parsed, printed back, and (where it denotes work) lowered.
//!
//! ```text
//! cargo run --release --example directive_tour
//! ```

use homp::lang::{parse_algorithm_notation, parse_directive, resolve_devices};
use homp::prelude::*;

fn main() {
    let machine = Machine::full_node();
    let type_names: Vec<&str> = machine.devices.iter().map(|d| d.dev_type.homp_name()).collect();

    println!("== 1. Extended device clauses ==");
    for src in [
        "device(*)",
        "device(0:*)",
        "device(0, 2, 3, 5)",
        "device(0:2, 4:2)",
        "device(0:*:HOMP_DEVICE_NVGPU)",
        "device(0:*:mic)",
    ] {
        let d = parse_directive(&format!("target {src}")).unwrap();
        let resolved = resolve_devices(d.device().unwrap(), &type_names).unwrap();
        println!("  {src:<34} -> devices {resolved:?}");
    }

    println!("\n== 2. Partition and halo parameters on map clauses ==");
    let jacobi = parse_directive(
        "#pragma omp parallel target data device(*) \
         map(to:n, m, omega, ax, ay, b, f[0:n][0:m] partition([ALIGN(loop1)], FULL)) \
         map(tofrom:u[0:n][0:m] partition([ALIGN(loop1)], FULL)) \
         map(alloc:uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))",
    )
    .unwrap();
    println!("  parsed Fig. 3 data directive; canonical form:");
    println!("  {jacobi}");

    println!("\n== 3. dist_schedule kinds (Table I + Table II notations) ==");
    for src in [
        "dist_schedule(target:[BLOCK])",
        "dist_schedule(target:[AUTO])",
        "dist_schedule(target:[ALIGN(x)])",
        "dist_schedule(target:[SCHED_DYNAMIC,2%])",
        "dist_schedule(target:[SCHED_GUIDED,20%])",
        "dist_schedule(target:[MODEL_2_AUTO], CUTOFF(15%))",
    ] {
        let d = parse_directive(&format!("parallel for distribute {src}")).unwrap();
        let s = d.dist_schedule().unwrap();
        println!("  {src:<50} -> kind {:?}, cutoff {:?}", s.kind, s.cutoff_pct);
    }

    println!("\n== 4. Table II evaluation notations ==");
    for src in ["SCED_DYNAMIC,2%", "MODEL_1_AUTO,-1,15%", "SCED_PROFILE_AUTO,10%,15%"] {
        let (kind, cutoff) = parse_algorithm_notation(src).unwrap();
        println!("  {src:<28} -> {kind:?} cutoff {cutoff:?}");
    }

    println!("\n== 5. halo_exchange directive ==");
    let hx = parse_directive("#pragma omp halo_exchange (uold)").unwrap();
    println!("  parsed: {hx}");

    println!("\n== 6. Full lowering of the Fig. 3 pair ==");
    let lp = parse_directive(
        "#pragma omp parallel for target device(*) reduction(+:error) \
         distribute dist_schedule(target:[AUTO])",
    )
    .unwrap();
    let mut env = Env::new();
    env.insert("n".into(), 512);
    env.insert("m".into(), 512);
    let region = homp::core::compile(
        &[&jacobi, &lp],
        &env,
        &type_names,
        &CompileOptions::for_loop("jacobi", 512).with_loop_label("loop1"),
    )
    .unwrap();
    println!(
        "  region `{}`: {} devices, {} arrays, algorithm {}",
        region.name,
        region.devices.len(),
        region.arrays.len(),
        region.algorithm
    );
    for a in &region.arrays {
        println!("    {:<6} {:<7} dims {:?} halo {:?}", a.name, a.dir.to_string(), a.dims, a.halo);
    }

    println!("\n== 7. Pipeline clauses: nowait + depend ==");
    let sweep = parse_directive(
        "#pragma omp parallel for target device(*) nowait \
         depend(in: u) depend(out: unew) \
         map(to: u[0:n] partition([ALIGN(loop)]), n) \
         map(tofrom: unew[0:n] partition([ALIGN(loop)])) \
         distribute dist_schedule(target:[BLOCK])",
    )
    .unwrap();
    println!("  canonical form:");
    println!("  {sweep}");
    let stage =
        homp::core::compile(&[&sweep], &env, &type_names, &CompileOptions::for_loop("sweep", 512))
            .unwrap();
    println!(
        "  lowered: nowait={} depend(in: {:?}) depend(out: {:?})",
        stage.nowait, stage.depends_in, stage.depends_out
    );
    println!("  -> feed such stages to Pipeline::builder().then(...) and");
    println!("     Runtime::offload_pipeline chunks consumer launches on");
    println!("     producer-chunk completion (see examples/pipeline.rs).");

    println!("\n== 8. Parse errors carry positions ==");
    let err = parse_directive("parallel for target frobnicate(3)").unwrap_err();
    println!("  {err}");
}
