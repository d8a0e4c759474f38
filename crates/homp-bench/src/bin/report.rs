//! Render one offload's [`homp_core::RunReport`] — the scheduler
//! decision log plus trace-derived metrics.
//!
//! ```text
//! cargo run --release -p homp-bench --bin report -- [flags]
//!   --text | --json | --chrome    output format        (default --text)
//!   --seed N                      noise seed           (default 42)
//!   --machine full|gpus|cpumic    machine preset       (default full)
//!   --alg block|dynamic|guided|model1|model2|profile|mprofile
//!                                 algorithm            (default model2)
//!   --kernel axpy|matvec|matmul|stencil|sum|bm         (default axpy)
//! ```
//!
//! A single offload runs with the decision log enabled; the output is a
//! pure function of (seed, machine, algorithm, kernel) — in particular
//! it is independent of `HOMP_BENCH_JOBS`, which the determinism CI job
//! pins down by diffing `--json` at jobs 1 and 4 against a checked-in
//! golden file.

use homp_bench::experiment;
use homp_core::{Algorithm, RuntimeConfig};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::Machine;

enum Format {
    Text,
    Json,
    Chrome,
}

fn usage(msg: &str) -> ! {
    eprintln!("report: {msg}");
    eprintln!(
        "usage: report [--text|--json|--chrome] [--seed N] [--machine full|gpus|cpumic] \
         [--alg NAME] [--kernel NAME]"
    );
    std::process::exit(2)
}

fn main() {
    experiment("report", run);
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Text;
    let mut seed: u64 = 42;
    let mut machine = Machine::full_node();
    let mut alg = Algorithm::Model2 { cutoff: None };
    let mut spec = KernelSpec::Axpy(10_000_000);

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> &str {
            match it.next() {
                Some(v) => v,
                None => usage(&format!("{flag} needs a value")),
            }
        };
        match arg.as_str() {
            "--text" => format = Format::Text,
            "--json" => format = Format::Json,
            "--chrome" => format = Format::Chrome,
            "--seed" => {
                let v = value("--seed");
                seed = v.parse().unwrap_or_else(|_| usage(&format!("bad seed {v:?}")));
            }
            "--machine" => {
                machine = match value("--machine") {
                    "full" => Machine::full_node(),
                    "gpus" => Machine::four_k40(),
                    "cpumic" => Machine::two_cpus_two_mics(),
                    other => usage(&format!("unknown machine {other:?}")),
                }
            }
            "--alg" => {
                alg = match value("--alg") {
                    "block" => Algorithm::Block,
                    "dynamic" => Algorithm::Dynamic { chunk_pct: 2.0 },
                    "guided" => Algorithm::Guided { chunk_pct: 20.0 },
                    "model1" => Algorithm::Model1 { cutoff: None },
                    "model2" => Algorithm::Model2 { cutoff: None },
                    "profile" => Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None },
                    "mprofile" => Algorithm::ProfileModel { sample_pct: 10.0, cutoff: None },
                    other => usage(&format!("unknown algorithm {other:?}")),
                }
            }
            "--kernel" => {
                spec = match value("--kernel") {
                    "axpy" => KernelSpec::Axpy(10_000_000),
                    "matvec" => KernelSpec::MatVec(48_000),
                    "matmul" => KernelSpec::MatMul(6_144),
                    "stencil" => KernelSpec::Stencil2d(256),
                    "sum" => KernelSpec::Sum(300_000_000),
                    "bm" => KernelSpec::BlockMatching(256),
                    other => usage(&format!("unknown kernel {other:?}")),
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let mut rt = RuntimeConfig::new().seed(seed).decision_log(true).build(machine.clone());
    let region = spec.region((0..machine.len() as u32).collect(), alg);
    let mut k = PhantomKernel::new(spec.intensity());
    let report = rt.offload(&region, &mut k).run().expect("offload");
    homp_bench::count_cells(1);

    match format {
        Format::Text => print!("{}", report.run_report().to_text()),
        Format::Json => print!("{}", report.run_report().to_json()),
        Format::Chrome => print!("{}", report.trace.to_chrome_json()),
    }
}
