//! Table IV — benchmark characteristics: the MemComp / DataComp
//! intensity ratios of each kernel at the paper's problem sizes, with
//! the class each ratio implies.

use homp_bench::{experiment, write_artifact};
use homp_kernels::table_iv_paper_sizes;
use std::fmt::Write as _;

fn main() {
    experiment("table4", run);
}

fn run() {
    println!("== Table IV: benchmark characteristics ==");
    println!("{:<24} {:<12} {:>10} {:>10}   class", "kernel", "size", "MemComp", "DataComp");
    let mut csv = String::from("kernel,size,mem_comp,data_comp,class\n");
    for row in table_iv_paper_sizes() {
        println!(
            "{:<24} {:<12} {:>10.4} {:>10.4}   {}",
            row.name, row.size_note, row.mem_comp, row.data_comp, row.class
        );
        let _ = writeln!(
            csv,
            "{},{},{:.6},{:.6},{}",
            row.name, row.size_note, row.mem_comp, row.data_comp, row.class
        );
    }
    println!("\npaper values: AXPY 1.5/1.5, MV 1+0.5/N / 0.5+1/N, MM 1.5/N / 1.5/N,");
    println!("              Stencil 0.5 / 1/13, Sum 1/1, BM 0.5 / 0.06");
    write_artifact("table4.csv", &csv);
}
