//! Section II (Motivation), as executable assertions: the progression
//! from Fig. 1's single-device offload, through the hand-written
//! multi-device split (`axpy_omp_mdev`), to HOMP's automated
//! distribution — each step should hold its promised advantage.

use homp::kernels::axpy;
use homp::prelude::*;

fn run(machine: &Machine, devices: Vec<u32>, alg: Algorithm, seed: u64) -> (f64, Vec<f64>) {
    let n = 200_000;
    let mut rt = Runtime::new(machine.clone(), seed);
    let mut k = axpy::Axpy::new(n, 2.0);
    let region = axpy::region(n as u64, devices, alg);
    let rep = rt.offload(&region, &mut k).run().unwrap();
    (rep.time_ms(), k.y)
}

fn mean(machine: &Machine, devices: Vec<u32>, alg: Algorithm) -> f64 {
    (0..5).map(|s| run(machine, devices.clone(), alg, 100 + s).0).sum::<f64>() / 5.0
}

#[test]
fn multi_device_beats_single_device() {
    // Fig. 1's `axpy_omp` offloads everything to device(0); `axpy_omp_mdev`
    // splits evenly across all devices. On four identical GPUs the even
    // split should approach 4x.
    let m = Machine::four_k40();
    let single = mean(&m, vec![0], Algorithm::Block);
    let manual = mean(&m, vec![0, 1, 2, 3], Algorithm::Block);
    assert!(
        manual < single / 2.5,
        "manual multi-device {manual:.3} ms should be well under single-device {single:.3} ms"
    );
}

#[test]
fn results_identical_across_the_progression() {
    let m = Machine::four_k40();
    let (_, y_single) = run(&m, vec![0], Algorithm::Block, 1);
    let (_, y_manual) = run(&m, vec![0, 1, 2, 3], Algorithm::Block, 1);
    let (_, y_auto) = run(&m, vec![0, 1, 2, 3], Algorithm::Auto { cutoff: None }, 1);
    assert_eq!(y_single, y_manual);
    assert_eq!(y_single, y_auto);
}

#[test]
fn automation_matches_or_beats_manual_split_on_heterogeneous_node() {
    // The paper's pitch: the manual even split of Fig. 1 "does not adapt
    // across multiple and different accelerators" — HOMP's AUTO must not
    // lose to it on the mixed machine.
    let m = Machine::full_node();
    let devices: Vec<u32> = (0..7).collect();
    let manual = mean(&m, devices.clone(), Algorithm::Block);
    let auto = mean(&m, devices, Algorithm::Auto { cutoff: None });
    assert!(
        auto <= manual,
        "AUTO {auto:.3} ms must not lose to the manual even split {manual:.3} ms"
    );
}

#[test]
fn manual_even_split_is_the_block_algorithm() {
    // `axpy_omp_mdev`'s remnant logic (earlier devices take the extra
    // iterations) is exactly our BLOCK distribution.
    let m = Machine::four_k40();
    let n = 10_003u64; // remainder 3
    let mut rt = Runtime::new(m, 1);
    let mut k = axpy::Axpy::new(n as usize, 1.0);
    let rep =
        rt.offload(&axpy::region(n, vec![0, 1, 2, 3], Algorithm::Block), &mut k).run().unwrap();
    assert_eq!(rep.counts, vec![2501, 2501, 2501, 2500]);
}
