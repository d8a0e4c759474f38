//! The decision log is strictly read-side: enabling it must not move a
//! single simulated timestamp. These tests pin that down byte-for-byte
//! (trace CSV, exact f64 makespans) across the whole algorithm suite,
//! with and without fault injection, and check that the log itself is
//! complete and consistent with the realized schedule.

use homp_core::{
    Algorithm, FaultConfig, FnKernel, OffloadRegion, PredictionSource, Range, RuntimeConfig,
};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{FaultPlan, Machine};

fn intensity() -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    }
}

fn region(n: u64, alg: Algorithm) -> OffloadRegion {
    OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(vec![0, 1, 2, 3])
        .algorithm(alg)
        .map_1d("x", MapDir::To, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .map_1d("y", MapDir::ToFrom, n, 8, DistPolicy::Align { target: "loop".into(), ratio: 1 })
        .build()
}

/// One offload on four K40s built from `config`, the decision log on or
/// off.
fn run(config: RuntimeConfig, n: u64, alg: Algorithm, log: bool) -> homp_core::OffloadReport {
    let mut rt = config.decision_log(log).build(Machine::four_k40());
    let mut k = FnKernel::new(intensity(), |_r: Range| {});
    rt.offload(&region(n, alg), &mut k).run().unwrap()
}

#[test]
fn decision_log_changes_no_timestamps() {
    let n = 10_000u64;
    for alg in Algorithm::paper_suite() {
        let off = run(RuntimeConfig::new(), n, alg, false);
        let on = run(RuntimeConfig::new(), n, alg, true);
        assert_eq!(
            off.trace.to_csv(),
            on.trace.to_csv(),
            "{alg}: decision log must not perturb the trace"
        );
        assert_eq!(off.makespan, on.makespan, "{alg}: exact makespan");
        assert_eq!(off.counts, on.counts, "{alg}");
        assert_eq!(off.chunks, on.chunks, "{alg}");
        assert!(off.decisions.is_empty(), "{alg}: log disabled must record nothing");
        assert!(!on.decisions.is_empty(), "{alg}: log enabled must record decisions");
    }
}

#[test]
fn decision_log_is_inert_under_faults_too() {
    // The recovery path (requeue on survivors, transient retries) also
    // records decisions; it too must be byte-identical either way.
    let n = 100_000u64;
    let alg = Algorithm::Guided { chunk_pct: 20.0 };
    let healthy = run(RuntimeConfig::new(), n, alg, false).makespan.as_secs();
    let mk = || {
        let plan = FaultPlan::new(9).with_dropout_at(2, healthy * 0.5).with_transient_dma(1, 0.05);
        RuntimeConfig::new().faults(FaultConfig::new(plan))
    };
    let off = run(mk(), n, alg, false);
    let on = run(mk(), n, alg, true);
    assert_eq!(off.trace.to_csv(), on.trace.to_csv(), "fault recovery must stay identical");
    assert_eq!(off.makespan, on.makespan);
    assert_eq!(off.faults.transient_retries, on.faults.transient_retries);
    assert!(on.decisions.iter().any(|d| d.requeued), "requeued chunks must be logged");
    let requeued_iters: u64 =
        on.decisions.iter().filter(|d| d.requeued).map(|d| d.range.len()).sum();
    assert_eq!(requeued_iters, on.faults.requeued_iters);
}

#[test]
fn logged_decisions_cover_the_loop_and_match_counts() {
    let n = 10_000u64;
    for alg in Algorithm::paper_suite() {
        let rep = run(RuntimeConfig::new(), n, alg, true);
        let logged: u64 = rep.decisions.iter().map(|d| d.range.len()).sum();
        assert_eq!(logged, n, "{alg}: every iteration appears in exactly one decision");
        for (s, &c) in rep.counts.iter().enumerate() {
            let per_slot: u64 =
                rep.decisions.iter().filter(|d| d.slot == s).map(|d| d.range.len()).sum();
            assert_eq!(per_slot, c, "{alg}: slot {s} log disagrees with counts");
        }
        assert!(
            rep.decisions.iter().all(|d| d.realized_s.is_finite() && d.realized_s >= 0.0),
            "{alg}: realized times are sane"
        );
    }
}

#[test]
fn model_algorithms_carry_predictions() {
    let n = 10_000u64;
    for (alg, source) in [
        (Algorithm::Model1 { cutoff: None }, PredictionSource::Model1),
        (Algorithm::Model2 { cutoff: None }, PredictionSource::Model2),
    ] {
        let rep = run(RuntimeConfig::new(), n, alg, true);
        assert!(
            rep.decisions.iter().all(|d| d.source == Some(source) && d.predicted_s.is_some()),
            "{alg}: static model chunks must carry {source:?} predictions"
        );
        let rr = rep.run_report();
        let stats = rr.prediction.expect("model run yields prediction stats");
        assert_eq!(stats.predicted_chunks, rep.decisions.len());
        assert!(stats.mean_abs_err_pct.is_finite() && stats.mean_abs_err_pct >= 0.0);
        assert!(stats.max_abs_err_pct >= stats.mean_abs_err_pct);
    }
    // Profiling: stage-1 samples measure (no prediction), stage-2 chunks
    // are placed from the measured throughput.
    let rep = run(
        RuntimeConfig::new(),
        n,
        Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None },
        true,
    );
    assert!(rep.decisions.iter().any(|d| d.stage == "sample" && d.predicted_s.is_none()));
    assert!(rep
        .decisions
        .iter()
        .any(|d| d.stage == "stage2" && d.source == Some(PredictionSource::Measured)));
}

#[test]
fn run_report_renders_and_agrees_with_offload_report() {
    let rep = run(RuntimeConfig::new(), 10_000, Algorithm::Model2 { cutoff: None }, true);
    let rr = rep.run_report();
    assert_eq!(rr.makespan_ms, rep.makespan.as_millis());
    assert_eq!(rr.imbalance_pct, rep.imbalance_pct);
    assert!(rr.load_balance_ratio >= 1.0);
    for m in &rr.metrics.devices {
        assert!((0.0..=1.0).contains(&m.utilization));
        assert!((0.0..=1.0).contains(&m.overlap_fraction));
    }
    let text = rr.to_text();
    assert!(text.contains("run report"), "text render: {text}");
    assert!(text.contains("prediction error"), "model run shows error stats: {text}");
    let json = rr.to_json();
    assert!(json.starts_with('{') && json.ends_with("}\n"));
    assert!(json.contains("\"algorithm\""));
    assert!(json.contains("\"source\": \"MODEL_2\""));
    // Balanced braces — cheap structural sanity without a JSON parser.
    let open = json.matches('{').count();
    let close = json.matches('}').count();
    assert_eq!(open, close, "unbalanced JSON braces");
}
