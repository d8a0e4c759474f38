//! `.history(db)` is an option of the one offload builder: a learned
//! offload dispatches at an instant on shared calendars like any other,
//! learns there, and at zero on a fresh runtime it is the classic
//! learned offload.

use homp_core::history::HistoryDb;
use homp_core::testing::CoverageKernel;
use homp_core::{
    Algorithm, OffloadRegion, OffloadReport, PredictionSource, Runtime, RuntimeConfig,
};
use homp_lang::{DistPolicy, MapDir};
use homp_sim::{DeviceId, Machine, SimTime};

const N: u64 = 100_000;

fn devices() -> Vec<DeviceId> {
    (0..Machine::full_node().len() as DeviceId).collect()
}

fn axpy(name: &str, alg: Algorithm) -> OffloadRegion {
    let aligned = || DistPolicy::Align { target: "loop".into(), ratio: 1 };
    OffloadRegion::builder(name)
        .trip_count(N)
        .devices(devices())
        .algorithm(alg)
        .map_1d("x", MapDir::To, N, 8, aligned())
        .map_1d("y", MapDir::ToFrom, N, 8, aligned())
        .build()
}

fn runtime() -> Runtime {
    RuntimeConfig::new().seed(19).decision_log(true).build(Machine::full_node())
}

/// One learned offload of `region` covering every iteration once,
/// dispatched `at` an instant or, with `None`, on reset calendars.
fn learned(
    rt: &mut Runtime,
    region: &OffloadRegion,
    db: &mut HistoryDb,
    at: Option<SimTime>,
) -> OffloadReport {
    let mut k = CoverageKernel::new(N);
    let offload = rt.offload(region, &mut k).history(db);
    let report = match at {
        Some(t) => offload.at(t).run(),
        None => offload.run(),
    }
    .unwrap();
    k.assert_exactly_once(&format!("{} at {at:?}", region.name));
    report
}

fn from_history(report: &OffloadReport) -> bool {
    report.decisions.iter().all(|d| d.source == Some(PredictionSource::History))
}

#[test]
fn learned_offloads_dispatch_behind_a_plain_one() {
    let mut rt = runtime();
    let mut k = CoverageKernel::new(N);
    let plain = rt.offload(&axpy("plain", Algorithm::Block), &mut k).run().unwrap();
    let region = axpy("axpy", Algorithm::Model1 { cutoff: None });
    let mut db = HistoryDb::new();

    // Halfway through the plain offload, so its ops still hold the
    // calendars: MODEL_1's split runs, and every device is learned.
    let t1 = SimTime::from_secs(plain.completed_at.as_secs() / 2.0);
    let first = learned(&mut rt, &region, &mut db, Some(t1));
    assert!(first.completed_at >= t1, "{} < {t1}", first.completed_at);
    assert!(first.decisions.iter().all(|d| d.source == Some(PredictionSource::Model1)));
    assert!(db.covers("axpy", &devices()), "every device learned");
    assert_eq!(db.len(), devices().len());

    // Later, the learned split runs instead.
    let t2 = first.completed_at;
    let second = learned(&mut rt, &region, &mut db, Some(t2));
    assert!(second.completed_at >= t2, "{} < {t2}", second.completed_at);
    assert!(from_history(&second), "the second offload splits by learned rates");
    assert_ne!(second.counts, first.counts);
    assert_eq!(second.algorithm, region.algorithm);
}

#[test]
fn a_learned_dispatch_at_zero_is_the_classic_learned_offload() {
    // A history that covers every device, so the learned split runs.
    let mut covering = HistoryDb::new();
    let model1 = axpy("axpy", Algorithm::Model1 { cutoff: None });
    learned(&mut runtime(), &model1, &mut covering, None);
    for alg in [
        Algorithm::Model1 { cutoff: None },
        Algorithm::Model2 { cutoff: Some(0.15) },
        Algorithm::Dynamic { chunk_pct: 2.0 },
        Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None },
    ] {
        let region = axpy("axpy", alg);
        for db in [HistoryDb::new(), covering.clone()] {
            let warm = !db.is_empty();
            let ctx = format!("{alg}, warm {warm}");
            let (mut db_run, mut db_at) = (db.clone(), db);
            let run = learned(&mut runtime(), &region, &mut db_run, None);
            let at = learned(&mut runtime(), &region, &mut db_at, Some(SimTime::ZERO));
            assert_eq!(from_history(&run), warm, "{ctx}: learned split");
            assert_eq!(at.trace.to_csv(), run.trace.to_csv(), "{ctx}: trace");
            assert_eq!(at.counts, run.counts, "{ctx}: counts");
            assert_eq!(at.kept_devices, run.kept_devices, "{ctx}: kept devices");
            assert_eq!(at.decisions, run.decisions, "{ctx}: decisions");
            assert_eq!(at.makespan, run.makespan, "{ctx}: makespan");
            for d in devices() {
                let rate = |db: &HistoryDb| db.predicted_rate("axpy", d, N);
                assert_eq!(rate(&db_at), rate(&db_run), "{ctx}: device {d} learned");
            }
        }
    }
}
