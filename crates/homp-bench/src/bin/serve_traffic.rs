//! Multi-tenant serve traffic: 1000 Poisson sessions over two priority
//! classes against the full node, under both admission policies.
//!
//! The traffic stream (arrivals, tenants, kernels, classes) is a pure
//! function of the seed, and the serve loop is single-threaded over
//! one runtime, so the summary JSON is byte-identical at any
//! `HOMP_BENCH_JOBS` value. A seed-42 run is pinned as a golden
//! (`results/golden/serve_traffic_seed42.json`) and diffed in CI at
//! jobs 1 and 4.
//!
//! The binary also asserts the service layer's identity property
//! before generating traffic: a single request at virtual time zero
//! must reproduce the classic `Runtime::offload` trace byte-for-byte
//! — the same physics whose seed-42 artifacts are already pinned as
//! goldens (fig5, report).

use homp_bench::{count_cells, experiment, jobs, par_map, seed_from_args, write_artifact};
use homp_core::{Algorithm, Runtime};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_serve::traffic::{generate, tenant_classes, TrafficConfig};
use homp_serve::{percentile, ServePolicy, ServeReport, Server};
use homp_sim::{DeviceId, Machine, SimTime};
use std::fmt::Write as _;

/// Single-tenant identity: serve(one request at t=0) must be
/// byte-identical to the classic offload of the same workload. The
/// workload is the paper suite's axpy at test size on the full node —
/// the same region family the checked-in fig5/report goldens pin.
fn assert_single_tenant_identity(machine: &Machine, seed: u64) {
    let spec = KernelSpec::paper_suite()
        .into_iter()
        .map(|s| s.test_size())
        .find(|s| s.label().starts_with("axpy"))
        .expect("suite has axpy");
    let devices: Vec<DeviceId> = (0..machine.len() as DeviceId).collect();
    let alg = Algorithm::Model2 { cutoff: None };

    let mut rt = Runtime::new(machine.clone(), seed);
    let mut k = PhantomKernel::new(spec.intensity());
    let direct =
        rt.offload(&spec.region(devices.clone(), alg), &mut k).run().expect("direct offload");

    let mut srv = Server::new(machine.clone(), seed);
    let served = srv
        .serve(vec![homp_serve::ServeRequest::new(
            0,
            SimTime::ZERO,
            spec.region(devices, alg),
            Box::new(PhantomKernel::new(spec.intensity())),
        )])
        .expect("single-tenant serve");
    assert_eq!(
        served.trace.to_csv(),
        direct.trace.to_csv(),
        "single-tenant serve must reproduce the classic offload trace byte-for-byte"
    );
    assert_eq!(served.outcomes[0].report.makespan, direct.makespan);
}

fn policy_json(policy_name: &str, cfg: &TrafficConfig, rep: &ServeReport) -> String {
    let classes = tenant_classes(cfg);
    let mut out = String::new();
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"policy\": \"{policy_name}\",");
    let _ = writeln!(out, "      \"requests\": {},", rep.outcomes.len());
    let _ = writeln!(out, "      \"horizon_us\": {:.3},", rep.horizon.as_micros());
    let _ = writeln!(out, "      \"mean_latency_us\": {:.3},", rep.mean_latency_s * 1e6);
    let _ = writeln!(out, "      \"p50_latency_us\": {:.3},", rep.p50_latency_s * 1e6);
    let _ = writeln!(out, "      \"p99_latency_us\": {:.3},", rep.p99_latency_s * 1e6);
    let _ = writeln!(out, "      \"max_latency_us\": {:.3},", rep.max_latency_s * 1e6);

    // Per-class latency: tenants draw their class once, so grouping the
    // outcomes by the submitting tenant's class is stable.
    let _ = writeln!(out, "      \"classes\": [");
    for (ci, class) in cfg.classes.iter().enumerate() {
        let mut lat: Vec<f64> = rep
            .outcomes
            .iter()
            .filter(|o| classes[o.tenant as usize] == ci)
            .map(|o| o.latency().as_secs() * 1e6)
            .collect();
        lat.sort_by(f64::total_cmp);
        let mean = if lat.is_empty() { 0.0 } else { lat.iter().sum::<f64>() / lat.len() as f64 };
        let comma = if ci + 1 < cfg.classes.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "        {{\"name\": \"{}\", \"weight\": {:.1}, \"requests\": {}, \
             \"mean_latency_us\": {:.3}, \"p50_latency_us\": {:.3}, \"p99_latency_us\": {:.3}}}{comma}",
            class.name,
            class.weight,
            lat.len(),
            mean,
            percentile(&lat, 50.0),
            percentile(&lat, 99.0),
        );
    }
    let _ = writeln!(out, "      ],");

    let _ = writeln!(out, "      \"devices\": [");
    for (d, m) in rep.metrics.devices.iter().enumerate() {
        let comma = if d + 1 < rep.metrics.devices.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "        {{\"device\": {d}, \"utilization\": {:.6}, \"busy_union_s\": {:.9}, \
             \"kernel_iters\": {}}}{comma}",
            m.utilization, m.busy_union_s, m.kernel_iters,
        );
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
    out
}

fn main() {
    let seed = seed_from_args();
    experiment("serve_traffic", || {
        let machine = Machine::full_node();
        assert_single_tenant_identity(&machine, seed);

        let cfg = TrafficConfig::default_mix(machine.len(), seed);
        assert!(cfg.sessions >= 1000, "acceptance: >= 1000 sessions");
        assert!(cfg.classes.len() >= 2, "acceptance: >= 2 priority classes");

        // Both policies over the identical traffic stream. par_map keeps
        // the output order fixed, so the JSON bytes are independent of
        // the worker count.
        let policies = [("fifo", ServePolicy::Fifo), ("weighted_fair", ServePolicy::WeightedFair)];
        let sections: Vec<String> = par_map(&policies, jobs(), |_i, &(name, policy)| {
            let requests = generate(&cfg);
            assert_eq!(requests.len(), cfg.sessions);
            let mut srv = Server::new(machine.clone(), seed).policy(policy);
            let rep = srv.serve(requests).expect("serve traffic");
            assert_eq!(rep.outcomes.len(), cfg.sessions, "every session must be served");
            assert!(rep.p50_latency_s <= rep.p99_latency_s);
            count_cells(cfg.sessions as u64);
            policy_json(name, &cfg, &rep)
        });

        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"seed\": {seed},");
        let _ = writeln!(json, "  \"machine\": \"{}\",", machine.name);
        let _ = writeln!(json, "  \"sessions\": {},", cfg.sessions);
        let _ = writeln!(json, "  \"tenants\": {},", cfg.tenants);
        let _ = writeln!(json, "  \"mean_interarrival_us\": {:.1},", cfg.mean_interarrival_us);
        let _ = writeln!(json, "  \"single_tenant_identity\": \"bitwise\",");
        let _ = writeln!(json, "  \"policies\": [");
        for (i, s) in sections.iter().enumerate() {
            let comma = if i + 1 < sections.len() { "," } else { "" };
            let _ = writeln!(json, "{s}{comma}");
        }
        let _ = writeln!(json, "  ]");
        let _ = writeln!(json, "}}");
        print!("{json}");
        write_artifact("serve_traffic.json", &json);
        eprintln!(
            "[serve] {} sessions x {} policies served; p50/p99 and utilization written",
            cfg.sessions,
            policies.len()
        );
    });
}
