//! Reference-order property: `Server::serve` admits requests from
//! per-tenant deques through a min-heap of queue heads. It must make
//! exactly the decisions of the straightforward admission loop it
//! replaced, which rescanned the whole queue on every pick.
//!
//! The reference loop below is that original algorithm, kept verbatim
//! as a test oracle: same clock, same in-flight window, same credit
//! accounting, and a linear-scan pick over every queued request. Both
//! run the same offloads on identically seeded runtimes, so any
//! divergence in order, instant, queue depth or credit shows up in the
//! decision log.

use std::collections::BTreeMap;

use homp_core::{Algorithm, OffloadError, Runtime};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_serve::{ServeDecision, ServePolicy, ServeRequest, Server, TenantId};
use homp_sim::{DeviceId, Machine, SimTime};
use proptest::prelude::*;

/// One generated request: tenant slot, arrival instant, kernel index.
#[derive(Debug, Clone, Copy)]
struct ReqSpec {
    tenant: TenantId,
    weight: f64,
    arrival_us: f64,
    kernel: usize,
}

fn suite() -> Vec<KernelSpec> {
    KernelSpec::paper_suite().into_iter().map(|s| s.test_size()).collect()
}

fn build(specs: &[ReqSpec], m: &Machine, kernels: &[KernelSpec]) -> Vec<ServeRequest<'static>> {
    let devices: Vec<DeviceId> = (0..m.len() as DeviceId).collect();
    specs
        .iter()
        .map(|s| {
            let k = &kernels[s.kernel % kernels.len()];
            ServeRequest::new(
                s.tenant,
                SimTime::from_secs(s.arrival_us * 1e-6),
                k.region(devices.clone(), Algorithm::Model2 { cutoff: None }),
                Box::new(PhantomKernel::new(k.intensity())),
            )
            .with_weight(s.weight)
        })
        .collect()
}

/// The original admission pick: position in `queue` of the request
/// with the least key, scanning every queued request.
fn reference_pick(
    policy: ServePolicy,
    queue: &[usize],
    slots: &[Option<ServeRequest<'_>>],
    credit: &BTreeMap<TenantId, f64>,
) -> usize {
    let fifo_key = |i: usize| {
        let r = slots[i].as_ref().unwrap();
        (r.arrival.as_secs(), i)
    };
    let mut best = 0usize;
    for cand in 1..queue.len() {
        let better = match policy {
            ServePolicy::Fifo => {
                let (ka, kb) = (fifo_key(queue[cand]), fifo_key(queue[best]));
                ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1)).is_lt()
            }
            ServePolicy::WeightedFair => {
                let c = |i: usize| *credit.get(&slots[i].as_ref().unwrap().tenant).unwrap_or(&0.0);
                let (ca, cb) = (c(queue[cand]), c(queue[best]));
                let (ka, kb) = (fifo_key(queue[cand]), fifo_key(queue[best]));
                ca.total_cmp(&cb).then(ka.0.total_cmp(&kb.0)).then(ka.1.cmp(&kb.1)).is_lt()
            }
        };
        if better {
            best = cand;
        }
    }
    best
}

/// The original admission loop, reduced to its decision log.
fn reference_decisions(
    rt: &mut Runtime,
    policy: ServePolicy,
    max_inflight: usize,
    requests: Vec<ServeRequest<'_>>,
) -> Result<Vec<ServeDecision>, OffloadError> {
    let mut slots: Vec<Option<ServeRequest<'_>>> = requests.into_iter().map(Some).collect();
    let mut by_arrival: Vec<usize> = (0..slots.len()).collect();
    by_arrival.sort_by(|&a, &b| {
        let (ta, tb) = (slots[a].as_ref().unwrap().arrival, slots[b].as_ref().unwrap().arrival);
        ta.as_secs().total_cmp(&tb.as_secs()).then(a.cmp(&b))
    });

    let mut queue: Vec<usize> = Vec::new();
    let mut inflight: Vec<SimTime> = Vec::new();
    let mut credit: BTreeMap<TenantId, f64> = BTreeMap::new();
    let mut now = SimTime::ZERO;
    let mut next = 0usize;
    let mut decisions = Vec::new();
    loop {
        while next < by_arrival.len() && slots[by_arrival[next]].as_ref().unwrap().arrival <= now {
            queue.push(by_arrival[next]);
            next += 1;
        }
        if queue.is_empty() {
            if next >= by_arrival.len() {
                break;
            }
            now = now.max(slots[by_arrival[next]].as_ref().unwrap().arrival);
            continue;
        }
        inflight.retain(|&c| c > now);
        if inflight.len() >= max_inflight {
            let earliest =
                inflight.iter().copied().fold(SimTime::from_secs(f64::MAX), SimTime::min);
            now = now.max(earliest);
            continue;
        }
        let pos = reference_pick(policy, &queue, &slots, &credit);
        let idx = queue.remove(pos);
        let mut req = slots[idx].take().unwrap();
        decisions.push(ServeDecision {
            seq: idx,
            tenant: req.tenant,
            decided_at: now,
            queue_depth: queue.len() + 1,
            credit: *credit.get(&req.tenant).unwrap_or(&0.0),
        });
        let report = rt.offload(&req.region, req.kernel.as_mut()).at(now).run()?;
        *credit.entry(req.tenant).or_insert(0.0) +=
            report.makespan.as_secs() / req.weight.max(1e-9);
        inflight.push(report.completed_at);
    }
    Ok(decisions)
}

/// Every field of a decision, floats as raw bits.
fn fingerprint(d: &[ServeDecision]) -> Vec<(usize, TenantId, u64, usize, u64)> {
    d.iter()
        .map(|d| {
            (d.seq, d.tenant, d.decided_at.as_secs().to_bits(), d.queue_depth, d.credit.to_bits())
        })
        .collect()
}

fn check(specs: &[ReqSpec]) {
    let m = Machine::four_k40();
    let kernels = suite();
    for policy in [ServePolicy::Fifo, ServePolicy::WeightedFair] {
        for window in [1, 2, 8] {
            let mut rt = Runtime::new(m.clone(), 42);
            let want = reference_decisions(&mut rt, policy, window, build(specs, &m, &kernels))
                .expect("reference serve");
            let mut srv = Server::new(m.clone(), 42).policy(policy).max_inflight(window);
            let got = srv.serve(build(specs, &m, &kernels)).expect("serve").decisions;
            assert_eq!(
                fingerprint(&got),
                fingerprint(&want),
                "{policy:?} window {window}: {specs:?}"
            );
        }
    }
}

/// Sparse tenant ids, with both extremes of the id space.
fn tenant_id() -> impl Strategy<Value = TenantId> {
    prop_oneof![Just(0u32), Just(u32::MAX), Just(u32::MAX - 1), 1u32..u32::MAX]
}

/// Weights at the credit floor (0, 1e-12), the paper classes (1, 4),
/// and anything in between.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), Just(1e-12f64), Just(1.0f64), Just(4.0f64), 0.05f64..8.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random tenants (1–50, sparse ids, degenerate weights) submit
    /// requests out of arrival order onto a coarse grid of instants, so
    /// many arrive together; both policies and three in-flight windows
    /// must reproduce the linear-scan decision log exactly.
    #[test]
    fn heap_admission_matches_linear_scan(
        tenants in proptest::collection::vec((tenant_id(), weight()), 1..=50),
        picks in proptest::collection::vec((0usize..1_000, 0u32..12, 0usize..6), 1..80),
        spacing_us in prop_oneof![Just(0.0f64), 1.0f64..3_000.0],
    ) {
        let specs: Vec<ReqSpec> = picks
            .iter()
            .map(|&(t, slot, kernel)| {
                let (tenant, weight) = tenants[t % tenants.len()];
                ReqSpec { tenant, weight, arrival_us: slot as f64 * spacing_us, kernel }
            })
            .collect();
        check(&specs);
    }
}

/// A pinned burst: every request at one instant, interleaved tenants at
/// the id extremes and with floor weights, so ties decide everything.
#[test]
fn simultaneous_burst_matches_linear_scan() {
    let tenants = [(u32::MAX, 4.0), (0, 0.0), (7, 1e-12), (u32::MAX - 1, 1.0)];
    let specs: Vec<ReqSpec> = (0..40)
        .map(|i| {
            let (tenant, weight) = tenants[(i * 7) % tenants.len()];
            ReqSpec { tenant, weight, arrival_us: 0.0, kernel: i % 6 }
        })
        .collect();
    check(&specs);
}
