//! # homp-serve — a multi-tenant offload service over one machine
//!
//! The paper's runtime executes one offload region at a time; a
//! production node serves *traffic*: many independent sessions submit
//! offload requests that must share the same device calendars. This
//! crate is that service layer:
//!
//! * [`ServeRequest`] — one tenant's offload (region + kernel + virtual
//!   arrival instant + fairness weight);
//! * [`Server`] — the admission queue and event loop: requests wait
//!   until admitted, an admission [`ServePolicy`] (FIFO or weighted
//!   fair) picks the next one in O(log T) for T queued tenants, and
//!   [`OffloadBuilder::at`] dispatches it onto the *shared, still-busy*
//!   engine calendars so concurrent regions queue on real resources
//!   instead of an abstract lock;
//! * [`ServeReport`] — per-request outcomes (arrival → dispatch →
//!   completion), per-tenant stats with p50/p99 request latency, an
//!   admission decision log, and machine-wide utilization computed by
//!   [`Metrics::from_trace`] over the absorbed master trace.
//!
//! Determinism is total: virtual arrivals come from a seeded SplitMix64
//! stream (see [`traffic`]), the engine's noise is a pure function of
//! `(seed, device, seq)`, and every queue/credit tie-break is ordered —
//! the same seed reproduces the same report byte-for-byte.
//!
//! ## Per-tenant attribution without label growth
//!
//! Each request's trace is moved out of the engine whole
//! ([`OffloadReport::trace`]), so attribution is by *ownership*, not by
//! tagging events with tenant labels — a long-running server absorbs
//! those traces into one master [`Trace`] whose interned-label table is
//! bounded by the label vocabulary (stage names + kernel names), not by
//! the tenant or request count.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod traffic;

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

#[cfg(doc)]
use homp_core::OffloadBuilder;
use homp_core::{LoopKernel, OffloadError, OffloadRegion, OffloadReport, Runtime};
use homp_sim::{Machine, Metrics, SimSpan, SimTime, Trace};

/// Identifies a session/tenant submitting requests.
pub type TenantId = u32;

/// How the admission queue picks the next request to dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServePolicy {
    /// Oldest arrival first (ties broken by submission order).
    #[default]
    Fifo,
    /// Weighted fair queueing over tenants: each tenant accrues virtual
    /// service credit `makespan / weight` per dispatched request, and
    /// the tenant with the least credit goes next (ties: FIFO). A
    /// tenant with weight 4 receives ~4× the service share of a
    /// weight-1 tenant under contention.
    WeightedFair,
}

/// One offload request in the admission queue.
pub struct ServeRequest<'a> {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Fairness weight (priority class) under
    /// [`ServePolicy::WeightedFair`]; ignored by FIFO. Clamped to a
    /// small positive floor at credit-accounting time.
    pub weight: f64,
    /// Virtual instant the request arrives at the server.
    pub arrival: SimTime,
    /// The offload region to run.
    pub region: OffloadRegion,
    /// The kernel to run. Boxed so heterogeneous request mixes fit one
    /// queue; borrows host arrays for real-math kernels.
    pub kernel: Box<dyn LoopKernel + 'a>,
}

impl<'a> ServeRequest<'a> {
    /// Request with weight 1.0.
    pub fn new(
        tenant: TenantId,
        arrival: SimTime,
        region: OffloadRegion,
        kernel: Box<dyn LoopKernel + 'a>,
    ) -> Self {
        Self { tenant, weight: 1.0, arrival, region, kernel }
    }

    /// Set the fairness weight (higher = larger service share).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// One admission decision, logged in dispatch order.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeDecision {
    /// Submission index of the dispatched request.
    pub seq: usize,
    /// Its tenant.
    pub tenant: TenantId,
    /// Virtual instant the decision was made (= dispatch instant).
    pub decided_at: SimTime,
    /// Arrived-but-undispatched requests at decision time, including
    /// the one picked.
    pub queue_depth: usize,
    /// The tenant's accrued service credit (`Σ makespan / weight`)
    /// before this dispatch. It accrues under both policies; only
    /// [`ServePolicy::WeightedFair`] ranks tenants by it.
    pub credit: f64,
}

/// Outcome of one served request.
pub struct RequestOutcome {
    /// Submission index (order the request was handed to [`Server::serve`]).
    pub seq: usize,
    /// Its tenant.
    pub tenant: TenantId,
    /// Fairness weight it carried.
    pub weight: f64,
    /// Virtual arrival instant.
    pub arrival: SimTime,
    /// Instant the admission loop dispatched it onto the calendars.
    pub dispatched_at: SimTime,
    /// Instant its end-of-region barrier released.
    pub completed_at: SimTime,
    /// The full per-request offload report; `report.trace` is this
    /// request's self-contained trace (per-tenant attribution).
    pub report: OffloadReport,
}

impl RequestOutcome {
    /// Request latency: arrival to completion.
    pub fn latency(&self) -> SimSpan {
        self.completed_at.since(self.arrival)
    }

    /// Time spent waiting in the admission queue.
    pub fn queue_delay(&self) -> SimSpan {
        self.dispatched_at.since(self.arrival)
    }
}

/// Aggregated per-tenant accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Requests served.
    pub requests: u64,
    /// Loop iterations executed across its requests.
    pub iters: u64,
    /// Sum of per-request makespans (service time consumed).
    pub service_s: f64,
    /// Mean request latency, seconds.
    pub mean_latency_s: f64,
    /// Median (nearest-rank p50) request latency, seconds.
    pub p50_latency_s: f64,
    /// Nearest-rank p99 request latency, seconds.
    pub p99_latency_s: f64,
    /// Worst request latency, seconds.
    pub max_latency_s: f64,
}

/// Everything the server observed over one [`Server::serve`] call.
pub struct ServeReport {
    /// Per-request outcomes, in dispatch order.
    pub outcomes: Vec<RequestOutcome>,
    /// Admission decision log, in dispatch order.
    pub decisions: Vec<ServeDecision>,
    /// Per-tenant stats, ordered by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Last completion instant across all requests.
    pub horizon: SimTime,
    /// Machine-wide metrics over the merged trace — per-device
    /// utilization here is busy-time over the serve horizon.
    pub metrics: Metrics,
    /// Master trace: every request's trace absorbed in dispatch order
    /// (absolute times on the shared calendars).
    pub trace: Trace,
    /// Mean request latency over all requests, seconds.
    pub mean_latency_s: f64,
    /// Nearest-rank p50 request latency, seconds.
    pub p50_latency_s: f64,
    /// Nearest-rank p99 request latency, seconds.
    pub p99_latency_s: f64,
    /// Worst request latency, seconds.
    pub max_latency_s: f64,
}

/// Nearest-rank percentile of an ascending-sorted sample, `q` in
/// `[0, 100]`. Deterministic (no interpolation); empty input gives 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn latency_summary(lat: &mut [f64]) -> (f64, f64, f64, f64) {
    if lat.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    lat.sort_by(f64::total_cmp);
    let mean = lat.iter().sum::<f64>() / lat.len() as f64;
    (mean, percentile(lat, 50.0), percentile(lat, 99.0), lat[lat.len() - 1])
}

/// One tenant's admission state: its accrued credit and its queued
/// requests (submission indices) in arrival order.
#[derive(Default)]
struct TenantQueue {
    credit: f64,
    pending: VecDeque<usize>,
}

/// A non-empty tenant's queue head in the admission heap. Ordered so
/// the least `(rank, arrival, seq)` pops first (`BinaryHeap` is a
/// max-heap); `rank` is the tenant's credit under weighted-fair and 0
/// under FIFO.
struct Head {
    rank: f64,
    arrival: f64,
    seq: usize,
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .rank
            .total_cmp(&self.rank)
            .then(other.arrival.total_cmp(&self.arrival))
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

/// The multi-tenant offload server: an admission queue over one
/// [`Runtime`] whose engine calendars are shared by all in-flight
/// requests.
pub struct Server {
    rt: Runtime,
    policy: ServePolicy,
    max_inflight: usize,
}

impl Server {
    /// Server over a fresh seeded runtime, FIFO admission, and an
    /// in-flight window of one region per device.
    pub fn new(machine: Machine, seed: u64) -> Self {
        let max_inflight = machine.len().max(1);
        Self { rt: Runtime::new(machine, seed), policy: ServePolicy::Fifo, max_inflight }
    }

    /// Server over an existing runtime (keeps its noise, fault config,
    /// decision-log and trace settings). The runtime must be freshly
    /// built or reset — the serve clock starts at virtual zero.
    pub fn with_runtime(rt: Runtime) -> Self {
        let max_inflight = rt.machine().len().max(1);
        Self { rt, policy: ServePolicy::Fifo, max_inflight }
    }

    /// Set the admission policy.
    pub fn policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Cap on concurrently in-flight regions. When the window is full,
    /// admission waits for the earliest completion; this is what makes
    /// the queue (and the fairness policy) bite. Clamped to ≥ 1.
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Serve a batch of requests to completion.
    ///
    /// The event loop keeps one monotone virtual clock `now`: requests
    /// with `arrival <= now` sit in the admission queue; when the
    /// in-flight window has room the policy picks one and it is
    /// dispatched at `now` via [`OffloadBuilder::at`] — its operations
    /// then start no earlier than `now` *and* no earlier than each
    /// resource frees up, which is how concurrent regions contend.
    /// When the window is full, `now` advances to the earliest
    /// in-flight completion; when the queue is empty, to the next
    /// arrival.
    ///
    /// The queue is one FIFO deque per tenant plus a min-heap holding
    /// each non-empty tenant's head, so a pick costs O(log T) for T
    /// queued tenants. Requests enter in `(arrival, index)` order, so a
    /// deque's front is its tenant's best candidate; only the
    /// dispatched tenant's credit changes, so its next head is pushed
    /// after the credit update and no heap key ever goes stale.
    ///
    /// A single request arriving at time zero on a fresh server is
    /// byte-identical (trace and all) to [`Runtime::offload`] of the
    /// same region — the service layer adds nothing to the simulated
    /// physics.
    pub fn serve(&mut self, requests: Vec<ServeRequest<'_>>) -> Result<ServeReport, OffloadError> {
        let n_dev = self.rt.machine().len();
        let mut slots: Vec<Option<ServeRequest<'_>>> = requests.into_iter().map(Some).collect();

        // Arrival order: by arrival instant, submission index breaking
        // ties — the only order the admission loop consumes them in.
        let mut by_arrival: Vec<usize> = (0..slots.len()).collect();
        by_arrival.sort_by(|&a, &b| {
            let (ta, tb) = (slots[a].as_ref().unwrap().arrival, slots[b].as_ref().unwrap().arrival);
            ta.as_secs().total_cmp(&tb.as_secs()).then(a.cmp(&b))
        });

        let fair = self.policy == ServePolicy::WeightedFair;
        let head = |seq: usize, credit: f64, slots: &[Option<ServeRequest<'_>>]| Head {
            rank: if fair { credit } else { 0.0 },
            arrival: slots[seq].as_ref().unwrap().arrival.as_secs(),
            seq,
        };

        let mut tenants: BTreeMap<TenantId, TenantQueue> = BTreeMap::new();
        let mut heads: BinaryHeap<Head> = BinaryHeap::new();
        let mut queued = 0usize;
        let mut inflight: Vec<SimTime> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next = 0usize;

        let mut master = Trace::with_level(self.rt.trace_level());
        let mut outcomes: Vec<RequestOutcome> = Vec::new();
        let mut decisions: Vec<ServeDecision> = Vec::new();

        loop {
            while next < by_arrival.len()
                && slots[by_arrival[next]].as_ref().unwrap().arrival <= now
            {
                let idx = by_arrival[next];
                let t = tenants.entry(slots[idx].as_ref().unwrap().tenant).or_default();
                if t.pending.is_empty() {
                    heads.push(head(idx, t.credit, &slots));
                }
                t.pending.push_back(idx);
                queued += 1;
                next += 1;
            }
            if queued == 0 {
                if next >= by_arrival.len() {
                    break;
                }
                now = now.max(slots[by_arrival[next]].as_ref().unwrap().arrival);
                continue;
            }
            inflight.retain(|&c| c > now);
            if inflight.len() >= self.max_inflight {
                // Window full: wait for the earliest in-flight barrier.
                let earliest =
                    inflight.iter().copied().fold(SimTime::from_secs(f64::MAX), SimTime::min);
                now = now.max(earliest);
                continue;
            }

            let idx = heads.pop().expect("a queued tenant has a head").seq;
            let mut req = slots[idx].take().expect("queued request present");
            let t = tenants.get_mut(&req.tenant).expect("queued tenant present");
            let front = t.pending.pop_front();
            debug_assert_eq!(front, Some(idx), "the heap holds each tenant's front");
            decisions.push(ServeDecision {
                seq: idx,
                tenant: req.tenant,
                decided_at: now,
                queue_depth: queued,
                credit: t.credit,
            });
            queued -= 1;

            let report = self.rt.offload(&req.region, req.kernel.as_mut()).at(now).run()?;
            t.credit += report.makespan.as_secs() / req.weight.max(1e-9);
            if let Some(&h) = t.pending.front() {
                heads.push(head(h, t.credit, &slots));
            }
            inflight.push(report.completed_at);
            master.absorb(&report.trace);
            outcomes.push(RequestOutcome {
                seq: idx,
                tenant: req.tenant,
                weight: req.weight,
                arrival: req.arrival,
                dispatched_at: now,
                completed_at: report.completed_at,
                report,
            });
        }

        let horizon = outcomes.iter().map(|o| o.completed_at).fold(SimTime::ZERO, SimTime::max);
        let metrics = Metrics::from_trace(&master, n_dev);
        let tenants = Self::tenant_stats(&outcomes);
        let mut all: Vec<f64> = outcomes.iter().map(|o| o.latency().as_secs()).collect();
        let (mean_latency_s, p50_latency_s, p99_latency_s, max_latency_s) =
            latency_summary(&mut all);
        Ok(ServeReport {
            outcomes,
            decisions,
            tenants,
            horizon,
            metrics,
            trace: master,
            mean_latency_s,
            p50_latency_s,
            p99_latency_s,
            max_latency_s,
        })
    }

    fn tenant_stats(outcomes: &[RequestOutcome]) -> Vec<TenantStats> {
        let mut grouped: BTreeMap<TenantId, Vec<&RequestOutcome>> = BTreeMap::new();
        for o in outcomes {
            grouped.entry(o.tenant).or_default().push(o);
        }
        grouped
            .into_iter()
            .map(|(tenant, os)| {
                let mut lat: Vec<f64> = os.iter().map(|o| o.latency().as_secs()).collect();
                let (mean, p50, p99, max) = latency_summary(&mut lat);
                TenantStats {
                    tenant,
                    requests: os.len() as u64,
                    iters: os.iter().map(|o| o.report.counts.iter().sum::<u64>()).sum(),
                    service_s: os.iter().map(|o| o.report.makespan.as_secs()).sum(),
                    mean_latency_s: mean,
                    p50_latency_s: p50,
                    p99_latency_s: p99,
                    max_latency_s: max,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_core::Algorithm;
    use homp_kernels::{KernelSpec, PhantomKernel};
    use homp_sim::DeviceId;

    fn devices(m: &Machine) -> Vec<DeviceId> {
        (0..m.len() as DeviceId).collect()
    }

    fn request(
        m: &Machine,
        spec: &KernelSpec,
        tenant: TenantId,
        at_us: f64,
    ) -> ServeRequest<'static> {
        ServeRequest::new(
            tenant,
            SimTime::from_secs(at_us * 1e-6),
            spec.region(devices(m), Algorithm::Model2 { cutoff: None }),
            Box::new(PhantomKernel::new(spec.intensity())),
        )
    }

    fn suite() -> Vec<KernelSpec> {
        KernelSpec::paper_suite().into_iter().map(|s| s.test_size()).collect()
    }

    #[test]
    fn single_request_at_zero_equals_plain_offload() {
        let m = Machine::four_k40();
        let spec = &suite()[0];

        let mut rt = Runtime::new(m.clone(), 42);
        let mut k = PhantomKernel::new(spec.intensity());
        let direct = rt
            .offload(&spec.region(devices(&m), Algorithm::Model2 { cutoff: None }), &mut k)
            .run()
            .unwrap();

        let mut srv = Server::new(m.clone(), 42);
        let served = srv.serve(vec![request(&m, spec, 7, 0.0)]).unwrap();

        assert_eq!(served.outcomes.len(), 1);
        let o = &served.outcomes[0];
        assert_eq!(o.report.makespan, direct.makespan);
        assert_eq!(o.report.counts, direct.counts);
        assert_eq!(
            served.trace.to_csv(),
            direct.trace.to_csv(),
            "the service layer must add nothing to the simulated physics"
        );
        assert_eq!(o.latency(), direct.makespan, "arrival at zero: latency == makespan");
    }

    #[test]
    fn concurrent_requests_share_calendars() {
        let m = Machine::four_k40();
        let spec = &suite()[0];
        let solo = {
            let mut srv = Server::new(m.clone(), 42);
            srv.serve(vec![request(&m, spec, 0, 0.0)]).unwrap()
        };
        // Two identical requests arriving together: the second queues on
        // the busy calendars, so its latency exceeds the solo makespan,
        // and the horizon stretches past a single run.
        let both = {
            let mut srv = Server::new(m.clone(), 42);
            srv.serve(vec![request(&m, spec, 0, 0.0), request(&m, spec, 1, 0.0)]).unwrap()
        };
        assert_eq!(both.outcomes.len(), 2);
        let slowest = both.outcomes.iter().map(|o| o.latency().as_secs()).fold(0.0f64, f64::max);
        assert!(
            slowest > solo.horizon.as_secs() * 1.5,
            "contention must show up in latency: slowest {slowest} vs solo {}",
            solo.horizon.as_secs()
        );
        assert!(both.horizon > solo.horizon);
    }

    #[test]
    fn serve_is_deterministic() {
        let m = Machine::four_k40();
        let specs = suite();
        let run = |policy| {
            let mut srv = Server::new(m.clone(), 42).policy(policy).max_inflight(2);
            let reqs: Vec<ServeRequest<'static>> = (0..20)
                .map(|i| {
                    request(&m, &specs[i % specs.len()], (i % 3) as TenantId, i as f64 * 50.0)
                        .with_weight(if i % 3 == 0 { 4.0 } else { 1.0 })
                })
                .collect();
            let rep = srv.serve(reqs).unwrap();
            (
                rep.trace.to_csv(),
                rep.outcomes.iter().map(|o| (o.seq, o.completed_at.as_secs())).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(ServePolicy::Fifo), run(ServePolicy::Fifo));
        assert_eq!(run(ServePolicy::WeightedFair), run(ServePolicy::WeightedFair));
    }

    #[test]
    fn fifo_dispatches_in_arrival_order() {
        let m = Machine::four_k40();
        let spec = &suite()[0];
        let mut srv = Server::new(m.clone(), 42).max_inflight(1);
        // Submitted out of arrival order on purpose.
        let reqs = vec![
            request(&m, spec, 0, 900.0),
            request(&m, spec, 1, 100.0),
            request(&m, spec, 2, 500.0),
        ];
        let rep = srv.serve(reqs).unwrap();
        let order: Vec<usize> = rep.outcomes.iter().map(|o| o.seq).collect();
        assert_eq!(order, [1, 2, 0]);
        for w in rep.outcomes.windows(2) {
            assert!(w[1].dispatched_at >= w[0].dispatched_at, "dispatches are monotone");
        }
    }

    #[test]
    fn decision_log_queue_depth_matches_outcomes() {
        let m = Machine::four_k40();
        let specs = suite();
        // Bursts of equal arrival instants, submitted out of arrival
        // order, from five tenants of mixed weight.
        let arrivals_us = [300.0, 0.0, 300.0, 0.0, 150.0, 0.0, 300.0, 900.0, 150.0, 0.0];
        for policy in [ServePolicy::Fifo, ServePolicy::WeightedFair] {
            for window in [1, 3] {
                let reqs: Vec<ServeRequest<'static>> = (0..30)
                    .map(|i| {
                        let at = arrivals_us[i % arrivals_us.len()] + (i / 10) as f64 * 400.0;
                        request(&m, &specs[i % specs.len()], (i % 5) as TenantId, at)
                            .with_weight([1.0, 4.0, 0.5][i % 3])
                    })
                    .collect();
                let mut srv = Server::new(m.clone(), 42).policy(policy).max_inflight(window);
                let rep = srv.serve(reqs).unwrap();
                assert_eq!(rep.decisions.len(), 30);
                for (i, d) in rep.decisions.iter().enumerate() {
                    let waiting =
                        rep.outcomes[i..].iter().filter(|o| o.arrival <= d.decided_at).count();
                    assert_eq!(d.queue_depth, waiting, "{policy:?} window {window} decision {i}");
                }
                if policy == ServePolicy::Fifo {
                    // FIFO is the global (arrival, submission index) order.
                    let keys: Vec<(f64, usize)> =
                        rep.outcomes.iter().map(|o| (o.arrival.as_secs(), o.seq)).collect();
                    let mut sorted = keys.clone();
                    sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    assert_eq!(keys, sorted, "window {window}");
                }
            }
        }
    }

    #[test]
    fn weighted_fair_favors_heavy_tenants_under_contention() {
        let m = Machine::four_k40();
        let spec = &suite()[0];
        // Everything arrives at once; a window of 1 forces the queue to
        // bite. Tenant 0 has weight 4, tenant 1 weight 1: of the first
        // several dispatches, tenant 0 must get the larger share.
        let build = |policy| {
            let mut srv = Server::new(m.clone(), 42).policy(policy).max_inflight(1);
            let reqs: Vec<ServeRequest<'static>> = (0..10)
                .map(|i| {
                    request(&m, spec, (i % 2) as TenantId, 0.0).with_weight(if i % 2 == 0 {
                        4.0
                    } else {
                        1.0
                    })
                })
                .collect();
            srv.serve(reqs).unwrap()
        };
        let rep = build(ServePolicy::WeightedFair);
        let first5: Vec<TenantId> = rep.outcomes.iter().take(5).map(|o| o.tenant).collect();
        let heavy = first5.iter().filter(|&&t| t == 0).count();
        assert!(heavy >= 3, "weight-4 tenant should dominate early dispatches: {first5:?}");
        // And the credit ledger must reflect the weights: tenant 0 ran
        // 5 identical requests at 1/4 the credit cost of tenant 1's 5.
        let last0 = rep.decisions.iter().rev().find(|d| d.tenant == 0).unwrap();
        let last1 = rep.decisions.iter().rev().find(|d| d.tenant == 1).unwrap();
        assert!(last0.credit < last1.credit, "heavier tenant accrues credit slower");
    }

    #[test]
    fn tenant_stats_partition_the_outcomes() {
        let m = Machine::four_k40();
        let specs = suite();
        let mut srv = Server::new(m.clone(), 42).max_inflight(2);
        let reqs: Vec<ServeRequest<'static>> = (0..12)
            .map(|i| request(&m, &specs[i % specs.len()], (i % 4) as TenantId, i as f64 * 200.0))
            .collect();
        let rep = srv.serve(reqs).unwrap();
        assert_eq!(rep.tenants.len(), 4);
        assert_eq!(rep.tenants.iter().map(|t| t.requests).sum::<u64>(), 12);
        let total_iters: u64 = rep.tenants.iter().map(|t| t.iters).sum();
        let expect: u64 = rep.outcomes.iter().map(|o| o.report.counts.iter().sum::<u64>()).sum();
        assert_eq!(total_iters, expect);
        for t in &rep.tenants {
            assert!(t.p50_latency_s <= t.p99_latency_s);
            assert!(t.p99_latency_s <= t.max_latency_s);
            assert!(t.mean_latency_s > 0.0);
        }
        // Decision log covers every request exactly once.
        let mut seqs: Vec<usize> = rep.decisions.iter().map(|d| d.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn master_trace_label_table_stays_bounded_across_many_tenants() {
        let m = Machine::four_k40();
        let spec = &suite()[0];
        let count = |n: usize| {
            let mut srv = Server::new(m.clone(), 42).max_inflight(2);
            let reqs: Vec<ServeRequest<'static>> =
                (0..n).map(|i| request(&m, spec, i as TenantId, i as f64 * 100.0)).collect();
            let rep = srv.serve(reqs).unwrap();
            rep.trace.label_count()
        };
        let few = count(5);
        let many = count(60);
        assert!(few > 0, "full-level serve must intern labels");
        assert_eq!(few, many, "label table must not grow with tenant count");
    }

    #[test]
    fn utilization_comes_from_the_merged_trace() {
        let m = Machine::four_k40();
        let spec = &suite()[0];
        let mut srv = Server::new(m.clone(), 42);
        let reqs: Vec<ServeRequest<'static>> =
            (0..6).map(|i| request(&m, spec, i as TenantId, i as f64 * 100.0)).collect();
        let rep = srv.serve(reqs).unwrap();
        assert_eq!(rep.metrics.devices.len(), m.len());
        assert!((rep.metrics.makespan_s - rep.horizon.as_secs()).abs() < 1e-12);
        let busy: f64 = rep.metrics.devices.iter().map(|d| d.busy_union_s).sum();
        assert!(busy > 0.0, "merged trace must carry the work");
        for d in &rep.metrics.devices {
            assert!(d.utilization >= 0.0 && d.utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 99.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
