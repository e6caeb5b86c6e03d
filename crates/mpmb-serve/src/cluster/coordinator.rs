//! The coordinator half: deterministic scatter-gather over workers.
//!
//! [`scatter`] is the cluster range backend of
//! [`crate::job::Job::advance`]: wherever a single node hands a trial
//! space to the in-process [`mpmb_core::Executor`], the coordinator
//! splits the *missing* ranges of the master partial with the canonical
//! [`mpmb_core::chunk_ranges`] partition, posts each range to a worker,
//! and absorbs the returned partials. Every other stage of a job —
//! OLS preparing, finalization, cache keys and bodies — is the same
//! code as on a single node.
//!
//! Determinism: a trial's result is a function of its index alone, and
//! absorption is order-insensitive, so the master accumulator after
//! gather is byte-identical to a local run's. Worker count, range
//! boundaries, retries, and re-dispatches can change scheduling only,
//! never bytes.
//!
//! Failure: a range call that dies in transport (or returns bytes that
//! fail the frame checksum) marks its worker down and leaves the range
//! missing; the next round re-dispatches the *remaining* trials — a
//! worker that timed out mid-range keeps its completed prefix. If the
//! coordinator's own deadline fires first, the partially assembled
//! master is returned as an ordinary resumable partial and lands in
//! the result cache, so a retried request continues the gather instead
//! of restarting it.

use super::proto::{self, RangeRequest};
use super::{Cluster, ClusterError};
use crate::client::{self, ClientError, RetryPolicy};
use crate::job::{Cancel, Job, PartialState};
use crate::metrics::Metrics;
use mpmb_core::chunk_ranges;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Broadcasts a graph-registration body to every *healthy* worker. A
/// worker answering 409 already has the graph; that is success. Down
/// members are skipped so a dead worker cannot block registration
/// forever — if the prober later revives one that missed a graph, its
/// solve-range 404 surfaces as a 502 and the client re-registers (the
/// broadcast is idempotent thanks to the 409 rule).
pub(crate) fn broadcast_register(cluster: &Cluster, body: &[u8]) -> Result<(), ClusterError> {
    for i in cluster.members.healthy() {
        let addr = cluster.members.addr(i);
        match client::call_retry_expect(
            addr,
            "POST",
            "/v1/graphs",
            body,
            "application/json",
            &cluster.retry,
        ) {
            Ok(_) => cluster.members.mark_up(i),
            Err(ClientError::Status { status: 409, .. }) => cluster.members.mark_up(i),
            Err(ClientError::Status { status, body }) => {
                return Err(ClusterError::Worker {
                    addr: addr.to_string(),
                    status,
                    body,
                })
            }
            Err(ClientError::Transport(e)) => {
                cluster.members.mark_down(i);
                return Err(ClusterError::Worker {
                    addr: addr.to_string(),
                    status: 0,
                    body: format!("transport error: {e}"),
                });
            }
        }
    }
    Ok(())
}

/// How one range call failed.
enum CallFailure {
    /// No usable HTTP response (connect refused, reset, truncation) —
    /// or one whose frame failed to decode. The worker is suspect.
    WorkerLost(String),
    /// The worker is alive but overloaded or draining (429/503).
    Overloaded,
    /// The worker rejected the request outright — a config or protocol
    /// bug that re-dispatching cannot fix.
    Fatal {
        /// The worker's status code.
        status: u16,
        /// Its response body.
        body: String,
    },
}

/// Runs scatter rounds until the master is covered, the deadline
/// fires, or no worker can make progress. Every range request carries
/// the full job, so each worker seeds its engine exactly as a single
/// node would.
pub(crate) fn scatter(
    cluster: &Cluster,
    metrics: &Metrics,
    job: &Job,
    master: &mut PartialState,
    cancel: &Cancel,
) -> Result<(), ClusterError> {
    let template = RangeRequest {
        graph: job.graph.clone(),
        method: job.method.name().to_string(),
        trials: job.trials,
        prep: job.prep,
        seed: job.seed,
        threads: job.threads as u64,
        start: 0,
        end: 0,
        candidates: master.candidates().cloned(),
        trace: None,
    };
    let start_done = master.coverage().trials_done();
    let mut round = 0u64;
    loop {
        if master.coverage().completed() {
            return Ok(());
        }
        if cancel.expired() {
            // The caller caches the partial master; a retried request
            // resumes the gather from here.
            return Ok(());
        }
        let mut healthy = cluster.members.healthy();
        if healthy.is_empty() {
            // One synchronous probe round: workers that restarted
            // since they were marked down rejoin immediately.
            if cluster.members.probe_all(metrics) == 0 {
                if master.coverage().trials_done() > start_done {
                    return Ok(());
                }
                return Err(ClusterError::NoWorkers);
            }
            healthy = cluster.members.healthy();
        }

        let assignments = plan_assignments(&master.coverage().missing(), &healthy);
        metrics
            .cluster_ranges_dispatched
            .add(assignments.len() as u64);
        if round > 0 {
            metrics.cluster_redispatch.add(assignments.len() as u64);
        }
        round += 1;

        // Each range call gets its own hop in the trace tree: a child
        // span of this request's context, whose id the worker's
        // in-range spans then parent on. The spawned threads install
        // only the span context (no profile) so the `cluster.range`
        // timeline spans never double-count into the phase table —
        // stitching below attributes time precisely instead.
        let ctx = obs::current();
        let hops: Vec<Option<obs::SpanContext>> = assignments
            .iter()
            .map(|_| ctx.span.as_ref().map(|sc| sc.child()))
            .collect();
        let results: Vec<Result<RangeReply, CallFailure>> = std::thread::scope(|s| {
            let handles: Vec<_> = assignments
                .iter()
                .zip(&hops)
                .map(|((w, range), hop)| {
                    let addr = cluster.members.addr(*w);
                    let retry = &cluster.retry;
                    let request = RangeRequest {
                        start: range.start,
                        end: range.end,
                        trace: hop.as_ref().map(|sc| proto::TraceContext {
                            trace_id: sc.trace_id.to_string(),
                            parent_span: sc.span_id,
                        }),
                        ..template.clone()
                    };
                    let hop = hop.clone();
                    s.spawn(move || {
                        let _g = hop.map(|sc| {
                            obs::install(obs::ObsCtx {
                                trace_id: Some(Arc::clone(&sc.trace_id)),
                                span: Some(sc),
                                profile: None,
                                solver: None,
                            })
                        });
                        let mut sp = obs::span("cluster.range");
                        sp.items(request.end - request.start);
                        sp.field("worker", addr);
                        sp.field("range_start", request.start);
                        sp.field("range_end", request.end);
                        call_worker(addr, retry, &request)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter thread panicked"))
                .collect()
        });

        let mut progressed = false;
        let mut transient_failures = 0usize;
        let mut merge_span = obs::span("cluster.merge");
        let mut absorbed = 0u64;
        for ((widx, range), result) in assignments.iter().zip(results) {
            match result {
                Ok(reply) => {
                    check_containment(&reply.state, range)?;
                    let before = master.coverage().trials_done();
                    let covered = reply.state.coverage().trials_done();
                    master.absorb(reply.state).map_err(ClusterError::Protocol)?;
                    if master.coverage().trials_done() > before {
                        progressed = true;
                    }
                    absorbed += covered;
                    stitch_reply(&ctx, cluster.members.addr(*widx), &reply.phases, reply.wall);
                }
                Err(CallFailure::WorkerLost(reason)) => {
                    obs::event(
                        "cluster.worker_lost",
                        &[
                            ("worker", cluster.members.addr(*widx).into()),
                            ("range_start", range.start.into()),
                            ("range_end", range.end.into()),
                            ("reason", reason.into()),
                        ],
                    );
                    metrics.cluster_worker_errors.inc();
                    cluster.members.mark_down(*widx);
                    transient_failures += 1;
                }
                Err(CallFailure::Overloaded) => {
                    metrics.cluster_worker_errors.inc();
                    cluster.members.mark_down(*widx);
                    transient_failures += 1;
                }
                Err(CallFailure::Fatal { status, body }) => {
                    return Err(ClusterError::Worker {
                        addr: cluster.members.addr(*widx).to_string(),
                        status,
                        body,
                    });
                }
            }
        }
        merge_span.items(absorbed);
        drop(merge_span);
        if !progressed && transient_failures == 0 {
            // Every worker answered yet nothing advanced — e.g. worker
            // deadlines too short to finish a single check interval.
            // Erroring beats scattering the same ranges forever.
            return Err(ClusterError::Protocol(
                "scatter round completed without progress".to_string(),
            ));
        }
    }
}

/// Splits each missing gap across the healthy workers with the
/// canonical [`chunk_ranges`] partition, assigning pieces round-robin
/// in worker-list order. Pure, so the schedule is deterministic given
/// the same gaps and membership (the *answer* never depends on it).
fn plan_assignments(gaps: &[Range<u64>], healthy: &[usize]) -> Vec<(usize, Range<u64>)> {
    let mut assignments = Vec::new();
    let mut next = 0usize;
    for gap in gaps {
        for piece in chunk_ranges(gap.end - gap.start, healthy.len()) {
            if piece.start == piece.end {
                continue;
            }
            assignments.push((
                healthy[next % healthy.len()],
                gap.start + piece.start..gap.start + piece.end,
            ));
            next += 1;
        }
    }
    assignments
}

/// A successful range call: the worker's partial, its phase profile
/// (empty when the worker recorded none), and the call's wall time as
/// seen from the coordinator.
struct RangeReply {
    state: PartialState,
    phases: Vec<obs::PhaseStat>,
    wall: Duration,
}

/// Folds one worker reply into the request's profile: each returned
/// phase becomes a worker-labeled child entry (`addr/phase`), and the
/// gap between the call's wall time and the worker's own accounted
/// time is charged to `cluster.network`.
fn stitch_reply(ctx: &obs::ObsCtx, addr: &str, phases: &[obs::PhaseStat], wall: Duration) {
    let Some(profile) = &ctx.profile else { return };
    let accounted: f64 = phases.iter().map(|p| p.secs).sum();
    for p in phases {
        profile.absorb(&format!("{addr}/{}", p.name), p.secs, p.items, p.calls);
    }
    let overhead = wall.as_secs_f64() - accounted;
    if overhead > 0.0 {
        profile.absorb("cluster.network", overhead, 0, 1);
    }
}

/// One framed range call with retries; classifies the failure.
fn call_worker(
    addr: &str,
    retry: &RetryPolicy,
    request: &RangeRequest,
) -> Result<RangeReply, CallFailure> {
    let started = Instant::now();
    match client::call_retry_expect(
        addr,
        "POST",
        "/v1/internal/solve-range",
        &request.encode(),
        "application/octet-stream",
        retry,
    ) {
        Ok((_headers, bytes, _retries)) => match proto::decode_response(&bytes) {
            Ok((state, phases)) => Ok(RangeReply {
                state,
                phases: phases.unwrap_or_default(),
                wall: started.elapsed(),
            }),
            Err(e) => Err(CallFailure::WorkerLost(format!(
                "undecodable response: {e}"
            ))),
        },
        Err(ClientError::Transport(e)) => Err(CallFailure::WorkerLost(e.to_string())),
        Err(ClientError::Status {
            status: 429 | 503, ..
        }) => Err(CallFailure::Overloaded),
        Err(ClientError::Status { status, body }) => Err(CallFailure::Fatal { status, body }),
    }
}

/// A worker must only cover trials inside its assigned range; anything
/// else is a protocol violation (absorb would additionally catch
/// overlaps, but out-of-range coverage in untouched space would pass
/// silently without this check).
fn check_containment(piece: &PartialState, assigned: &Range<u64>) -> Result<(), ClusterError> {
    let requested = piece.coverage().trials_requested();
    let mut cursor = 0u64;
    let mut done = Vec::new();
    for gap in piece.coverage().missing() {
        if cursor < gap.start {
            done.push(cursor..gap.start);
        }
        cursor = gap.end;
    }
    if cursor < requested {
        done.push(cursor..requested);
    }
    for r in done {
        if r.start < assigned.start || r.end > assigned.end {
            return Err(ClusterError::Protocol(format!(
                "worker covered {r:?} outside its assigned range {assigned:?}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_covers_every_gap_exactly_once() {
        let gaps = vec![0..100u64, 250..260, 400..1000];
        let healthy = vec![0usize, 2, 5];
        let plan = plan_assignments(&gaps, &healthy);
        // Pieces tile the gaps in order, nothing dropped or duplicated.
        let mut covered: Vec<Range<u64>> = plan.iter().map(|(_, r)| r.clone()).collect();
        covered.sort_by_key(|r| r.start);
        let total: u64 = covered.iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 100 + 10 + 600);
        for w in covered.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap: {w:?}");
        }
        // Every piece lands on a configured worker.
        assert!(plan.iter().all(|(w, _)| healthy.contains(w)));
        // A wide gap splits across all three workers.
        let wide: Vec<_> = plan.iter().filter(|(_, r)| r.start >= 400).collect();
        assert_eq!(wide.len(), 3);
        assert_eq!(
            wide.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            vec![0, 2, 5]
        );
    }

    #[test]
    fn tiny_gaps_produce_no_empty_assignments() {
        let plan = plan_assignments(std::slice::from_ref(&(10..12)), &[0, 1, 2, 3, 4]);
        assert!(plan.iter().all(|(_, r)| r.start < r.end));
        let total: u64 = plan.iter().map(|(_, r)| r.end - r.start).sum();
        assert_eq!(total, 2);
    }
}
