//! The worker half of the range protocol:
//! `POST /v1/internal/solve-range`.
//!
//! A worker is an ordinary server that additionally answers range
//! calls: decode the frame, look up the graph, and run just the
//! requested index range through [`Job::run_range`] — the same engine,
//! seeded the same way, that a single-node run of the job builds. The
//! response is the framed [`crate::job::PartialState`]: the same bytes
//! a local run's checkpoint of that range would hold.
//!
//! A worker that hits its own `--timeout-ms` mid-range still answers
//! `200` with whatever prefix of the range completed: partial coverage
//! is a *legitimate* response, and the coordinator re-dispatches only
//! the remaining trials. Only malformed frames (400, including frames
//! of another protocol version), unknown graphs (404), and unknown
//! methods (400) are errors.
//!
//! When a request carries the coordinator's trace context, the worker
//! re-installs its observability context around the range — the
//! coordinator's trace id with a fresh per-hop span id parented on the
//! dispatching span. A `cluster.range.served` event emitted under that
//! context is the worker-side anchor of the cross-node timeline (it
//! lands in the worker's own trace sink *under the coordinator's trace
//! id*), and the per-phase profile — the engine phase of the range
//! included — is shipped back in the response for stitching.

use super::proto::{self, RangeRequest};
use crate::http::{Request, Response};
use crate::job::{Cancel, Endpoint, Job, Method};
use crate::server::AppState;
use std::sync::Arc;
use std::time::Instant;

/// Handles one range call end to end.
pub(crate) fn handle_solve_range(state: &AppState, req: &Request) -> Response {
    let started = Instant::now();
    let rr = match RangeRequest::decode(&req.body) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &format!("bad range request: {e}")),
    };
    let method = match Method::parse(Endpoint::Range, &rr.method) {
        Ok(m) => m,
        Err(msg) => return Response::error(400, &msg),
    };
    // Join the coordinator's trace: same trace id, fresh hop span id,
    // parented on the dispatching span. The request-scoped profile and
    // solver metrics installed by the HTTP layer carry over, so the
    // phases recorded below are exactly this range's.
    let outer = obs::current();
    let _trace_guard = rr.trace.as_ref().map(|t| {
        let sc = obs::SpanContext::child_of(Arc::from(t.trace_id.as_str()), t.parent_span);
        obs::install(obs::ObsCtx {
            trace_id: Some(Arc::clone(&sc.trace_id)),
            span: Some(sc),
            profile: outer.profile.clone(),
            solver: outer.solver.clone(),
        })
    });
    let entry = match state.registry.get(&rr.graph) {
        Some(e) => e,
        None => {
            return Response::error(404, &format!("graph `{}` is not registered here", rr.graph))
        }
    };
    // Materialize (container-backed graphs load lazily); the Arc pins
    // the graph against eviction for the duration of the range.
    let graph = match state.registry.materialize(&entry) {
        Ok(g) => g,
        Err(e) => return Response::error(503, &format!("graph unavailable: {e}")),
    };
    let job = Job {
        graph: rr.graph.clone(),
        prep: rr.prep,
        threads: (rr.threads.max(1) as usize).min(state.solver_thread_cap),
        ..Job::new(Endpoint::Range, method, rr.trials, rr.seed)
    };
    let cancel = Cancel::at(state.timeout.map(|t| Instant::now() + t));
    match job.run_range(&graph, rr.candidates, rr.start..rr.end, &cancel) {
        Ok(partial) => {
            let done = partial.coverage().trials_done();
            state.metrics.trials_executed.add(done);
            let phases = outer.profile.as_ref().map(|p| p.snapshot());
            // Emitted while the hop context is installed: this line in
            // the worker's own sink carries the coordinator's trace id
            // and the dispatching span as parent. (An event, not a
            // span — it must not feed the profile shipped above, or
            // the stitched budget would double-count the range.)
            obs::event(
                "cluster.range.served",
                &[
                    ("graph", rr.graph.as_str().into()),
                    ("method", rr.method.as_str().into()),
                    ("start", rr.start.into()),
                    ("end", rr.end.into()),
                    ("done", done.into()),
                    ("dur_us", (started.elapsed().as_micros() as u64).into()),
                ],
            );
            Response::octets(200, proto::encode_response(&partial, phases.as_deref()))
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PartialState;
    use crate::{Role, Server, ServerConfig};
    use bigraph::codec::{seal_frame, Encoder};

    /// A worker with graph `g` registered, and a range call for `os`
    /// trials `start..end` of 4000 on it.
    fn worker_and_request(start: u64, end: u64) -> (Server, RangeRequest) {
        let server = Server::start(ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            threads: 1,
            role: Role::Worker,
            ..ServerConfig::default()
        })
        .expect("start worker");
        server
            .state()
            .registry
            .load("g", "dataset:abide:0.01:3")
            .expect("load graph");
        let rr = RangeRequest {
            graph: "g".to_string(),
            method: "os".to_string(),
            trials: 4_000,
            prep: 100,
            seed: 17,
            threads: 1,
            start,
            end,
            candidates: None,
            trace: None,
        };
        (server, rr)
    }

    fn post(server: &Server, body: Vec<u8>) -> Response {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/internal/solve-range".to_string(),
            query: String::new(),
            version: "HTTP/1.1".to_string(),
            headers: Vec::new(),
            body,
        };
        handle_solve_range(server.state(), &req)
    }

    fn stop(server: Server) {
        server.begin_shutdown();
        server.join();
    }

    /// The range protocol speaks one version: a version-1 frame (the
    /// request layout without the trace flag) is a 400, not a panic.
    #[test]
    fn v1_frame_is_rejected_with_400() {
        let (server, rr) = worker_and_request(0, 100);
        let mut enc = Encoder::new();
        enc.str(&rr.graph);
        enc.str(&rr.method);
        for v in [rr.trials, rr.prep, rr.seed, rr.threads, rr.start, rr.end] {
            enc.u64(v);
        }
        enc.u8(0); // no candidates
        let resp = post(&server, seal_frame(proto::REQ_MAGIC, 1, &enc.into_bytes()));
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("unsupported format version 1"), "{body}");
        stop(server);
    }

    /// A range served under a request profile ships the engine phase
    /// of exactly that range back for stitching.
    #[test]
    fn range_reply_carries_the_engine_phase() {
        let (server, rr) = worker_and_request(1_000, 2_500);
        let profile = Arc::new(obs::Profile::new());
        let resp = {
            let _obs = obs::install(obs::ObsCtx {
                trace_id: None,
                span: None,
                profile: Some(Arc::clone(&profile)),
                solver: None,
            });
            post(&server, rr.encode())
        };
        assert_eq!(resp.status, 200);
        let (state, phases) = proto::decode_response(&resp.body).unwrap();
        assert!(matches!(state, PartialState::Os(_)));
        assert_eq!(state.coverage().trials_done(), 1_500);
        let phases = phases.expect("profile shipped");
        let sample = phases
            .iter()
            .find(|p| p.name == "os.sample")
            .unwrap_or_else(|| panic!("no os.sample phase in {phases:?}"));
        assert_eq!(sample.items, rr.end - rr.start);
        stop(server);
    }

    #[test]
    fn unknown_method_is_rejected_before_the_graph_is_touched() {
        let (server, rr) = worker_and_request(0, 100);
        let rr = RangeRequest {
            method: "nope".to_string(),
            graph: "missing".to_string(),
            ..rr
        };
        // 400 for the method, not 404 for the graph.
        assert_eq!(post(&server, rr.encode()).status, 400);
        stop(server);
    }
}
