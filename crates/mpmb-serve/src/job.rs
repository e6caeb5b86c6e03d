//! One typed job pipeline behind every solve-like request.
//!
//! Every sampler the server runs — MC-VP (Alg. 1), OS (Alg. 2), OLS
//! with the optimized (Alg. 3 + 5) or Karp-Luby (Alg. 4) estimator, and
//! the `count`, `query` and sublinear `fast` extensions — has one shape:
//! a seeded trial range produces a mergeable [`Partial`]. A [`Job`] is
//! one parsed request, and this module holds everything that differs
//! per [`Method`]: the engine to build, the [`PartialState`] variant
//! that carries its progress (and that variant's codec), the
//! cancellation granularity, how its work is counted, how it finalizes,
//! its cache key, and its JSON body. Adding a method that answers with
//! one of the existing [`Answer`] kinds is a change to this file alone.
//!
//! [`Job::advance`] runs a job's stages over one of two range
//! [`Backend`]s:
//!
//! * [`Backend::Local`] resumes the master partial on the in-process
//!   [`Executor`];
//! * [`Backend::Cluster`] scatters the master's missing ranges to the
//!   workers (see [`crate::cluster`]), each of which runs its range
//!   through [`Job::run_range`] and ships the covered partial back.
//!
//! OLS preparing always runs locally: it is cheap, and shipping its
//! [`CandidateSet`] with every range request means workers never re-run
//! it. Query estimates never leave the node that received them.
//!
//! A run that finishes is **bit-identical** to the corresponding direct
//! `mpmb_core` call at any thread count, worker count, and however many
//! calls the work was spread across. A cancelled run returns a
//! resumable [`PartialState`]; feeding it back under the same job
//! continues where it stopped, which is what lets the result cache
//! refine answers across repeated requests and the checkpoint store
//! resume them across restarts.

use crate::cluster::{coordinator, Cluster, ClusterError};
use crate::json::Json;
use crate::metrics::Metrics;
use bigraph::codec::{CodecError, Decoder, Encoder};
use bigraph::fx::FxHashMap;
use bigraph::UncertainBipartiteGraph;
pub use mpmb_core::engine::{Cancel, Partial, CHECK_EVERY};
use mpmb_core::{
    count_distribution_from_histogram, finalize_rows, top_k_diverse, Butterfly, CandidateSet,
    Checkpoint, CountDistribution, CountTrials, Distribution, Executor, FastEstimate, FastSample,
    KarpLubyTrials, KlCandidate, KlTrialPolicy, McVpConfig, McVpTrials, OlsConfig, OptimizedTrials,
    OsConfig, OsTrials, PrepareTrials, QueryResult, QueryTrials, SublinearTrials, Tally,
    TrialEngine,
};
use std::ops::Range;

/// A sampler the server can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Ordering Sampling (Alg. 2).
    Os,
    /// The MC-VP baseline (Alg. 1).
    McVp,
    /// OLS with the optimized estimator (Alg. 3 + 5).
    Ols,
    /// OLS with the Karp-Luby estimator (Alg. 4).
    OlsKl,
    /// The sublinear wedge sampler: the expected butterfly count with a
    /// certified confidence interval.
    Fast,
    /// The butterfly-count distribution over sampled worlds.
    Count,
    /// The conditioned probability of one given butterfly.
    Query,
}

/// Where a job's method name comes from. Each endpoint accepts its own
/// rows of the method table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/solve` and `mpmb solve`: a butterfly ranking, or a
    /// `fast` count estimate.
    Solve,
    /// `POST /v1/topk`: a butterfly ranking.
    TopK,
    /// `POST /v1/count` and `mpmb count`: the count distribution, or a
    /// `fast` count estimate.
    Count,
    /// `POST /v1/query`.
    Query,
    /// `POST /v1/internal/solve-range`: one range of a scattered job.
    Range,
}

impl Endpoint {
    /// The method names this endpoint accepts.
    fn methods(self) -> &'static [(&'static str, Method)] {
        use Method::*;
        match self {
            Endpoint::Solve => &[
                ("os", Os),
                ("mcvp", McVp),
                ("ols", Ols),
                ("ols-kl", OlsKl),
                ("fast", Fast),
            ],
            Endpoint::TopK => &[("os", Os), ("mcvp", McVp), ("ols", Ols), ("ols-kl", OlsKl)],
            Endpoint::Count => &[("exact", Count), ("fast", Fast)],
            Endpoint::Query => &[("query", Query)],
            Endpoint::Range => &[
                ("os", Os),
                ("mcvp", McVp),
                ("ols", Ols),
                ("ols-kl", OlsKl),
                ("count", Count),
                ("fast", Fast),
            ],
        }
    }

    fn label(self) -> &'static str {
        match self {
            Endpoint::Solve => "solve",
            Endpoint::TopK => "topk",
            Endpoint::Count => "count",
            Endpoint::Query => "query",
            Endpoint::Range => "range",
        }
    }
}

impl Method {
    /// Parses `name` as `endpoint` spells methods. This is the one
    /// method parser of HTTP bodies, CLI flags and range frames; its
    /// error lists exactly the names `endpoint` accepts.
    pub fn parse(endpoint: Endpoint, name: &str) -> Result<Method, String> {
        let table = endpoint.methods();
        match table.iter().find(|(n, _)| *n == name) {
            Some(&(_, method)) => Ok(method),
            None => {
                let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                Err(format!(
                    "unknown {} method `{name}` (expected {})",
                    endpoint.label(),
                    names.join("|")
                ))
            }
        }
    }

    /// The method's name in cache keys, response bodies and range
    /// frames.
    pub fn name(self) -> &'static str {
        match self {
            Method::Os => "os",
            Method::McVp => "mcvp",
            Method::Ols => "ols",
            Method::OlsKl => "ols-kl",
            Method::Fast => "fast",
            Method::Count => "count",
            Method::Query => "query",
        }
    }
}

/// Where a cancelled job stopped: the method-specific accumulator plus
/// the completed trial ranges, ready to resume. This is what the result
/// cache and the checkpoint store keep for timed-out requests, and what
/// a worker returns for one range.
#[derive(Clone, Debug)]
pub enum PartialState {
    /// Ordering Sampling mid-run.
    Os(Partial<Tally>),
    /// MC-VP mid-run.
    McVp(Partial<Tally>),
    /// OLS (either estimator) still in the preparing phase.
    OlsPrepare(Partial<Vec<Butterfly>>),
    /// OLS with the optimized estimator, mid-sampling-phase.
    OlsSample {
        /// Phase-1 output, kept so preparing never reruns.
        candidates: CandidateSet,
        /// Sampling-phase progress.
        partial: Partial<Tally>,
    },
    /// OLS with the Karp-Luby estimator, mid-estimation (one executor
    /// trial = one candidate, fully estimated).
    Kl {
        /// Phase-1 output, kept so preparing never reruns.
        candidates: CandidateSet,
        /// Per-candidate rows completed so far.
        partial: Partial<Vec<(u32, KlCandidate)>>,
    },
    /// Conditioned `/v1/query` mid-run (accumulator = hit count).
    Query(Partial<u64>),
    /// `/v1/count` mid-run (accumulator = count histogram).
    Count(Partial<FxHashMap<u64, u64>>),
    /// Sublinear `method=fast` counting tier mid-run (accumulator =
    /// index-tagged per-trial samples).
    Fast(Partial<Vec<FastSample>>),
}

/// The trial bookkeeping every [`Partial`] has, whatever its
/// accumulator.
pub(crate) trait Coverage {
    /// Trials completed so far.
    fn trials_done(&self) -> u64;
    /// Size of the trial space.
    fn trials_requested(&self) -> u64;
    /// The gaps still to run, in index order.
    fn missing(&self) -> Vec<Range<u64>>;
    /// Whether every trial of the space ran.
    fn completed(&self) -> bool {
        self.trials_done() == self.trials_requested()
    }
}

impl<A> Coverage for Partial<A> {
    fn trials_done(&self) -> u64 {
        Partial::trials_done(self)
    }
    fn trials_requested(&self) -> u64 {
        Partial::trials_requested(self)
    }
    fn missing(&self) -> Vec<Range<u64>> {
        Partial::missing(self)
    }
}

/// Tags of the [`PartialState`] variants in checkpoints and range
/// responses. Persisted: never renumber.
const TAG_OS: u8 = 0;
const TAG_MCVP: u8 = 1;
const TAG_OLS_PREPARE: u8 = 2;
const TAG_OLS_SAMPLE: u8 = 3;
const TAG_KL: u8 = 4;
const TAG_QUERY: u8 = 5;
const TAG_COUNT: u8 = 6;
const TAG_FAST: u8 = 7;

impl PartialState {
    /// Short tag for logs and errors (also the phase name `mpmb solve
    /// --progress` prints).
    pub fn kind(&self) -> &'static str {
        match self {
            PartialState::Os(_) => "os",
            PartialState::McVp(_) => "mcvp",
            PartialState::OlsPrepare(_) => "ols-prepare",
            PartialState::OlsSample { .. } => "ols-sample",
            PartialState::Kl { .. } => "ols-kl",
            PartialState::Query(_) => "query",
            PartialState::Count(_) => "count",
            PartialState::Fast(_) => "fast",
        }
    }

    /// The running MPMB leader and its estimate at this point of the
    /// run, if the phase tracks one:
    ///
    /// * tally phases (`os`, `mcvp`, `ols` sampling) report the
    ///   most-hit butterfly (ties broken toward the lexicographically
    ///   larger butterfly, matching finalization) with its hit fraction;
    /// * the Karp-Luby phase reports the completed candidate with the
    ///   highest estimated `P(B)`;
    /// * preparing, query, count and fast phases have no leader.
    pub fn leader(&self) -> Option<(Butterfly, f64)> {
        fn tally_leader(p: &Partial<Tally>) -> Option<(Butterfly, f64)> {
            let trials = p.trials_done();
            if trials == 0 {
                return None;
            }
            p.acc
                .counts()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(b, &c)| (*b, c as f64 / trials as f64))
        }
        match self {
            PartialState::Os(p)
            | PartialState::McVp(p)
            | PartialState::OlsSample { partial: p, .. } => tally_leader(p),
            PartialState::Kl {
                candidates,
                partial,
            } => partial
                .acc
                .iter()
                .max_by(|a, b| a.1.prob.total_cmp(&b.1.prob))
                .map(|(idx, c)| (candidates.get(*idx as usize).butterfly, c.prob)),
            PartialState::OlsPrepare(_)
            | PartialState::Query(_)
            | PartialState::Count(_)
            | PartialState::Fast(_) => None,
        }
    }

    /// The trial bookkeeping of the wrapped partial. For the OLS
    /// sampling states this is the phase-2 space (preparing ran on the
    /// coordinator).
    pub(crate) fn coverage(&self) -> &dyn Coverage {
        match self {
            PartialState::Os(p) | PartialState::McVp(p) => p,
            PartialState::OlsPrepare(p) => p,
            PartialState::OlsSample { partial, .. } => partial,
            PartialState::Kl { partial, .. } => partial,
            PartialState::Query(p) => p,
            PartialState::Count(p) => p,
            PartialState::Fast(p) => p,
        }
    }

    /// The preparing output a phase-2 OLS state carries.
    pub(crate) fn candidates(&self) -> Option<&CandidateSet> {
        match self {
            PartialState::OlsSample { candidates, .. } | PartialState::Kl { candidates, .. } => {
                Some(candidates)
            }
            _ => None,
        }
    }

    /// Absorbs `piece` — the same variant over the same trial space,
    /// with disjoint completed ranges — with the merge its engine uses,
    /// so the result finalizes exactly like a local run. On error
    /// `self` is untouched.
    pub(crate) fn absorb(&mut self, piece: PartialState) -> Result<(), String> {
        fn tally(acc: &mut Tally, other: Tally) {
            acc.merge(other);
        }
        let result = match (&mut *self, piece) {
            (PartialState::Os(m), PartialState::Os(p))
            | (PartialState::McVp(m), PartialState::McVp(p))
            | (
                PartialState::OlsSample { partial: m, .. },
                PartialState::OlsSample { partial: p, .. },
            ) => m.absorb(p, tally),
            (PartialState::Kl { partial: m, .. }, PartialState::Kl { partial: p, .. }) => {
                m.absorb(p, |acc, rows| acc.extend(rows))
            }
            (PartialState::Query(m), PartialState::Query(p)) => {
                m.absorb(p, |acc, hits| *acc += hits)
            }
            (PartialState::Count(m), PartialState::Count(p)) => m.absorb(p, |acc, hist| {
                for (count, occurrences) in hist {
                    *acc.entry(count).or_insert(0) += occurrences;
                }
            }),
            (PartialState::Fast(m), PartialState::Fast(p)) => {
                m.absorb(p, |acc, rows| acc.extend(rows))
            }
            (master, piece) => {
                return Err(format!(
                    "range response kind `{}` does not match request kind `{}`",
                    piece.kind(),
                    master.kind()
                ))
            }
        };
        result.map_err(|e| e.to_string())
    }

    /// Encodes this state behind its tag byte: the payload of a
    /// checkpointed partial and of a range response alike.
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            PartialState::Os(p) => {
                enc.u8(TAG_OS);
                p.encode(enc);
            }
            PartialState::McVp(p) => {
                enc.u8(TAG_MCVP);
                p.encode(enc);
            }
            PartialState::OlsPrepare(p) => {
                enc.u8(TAG_OLS_PREPARE);
                p.encode(enc);
            }
            PartialState::OlsSample {
                candidates,
                partial,
            } => {
                enc.u8(TAG_OLS_SAMPLE);
                candidates.encode(enc);
                partial.encode(enc);
            }
            PartialState::Kl {
                candidates,
                partial,
            } => {
                enc.u8(TAG_KL);
                candidates.encode(enc);
                partial.encode(enc);
            }
            PartialState::Query(p) => {
                enc.u8(TAG_QUERY);
                p.encode(enc);
            }
            PartialState::Count(p) => {
                enc.u8(TAG_COUNT);
                p.encode(enc);
            }
            PartialState::Fast(p) => {
                enc.u8(TAG_FAST);
                p.encode(enc);
            }
        }
    }

    /// Decodes one tagged state (inverse of [`PartialState::encode`]).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<PartialState, CodecError> {
        Ok(match dec.u8()? {
            TAG_OS => PartialState::Os(Partial::decode(dec)?),
            TAG_MCVP => PartialState::McVp(Partial::decode(dec)?),
            TAG_OLS_PREPARE => PartialState::OlsPrepare(Partial::decode(dec)?),
            TAG_OLS_SAMPLE => PartialState::OlsSample {
                candidates: CandidateSet::decode(dec)?,
                partial: Partial::decode(dec)?,
            },
            TAG_KL => PartialState::Kl {
                candidates: CandidateSet::decode(dec)?,
                partial: Partial::decode(dec)?,
            },
            TAG_QUERY => PartialState::Query(Partial::decode(dec)?),
            TAG_COUNT => PartialState::Count(Partial::decode(dec)?),
            TAG_FAST => PartialState::Fast(Partial::decode(dec)?),
            other => {
                return Err(CodecError::Invalid(format!(
                    "unknown partial-state tag {other}"
                )))
            }
        })
    }
}

/// A finished job's result.
#[derive(Clone, Debug)]
pub enum Answer {
    /// `os`, `mcvp`, `ols`, `ols-kl`: the estimated `P(B)` distribution.
    Ranking(Distribution),
    /// `fast`: the count estimate with its certified interval.
    Fast(FastEstimate),
    /// `count`: the sampled count distribution.
    Count(CountDistribution),
    /// `query`: the conditioned probability estimate.
    Query(QueryResult),
}

/// Outcome of one [`Job::advance`] call: either the finished answer or
/// the state to resume from next time.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every requested trial ran.
    Done(Answer),
    /// The deadline fired first; resume from this state.
    Incomplete(PartialState),
}

/// Progress report of one [`Job::advance`] call.
#[derive(Clone, Debug)]
pub struct Progress {
    /// Finished answer or resumable state.
    pub outcome: Outcome,
    /// Work completed so far, across all calls: trials, plus preparing
    /// trials for OLS, and samples rather than candidates for
    /// Karp-Luby.
    pub trials_done: u64,
    /// Work the request asked for, in the same units. Karp-Luby picks
    /// its own per-candidate counts, so a finished `ols-kl` run reports
    /// what it consumed.
    pub trials_requested: u64,
    /// Work newly executed by *this* call (for metrics).
    pub executed: u64,
}

impl Progress {
    /// Whether the run finished.
    pub fn completed(&self) -> bool {
        matches!(self.outcome, Outcome::Done(_))
    }
}

/// Where a job's trial ranges run.
pub enum Backend<'a> {
    /// In process: [`Executor::resume`] on the master partial.
    Local,
    /// Scattered over the cluster's workers, which return partials the
    /// master absorbs. Dispatch counters land on `metrics`.
    Cluster {
        /// Member list and retry policy.
        cluster: &'a Cluster,
        /// The coordinator's metrics.
        metrics: &'a Metrics,
    },
}

/// Why a job could not run.
#[derive(Debug)]
pub enum JobError {
    /// The job cannot run as given (e.g. a prior state of another
    /// method, or a range outside the trial space).
    Invalid(String),
    /// The query butterfly is not in the graph's backbone.
    NotInBackbone,
    /// The cluster backend failed.
    Cluster(ClusterError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(msg) => f.write_str(msg),
            JobError::NotInBackbone => f.write_str("butterfly is not in the graph's backbone"),
            JobError::Cluster(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ClusterError> for JobError {
    fn from(e: ClusterError) -> Self {
        JobError::Cluster(e)
    }
}

/// One parsed solve-like request: everything that determines its
/// answer, plus the thread count it runs on.
#[derive(Clone, Debug)]
pub struct Job {
    /// Where the request arrived; shapes the cache key and the body.
    pub endpoint: Endpoint,
    /// The sampler to run.
    pub method: Method,
    /// Registered graph name (cache key and body only: the graph itself
    /// is an argument of [`Job::advance`]).
    pub graph: String,
    /// Trial budget (per-candidate trials for `ols-kl`).
    pub trials: u64,
    /// OLS preparing trials. Part of every solve/topk key; only `ols`
    /// and `ols-kl` run them.
    pub prep: u64,
    /// Seed of every trial stream.
    pub seed: u64,
    /// Solver threads. Answers do not depend on it.
    pub threads: usize,
    /// `fast`: confidence parameter of the certified interval. Shapes
    /// only finalization, never the sampled rows.
    pub delta: f64,
    /// `fast` on `/v1/solve`: the relative error the interval must
    /// certify before the answer escalates to the exact tier.
    pub epsilon: f64,
    /// Ranking length (0 on `/v1/solve` = the MPMB alone).
    pub k: usize,
    /// Ranking diversity bound (shared vertices per pair).
    pub max_shared: Option<u64>,
    /// `query`: the butterfly whose probability is estimated.
    pub butterfly: Option<Butterfly>,
}

/// What to do with a stage's engine and its typed partial.
/// [`RangeOp::apply`] is generic over the engine, so
/// [`Job::with_engine`] builds each method's engine in one place for
/// every way of running it.
enum RangeOp<'c> {
    /// Runs every missing trial of the partial, until cancelled.
    Resume(&'c Cancel),
    /// Runs one range of the partial's (empty) trial space.
    Subrange(Range<u64>, &'c Cancel),
}

impl RangeOp<'_> {
    fn apply<E: TrialEngine>(&self, exec: Executor, engine: &E, partial: &mut Partial<E::Acc>) {
        match self {
            RangeOp::Resume(cancel) => exec.resume(engine, partial, cancel),
            RangeOp::Subrange(range, cancel) => {
                *partial =
                    exec.run_subrange(engine, range.clone(), partial.trials_requested(), cancel)
            }
        }
    }
}

impl Job {
    /// A job with every optional parameter at its default: graph name
    /// empty, 100 preparing trials, one thread, `delta` and `epsilon`
    /// 0.05, no ranking and no butterfly.
    pub fn new(endpoint: Endpoint, method: Method, trials: u64, seed: u64) -> Job {
        Job {
            endpoint,
            method,
            graph: String::new(),
            trials,
            prep: 100,
            seed,
            threads: 1,
            delta: 0.05,
            epsilon: 0.05,
            k: 0,
            max_shared: None,
            butterfly: None,
        }
    }

    /// Rejects parameters no engine can run.
    pub fn check(&self) -> Result<(), String> {
        let needs_prep = matches!(self.method, Method::Ols | Method::OlsKl);
        if self.trials == 0 || (needs_prep && self.prep == 0) {
            return Err(match self.endpoint {
                Endpoint::Solve | Endpoint::TopK => "trials and prep must be positive",
                _ => "trials must be positive",
            }
            .to_string());
        }
        if self.method == Method::Query && self.butterfly.is_none() {
            return Err("a query job needs a butterfly".to_string());
        }
        if self.method == Method::Fast {
            if !(self.delta > 0.0 && self.delta < 1.0) {
                return Err("delta must be in (0, 1)".to_string());
            }
            if self.endpoint == Endpoint::Solve && (self.epsilon <= 0.0 || self.epsilon.is_nan()) {
                return Err("epsilon must be positive".to_string());
            }
        }
        Ok(())
    }

    /// The result-cache key. Thread count is excluded: parallel runs
    /// are bit-identical.
    pub fn cache_key(&self) -> String {
        let (name, trials, prep, seed) = (&self.graph, self.trials, self.prep, self.seed);
        match (self.method, self.endpoint) {
            (Method::Fast, Endpoint::Count) => {
                format!("count-fast|{name}|{trials}|{seed}|{}", self.delta)
            }
            (Method::Fast, _) => format!("fast|{name}|{trials}|{seed}|{}", self.delta),
            (Method::Count, _) => format!("count|{name}|{trials}|{seed}"),
            (Method::Query, _) => {
                let b = self.butterfly.expect("checked query job");
                format!("query|{name}|{b}|{trials}|{seed}")
            }
            (method, endpoint) => format!(
                "{}|{name}|{}|{trials}|{prep}|{seed}|{}|{:?}",
                if endpoint == Endpoint::TopK {
                    "topk"
                } else {
                    "solve"
                },
                method.name(),
                self.k,
                self.max_shared
            ),
        }
    }

    /// The exact-tier job a `fast` solve escalates to: the os solve with
    /// the same trials, prep, seed and ranking. `None` for every other
    /// job.
    pub fn exact_tier(&self) -> Option<Job> {
        (self.method == Method::Fast && self.endpoint == Endpoint::Solve).then(|| Job {
            method: Method::Os,
            ..self.clone()
        })
    }

    /// Starts or resumes this job on `g`, running until completion or
    /// until `cancel` fires. `prior` is an earlier call's
    /// [`Outcome::Incomplete`] state for the same job (the cache key
    /// enforces this server-side), or `None` to start fresh.
    pub fn advance(
        &self,
        g: &UncertainBipartiteGraph,
        backend: &Backend<'_>,
        prior: Option<PartialState>,
        cancel: &Cancel,
    ) -> Result<Progress, JobError> {
        let mut state = match prior {
            None => self.fresh(None),
            Some(s) if self.accepts(&s) => s,
            Some(s) => {
                return Err(JobError::Invalid(format!(
                    "cached partial state `{}` does not match method `{}`",
                    s.kind(),
                    self.method.name()
                )))
            }
        };
        let before = self.counts(&state).0;
        // Stage 1, OLS preparing: always in process.
        if let PartialState::OlsPrepare(p) = &mut state {
            let engine = PrepareTrials::new(g, &self.ols_config());
            RangeOp::Resume(cancel).apply(Executor::new(self.threads), &engine, p);
            if !p.completed() {
                return self.progress(g, state, before);
            }
            let candidates = engine.finalize(std::mem::take(&mut p.acc));
            state = self.fresh(Some(candidates));
        }
        // Stage 2: the trial range, on the backend.
        match backend {
            Backend::Cluster { cluster, metrics } if self.method != Method::Query => {
                coordinator::scatter(cluster, metrics, self, &mut state, cancel)?
            }
            _ => self.with_engine(g, &mut state, &RangeOp::Resume(cancel))?,
        }
        self.progress(g, state, before)
    }

    /// Runs `range` of this job's phase-2 trial space (candidate indices
    /// for `ols-kl`, trial indices otherwise) — the worker half of a
    /// scatter. The returned partial spans the full space, covering the
    /// prefix of `range` that ran before `cancel` fired. `candidates`
    /// is the coordinator's preparing output, required by `ols` and
    /// `ols-kl`.
    pub fn run_range(
        &self,
        g: &UncertainBipartiteGraph,
        candidates: Option<CandidateSet>,
        range: Range<u64>,
        cancel: &Cancel,
    ) -> Result<PartialState, JobError> {
        let mut state = self.fresh(candidates);
        let total = state.coverage().trials_requested();
        if range.end > total {
            return Err(JobError::Invalid(format!(
                "range {range:?} escapes 0..{total}"
            )));
        }
        self.with_engine(g, &mut state, &RangeOp::Subrange(range, cancel))?;
        Ok(state)
    }

    /// The JSON body of a finished job. `escalated` reports whether a
    /// `fast` solve seeded its exact tier.
    pub fn body(
        &self,
        trials_done: u64,
        trials_requested: u64,
        answer: &Answer,
        escalated: bool,
    ) -> String {
        let graph = ("graph", Json::Str(self.graph.clone()));
        let seed = ("seed", Json::Num(self.seed as f64));
        let requested = ("trials_requested", Json::Num(trials_requested as f64));
        let done = ("trials_done", Json::Num(trials_done as f64));
        let body = match answer {
            Answer::Ranking(dist) => {
                let mut fields = vec![
                    graph,
                    ("method", Json::Str(self.method.name().to_string())),
                    seed,
                    requested,
                    done,
                    ("support", Json::Num(dist.len() as f64)),
                ];
                if self.endpoint == Endpoint::TopK {
                    fields.push(("k", Json::Num(self.k as f64)));
                    fields.push(("top", top_json(dist, self.k, self.max_shared)));
                } else {
                    fields.push(("mpmb", mpmb_json(dist)));
                    if self.k > 0 {
                        fields.push(("top", top_json(dist, self.k, self.max_shared)));
                    }
                }
                Json::obj(fields)
            }
            Answer::Fast(est) => {
                let mut fields = vec![
                    graph,
                    ("method", Json::Str("fast".to_string())),
                    seed,
                    ("delta", Json::Num(self.delta)),
                ];
                if self.endpoint == Endpoint::Solve {
                    fields.push(("epsilon", Json::Num(self.epsilon)));
                }
                fields.extend([
                    requested,
                    done,
                    ("estimate", Json::Num(est.estimate)),
                    ("variance", Json::Num(est.variance)),
                    ("ci_low", Json::Num(est.ci_low)),
                    ("ci_high", Json::Num(est.ci_high)),
                    ("relative_error", Json::Num(est.relative_error)),
                ]);
                if self.endpoint == Endpoint::Solve {
                    fields.push(("escalated", Json::Bool(escalated)));
                }
                Json::obj(fields)
            }
            Answer::Count(dist) => Json::obj([
                graph,
                ("mean", Json::Num(dist.mean)),
                ("variance", Json::Num(dist.variance)),
                ("trials", Json::Num(dist.trials as f64)),
                ("distinct_counts", Json::Num(dist.histogram.len() as f64)),
            ]),
            Answer::Query(q) => Json::obj([
                graph,
                (
                    "butterfly",
                    butterfly_json(&self.butterfly.expect("checked query job")),
                ),
                ("existence_prob", Json::Num(q.existence_prob)),
                ("conditional_max_prob", Json::Num(q.conditional_max_prob)),
                ("prob", Json::Num(q.prob)),
                ("trials", Json::Num(q.trials as f64)),
            ]),
        };
        body.to_string()
    }

    /// The OLS configuration a direct `mpmb_core` run would use: its
    /// seeding (notably `sample_seed()`) must match exactly.
    fn ols_config(&self) -> OlsConfig {
        OlsConfig {
            prep_trials: self.prep,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The state a run starts from: preparing for OLS without
    /// `candidates`, otherwise an empty partial over the method's
    /// (phase-2) trial space.
    fn fresh(&self, candidates: Option<CandidateSet>) -> PartialState {
        let trials = self.trials;
        match (self.method, candidates) {
            (Method::Os, _) => PartialState::Os(Partial::empty(Tally::new(), trials)),
            (Method::McVp, _) => PartialState::McVp(Partial::empty(Tally::new(), trials)),
            (Method::Ols | Method::OlsKl, None) => {
                PartialState::OlsPrepare(Partial::empty(Vec::new(), self.prep))
            }
            (Method::Ols, Some(candidates)) => PartialState::OlsSample {
                candidates,
                partial: Partial::empty(Tally::new(), trials),
            },
            (Method::OlsKl, Some(candidates)) => {
                let n = candidates.len() as u64;
                PartialState::Kl {
                    candidates,
                    partial: Partial::empty(Vec::new(), n),
                }
            }
            (Method::Query, _) => PartialState::Query(Partial::empty(0, trials)),
            (Method::Count, _) => PartialState::Count(Partial::empty(FxHashMap::default(), trials)),
            (Method::Fast, _) => PartialState::Fast(Partial::empty(Vec::new(), trials)),
        }
    }

    /// Whether `state` is a stage of this job's method.
    fn accepts(&self, state: &PartialState) -> bool {
        matches!(
            (self.method, state),
            (Method::Os, PartialState::Os(_))
                | (Method::McVp, PartialState::McVp(_))
                | (Method::Ols | Method::OlsKl, PartialState::OlsPrepare(_))
                | (Method::Ols, PartialState::OlsSample { .. })
                | (Method::OlsKl, PartialState::Kl { .. })
                | (Method::Query, PartialState::Query(_))
                | (Method::Count, PartialState::Count(_))
                | (Method::Fast, PartialState::Fast(_))
        )
    }

    /// `(trials_done, trials_requested)` of a state, in the units of
    /// [`Progress`].
    fn counts(&self, state: &PartialState) -> (u64, u64) {
        let planned = self.prep + self.trials;
        match state {
            PartialState::OlsPrepare(p) => (p.trials_done(), planned),
            PartialState::OlsSample { partial, .. } => (self.prep + partial.trials_done(), planned),
            PartialState::Kl { partial, .. } => {
                let done = self.prep + KarpLubyTrials::consumed(&partial.acc);
                // KL picks its own per-candidate counts: once every
                // candidate ran, the request is complete by construction.
                (done, if partial.completed() { done } else { planned })
            }
            other => {
                let c = other.coverage();
                (c.trials_done(), c.trials_requested())
            }
        }
    }

    /// Builds the engine of `state`'s stage and applies `op` to it with
    /// the typed partial.
    fn with_engine(
        &self,
        g: &UncertainBipartiteGraph,
        state: &mut PartialState,
        op: &RangeOp<'_>,
    ) -> Result<(), JobError> {
        let exec = Executor::new(self.threads);
        let (trials, seed) = (self.trials, self.seed);
        match state {
            PartialState::Os(p) => op.apply(
                exec,
                &OsTrials::new(
                    g,
                    &OsConfig {
                        trials,
                        seed,
                        ..Default::default()
                    },
                ),
                p,
            ),
            PartialState::McVp(p) => {
                op.apply(exec, &McVpTrials::new(g, &McVpConfig { trials, seed }), p)
            }
            PartialState::OlsPrepare(_) => {
                return Err(JobError::Invalid(format!(
                    "{} range requires a candidate set",
                    self.method.name()
                )))
            }
            PartialState::OlsSample {
                candidates,
                partial,
            } => op.apply(
                exec,
                &OptimizedTrials::new(g, candidates, self.ols_config().sample_seed()),
                partial,
            ),
            // One KL "trial" is a whole candidate: check the deadline
            // per candidate.
            PartialState::Kl {
                candidates,
                partial,
            } => op.apply(exec.check_every(1), &self.kl_engine(g, candidates), partial),
            PartialState::Query(p) => op.apply(exec, &self.query_engine(g)?, p),
            PartialState::Count(p) => op.apply(exec, &CountTrials::new(g, seed), p),
            PartialState::Fast(p) => op.apply(exec, &SublinearTrials::new(g, seed), p),
        }
        Ok(())
    }

    fn kl_engine<'a>(
        &self,
        g: &'a UncertainBipartiteGraph,
        candidates: &'a CandidateSet,
    ) -> KarpLubyTrials<'a> {
        KarpLubyTrials::new(
            g,
            candidates,
            KlTrialPolicy::Fixed(self.trials),
            self.ols_config().sample_seed(),
        )
    }

    fn query_engine<'g>(
        &self,
        g: &'g UncertainBipartiteGraph,
    ) -> Result<QueryTrials<'g>, JobError> {
        let b = self.butterfly.expect("checked query job");
        QueryTrials::new(g, &b, self.seed).ok_or(JobError::NotInBackbone)
    }

    /// Reports `state`: finalized when its trial space is covered,
    /// resumable otherwise. `before` is the work done when the call
    /// started.
    fn progress(
        &self,
        g: &UncertainBipartiteGraph,
        state: PartialState,
        before: u64,
    ) -> Result<Progress, JobError> {
        let (trials_done, trials_requested) = self.counts(&state);
        let outcome = if state.coverage().completed() {
            Outcome::Done(self.finalize(g, state)?)
        } else {
            Outcome::Incomplete(state)
        };
        Ok(Progress {
            outcome,
            trials_done,
            trials_requested,
            executed: trials_done - before,
        })
    }

    /// Finalizes a covered phase-2 state into the answer.
    fn finalize(
        &self,
        g: &UncertainBipartiteGraph,
        state: PartialState,
    ) -> Result<Answer, JobError> {
        Ok(match state {
            PartialState::Os(p)
            | PartialState::McVp(p)
            | PartialState::OlsSample { partial: p, .. } => {
                Answer::Ranking(p.acc.into_distribution())
            }
            PartialState::Kl {
                candidates,
                partial,
            } => Answer::Ranking(
                self.kl_engine(g, &candidates)
                    .finalize(partial.acc)
                    .distribution,
            ),
            PartialState::Query(p) => {
                Answer::Query(self.query_engine(g)?.finalize(p.acc, self.trials))
            }
            PartialState::Count(p) => {
                Answer::Count(count_distribution_from_histogram(p.acc, self.trials))
            }
            PartialState::Fast(mut p) => Answer::Fast(finalize_rows(&mut p.acc, self.delta)),
            PartialState::OlsPrepare(_) => {
                unreachable!("advance leaves the preparing stage before it finalizes")
            }
        })
    }
}

fn butterfly_json(b: &Butterfly) -> Json {
    Json::Arr(vec![
        Json::Num(b.u1.0 as f64),
        Json::Num(b.u2.0 as f64),
        Json::Num(b.v1.0 as f64),
        Json::Num(b.v2.0 as f64),
    ])
}

fn mpmb_json(dist: &Distribution) -> Json {
    match dist.mpmb() {
        None => Json::Null,
        Some((b, p)) => Json::obj([("butterfly", butterfly_json(&b)), ("prob", Json::Num(p))]),
    }
}

fn top_json(dist: &Distribution, k: usize, max_shared: Option<u64>) -> Json {
    let pairs = match max_shared {
        Some(m) => top_k_diverse(dist, k, m.min(4) as usize),
        None => dist.top_k(k),
    };
    Json::Arr(
        pairs
            .iter()
            .map(|(b, p)| Json::obj([("butterfly", butterfly_json(b)), ("prob", Json::Num(*p))]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Snapshot;
    use bigraph::{GraphBuilder, Left, Right};
    use mpmb_core::{chunk_ranges, EstimatorKind, OrderingListingSampling, OrderingSampling};
    use std::time::Instant;

    fn fig1() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    /// Every bit of an answer, so equal strings mean byte-identical
    /// results (`{:?}` prints each `f64` exactly).
    fn fingerprint(answer: &Answer) -> String {
        match answer {
            Answer::Ranking(d) => format!("{:?}", d.sorted()),
            Answer::Fast(est) => format!("{est:?}"),
            Answer::Count(d) => {
                let mut hist: Vec<_> = d.histogram.iter().collect();
                hist.sort_unstable();
                format!("{} {} {} {hist:?}", d.mean, d.variance, d.trials)
            }
            Answer::Query(q) => format!("{q:?}"),
        }
    }

    fn done(progress: Progress) -> Answer {
        match progress.outcome {
            Outcome::Done(answer) => answer,
            Outcome::Incomplete(s) => panic!("expected completion, got partial `{}`", s.kind()),
        }
    }

    fn ols_config(job: &Job, estimator: EstimatorKind) -> OlsConfig {
        OlsConfig {
            estimator,
            ..job.ols_config()
        }
    }

    /// The direct `mpmb_core` call a finished job must reproduce.
    fn reference(g: &UncertainBipartiteGraph, job: &Job) -> Answer {
        let (trials, seed) = (job.trials, job.seed);
        match job.method {
            Method::Os => Answer::Ranking(
                OrderingSampling::new(OsConfig {
                    trials,
                    seed,
                    ..Default::default()
                })
                .run(g),
            ),
            Method::McVp => {
                Answer::Ranking(mpmb_core::McVp::new(McVpConfig { trials, seed }).run(g))
            }
            Method::Ols => Answer::Ranking(
                OrderingListingSampling::new(ols_config(job, EstimatorKind::Optimized { trials }))
                    .run(g)
                    .distribution,
            ),
            Method::OlsKl => Answer::Ranking(
                OrderingListingSampling::new(ols_config(
                    job,
                    EstimatorKind::KarpLuby {
                        policy: KlTrialPolicy::Fixed(trials),
                    },
                ))
                .run(g)
                .distribution,
            ),
            Method::Fast => Answer::Fast(mpmb_core::estimate_fast(
                g,
                &mpmb_core::SublinearConfig {
                    trials,
                    seed,
                    delta: job.delta,
                },
                2,
            )),
            Method::Count => Answer::Count(mpmb_core::sample_count_distribution_parallel(
                g, trials, seed, 2,
            )),
            Method::Query => Answer::Query(
                mpmb_core::estimate_prob_of(g, &job.butterfly.unwrap(), trials, seed).unwrap(),
            ),
        }
    }

    /// One table over every method: an uncancelled local run, the same
    /// run resumed across trial-budget slices, every mid-run state
    /// round-tripped through the checkpoint codec and resumed at another
    /// thread count, and three worker ranges absorbed into a master all
    /// finalize byte-identically to the direct `mpmb_core` call.
    #[test]
    fn every_method_finishes_identically_on_every_path() {
        let g = fig1();
        let query = Butterfly::new(Left(0), Left(1), Right(1), Right(2));
        // Each row gives the trial budget of each successive call (the
        // last repeats) and the mid-run state kinds it must produce.
        // Slices run on one thread, so budgets land exactly: blocks of
        // 64 trials, single candidates for KL. The OLS budgets stop once
        // in preparing (128 of 200) and then once mid-stage-2 (fig1 has
        // three KL candidates: 72 preparing trials + 2 candidates = 74;
        // the first candidate needs no KL trials).
        type Row = (
            Method,
            Endpoint,
            u64,
            u64,
            &'static [u64],
            &'static [&'static str],
        );
        let table: [Row; 7] = [
            (Method::Os, Endpoint::Solve, 2_000, 1, &[300], &["os"]),
            (Method::McVp, Endpoint::Solve, 1_000, 1, &[170], &["mcvp"]),
            (
                Method::Ols,
                Endpoint::Solve,
                5_000,
                200,
                &[100, 450],
                &["ols-prepare", "ols-sample"],
            ),
            (
                Method::OlsKl,
                Endpoint::Solve,
                300,
                200,
                &[100, 74],
                &["ols-prepare", "ols-kl"],
            ),
            (Method::Fast, Endpoint::Solve, 3_000, 1, &[400], &["fast"]),
            (Method::Count, Endpoint::Count, 2_000, 1, &[300], &["count"]),
            (Method::Query, Endpoint::Query, 2_000, 1, &[256], &["query"]),
        ];
        for (method, endpoint, trials, prep, budgets, kinds) in table {
            let job = Job {
                prep,
                threads: 2,
                delta: 0.1,
                butterfly: (method == Method::Query).then_some(query),
                ..Job::new(endpoint, method, trials, 31)
            };
            job.check().unwrap();
            let expect = fingerprint(&reference(&g, &job));

            // Uncancelled, on the local backend.
            let full = job
                .advance(&g, &Backend::Local, None, &Cancel::never())
                .unwrap();
            assert_eq!(full.executed, full.trials_done, "{method:?}");
            let full_done = full.trials_done;
            assert_eq!(fingerprint(&done(full)), expect, "{method:?}: local run");

            // Resumed across one-thread trial-budget slices. Every
            // mid-run state goes through the checkpoint codec: the
            // slicing continues from the decoded state, and a copy of it
            // finishes uncancelled on two threads.
            let sliced_job = Job {
                threads: 1,
                ..job.clone()
            };
            let mut state = None;
            let mut seen: Vec<&str> = Vec::new();
            let sliced = loop {
                let budget = budgets[seen.len().min(budgets.len() - 1)];
                let p = sliced_job
                    .advance(
                        &g,
                        &Backend::Local,
                        state.take(),
                        &Cancel::after_trials(budget),
                    )
                    .unwrap();
                let s = match p.outcome {
                    Outcome::Done(answer) => {
                        assert_eq!(p.trials_done, full_done, "{method:?}");
                        break answer;
                    }
                    Outcome::Incomplete(s) => s,
                };
                assert!(!s.coverage().completed(), "{method:?}");
                // KL picks its own per-candidate counts, so mid-KL work
                // can reach the planned `prep + trials`.
                if method != Method::OlsKl {
                    assert!(p.trials_done < p.trials_requested, "{method:?}");
                }
                assert!(job.accepts(&s), "{method:?}: state `{}`", s.kind());
                if matches!(method, Method::Fast | Method::Count | Method::Query) {
                    assert!(s.leader().is_none(), "{method:?}");
                }
                seen.push(s.kind());
                let snap = Snapshot {
                    graphs: vec![],
                    partials: vec![(job.cache_key(), s.clone())],
                };
                let bytes = snap.to_bytes();
                let back = Snapshot::from_bytes(&bytes).unwrap();
                assert_eq!(back.to_bytes(), bytes, "{method:?}: `{}` codec", s.kind());
                let (key, restored) = back.partials.into_iter().next().unwrap();
                assert_eq!(key, job.cache_key());
                assert_eq!(restored.coverage().missing(), s.coverage().missing());
                assert_eq!(restored.kind(), s.kind());
                let resumed = job
                    .advance(
                        &g,
                        &Backend::Local,
                        Some(restored.clone()),
                        &Cancel::never(),
                    )
                    .unwrap();
                assert_eq!(
                    resumed.executed,
                    full_done - p.trials_done,
                    "{method:?}: restored `{}` reran trials",
                    s.kind()
                );
                assert_eq!(
                    fingerprint(&done(resumed)),
                    expect,
                    "{method:?}: restored `{}`",
                    s.kind()
                );
                state = Some(restored);
            };
            seen.dedup();
            assert_eq!(seen, kinds, "{method:?}: mid-run states");
            assert_eq!(fingerprint(&sliced), expect, "{method:?}: sliced run");

            // Three worker ranges, absorbed out of order. OLS ranges
            // carry the coordinator's preparing output.
            let candidates = matches!(method, Method::Ols | Method::OlsKl)
                .then(|| OrderingListingSampling::new(job.ols_config()).prepare(&g));
            let space = job.fresh(candidates.clone()).coverage().trials_requested();
            let pieces = chunk_ranges(space, 3);
            assert_eq!(pieces.len(), 3, "{method:?}");
            let run = |r: &Range<u64>| {
                job.run_range(&g, candidates.clone(), r.clone(), &Cancel::never())
                    .unwrap()
            };
            let mut master = run(&pieces[2]);
            for r in pieces[..2].iter().rev() {
                master.absorb(run(r)).unwrap();
            }
            assert!(master.coverage().completed(), "{method:?}");
            let gathered = job.finalize(&g, master).unwrap();
            assert_eq!(
                fingerprint(&gathered),
                expect,
                "{method:?}: gathered ranges"
            );
        }
    }

    #[test]
    fn method_names_parse_per_endpoint_with_one_message() {
        assert_eq!(Method::parse(Endpoint::Solve, "ols-kl"), Ok(Method::OlsKl));
        assert_eq!(Method::parse(Endpoint::Count, "exact"), Ok(Method::Count));
        assert_eq!(Method::parse(Endpoint::Range, "count"), Ok(Method::Count));
        assert_eq!(
            Method::parse(Endpoint::Solve, "nope"),
            Err("unknown solve method `nope` (expected os|mcvp|ols|ols-kl|fast)".to_string())
        );
        assert_eq!(
            Method::parse(Endpoint::TopK, "fast"),
            Err("unknown topk method `fast` (expected os|mcvp|ols|ols-kl)".to_string())
        );
        assert!(Method::parse(Endpoint::Count, "count").is_err());
        assert!(Method::parse(Endpoint::Range, "query").is_err());
        // Every accepted name round-trips through `name`, except the
        // count endpoint's spelling of the count method.
        for endpoint in [Endpoint::Solve, Endpoint::TopK, Endpoint::Range] {
            for &(name, method) in endpoint.methods() {
                assert_eq!(method.name(), name);
            }
        }
    }

    /// Cache keys are persisted in checkpoints: their format is frozen.
    #[test]
    fn cache_keys_keep_their_persisted_format() {
        let job = |endpoint, method| Job {
            graph: "g".to_string(),
            k: 3,
            max_shared: Some(1),
            butterfly: Some(Butterfly::new(Left(0), Left(1), Right(1), Right(2))),
            ..Job::new(endpoint, method, 500, 7)
        };
        let b = Butterfly::new(Left(0), Left(1), Right(1), Right(2));
        for (endpoint, method, key) in [
            (
                Endpoint::Solve,
                Method::OlsKl,
                "solve|g|ols-kl|500|100|7|3|Some(1)".to_string(),
            ),
            (
                Endpoint::TopK,
                Method::Os,
                "topk|g|os|500|100|7|3|Some(1)".to_string(),
            ),
            (
                Endpoint::Solve,
                Method::Fast,
                "fast|g|500|7|0.05".to_string(),
            ),
            (
                Endpoint::Count,
                Method::Fast,
                "count-fast|g|500|7|0.05".to_string(),
            ),
            (Endpoint::Count, Method::Count, "count|g|500|7".to_string()),
            (Endpoint::Query, Method::Query, format!("query|g|{b}|500|7")),
        ] {
            assert_eq!(job(endpoint, method).cache_key(), key);
        }
        let fast = job(Endpoint::Solve, Method::Fast);
        assert_eq!(
            fast.exact_tier().unwrap().cache_key(),
            "solve|g|os|500|100|7|3|Some(1)"
        );
        assert!(job(Endpoint::Count, Method::Fast).exact_tier().is_none());
    }

    #[test]
    fn ols_resume_does_not_rerun_preparing() {
        let g = fig1();
        let job = Job {
            prep: 200,
            ..Job::new(Endpoint::Solve, Method::Ols, 5_000, 7)
        };
        // Budget smaller than prep: the first call ends mid-preparing.
        let p1 = job
            .advance(&g, &Backend::Local, None, &Cancel::after_trials(64))
            .unwrap();
        let state = match p1.outcome {
            Outcome::Incomplete(s @ PartialState::OlsPrepare(_)) => s,
            ref other => panic!("expected mid-preparing state, got {other:?}"),
        };
        assert!(p1.trials_done < 200);
        // Resume with no budget: finishes prep + sampling in one call,
        // executing only what the first call did not.
        let p2 = job
            .advance(&g, &Backend::Local, Some(state), &Cancel::never())
            .unwrap();
        assert!(p2.completed());
        assert_eq!(p1.executed + p2.executed, 200 + 5_000);
    }

    #[test]
    fn expired_deadline_yields_resumable_partial() {
        let g = fig1();
        let job = Job {
            threads: 2,
            ..Job::new(Endpoint::Solve, Method::Os, 1_000_000, 1)
        };
        let run = job
            .advance(&g, &Backend::Local, None, &Cancel::at(Some(Instant::now())))
            .unwrap();
        assert!(!run.completed());
        assert!(run.trials_done < 1_000_000);
        assert_eq!(run.trials_requested, 1_000_000);
        let Outcome::Incomplete(state) = run.outcome else {
            unreachable!()
        };
        // The partial resumes, at another thread count, to the full
        // deterministic answer.
        let resumed = Job { threads: 4, ..job }
            .advance(&g, &Backend::Local, Some(state), &Cancel::never())
            .unwrap();
        let core = OrderingSampling::new(OsConfig {
            trials: 1_000_000,
            seed: 1,
            ..Default::default()
        })
        .run(&g);
        assert_eq!(
            fingerprint(&done(resumed)),
            fingerprint(&Answer::Ranking(core))
        );
    }

    #[test]
    fn mismatched_state_is_rejected() {
        let g = fig1();
        let os = Job::new(Endpoint::Solve, Method::Os, 1_000, 1);
        let Outcome::Incomplete(state) = os
            .advance(&g, &Backend::Local, None, &Cancel::after_trials(64))
            .unwrap()
            .outcome
        else {
            panic!("budget should have cancelled")
        };
        for method in [Method::McVp, Method::Fast] {
            let other = Job::new(Endpoint::Solve, method, 1_000, 1);
            assert!(matches!(
                other.advance(&g, &Backend::Local, Some(state.clone()), &Cancel::never()),
                Err(JobError::Invalid(_))
            ));
        }
    }

    #[test]
    fn query_rejects_non_backbone_butterfly() {
        let g = fig1();
        let job = Job {
            butterfly: Some(Butterfly::new(Left(0), Left(5), Right(0), Right(1))),
            ..Job::new(Endpoint::Query, Method::Query, 10, 0)
        };
        job.check().unwrap();
        assert!(matches!(
            job.advance(&g, &Backend::Local, None, &Cancel::never()),
            Err(JobError::NotInBackbone)
        ));
        // A missing butterfly is a malformed job, not a butterfly
        // outside the backbone.
        let bare = Job::new(Endpoint::Query, Method::Query, 10, 0);
        assert_eq!(
            bare.check(),
            Err("a query job needs a butterfly".to_string())
        );
    }

    #[test]
    fn out_of_space_and_candidate_less_ranges_are_rejected() {
        let g = fig1();
        let os = Job::new(Endpoint::Range, Method::Os, 100, 17);
        assert!(os.run_range(&g, None, 50..150, &Cancel::never()).is_err());
        for method in [Method::Ols, Method::OlsKl] {
            let job = Job {
                prep: 60,
                ..Job::new(Endpoint::Range, method, 50, 17)
            };
            assert!(job.run_range(&g, None, 0..1, &Cancel::never()).is_err());
        }
    }

    #[test]
    fn expired_deadline_yields_partial_range_coverage() {
        let g = fig1();
        let job = Job::new(Endpoint::Range, Method::Os, 1_000_000, 17);
        let partial = job
            .run_range(&g, None, 0..1_000_000, &Cancel::after_trials(200))
            .unwrap();
        let done = partial.coverage().trials_done();
        assert!(done > 0 && done < 1_000_000, "done={done}");
        // The covered prefix starts at the range start.
        assert_eq!(partial.coverage().missing(), vec![done..1_000_000]);
    }

    #[test]
    fn absorb_rejects_overlap_space_and_kind_mismatch() {
        let g = fig1();
        let piece = |method, range: Range<u64>, total| {
            Job::new(Endpoint::Range, method, total, 9)
                .run_range(&g, None, range, &Cancel::never())
                .unwrap()
        };
        let mut master = piece(Method::Os, 0..40, 120);
        assert!(master.absorb(piece(Method::Os, 30..50, 120)).is_err());
        // Master untouched by the failed absorb.
        assert_eq!(master.coverage().trials_done(), 40);
        assert!(master.absorb(piece(Method::Os, 40..60, 200)).is_err());
        assert!(master.absorb(piece(Method::McVp, 40..60, 120)).is_err());
        assert_eq!(master.coverage().trials_done(), 40);
    }

    #[test]
    fn cancel_latches() {
        let c = Cancel::at(Some(Instant::now()));
        assert!(c.expired());
        assert!(c.expired());
        assert!(!Cancel::never().expired());
    }
}
