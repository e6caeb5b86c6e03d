//! `perfbench-layers` — the serving benchmark's in-process layer calls.
//!
//! Times the public entry points of each layer on one workload's graph,
//! with no server, socket or cache around them, and prints one JSON
//! object on stdout:
//!
//! ```text
//! perfbench-layers --dataset movielens|protein --scale F --gen-seed N
//!                  --dir DIR [--seed N] [--os-trials N] [--ols-trials N]
//!                  [--prep N] [--fast-trials N]
//! ```
//!
//! Layers and the calls that time them:
//!
//! * `datasets` — `datasets::<name>::generate` (`datasets.generate_s`);
//! * `bigraph::storage` — container attach (`ContainerReader::open`,
//!   `storage.attach_ms`) and materialization (`storage.materialize_ms`)
//!   of the graph written to `DIR`;
//! * `mpmb-serve::registry` — `registry::load_spec` on that container
//!   (`registry.load_spec_ms`);
//! * `mpmb-core` — one sequential [`Executor`] running `OsTrials`, the
//!   OLS preparing phase with its listing step and the optimized
//!   sampling phase, exactly as the server's OLS pipeline chains them, and
//!   `estimate_fast`.
//!
//! Every figure is the median of [`REPEATS`] runs. Work counts (edges,
//! `ols.listing_items`, trials) are deterministic and are checked to
//! repeat exactly across the repeats; a mismatch or a failing call exits
//! non-zero.

use bigraph::storage::ContainerReader;
use bigraph::UncertainBipartiteGraph;
use mpmb_core::{
    estimate_fast, Cancel, Executor, OlsConfig, OptimizedTrials, OsConfig, OsTrials, PrepareTrials,
    SublinearConfig, TrialEngine,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Runs of each timed call; the reported figure is their median.
const REPEATS: usize = 3;

struct Args {
    dataset: String,
    scale: f64,
    gen_seed: u64,
    dir: PathBuf,
    seed: u64,
    os_trials: u64,
    ols_trials: u64,
    prep: u64,
    fast_trials: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: String::new(),
        scale: 0.0,
        gen_seed: 0,
        dir: PathBuf::new(),
        seed: 1,
        os_trials: 500,
        ols_trials: 2000,
        prep: 100,
        fast_trials: 2000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--dataset" => args.dataset = value,
            "--scale" => args.scale = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--gen-seed" => args.gen_seed = num(&value)?,
            "--dir" => args.dir = PathBuf::from(value),
            "--seed" => args.seed = num(&value)?,
            "--os-trials" => args.os_trials = num(&value)?,
            "--ols-trials" => args.ols_trials = num(&value)?,
            "--prep" => args.prep = num(&value)?,
            "--fast-trials" => args.fast_trials = num(&value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !matches!(args.dataset.as_str(), "movielens" | "protein") {
        return Err(format!(
            "unsupported --dataset `{}` (movielens|protein)",
            args.dataset
        ));
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    if args.dir.as_os_str().is_empty() {
        return Err("--dir is required".into());
    }
    if args.os_trials == 0 || args.ols_trials == 0 || args.fast_trials == 0 {
        return Err("trial counts must be positive".into());
    }
    Ok(args)
}

fn generate(args: &Args) -> UncertainBipartiteGraph {
    match args.dataset.as_str() {
        "movielens" => datasets::movielens::generate(args.scale, args.gen_seed),
        _ => datasets::protein::generate(args.scale, args.gen_seed),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[(xs.len() - 1) / 2]
}

/// Runs `f` [`REPEATS`] times; returns the median seconds and the work
/// count of the last run, after checking every run succeeded and
/// reported the same count.
fn timed<F: FnMut() -> Result<u64, String>>(name: &str, mut f: F) -> Result<(f64, u64), String> {
    let mut secs = Vec::with_capacity(REPEATS);
    let mut count = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let c = black_box(f()?);
        secs.push(start.elapsed().as_secs_f64());
        match count {
            Some(prev) if prev != c => {
                return Err(format!(
                    "{name}: work count changed between repeats ({prev} vs {c})"
                ))
            }
            _ => count = Some(c),
        }
    }
    Ok((median(secs), count.unwrap_or(0)))
}

fn run(args: &Args) -> Result<Vec<(&'static str, f64)>, String> {
    let mut generated = None;
    let (generate_s, edges) = timed("generate", || {
        let g = generate(args);
        let edges = g.num_edges() as u64;
        generated = Some(g);
        Ok(edges)
    })?;
    let g = generated.ok_or("no graph generated")?;
    if edges == 0 {
        return Err(format!("dataset `{}` generated no edges", args.dataset));
    }

    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    let path = args.dir.join(format!("{}.ubgc", args.dataset));
    bigraph::write_container_path(&g, &path).map_err(|e| format!("write container: {e}"))?;
    let attach = |p: &Path| ContainerReader::open(p).map_err(|e| format!("attach: {e}"));
    let (attach_s, attach_edges) = timed("attach", || attach(&path).map(|c| c.meta().num_edges))?;
    let reader = attach(&path)?;
    let (materialize_s, mat_edges) = timed("materialize", || {
        reader
            .materialize()
            .map(|m| m.num_edges() as u64)
            .map_err(|e| format!("materialize: {e}"))
    })?;
    let spec = path.to_str().ok_or("container path is not UTF-8")?;
    let (load_spec_s, spec_edges) = timed("load_spec", || {
        mpmb_serve::registry::load_spec(spec)
            .map(|h| h.num_edges())
            .map_err(|e| format!("load_spec: {e}"))
    })?;
    for (name, n) in [
        ("attach", attach_edges),
        ("materialize", mat_edges),
        ("load_spec", spec_edges),
    ] {
        if n != edges {
            return Err(format!("{name}: {n} edges, generated {edges}"));
        }
    }
    let _ = std::fs::remove_file(&path);

    let exec = Executor::new(1);
    let never = Cancel::never();
    let os_cfg = OsConfig {
        trials: args.os_trials,
        seed: args.seed,
        ..Default::default()
    };
    let (os_s, os_done) = timed("os", || {
        Ok(exec
            .run(&OsTrials::new(&g, &os_cfg), args.os_trials, &never)
            .trials_done())
    })?;

    // The server's OLS pipeline: preparing phase on the executor, the
    // listing step that turns its union into candidates, then the
    // optimized sampling phase over those candidates.
    let ols_cfg = OlsConfig {
        prep_trials: args.prep,
        seed: args.seed,
        ..Default::default()
    };
    let prepare = PrepareTrials::new(&g, &ols_cfg);
    let (prepare_s, _) = timed("ols.prepare", || {
        Ok(exec.run(&prepare, args.prep, &never).acc.len() as u64)
    })?;
    let union = exec.run(&prepare, args.prep, &never).acc;
    let listing_items = union.len() as u64;
    let candidates = prepare.finalize(union);
    let sampler = OptimizedTrials::new(&g, &candidates, ols_cfg.sample_seed());
    let (ols_sample_s, ols_done) = timed("ols.sample", || {
        let mut p = mpmb_core::Partial::empty(sampler.new_acc(), args.ols_trials);
        exec.resume(&sampler, &mut p, &never);
        Ok(p.trials_done())
    })?;

    let fast_cfg = SublinearConfig {
        trials: args.fast_trials,
        seed: args.seed,
        delta: 0.05,
    };
    let (fast_s, fast_done) = timed("fast", || Ok(estimate_fast(&g, &fast_cfg, 1).trials))?;

    for (name, done, want) in [
        ("os", os_done, args.os_trials),
        ("ols.sample", ols_done, args.ols_trials),
        ("fast", fast_done, args.fast_trials),
    ] {
        if done != want {
            return Err(format!("{name}: ran {done} of {want} trials"));
        }
    }
    let us_per = |secs: f64, trials: u64| secs * 1e6 / trials as f64;
    Ok(vec![
        ("datasets.generate_s", generate_s),
        ("storage.attach_ms", attach_s * 1e3),
        ("storage.materialize_ms", materialize_s * 1e3),
        ("registry.load_spec_ms", load_spec_s * 1e3),
        ("os.sample_us_per_trial", us_per(os_s, args.os_trials)),
        ("ols.prepare_ms", prepare_s * 1e3),
        ("ols.listing_items", listing_items as f64),
        (
            "ols.sample_us_per_trial",
            us_per(ols_sample_s, args.ols_trials),
        ),
        ("fast.sample_us_per_trial", us_per(fast_s, args.fast_trials)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(metrics) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v:.9}"))
                .collect();
            println!("{{{}}}", body.join(", "));
        }
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            std::process::exit(1);
        }
    }
}
