//! In-process layer probes for the traced run: each layer's public
//! entry point timed from outside, on the workload's own inputs.

use std::hint::black_box;
use std::time::Instant;

use biorank_mediator::{ExploratoryQuery, IntegrationResult};
use biorank_rank::{GraphFeatures, PlanFeatures, Ranker, TrialsPolicy};
use biorank_schema::biorank_schema_with_ontology;
use biorank_service::wire::{self, Request, RequestBody, RequestDefaults, Response, ResponseBody};
use biorank_service::{
    query_schema_reducible, run_adaptive, spec_for_strategy, AdaptiveConfig, QueryResponse,
    RankerSpec, Trials,
};
use biorank_sources::{World, WorldParams};

use crate::load::Shape;
use crate::reference::{self, Reference};
use crate::report::Metric;
use crate::stats::{mean, quantile, ratio, Rng};

/// Times each probe this many times per protein.
const REPS: usize = 5;
/// The codec probes are cheap: enough repetitions that their p99 has
/// ten samples beyond it.
const WIRE_REPS: usize = 40;

fn micros<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Runs every in-process probe. `warmup` holds the served warm-up
/// answers, one per protein, in the workload's shape.
pub fn run(
    reference: &Reference,
    shape: Shape,
    seed: u64,
    warmup: &[QueryResponse],
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut seeds = Rng::new(seed, 900_000);
    let requests: Vec<(usize, u64)> = (0..REPS)
        .flat_map(|_| 0..reference.proteins.len())
        .map(|p| {
            let s = if shape.fresh_seeds {
                seeds.next_u64()
            } else {
                RankerSpec::DEFAULT_SEED
            };
            (p, s)
        })
        .collect();
    let n = requests.len();

    // sources: world generation, the fixed cost of every server start.
    let mut generate_ms: Vec<f64> = (0..3)
        .map(|_| micros(|| World::generate(WorldParams::default())).1 / 1e3)
        .collect();
    generate_ms.sort_by(f64::total_cmp);
    out.push(Metric::new(
        "sources.world_generate_ms",
        generate_ms[1],
        "ms",
        3,
    ));

    // mediator: integration of each query from the sources.
    let queries: Vec<ExploratoryQuery> = reference
        .proteins
        .iter()
        .map(|p| ExploratoryQuery::protein_functions(p))
        .collect();
    let mut integrations: Vec<Option<IntegrationResult>> = vec![None; queries.len()];
    let mut integrate_us = Vec::with_capacity(n);
    let mut counts = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for &(p, _) in &requests {
        let (result, us) = micros(|| reference.engine.mediator().execute(&queries[p]));
        let result = result.map_err(|e| format!("integrate {}: {e}", reference.proteins[p]))?;
        integrate_us.push(us);
        let s = result.stats;
        for (c, v) in counts
            .iter_mut()
            .zip([s.records_fetched, s.links_followed, s.nodes, s.edges])
        {
            c.push(v as f64);
        }
        integrations[p] = Some(result);
    }
    let integrations: Vec<IntegrationResult> = integrations
        .into_iter()
        .map(|r| r.expect("every protein integrated"))
        .collect();
    out.push(Metric::new(
        "mediator.integrate_us",
        quantile(&integrate_us, 0.5),
        "us",
        n,
    ));
    for (name, c) in [
        "mediator.records_fetched",
        "mediator.links_followed",
        "mediator.nodes",
        "mediator.edges",
    ]
    .into_iter()
    .zip(&counts)
    {
        out.push(Metric::new(name, mean(c), "count", n));
    }

    // rank: planning (feature extraction + cost model), then the
    // planned estimation.
    let hints = biorank_schema_with_ontology().hints;
    let schema = reference.engine.mediator().schema();
    let model = reference.engine.planner_model();
    let cfg = AdaptiveConfig::default();
    let mut plan_us = Vec::with_capacity(n);
    let mut estimate_us = Vec::with_capacity(n);
    let mut trials_used = Vec::new();
    let mut certified = 0u64;
    for &(p, s) in &requests {
        let q = &integrations[p].query;
        // The features the engine plans from on a feature-cache miss:
        // graph structure plus the Theorem 3.2 schema verdict.
        let (plan, us) = micros(|| {
            let reducible = query_schema_reducible(schema, &hints, &queries[p]);
            let features = PlanFeatures::for_request(
                GraphFeatures::extract(q).with_schema_reducible(reducible),
                None,
                TrialsPolicy::Adaptive {
                    max_trials: cfg.max_trials,
                },
            );
            biorank_rank::plan(&features, &model)
        });
        plan_us.push(us);
        let spec = spec_for_strategy(
            plan.strategy,
            &reference::request(&reference.proteins[p], shape.top, s).spec,
        );
        if spec.method.is_stochastic() {
            let seed = spec.effective_seed(&queries[p]);
            let (outcome, us) =
                micros(|| run_adaptive(spec.method, spec.resolved_estimator(), cfg, seed, None, q));
            let outcome = outcome.map_err(|e| format!("estimate: {e}"))?;
            estimate_us.push(us);
            trials_used.push(f64::from(outcome.certificate.trials_used));
            certified += u64::from(outcome.certificate.certified);
        } else {
            let (scores, us) = micros(|| spec.build(&queries[p]).score(q));
            scores.map_err(|e| format!("score: {e}"))?;
            estimate_us.push(us);
        }
    }
    out.push(Metric::new(
        "rank.plan_us",
        quantile(&plan_us, 0.5),
        "us",
        n,
    ));
    out.push(Metric::new(
        "rank.estimate_us",
        quantile(&estimate_us, 0.5),
        "us",
        n,
    ));
    out.push(Metric::new(
        "rank.trials_used",
        mean(&trials_used),
        "count",
        trials_used.len(),
    ));
    out.push(Metric::new(
        "rank.certified_share",
        ratio(certified, trials_used.len() as u64),
        "ratio",
        trials_used.len(),
    ));

    // engine: a result-cache hit in process, full answers.
    let full: Vec<_> = reference
        .proteins
        .iter()
        .map(|p| reference::request(p, None, RankerSpec::DEFAULT_SEED))
        .collect();
    for req in &full {
        reference.engine.execute(req).map_err(|e| e.to_string())?;
    }
    let mut hit_us = Vec::with_capacity(n);
    for &(p, _) in &requests {
        let (resp, us) = micros(|| reference.engine.execute(&full[p]));
        resp.map_err(|e| e.to_string())?;
        hit_us.push(us);
    }
    out.push(Metric::new(
        "engine.hit_us",
        quantile(&hit_us, 0.5),
        "us",
        n,
    ));

    // wire: the server's side of the codec on this workload's lines.
    let defaults = RequestDefaults {
        trials: Trials::Adaptive(cfg),
        deadline_ms: None,
    };
    let wire_inputs: Vec<(usize, u64)> = (0..WIRE_REPS / REPS)
        .flat_map(|_| requests.iter().copied())
        .collect();
    let n = wire_inputs.len();
    let mut encode_us = Vec::with_capacity(n);
    let mut decode_req_us = Vec::with_capacity(n);
    for &(p, s) in &wire_inputs {
        let response = Response {
            id: 1,
            outcome: Ok(ResponseBody::Query(warmup[p].clone())),
        };
        encode_us.push(micros(|| wire::encode_response(&response)).1);
        let line = wire::encode_request(&Request {
            id: 1,
            body: RequestBody::Query(reference::request(&reference.proteins[p], shape.top, s)),
        });
        let (decoded, us) = micros(|| wire::decode_request_with(&line, &defaults));
        decoded.map_err(|e| e.to_string())?;
        decode_req_us.push(us);
    }
    out.push(Metric::new(
        "wire.encode_response_us.p50",
        quantile(&encode_us, 0.5),
        "us",
        n,
    ));
    out.push(Metric::new(
        "wire.encode_response_us.p99",
        quantile(&encode_us, 0.99),
        "us",
        n,
    ));
    out.push(Metric::new(
        "wire.decode_request_us",
        quantile(&decode_req_us, 0.5),
        "us",
        n,
    ));
    Ok(out)
}
