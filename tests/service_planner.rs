//! The cost-based query planner end to end: `estimator: "auto"`
//! resolves to a concrete strategy before any cache key is formed, the
//! chosen plan is echoed on the response (and only observed — it is
//! never a cache-key dimension), plans are a pure function of the
//! request and never drift with traffic, a planned request integrates
//! its query once, and a planned execution is byte-identical to a
//! client naming the chosen strategy outright.

use std::sync::Arc;

use biorank::mediator::Mediator;
use biorank::prelude::*;
use biorank::service::{
    spec_for_strategy, AdaptiveConfig, Client, Estimator, Method, QueryEngine, QueryRequest,
    RankerSpec, ServeOptions, Server, ServerHandle, Trials, DEFAULT_CACHE_CAPACITY,
};

fn fresh_engine() -> QueryEngine {
    let world = World::generate(WorldParams::default());
    QueryEngine::new(Mediator::new(
        biorank_schema_with_ontology().schema,
        world.registry(),
    ))
}

/// An engine over the default world that knows the schema's compose
/// hints, with `capacity` entries per cache layer (0: every request
/// integrates and plans afresh).
fn hinted_engine(capacity: usize) -> QueryEngine {
    let world = World::generate(WorldParams::default());
    let schema = biorank_schema_with_ontology();
    QueryEngine::with_cache_capacity(Mediator::new(schema.schema, world.registry()), capacity)
        .with_hints(schema.hints)
}

fn start_server() -> ServerHandle {
    let world = World::generate(WorldParams::default());
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let engine = Arc::new(QueryEngine::new(mediator));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServeOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    std::thread::spawn(move || server.run().expect("server run"));
    handle
}

/// An adaptive Monte Carlo request that asks the planner to choose.
fn auto_spec() -> RankerSpec {
    RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Adaptive(AdaptiveConfig::default()),
        seed: 11,
        parallel: false,
        estimator: Some(Estimator::Auto),
    }
}

const STRATEGIES: [&str; 4] = ["exact", "reduced", "word", "traversal"];

#[test]
fn auto_resolves_to_a_strategy_and_echoes_the_plan() {
    let engine = fresh_engine();
    let resp = engine
        .execute(&QueryRequest::protein_functions("GALT", auto_spec()))
        .expect("auto query");
    let plan = resp.plan.expect("auto responses carry a plan echo");
    assert!(plan.predicted_ns > 0);
    assert!(plan.features.graph.nodes > 0);
    assert!(plan.features.graph.edges > 0);
    assert!(plan.features.graph.reduced_edges <= plan.features.graph.edges);

    // Exactly one planner decision was counted, under the chosen
    // strategy's name.
    let snap = engine.metrics_snapshot();
    let chosen: u64 = STRATEGIES
        .iter()
        .map(|s| snap.counter(&format!("planner.chosen.{s}")))
        .sum();
    assert_eq!(chosen, 1);
    assert_eq!(
        snap.counter(&format!("planner.chosen.{}", plan.strategy.wire_name())),
        1
    );
}

#[test]
fn plans_do_not_drift_with_traffic() {
    // Two rounds of 64 computed, planned requests with fresh seeds
    // over several proteins, on an engine that caches nothing: every
    // request integrates, plans and estimates from scratch.
    let busy = hinted_engine(0);
    let proteins = ["GALT", "CFTR", "LPL", "ABCC8"];
    for i in 0..2 * 64 + 2 {
        let spec = RankerSpec {
            seed: 1_000 + i as u64,
            ..auto_spec()
        };
        let resp = busy
            .execute(&QueryRequest::protein_functions(proteins[i % 4], spec))
            .expect("traffic query");
        assert!(!resp.cached_scores);
    }

    // The plan echo — strategy, prediction and features — is the one
    // a fresh engine gives the same request.
    let req = QueryRequest::protein_functions("GALT", auto_spec());
    let after_traffic = busy.execute(&req).expect("busy engine").plan;
    let fresh = hinted_engine(0).execute(&req).expect("fresh engine").plan;
    assert!(after_traffic.is_some());
    assert_eq!(after_traffic, fresh);
}

#[test]
fn a_planned_request_integrates_its_query_once() {
    let req = QueryRequest::protein_functions("GALT", auto_spec());

    // No caches: the planner's integration is the only one.
    let uncached = hinted_engine(0);
    uncached.execute(&req).expect("uncached auto");
    assert_eq!(uncached.stats().graphs.misses, 1);
    assert_eq!(uncached.stats().graphs.hits, 0);

    // Caches on: the first auto query misses the graph cache once and
    // says so, with no second lookup that could pass for a hit.
    let cached = hinted_engine(DEFAULT_CACHE_CAPACITY);
    let first = cached.execute(&req).expect("cold auto");
    assert_eq!(cached.stats().graphs.misses, 1);
    assert_eq!(cached.stats().graphs.hits, 0);
    assert!(!first.cached_graph);
}

#[test]
fn auto_and_explicit_requests_share_one_cache_entry() {
    // Auto first: its entry must serve a later explicit request for
    // the chosen strategy.
    let engine = fresh_engine();
    let auto_req = QueryRequest::protein_functions("GALT", auto_spec());
    let first = engine.execute(&auto_req).expect("cold auto");
    assert!(!first.cached_scores);
    let plan = first.plan.expect("plan echo");
    let explicit_req =
        QueryRequest::protein_functions("GALT", spec_for_strategy(plan.strategy, &auto_spec()));
    let second = engine.execute(&explicit_req).expect("explicit repeat");
    assert!(
        second.cached_scores,
        "auto's cache entry must serve the explicit request"
    );
    assert_eq!(second.answers, first.answers);
    assert_eq!(second.certificate, first.certificate);
    assert!(
        second.plan.is_none(),
        "explicit requests route around the planner, echo included"
    );

    // Explicit first: auto resolves onto the same key and hits. The
    // plan echo rides the hit — proof it is never a cache dimension
    // (mirrors the `trace: true` invariance in service_metrics).
    let engine = fresh_engine();
    let first = engine.execute(&explicit_req).expect("cold explicit");
    assert!(!first.cached_scores);
    let second = engine.execute(&auto_req).expect("auto repeat");
    assert!(
        second.cached_scores,
        "the explicit entry must serve the planned request"
    );
    assert_eq!(second.answers, first.answers);
    assert_eq!(second.certificate, first.certificate);
    assert!(second.plan.is_some(), "a planned hit still explains itself");
}

#[test]
fn planned_execution_is_byte_identical_to_the_explicit_strategy() {
    // Cold runs on two fresh engines over the same world: auto's
    // answers and certificate must be indistinguishable from a client
    // naming the chosen strategy outright (same trials, seed, and
    // parallelism — only the plan echo differs).
    let auto_req = QueryRequest::protein_functions("CFTR", auto_spec());
    let auto = fresh_engine().execute(&auto_req).expect("cold auto");
    let strategy = auto.plan.as_ref().expect("plan echo").strategy;
    let explicit_req =
        QueryRequest::protein_functions("CFTR", spec_for_strategy(strategy, &auto_spec()));
    let explicit = fresh_engine()
        .execute(&explicit_req)
        .expect("cold explicit");
    assert_eq!(auto.answers, explicit.answers);
    assert_eq!(auto.certificate, explicit.certificate);
    assert_eq!(auto.total_answers, explicit.total_answers);
    assert!(explicit.plan.is_none());
}

#[test]
fn live_server_defaults_to_auto_and_explicit_opt_out_matches_bytes() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The estimator field left unset: the serve default (auto) plans.
    let spec = RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Adaptive(AdaptiveConfig::default()),
        seed: 5,
        parallel: false,
        estimator: None,
    };
    let auto = client
        .query(&QueryRequest::protein_functions("CFTR", spec.clone()))
        .expect("auto query");
    let plan = auto.plan.clone().expect("the serve default must plan");

    // Explicit opt-out for the chosen strategy: identical bytes over
    // the wire, served from the shared cache entry, no plan echo.
    let explicit = client
        .query(&QueryRequest::protein_functions(
            "CFTR",
            spec_for_strategy(plan.strategy, &spec),
        ))
        .expect("explicit query");
    assert!(explicit.cached_scores);
    assert_eq!(explicit.answers, auto.answers);
    assert_eq!(explicit.certificate, auto.certificate);
    assert!(
        explicit.plan.is_none(),
        "an explicit estimator routes around the planner"
    );

    // One planned request: the chosen counters and the world.list
    // rollup agree.
    let report = client.metrics(false).expect("metrics");
    let world = report
        .worlds
        .iter()
        .find(|w| w.name == "default")
        .expect("default world metrics");
    let chosen: u64 = STRATEGIES
        .iter()
        .map(|s| world.metrics.counter(&format!("planner.chosen.{s}")))
        .sum();
    assert_eq!(chosen, 1);
    let worlds = client.world_list().expect("world.list");
    let info = worlds
        .iter()
        .find(|w| w.name == "default")
        .expect("default world row");
    assert_eq!(info.planner_chosen.iter().sum::<u64>(), chosen);

    handle.shutdown();
}
