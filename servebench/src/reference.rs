//! The in-process reference every served answer is checked against:
//! the same default world the server builds, queried directly.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use biorank_mediator::ExploratoryQuery;
use biorank_rank::Strategy;
use biorank_service::{
    spec_for_strategy, AdaptiveConfig, Estimator, Method, QueryEngine, QueryRequest, RankedAnswer,
    RankerSpec, Trials, WorldSpec,
};
use biorank_sources::{World, WorldParams};

/// The request every workload sends: `method: rel` under the server's
/// default trial policy, with the estimator left for the server to
/// plan.
pub fn request(protein: &str, top: Option<usize>, seed: u64) -> QueryRequest {
    let spec = RankerSpec {
        // `Client` always sends a trial policy; this is the one `biorank
        // serve` fills in for requests that omit it.
        trials: Trials::Adaptive(AdaptiveConfig::default()),
        seed,
        ..RankerSpec::new(Method::Reliability)
    };
    QueryRequest {
        top,
        ..QueryRequest::protein_functions(protein, spec)
    }
}

/// Hash of an answer list's keys and tie-group ranks: what must match
/// between a served answer and the in-process one.
pub fn fingerprint(answers: &[RankedAnswer]) -> u64 {
    let mut h = DefaultHasher::new();
    for a in answers {
        (&a.key, a.rank_lo, a.rank_hi).hash(&mut h);
    }
    h.finish()
}

/// What a served answer is checked against.
pub struct Reference {
    /// An engine over the server's default world.
    pub engine: QueryEngine,
    /// The world's proteins, in profile order.
    pub proteins: Vec<String>,
    /// Full answer-set size per protein, from `Mediator::execute`.
    pub answer_counts: Vec<usize>,
}

/// One served answer awaiting its in-process cross-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CheckKey {
    /// Index into [`Reference::proteins`].
    pub protein: usize,
    /// The request's base seed.
    pub seed: u64,
    /// The response's `top`.
    pub top: Option<usize>,
    /// The strategy the server's planner chose (from the plan echo).
    pub strategy: Option<Strategy>,
}

impl Reference {
    /// Builds the default world the way `biorank serve` does.
    pub fn build() -> Result<Reference, String> {
        let engine = WorldSpec::default().build();
        let proteins: Vec<String> = World::generate(WorldParams::default())
            .profiles
            .into_iter()
            .map(|p| p.name)
            .collect();
        let answer_counts = proteins
            .iter()
            .map(|p| {
                engine
                    .mediator()
                    .execute(&ExploratoryQuery::protein_functions(p))
                    .map(|r| r.query.answers().len())
                    .map_err(|e| format!("integrate {p}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Reference {
            engine,
            proteins,
            answer_counts,
        })
    }

    /// The fingerprint an in-process execution of `key` produces.
    /// The planned strategy is pinned explicitly: a planned request
    /// and an explicit request for the same strategy run the same code
    /// and share one cache entry, so this checks the answers without
    /// depending on the server's cost model matching this engine's.
    pub fn expected(&self, key: CheckKey) -> Result<u64, String> {
        let mut req = request(&self.proteins[key.protein], key.top, key.seed);
        req.spec = match key.strategy {
            Some(strategy) => spec_for_strategy(strategy, &req.spec),
            None => RankerSpec {
                estimator: Some(Estimator::Auto),
                ..req.spec
            },
        };
        self.engine
            .execute(&req)
            .map(|resp| fingerprint(&resp.answers))
            .map_err(|e| format!("in-process {}: {e}", self.proteins[key.protein]))
    }

    /// In-process fingerprints for every distinct key, computed on
    /// `threads` threads.
    pub fn expected_all(
        &self,
        keys: impl IntoIterator<Item = CheckKey>,
        threads: usize,
    ) -> Result<HashMap<CheckKey, u64>, String> {
        let distinct: Vec<CheckKey> = keys
            .into_iter()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            let workers: Vec<_> = distinct
                .chunks(chunk)
                .map(|keys| {
                    s.spawn(move || {
                        keys.iter()
                            .map(|&k| self.expected(k).map(|fp| (k, fp)))
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            let mut out = HashMap::new();
            for w in workers {
                out.extend(w.join().expect("reference worker panicked")?);
            }
            Ok(out)
        })
    }
}
