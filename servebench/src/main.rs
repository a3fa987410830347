//! Client-side serving benchmark for BioRank.
//!
//! Starts the real `biorank serve` binary, drives it closed loop with
//! one persistent [`Client`] connection per core, checks every answer
//! against an in-process execution, and prints each metric by name
//! and unit, ending with a one-line JSON result.
//!
//! ```text
//! servebench --server-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics a client sees. `--trace
//! 1` is the per-layer run: half the time through `Client` and half
//! through a raw-socket client that splits each round trip, followed by
//! in-process probes of the mediator, planner, estimator, engine cache
//! and codec on the workload's inputs. Run it through `run.sh`, which
//! builds the server and this benchmark first.

mod load;
mod probes;
mod reference;
mod report;
mod server;
mod stats;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use biorank_service::{CacheStats, Client, QueryResponse, RankerSpec, DEFAULT_WORLD};

use load::{Load, Phase, Shape, Transport};
use reference::{CheckKey, Reference};
use report::{Metric, RunInfo};
use server::ServerProc;
use stats::{mean, quantile, ratio};

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One traffic mix.
struct Workload {
    name: &'static str,
    shape: Shape,
    /// `--cache` for the server (`None`: its default capacity).
    cache: Option<usize>,
}

/// Why each exists is recorded in `BENCHMARK.json`.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot_full",
        shape: Shape {
            top: None,
            fresh_seeds: false,
        },
        cache: None,
    },
    Workload {
        name: "seed_sweep",
        shape: Shape {
            top: Some(10),
            fresh_seeds: true,
        },
        cache: None,
    },
    Workload {
        name: "uncached_first_query",
        shape: Shape {
            top: Some(10),
            fresh_seeds: false,
        },
        cache: Some(0),
    },
];

struct Args {
    server_bin: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload_name = take("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
    };
    let args = Args {
        server_bin: PathBuf::from(take("--server-bin")?),
        workload,
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)? as f64,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
        },
    };
    if args.seconds == 0.0 {
        return Err("--seconds must be at least 1".into());
    }
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}

/// Everything checked about the served answers. A failure is a wrong
/// answer or a workload that did not exercise what it claims to.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    /// Served answers awaiting the in-process cross-check.
    pending: Vec<(CheckKey, u64)>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// The checks that need no recomputation; the answer itself is
    /// queued for [`Checks::cross_check`].
    fn served(&mut self, s: &load::Served, reference: &Reference) {
        let protein = &reference.proteins[s.check.protein];
        let expected = reference.answer_counts[s.check.protein];
        if s.total != expected {
            self.fail(format!(
                "{protein}: total_answers {} != {expected}",
                s.total
            ));
        }
        if s.returned > s.check.top.unwrap_or(expected) {
            self.fail(format!("{protein}: {} answers exceed top", s.returned));
        }
        if s.matches_warmup == Some(false) {
            self.fail(format!(
                "{protein}: cache hit differs from its warm-up answer"
            ));
        }
        self.pending.push((s.check, s.fingerprint));
    }

    /// Compares every queued answer with an in-process execution.
    fn cross_check(&mut self, reference: &Reference, threads: usize) -> Result<(), String> {
        let pending = std::mem::take(&mut self.pending);
        let expected = reference.expected_all(pending.iter().map(|(k, _)| *k), threads)?;
        for (key, fingerprint) in pending {
            if expected[&key] != fingerprint {
                self.fail(format!(
                    "{} (seed {}): answer keys or ranks differ from in-process execution",
                    reference.proteins[key.protein], key.seed
                ));
            }
        }
        Ok(())
    }
}

/// One scrape of the server's own counters through the admin ops.
struct Scrape {
    results: CacheStats,
    graphs: CacheStats,
    counters: BTreeMap<String, u64>,
}

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("admin connect: {e}"))?;
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let world = stats
            .worlds
            .iter()
            .find(|w| w.name == DEFAULT_WORLD)
            .ok_or("stats: no default world")?;
        let metrics = client.metrics(false).map_err(|e| format!("metrics: {e}"))?;
        let mut counters = metrics.service.counters;
        for w in metrics
            .worlds
            .into_iter()
            .filter(|w| w.name == DEFAULT_WORLD)
        {
            counters.extend(w.metrics.counters);
        }
        Ok(Scrape {
            results: world.engine.results,
            graphs: world.engine.graphs,
            counters,
        })
    }

    /// Counter growth since `before`.
    fn since(&self, before: &Scrape) -> Delta {
        let hm =
            |now: CacheStats, then: CacheStats| (now.hits - then.hits, now.misses - then.misses);
        Delta {
            results: hm(self.results, before.results),
            graphs: hm(self.graphs, before.graphs),
            counter: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - before.counters.get(k).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// Server counter growth over a measured window.
struct Delta {
    /// Result-cache (hits, misses).
    results: (u64, u64),
    /// Graph-cache (hits, misses).
    graphs: (u64, u64),
    counter: BTreeMap<String, u64>,
}

impl Delta {
    fn count(&self, name: &str) -> u64 {
        self.counter.get(name).copied().unwrap_or(0)
    }

    fn sheds(&self) -> u64 {
        ["shed.connections", "shed.requests", "shed.rate_limited"]
            .iter()
            .map(|n| self.count(n))
            .sum()
    }

    fn result_hit_ratio(&self) -> f64 {
        ratio(self.results.0, self.results.0 + self.results.1)
    }

    fn graph_hit_ratio(&self) -> f64 {
        ratio(self.graphs.0, self.graphs.0 + self.graphs.1)
    }

    /// Workload-validity guards: a run that did not exercise its layer
    /// must not report numbers as if it had.
    fn guard(&self, workload: &str, checks: &mut Checks) {
        let sheds = self.sheds();
        if sheds > 0 {
            checks.fail(format!("{workload}: server shed {sheds} requests"));
        }
        let (results, graphs) = (self.result_hit_ratio(), self.graph_hit_ratio());
        let ok = match workload {
            "hot_full" => results >= 0.99,
            "seed_sweep" => results <= 0.01 && graphs >= 0.99,
            _ => self.results.0 == 0 && self.graphs.0 == 0,
        };
        if !ok {
            checks.fail(format!(
                "{workload}: cache use does not match the workload \
                 (result hit ratio {results:.4}, graph hit ratio {graphs:.4})"
            ));
        }
    }
}

/// Answers the warm-up pass: every protein once, in profile order, in
/// the workload's request shape.
fn warm_up(
    addr: SocketAddr,
    reference: &Reference,
    shape: Shape,
) -> Result<Vec<QueryResponse>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    reference
        .proteins
        .iter()
        .map(|p| {
            client
                .query(&reference::request(p, shape.top, RankerSpec::DEFAULT_SEED))
                .map_err(|e| format!("warm-up {p}: {e}"))
        })
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let info = RunInfo::collect();
    let clients = info.nproc;
    let reference = Reference::build()?;
    let mut checks = Checks::default();

    // Set-up: spawn to answered warm-up pass, several times; the last
    // server stays up for the measurement.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut running: Option<ServerProc> = None;
    let mut warm = Vec::new();
    for _ in 0..SETUPS {
        if let Some(previous) = running.take() {
            previous.stop();
        }
        let t = Instant::now();
        let server = ServerProc::spawn(&args.server_bin, workload.cache)?;
        warm = warm_up(server.addr, &reference, workload.shape)?;
        setup_s.push(t.elapsed().as_secs_f64());
        for (p, resp) in warm.iter().enumerate() {
            let served = load::Served::new(
                p,
                RankerSpec::DEFAULT_SEED,
                workload.shape,
                resp,
                None,
                None,
            );
            checks.served(&served, &reference);
        }
        running = Some(server);
    }
    let server = running.expect("at least one set-up");

    let phase = |seconds: f64, phase: u64, transport| Phase {
        addr: server.addr,
        clients,
        seconds,
        shape: workload.shape,
        seed: args.seed,
        phase,
        proteins: &reference.proteins,
        // Only hot_full promises that every answer is the cached
        // warm-up answer.
        warmup: (workload.name == "hot_full").then_some(warm.as_slice()),
        transport,
    };
    let before = Scrape::take(server.addr)?;
    let (cpu0, own0) = (server.cpu_seconds()?, server::own_cpu_seconds()?);
    let steal0 = server::host_steal_ticks()?;
    let (untraced_s, traced_s) = if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    };
    let untraced = load::run(&phase(untraced_s, 1, Transport::Public))?;
    let (cpu1, own1) = (server.cpu_seconds()?, server::own_cpu_seconds()?);
    let steal1 = server::host_steal_ticks()?;
    let traced = if args.trace {
        Some(load::run(&phase(traced_s, 2, Transport::Traced))?)
    } else {
        None
    };
    let after = Scrape::take(server.addr)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop();

    let delta = after.since(&before);
    delta.guard(workload.name, &mut checks);
    let loads: Vec<&Load> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let attempted: usize = loads.iter().map(|l| l.records.len()).sum();
    let mut failed = 0;
    for l in &loads {
        for r in &l.records {
            match &r.outcome {
                Ok(s) => checks.served(s, &reference),
                Err(e) => {
                    failed += 1;
                    if failed <= 5 {
                        eprintln!("servebench: request failed: {e}");
                    }
                }
            }
        }
    }
    checks.cross_check(&reference, clients)?;

    let ok = untraced.ok_latencies_us();
    if ok.is_empty() {
        return Err("no request succeeded".into());
    }
    let server_cpu_us = (cpu1 - cpu0) * 1e6 / ok.len() as f64;
    let client_cpu_us = (own1 - own0) * 1e6 / ok.len() as f64;
    // Busy shares of the generator's client threads and of the cores
    // the server runs on; with one client per core the comparison is
    // the same as comparing CPU per query.
    let generator_busy = (own1 - own0) / (untraced.elapsed_s * clients as f64);
    let server_busy = (cpu1 - cpu0) / (untraced.elapsed_s * info.nproc as f64);
    let saturated = generator_busy > server_busy;
    let host_steal = ratio(steal1.0 - steal0.0, steal1.1 - steal0.1);

    let mut metrics = Vec::new();
    if let Some(traced) = &traced {
        metrics.extend(layer_metrics(
            traced,
            &untraced,
            &delta,
            client_cpu_us,
            saturated,
        )?);
        metrics.extend(probes::run(&reference, workload.shape, args.seed, &warm)?);
    } else {
        let n = ok.len();
        metrics.extend([
            Metric::new("setup_s", quantile(&setup_s, 0.5), "s", SETUPS),
            Metric::new("latency_p50_ms", quantile(&ok, 0.5) / 1e3, "ms", n),
            Metric::new("latency_p99_ms", quantile(&ok, 0.99) / 1e3, "ms", n),
            Metric::new("throughput_qps", n as f64 / untraced.elapsed_s, "1/s", n),
            Metric::new("server_cpu_us_per_query", server_cpu_us, "us", n),
            Metric::new("server_peak_rss_mb", peak_rss_mb, "MiB", 1),
            Metric::new(
                "ok_share",
                ratio(n as u64, untraced.records.len() as u64),
                "ratio",
                untraced.records.len(),
            ),
        ]);
    }

    let correct = checks.failures.is_empty();
    println!("servebench run report");
    println!(
        "  commit {} (dirty: {}, trajectory point: {})",
        info.commit,
        info.dirty.map_or("unknown".to_string(), |d| d.to_string()),
        info.is_trajectory_point()
    );
    println!(
        "  nproc {}, {}, workload {} seed {}, {} s, trace {}, {} closed-loop clients",
        info.nproc, info.rustc, workload.name, args.seed, args.seconds, args.trace as u8, clients
    );
    println!(
        "  requests {attempted} attempted, {failed} failed, error share {:.6}",
        ratio(failed as u64, attempted as u64)
    );
    println!(
        "  generator cpu {client_cpu_us:.1} us/query ({:.1}% busy) vs server \
         {server_cpu_us:.1} us/query ({:.1}% of {} cores): the {} is the busier side",
        generator_busy * 100.0,
        server_busy * 100.0,
        info.nproc,
        if saturated { "generator" } else { "server" }
    );
    println!(
        "  host: {:.2}% of CPU time stolen by other tenants during the window",
        host_steal * 100.0
    );
    let mut strategies = BTreeMap::new();
    for s in loads.iter().flat_map(|l| l.ok()) {
        *strategies
            .entry(s.check.strategy.map_or("unplanned", |s| s.wire_name()))
            .or_insert(0usize) += 1;
    }
    println!("  planned strategies: {strategies:?}");
    for m in &metrics {
        println!(
            "  {:<34} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  checks: {} ({} failures)",
        if correct { "all passed" } else { "FAILED" },
        checks.failures.len()
    );
    for f in checks.failures.iter().take(10) {
        println!("    {f}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// The per-layer metrics of a traced run, from its two load phases and
/// the server's counters.
fn layer_metrics(
    traced: &Load,
    untraced: &Load,
    delta: &Delta,
    client_cpu_us: f64,
    saturated: bool,
) -> Result<Vec<Metric>, String> {
    let served: Vec<&load::Served> = traced.ok().collect();
    let splits: Vec<(&load::Served, load::Split)> = served
        .iter()
        .filter_map(|s| s.split.map(|split| (*s, split)))
        .collect();
    let lat = traced.ok_latencies_us();
    if splits.is_empty() || lat.is_empty() {
        return Err("the traced phase completed no request".into());
    }
    let n = splits.len();
    let col = |f: &dyn Fn(&load::Served, &load::Split) -> f64| -> Vec<f64> {
        splits.iter().map(|(s, split)| f(s, split)).collect()
    };
    // The traced client's round trip includes its own decode, like
    // `Client::query`; the records keep it per request.
    let rtt_minus_engine: Vec<f64> = traced
        .records
        .iter()
        .filter_map(|r| {
            r.outcome
                .as_ref()
                .ok()
                .map(|s| r.latency_us - s.micros as f64)
        })
        .collect();
    let mut out = Vec::new();
    let mut p50_p99 = |name: &str, v: Vec<f64>| {
        out.push(Metric::new(
            &format!("{name}.p50"),
            quantile(&v, 0.5),
            "us",
            v.len(),
        ));
        out.push(Metric::new(
            &format!("{name}.p99"),
            quantile(&v, 0.99),
            "us",
            v.len(),
        ));
    };
    p50_p99("server.write_us", col(&|_, t| t.write_us));
    p50_p99("server.first_byte_us", col(&|_, t| t.first_byte_us));
    p50_p99("server.line_tail_us", col(&|_, t| t.line_tail_us));
    p50_p99("server.rtt_minus_engine_us", rtt_minus_engine);
    p50_p99("wire.decode_response_us", col(&|_, t| t.decode_us));
    let queries = delta.count("queries");
    let word = served
        .iter()
        .filter(|s| s.check.strategy == Some(biorank_rank::Strategy::WordMc))
        .count();
    let untraced_ok = untraced.ok_latencies_us();
    // Server counters are reported per query (lanes per fused batch),
    // so runs of different throughput stay comparable.
    out.extend([
        Metric::new("server.shed", delta.sheds() as f64, "count", 1),
        Metric::new(
            "wire.response_bytes",
            mean(&col(&|_, t| t.bytes as f64)),
            "count",
            n,
        ),
        Metric::new(
            "engine.micros",
            quantile(&col(&|s, _| s.micros as f64), 0.5),
            "us",
            n,
        ),
        Metric::new(
            "cache.result_hit_ratio",
            delta.result_hit_ratio(),
            "ratio",
            (delta.results.0 + delta.results.1) as usize,
        ),
        Metric::new(
            "cache.graph_hit_ratio",
            delta.graph_hit_ratio(),
            "ratio",
            (delta.graphs.0 + delta.graphs.1) as usize,
        ),
        Metric::new(
            "engine.coalesced",
            ratio(delta.count("queries.coalesced"), queries),
            "count",
            queries as usize,
        ),
        Metric::new(
            "fusion.batches",
            ratio(delta.count("fusion.batches"), queries),
            "count",
            queries as usize,
        ),
        Metric::new(
            "fusion.lanes_used",
            ratio(
                delta.count("fusion.lanes_used"),
                delta.count("fusion.batches"),
            ),
            "count",
            delta.count("fusion.batches") as usize,
        ),
        Metric::new(
            "rank.strategy_word_share",
            ratio(word as u64, served.len() as u64),
            "ratio",
            served.len(),
        ),
        Metric::new(
            "client.cpu_us_per_query",
            client_cpu_us,
            "us",
            untraced_ok.len(),
        ),
        Metric::new(
            "client.generator_saturated",
            f64::from(u8::from(saturated)),
            "flag",
            1,
        ),
        Metric::new(
            "client.trace_overhead_us",
            quantile(&lat, 0.5) - quantile(&untraced_ok, 0.5),
            "us",
            lat.len(),
        ),
    ]);
    Ok(out)
}
