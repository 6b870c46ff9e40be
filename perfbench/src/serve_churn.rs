//! `serve-churn`: a closed loop against one `darm serve` engine.
//!
//! Why: cache hits exercise request decode, cache lookup and response
//! render with no compile, while misses exercise parse and meld; a compile
//! speed-up shows here only in proportion to the miss share, and a cache
//! change that costs the compile path shows too.
//!
//! One client thread keeps `2 × nproc` requests in flight against an
//! engine with `nproc` workers and the default cache bounds. Each request is
//! encoded as a frame-body JSON, decoded with the daemon's own calls
//! (`Json::parse` + `Request::from_json`), submitted, and its response is
//! rendered with `Response::to_bytes`.

use crate::suite::{self, Outputs, Variant};
use crate::trace::{Phase, Tracer};
use crate::util::{self, quantile, Digest, Metrics, Rng, Rounds, Tally};
use crate::{Report, Run};
use darm_kernels::BenchCase;
use darm_serve::json::Json;
use darm_serve::{Engine, Request, Response, ServeConfig};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Modules of repeated content; with both specs they stay far inside the
/// default cache bounds.
const POOL: usize = 256;
/// Specs a request may name: the daemon default (`meld`, DARM) and, for a
/// minority of requests, branch fusion.
const SPECS: [Option<&str>; 2] = [None, Some("meld-bf")];
const SPEC_VARIANTS: [Variant; 2] = [Variant::Darm, Variant::Bf];

struct PoolModule {
    draw: Vec<usize>,
    /// Each function's printed IR, named by `suite::function_name`.
    functions: Vec<String>,
}

/// One request to send.
struct Gen {
    ir: String,
    spec: usize,
    /// `Some(pool * 2 + spec)` when every function is pool content, so
    /// the response must repeat the first one for that content.
    content: Option<usize>,
}

fn content_gen(pool: &[PoolModule], m: usize, spec: usize) -> Gen {
    Gen {
        ir: pool[m].functions.concat(),
        spec,
        content: Some(m * SPECS.len() + spec),
    }
}

/// A seeded request: a pool module, one spec in eight branch fusion, and
/// each function renamed to fresh content with probability one in four.
fn random_gen(pool: &[PoolModule], rng: &mut Rng, fresh: &mut u64) -> Gen {
    let m = rng.below(pool.len());
    let spec = usize::from(rng.chance(1, 8));
    let mut ir = String::new();
    let mut all_pool = true;
    for text in &pool[m].functions {
        if rng.chance(1, 4) {
            *fresh += 1;
            ir.push_str(&text.replacen("fn @", &format!("fn @fresh{fresh}_"), 1));
            all_pool = false;
        } else {
            ir.push_str(text);
        }
    }
    Gen {
        ir,
        spec,
        content: all_pool.then_some(m * SPECS.len() + spec),
    }
}

struct Pending {
    start: Instant,
    content: Option<usize>,
}

#[derive(Default)]
struct LoopResult {
    requests: u64,
    /// One round per [`ROUND_REQUESTS`] responses, each ended by letting
    /// the requests in flight drain so the calibration loop runs alone.
    rounds: Rounds,
    seconds: f64,
}

const ROUND_REQUESTS: usize = 128;

/// Requests in flight per engine worker. With one per worker, the client's
/// decode leaves workers idle between requests, and the loop's speed then
/// follows thread wake-ups rather than CPU speed: over ten runs its spread
/// was 0.16. Two per worker keep the engine's queue from running dry.
const IN_FLIGHT_PER_WORKER: usize = 2;

/// First response per repeated content: digest of everything but the
/// `cached` markers and the id, plus the compiled IR.
type FirstResponses = HashMap<usize, (u64, String)>;

fn response_digest(ir: &str, functions: &[darm_serve::proto::FunctionResult]) -> u64 {
    let mut d = Digest::new();
    d.update(ir.as_bytes());
    for f in functions {
        d.update(f.name.as_bytes());
        d.update(&[u8::from(f.optimized)]);
        d.update(f.diagnostic.as_deref().unwrap_or("").as_bytes());
    }
    d.finish()
}

/// Keeps `depth` requests from `source` in flight until it runs dry or
/// `budget` passes, then drains. Every response must be `ok`, and a
/// repeated content must answer what its first response did.
fn drive(
    engine: &Engine,
    mut source: impl FnMut() -> Option<Gen>,
    depth: usize,
    budget: Duration,
    tracer: &mut Tracer,
    tally: &mut Tally,
    first: &mut FirstResponses,
) -> LoopResult {
    let (tx, rx) = mpsc::channel::<(u64, Response)>();
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut r = LoopResult::default();
    let mut draining = false;
    let mut next_id = 0u64;
    let start = Instant::now();
    let mut round_start = start;
    loop {
        while !draining && pending.len() < depth && start.elapsed() < budget {
            let Some(gen) = source() else { break };
            next_id += 1;
            let id = next_id;
            let t0 = Instant::now();
            let open = tracer.begin_req("serve.encode", Some(id));
            let mut fields = vec![
                ("op", Json::str("compile")),
                ("id", Json::int(id)),
                ("ir", Json::str(gen.ir)),
            ];
            if let Some(spec) = SPECS[gen.spec] {
                fields.push(("spec", Json::str(spec)));
            }
            let body = Json::obj(fields).to_string();
            tracer.end(open);
            let open = tracer.begin_req("serve.decode", Some(id));
            let decoded = Json::parse(&body).and_then(|j| Request::from_json(&j));
            tracer.end(open);
            let request = match decoded {
                Ok(Request::Compile(req)) => req,
                Ok(other) => {
                    tally.fail(format!("request {id} decoded as {other:?}"));
                    continue;
                }
                Err(e) => {
                    tally.fail(format!("request {id} does not decode: {e}"));
                    continue;
                }
            };
            pending.insert(
                id,
                Pending {
                    start: t0,
                    content: gen.content,
                },
            );
            let tx = tx.clone();
            let open = tracer.begin_req("serve.submit", Some(id));
            engine.submit(
                request,
                Box::new(move |resp| {
                    // The receiver outlives every request it waits for.
                    let _ = tx.send((id, resp));
                }),
            );
            tracer.end(open);
        }
        if pending.is_empty() {
            break;
        }
        let (id, resp) = rx
            .recv()
            .expect("the engine answers every admitted request");
        let open = tracer.begin_req("serve.render", Some(id));
        std::hint::black_box(resp.to_bytes());
        tracer.end(open);
        let end = Instant::now();
        let p = pending.remove(&id).expect("responses match requests");
        r.requests += 1;
        r.rounds.op(1.0, (end - p.start).as_secs_f64() * 1e3);
        if r.rounds.ops_in_round() >= ROUND_REQUESTS {
            // Stop issuing; the round closes (and calibrates) once drained.
            draining = true;
        }
        if draining && pending.is_empty() {
            r.rounds.close(round_start.elapsed().as_secs_f64());
            round_start = Instant::now();
            draining = false;
        }
        match resp {
            Response::Ok { ir, functions, .. } => {
                let hit = functions.iter().all(|f| f.cached);
                tracer.request(id, p.start, end, hit);
                if let Some(f) = functions.iter().find(|f| !f.optimized) {
                    tally.fail(format!("request {id}: @{} degraded", f.name));
                    continue;
                }
                let Some(c) = p.content else {
                    tally.ok();
                    continue;
                };
                let digest = response_digest(&ir, &functions);
                match first.get(&c) {
                    None => {
                        first.insert(c, (digest, ir));
                        tally.ok();
                    }
                    Some((d, _)) if *d == digest => tally.ok(),
                    Some(_) => {
                        tally.fail(format!("request {id}: content {c} answered differently"))
                    }
                }
            }
            other => tally.fail(format!(
                "request {id}: {}",
                String::from_utf8_lossy(&other.to_bytes())
            )),
        }
    }
    r.seconds = start.elapsed().as_secs_f64();
    r
}

fn new_engine() -> Engine {
    Engine::new(ServeConfig {
        workers: util::nproc(),
        ..ServeConfig::default()
    })
}

struct Setup {
    cases: Vec<BenchCase>,
    pool: Vec<PoolModule>,
    engine: Engine,
    first: FirstResponses,
}

/// Draws the pool, starts the engine and sends every pool content once, so
/// the loop starts from a warm cache. Pool modules hold 1–8 seeded suite
/// kernels, the sizes taken in turn so that the seed moves only which
/// kernels a module holds, not how many.
fn setup(seed: u64, tally: &mut Tally) -> Setup {
    let cases = suite::suite_cases();
    let mut rng = Rng::new(seed);
    let pool: Vec<PoolModule> = (0..POOL)
        .map(|i| {
            let n = 1 + i % 8;
            let draw: Vec<usize> = (0..n).map(|_| rng.below(cases.len())).collect();
            let functions = suite::module_of(&cases, &draw)
                .functions()
                .iter()
                .map(|f| format!("{f}\n"))
                .collect();
            PoolModule { draw, functions }
        })
        .collect();
    let engine = new_engine();
    let mut first = FirstResponses::new();
    let mut warm =
        (0..POOL * SPECS.len()).map(|c| content_gen(&pool, c / SPECS.len(), c % SPECS.len()));
    drive(
        &engine,
        || warm.next(),
        util::nproc(),
        Duration::MAX,
        &mut Tracer::new(false),
        tally,
        &mut first,
    );
    Setup {
        cases,
        pool,
        engine,
        first,
    }
}

/// Layer metrics read from the engine's own counters
/// (`Engine::stats_json`) and from the request spans.
fn serve_metrics(engine: &Engine, tracer: &Tracer) -> Metrics {
    let stats = engine.stats_json();
    let get = |path: &[&str]| -> f64 {
        let mut j = &stats;
        for k in path {
            match j.get(k) {
                Some(v) => j = v,
                None => return 0.0,
            }
        }
        j.as_u64().unwrap_or(0) as f64
    };
    let mut m = Metrics::default();
    let requests = get(&["requests"]).max(1.0);
    m.set(
        "serve.fast_hit_ratio",
        get(&["cache", "fast_hits"]) / requests,
        "ratio",
    );
    let hits = get(&["cache", "hits"]);
    m.set(
        "serve.cache_hit_ratio",
        hits / (hits + get(&["cache", "misses"])).max(1.0),
        "ratio",
    );
    m.set("serve.evictions", get(&["cache", "evictions"]), "count");
    m.set(
        "serve.queue_high_water",
        get(&["queue", "high_water"]),
        "count",
    );
    m.set("serve.overloaded", get(&["overloaded"]), "count");
    let (mut hit_ms, mut miss_ms) = tracer.request_latencies_ms();
    m.set("serve.hit_p50_ms", quantile(&mut hit_ms, 0.5), "ms");
    m.set("serve.miss_p50_ms", quantile(&mut miss_ms, 0.5), "ms");
    m
}

/// The serve layers for workloads whose loop has no daemon: the module of
/// the workload's distinct kernels sent to a fresh engine twice — a miss,
/// then a hit.
pub fn probe_serve(
    cases: &[BenchCase],
    distinct: &[usize],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Metrics {
    tracer.set_phase(Phase::Probe);
    let engine = new_engine();
    let ir = suite::module_of(cases, distinct).to_string();
    let mut first = FirstResponses::new();
    for _ in 0..2 {
        let mut once = Some(Gen {
            ir: ir.clone(),
            spec: 0,
            content: Some(0),
        });
        drive(
            &engine,
            || once.take(),
            1,
            Duration::MAX,
            tracer,
            tally,
            &mut first,
        );
    }
    let m = serve_metrics(&engine, tracer);
    engine.shutdown();
    m
}

pub fn run(run: &Run) -> Report {
    let mut tally = Tally::default();
    let mut report = Report::default();
    let (setup_s, s) = crate::timed_setup(|| setup(run.seed, &mut tally));
    if !run.trace {
        report.setup_s(setup_s);
    }
    let mut first = s.first;
    let mut tracer = Tracer::new(false);
    let mut rng = Rng::new(run.seed ^ 0x5e7e);
    let mut fresh = 0u64;
    let depth = IN_FLIGHT_PER_WORKER * util::nproc();

    if !run.trace {
        let mut r = drive(
            &s.engine,
            || Some(random_gen(&s.pool, &mut rng, &mut fresh)),
            depth,
            run.seconds,
            &mut tracer,
            &mut tally,
            &mut first,
        );
        let est = r.rounds.estimate(0.99);
        report.loop_metrics(&est);
        report.alias("serve.req_per_s", est.throughput, "req/s");
        report.alias("serve.latency_p50_ms", est.p50_ms, "ms");
        report.alias("serve.latency_p99_ms", est.tail_ms, "ms");
        report.note(format!(
            "{} requests in {:.2} s, {depth} in flight; {} rounds of {ROUND_REQUESTS}, faster half: {} requests",
            r.requests, r.seconds, est.rounds, est.ops
        ));
    } else {
        let half = run.seconds / 2;
        let mut plain = drive(
            &s.engine,
            || Some(random_gen(&s.pool, &mut rng, &mut fresh)),
            depth,
            half,
            &mut tracer,
            &mut tally,
            &mut first,
        );
        tracer.set_on(true);
        tracer.set_phase(Phase::Loop);
        let mut traced = drive(
            &s.engine,
            || Some(random_gen(&s.pool, &mut rng, &mut fresh)),
            depth,
            half,
            &mut tracer,
            &mut tally,
            &mut first,
        );
        report.traced_loops(&plain.rounds.estimate(0.99), &traced.rounds.estimate(0.99));
        report.layer.extend(serve_metrics(&s.engine, &tracer));
        let mut distinct: Vec<usize> = s.pool.iter().flat_map(|m| m.draw.iter().copied()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let (probe, counts) =
            suite::probe_compile_layers(&s.cases, &distinct, &mut tracer, &mut tally);
        report.layer.extend(probe);
        report.layer.extend(counts.metrics());
    }
    s.engine.shutdown();

    let mut outputs = Outputs::default();
    let mut contents: Vec<_> = first.iter().collect();
    contents.sort_by_key(|(c, _)| **c);
    for (&c, (_, ir)) in contents {
        if let Err(e) = outputs.add_text(ir, SPEC_VARIANTS[c % SPECS.len()]) {
            tally.fail(e);
        }
    }
    tracer.set_phase(Phase::Probe);
    let q = suite::check_outputs(&s.cases, &outputs, run.trace, &mut tracer, &mut tally);
    report.finish(run, q, &tracer, tally);
    report
}
