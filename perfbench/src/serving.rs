//! `serve-cold-warm`: an in-process reactor daemon on loopback, driven
//! by closed-loop keep-alive connections (callers that each wait for
//! their reply).
//!
//! A round clears the process-wide trace cache, then runs a **cold
//! phase** — a fixed, seeded list of unique `(matrix, config)`
//! `/v2/simulate` keys, each a trace-cache miss — and a **warm phase**
//! that re-requests those keys in fresh seeded orders, with a
//! `/v2/recommend` interleaved every [`RECOMMEND_EVERY`] requests. Rounds
//! repeat until the time budget is spent; counts are fixed so cache size
//! and memory never depend on speed.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sa_bench::experiments::{source_workload, Kernel};
use sa_bench::mtx::MatrixSource;
use sa_bench::Harness;
use serde::Deserialize;
use serve::api::{RecommendApiRequest, SimulateRequest, SimulateResponse};
use serve::http::{read_response, write_request, Response};
use serve::{ServeConfig, ServerHandle};
use sparse::suite::{spec_by_id, Scale};
use sparseadapt::service::{summarize_trace, TraceSummary};
use sparseadapt::trace_cache::{simulate_trace, TraceCache};
use sparseadapt::{PredictiveEnsemble, ReconfigPolicy};
use transmuter::config::{MemKind, TransmuterConfig};
use transmuter::counters::Telemetry;
use transmuter::workload::Workload;

use crate::layers::{self, Tracer};
use crate::stats::{self, Outcome};
use crate::sweep::{self, Inputs, Item, SETUP_REPS};
use crate::RunArgs;

/// The SpMSpV inputs the daemon serves (every structure class).
const MATRICES: [&str; 8] = ["R09", "R10", "R11", "R12", "R13", "R14", "R15", "R16"];
/// Unique keys per cold phase.
const COLD_KEYS: usize = 1000;
/// Passes over the cold keys per warm phase.
const WARM_PASSES: usize = 16;
/// One `/v2/recommend` per this many warm requests.
const RECOMMEND_EVERY: usize = 16;
/// Cold responses re-derived in-process per run.
const CHECK_SAMPLE: usize = 12;
/// Fewest rounds a run makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

/// The `/v2` success envelope.
#[derive(Deserialize)]
struct Envelope {
    data: SimulateResponse,
}

/// One request of a phase.
#[derive(Clone, Copy)]
enum Req {
    /// `/v2/simulate` for key `i`.
    Sim(usize),
    /// `/v2/recommend`.
    Recommend,
}

/// One completed (or failed) exchange.
struct Sample {
    req: Req,
    start_ns: u64,
    latency_s: f64,
    /// HTTP status, or 0 for a transport error.
    status: u16,
    body: Vec<u8>,
}

/// splitmix64: the seeded stream for key choice and request order.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

struct Key {
    matrix: &'static str,
    config: TransmuterConfig,
    body: String,
}

/// `COLD_KEYS` distinct `(matrix, config)` keys in seeded order. The
/// baseline configuration is kept out: set-up warms with it.
fn make_keys(seed: u64) -> Vec<Key> {
    let mut pairs: Vec<(&'static str, TransmuterConfig)> = MATRICES
        .iter()
        .flat_map(|&m| {
            TransmuterConfig::runtime_space(MemKind::Cache)
                .into_iter()
                .filter(|c| *c != TransmuterConfig::baseline())
                .map(move |c| (m, c))
        })
        .collect();
    Rng(seed).shuffle(&mut pairs);
    pairs
        .into_iter()
        .take(COLD_KEYS)
        .map(|(matrix, config)| Key {
            matrix,
            config,
            body: simulate_body(matrix, Some(config)),
        })
        .collect()
}

fn simulate_body(matrix: &str, config: Option<TransmuterConfig>) -> String {
    let req = SimulateRequest {
        kernel: "spmspv".to_string(),
        matrix: matrix.to_string(),
        l1_kind: None,
        config,
        config_name: None,
    };
    serde_json::to_string(&req).expect("simulate request serializes")
}

fn recommend_body() -> String {
    let req = RecommendApiRequest {
        kernel: "spmspv".to_string(),
        l1_kind: None,
        mode: None,
        telemetry: Telemetry::default(),
        current: TransmuterConfig::baseline(),
        policy: Some(ReconfigPolicy::hybrid40()),
        last_epoch_time_s: Some(0.01),
    };
    serde_json::to_string(&req).expect("recommend request serializes")
}

/// A keep-alive client connection.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream })
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        write_request(&mut self.stream, method, target, body)?;
        read_response(&mut BufReader::new(&self.stream))
    }
}

/// The load generator's fixed context: where to send, the key bodies,
/// and the clock sample start times are measured against.
struct Client<'a> {
    addr: SocketAddr,
    keys: &'a [Key],
    recommend: String,
    origin: Instant,
}

impl Client<'_> {
    /// Runs `reqs` over `conns` closed-loop connections: each sends its
    /// next request only after the previous reply. Samples come back in
    /// request order, with the phase's wall time.
    fn run(&self, conns: usize, reqs: &[Req]) -> (Vec<Sample>, f64) {
        let Client {
            addr,
            keys,
            ref recommend,
            origin,
        } = *self;
        let next = AtomicUsize::new(0);
        let t = Instant::now();
        let mut samples: Vec<Sample> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..conns)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        let mut conn = Conn::open(addr).ok();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&req) = reqs.get(i) else { break };
                            let (target, body) = match req {
                                Req::Sim(k) => ("/v2/simulate", keys[k].body.as_str()),
                                Req::Recommend => ("/v2/recommend", recommend.as_str()),
                            };
                            let start = Instant::now();
                            let reply = match conn.as_mut() {
                                Some(c) => c.exchange("POST", target, Some(body)),
                                None => Err(std::io::Error::other("not connected")),
                            };
                            let latency_s = start.elapsed().as_secs_f64();
                            let (status, body) = match reply {
                                Ok(r) => (r.status, r.body),
                                Err(e) => {
                                    // Reconnect so one transport error costs
                                    // one request, not the rest of the phase.
                                    conn = Conn::open(addr).ok();
                                    (0, e.to_string().into_bytes())
                                }
                            };
                            mine.push((
                                i,
                                Sample {
                                    req,
                                    start_ns: start.duration_since(origin).as_nanos() as u64,
                                    latency_s,
                                    status,
                                    body,
                                },
                            ));
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<(usize, Sample)> = workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect();
            all.sort_by_key(|(i, _)| *i);
            all.into_iter().map(|(_, s)| s).collect()
        });
        let wall = t.elapsed().as_secs_f64();
        samples.shrink_to_fit();
        (samples, wall)
    }
}

fn contains(body: &[u8], needle: &str) -> bool {
    body.windows(needle.len()).any(|w| w == needle.as_bytes())
}

/// Accounts one phase: every sample is one attempted operation; a
/// non-200, a transport error or a wrong `cached` flag fails it.
fn account(out: &mut Outcome, samples: &[Sample], keys: &[Key], want_cached: bool) {
    let flag = if want_cached {
        "\"cached\":true"
    } else {
        "\"cached\":false"
    };
    for s in samples {
        let err = match (s.status, s.req) {
            (0, _) => Some(format!(
                "transport error: {}",
                String::from_utf8_lossy(&s.body)
            )),
            (200, Req::Recommend) => None,
            (200, Req::Sim(_)) if contains(&s.body, flag) => None,
            (200, Req::Sim(k)) => Some(format!(
                "{} {:?}: response lacks {flag}",
                keys[k].matrix, keys[k].config
            )),
            (status, _) => Some(format!(
                "status {status}: {}",
                String::from_utf8_lossy(&s.body)
            )),
        };
        out.op(err);
    }
}

/// The daemon's workload for a served matrix, built in-process the way
/// its handlers build it (harness defaults).
fn served_workload(matrix: &str) -> Workload {
    let spec = spec_by_id(matrix).expect("served matrices are suite ids");
    source_workload(
        &Harness::default(),
        &MatrixSource::Suite(spec),
        Kernel::SpMSpV,
        MemKind::Cache,
    )
}

/// One set-up: model, keys, daemon start and hot-set warm-up (every
/// served workload memoised by a baseline simulate, the model by a
/// recommend). The daemon's model memo is process-wide, so only the
/// first repetition would load the model through it; each repetition
/// loads the model file itself so every one measures the same work.
fn setup(args: &RunArgs) -> Result<(ServerHandle, Vec<Key>), String> {
    let path = sa_bench::models::model_dir(Scale::Quick).join("sparseadapt-cache-energy-eff.json");
    PredictiveEnsemble::load(&path).map_err(|e| format!("cannot load model: {e}"))?;
    let keys = make_keys(args.seed);
    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: args.threads,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    let mut conn = Conn::open(handle.addr).map_err(|e| format!("cannot connect: {e}"))?;
    for m in MATRICES {
        let r = conn
            .exchange("POST", "/v2/simulate", Some(&simulate_body(m, None)))
            .map_err(|e| format!("warm-up simulate failed: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up simulate answered {}", r.status));
        }
    }
    let r = conn
        .exchange("POST", "/v2/recommend", Some(&recommend_body()))
        .map_err(|e| format!("warm-up recommend failed: {e}"))?;
    if r.status != 200 {
        return Err(format!("warm-up recommend answered {}", r.status));
    }
    Ok((handle, keys))
}

/// Per-run sample collections.
#[derive(Default)]
struct Collected {
    /// Per round: cold p50 and warm p50. The reported figures are
    /// medians over rounds, so a burst of host contention that spans a
    /// minority of rounds does not move them.
    rounds: Vec<[f64; 2]>,
    warm_requests: usize,
    recommend_requests: usize,
    summaries: HashMap<usize, TraceSummary>,
    /// Trace-cache resident MB after each cold phase.
    stored_mb: Vec<f64>,
    warm_hit_ratio: Vec<f64>,
}

/// One cold phase then one warm phase.
fn round(
    cl: &Client,
    threads: usize,
    rng: &mut Rng,
    check_idx: &[usize],
    out: &mut Outcome,
    c: &mut Collected,
    mut tr: Option<&mut Tracer>,
) {
    TraceCache::global().clear();
    let cold_reqs: Vec<Req> = (0..COLD_KEYS).map(Req::Sim).collect();
    let (cold, _) = match tr.as_deref_mut() {
        Some(tr) => tr.span("serve.phase.cold", |_| cl.run(threads, &cold_reqs)),
        None => cl.run(threads, &cold_reqs),
    };
    account(out, &cold, cl.keys, false);
    c.stored_mb
        .push(TraceCache::global().stats().resident_bytes as f64 / 1e6);
    for (i, s) in cold.iter().enumerate() {
        if check_idx.contains(&i) && !c.summaries.contains_key(&i) {
            let parsed = std::str::from_utf8(&s.body)
                .ok()
                .and_then(|b| serde_json::from_str::<Envelope>(b).ok());
            match parsed {
                Some(env) => {
                    c.summaries.insert(i, env.data.summary);
                }
                None => out.fail(format!("cold response {i} does not parse")),
            }
        }
    }
    let mut warm_reqs = Vec::with_capacity(COLD_KEYS * WARM_PASSES * 17 / 16);
    for _ in 0..WARM_PASSES {
        let mut order: Vec<usize> = (0..COLD_KEYS).collect();
        rng.shuffle(&mut order);
        for k in order {
            if warm_reqs.len() % RECOMMEND_EVERY == RECOMMEND_EVERY - 1 {
                warm_reqs.push(Req::Recommend);
            }
            warm_reqs.push(Req::Sim(k));
        }
    }
    let before = TraceCache::global().stats();
    let (warm, _) = match tr.as_deref_mut() {
        Some(tr) => tr.span("serve.phase.warm", |_| cl.run(threads, &warm_reqs)),
        None => cl.run(threads, &warm_reqs),
    };
    let after = TraceCache::global().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    c.warm_hit_ratio
        .push(hits as f64 / (hits + misses).max(1) as f64);
    account(out, &warm, cl.keys, true);
    c.warm_requests += warm.len();
    let cold_ms: Vec<f64> = cold.iter().map(|s| s.latency_s * 1e3).collect();
    let mut warm_ms = Vec::with_capacity(warm.len());
    for s in &warm {
        match s.req {
            Req::Sim(_) => warm_ms.push(s.latency_s * 1e3),
            Req::Recommend => c.recommend_requests += 1,
        }
    }
    c.rounds.push([
        stats::percentile(&cold_ms, 50.0),
        stats::percentile(&warm_ms, 50.0),
    ]);
    if let Some(tr) = tr {
        let named = cold
            .iter()
            .map(|s| ("serve.request.cold", s))
            .chain(warm.iter().map(|s| {
                let name = match s.req {
                    Req::Sim(_) => "serve.request.warm",
                    Req::Recommend => "serve.request.recommend",
                };
                (name, s)
            }));
        for (name, s) in named {
            tr.record(name, s.start_ns, s.start_ns + (s.latency_s * 1e9) as u64);
        }
    }
}

/// The `serve-cold-warm` workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        // Each repetition starts from an empty trace cache and a fresh
        // daemon; the previous one is shut down (joined) first.
        drop(daemon.take());
        TraceCache::global().clear();
        let t = Instant::now();
        daemon = Some(setup(args)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (handle, keys) = daemon.expect("SETUP_REPS > 0");
    let addr = handle.addr;
    let mut rng = Rng(args.seed ^ 0x5E7E);
    let mut check_idx: Vec<usize> = (0..COLD_KEYS).collect();
    rng.shuffle(&mut check_idx);
    check_idx.truncate(CHECK_SAMPLE);

    let mut tr = args.trace.then(Tracer::new);
    let cl = Client {
        addr,
        keys: &keys,
        recommend: recommend_body(),
        origin: tr.as_ref().map_or_else(Instant::now, Tracer::origin),
    };
    let mut plain = Collected::default();
    let mut traced = Collected::default();
    let deadline = Instant::now() + args.seconds;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        // Traced runs alternate untraced and traced rounds; the
        // difference in warm p50 is the tracing overhead.
        match tr.as_mut() {
            Some(t) if rounds % 2 == 1 => round(
                &cl,
                args.threads,
                &mut rng,
                &check_idx,
                &mut out,
                &mut traced,
                Some(t),
            ),
            _ => round(
                &cl,
                args.threads,
                &mut rng,
                &check_idx,
                &mut out,
                &mut plain,
                None,
            ),
        }
        rounds += 1;
    }

    // Payload check: a seeded sample of cold responses against an
    // in-process simulation of the same key.
    let spec = Kernel::SpMSpV.spec(Scale::Quick);
    for &i in &check_idx {
        let Some(got) = plain.summaries.get(&i) else {
            continue;
        };
        let k = &keys[i];
        let want = summarize_trace(&simulate_trace(spec, &served_workload(k.matrix), k.config));
        out.op((*got != want).then(|| {
            format!(
                "{} {:?}: served summary {got:?} != in-process {want:?}",
                k.matrix, k.config
            )
        }));
    }

    let per_round =
        |c: &Collected, i: usize| stats::median(&c.rounds.iter().map(|r| r[i]).collect::<Vec<_>>());
    match tr.as_mut() {
        None => {
            out.metric("setup_s", stats::median(&setup_s), "s");
            out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
            out.metric("cold_ms", per_round(&plain, 0), "ms");
            out.metric("warm_ms", per_round(&plain, 1), "ms");
            out.metric("stored_mb", stats::median(&plain.stored_mb), "MB");
        }
        Some(tr) => {
            out.metric(
                "sparseadapt.trace_cache.hit_ratio",
                stats::median(&plain.warm_hit_ratio),
                "ratio",
            );
            out.metric(
                "sparseadapt.trace_cache.resident_mb",
                stats::median(&plain.stored_mb),
                "MB",
            );
            layers::overhead(&mut out, &[per_round(&plain, 1)], &[per_round(&traced, 1)]);
            let inputs = Inputs {
                seed: args.seed,
                harness: sweep::harness(args.threads),
                ensemble: sweep::ensemble()?,
                items: MATRICES
                    .iter()
                    .map(|&matrix| Item {
                        kernel: Kernel::SpMSpV,
                        matrix,
                        workload: served_workload(matrix),
                    })
                    .collect(),
            };
            sweep::probe_layers(tr, &mut out, &inputs, || {
                MATRICES.iter().map(|m| served_workload(m)).collect()
            });
            tr.write(&args.workload, args.seed);
            out.meta("layer_map", layers::MAP);
        }
    }
    drop(handle);
    out.meta("connections", args.threads);
    out.meta("loop", "closed");
    out.meta("setup_samples", setup_s.len());
    out.meta("rounds", rounds);
    out.meta("cold_keys", COLD_KEYS);
    out.meta("percentiles", "per round, median over rounds");
    out.meta("cold_samples_per_round", COLD_KEYS);
    out.meta(
        "warm_samples_per_round",
        (plain.warm_requests - plain.recommend_requests) / plain.rounds.len().max(1),
    );
    out.meta("recommend_requests", plain.recommend_requests);
    out.meta("warm_percentiles_over", "simulate cache hits");
    out.meta("checked_payloads", plain.summaries.len());
    Ok(out)
}
