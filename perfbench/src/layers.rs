//! Spans and layer probes for the traced (`--trace 1`) runs.
//!
//! Every span wraps a call the benchmark itself makes into a layer's
//! public API; nothing inside the program is instrumented. Spans live
//! in memory and are written to `.perfbench/spans/` when the run ends.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use serve::api::{SimulateRequest, SimulateResponse};
use serve::http::{response_bytes, Parsed, RequestParser, Response};
use sparseadapt::epoch_cache::{decode_epoch, encode_epoch};
use sparseadapt::service::summarize_trace;
use sparseadapt::trace_bin::{decode_trace, encode_trace};
use sparseadapt::trace_cache::{simulate_trace, TraceCache, TraceKey};
use sparseadapt::PredictiveEnsemble;
use transmuter::config::{MachineSpec, TransmuterConfig};
use transmuter::machine::{CachedEpoch, EpochRecord, Machine};
use transmuter::workload::Workload;
use transmuter::MachineBatch;

use crate::stats::{self, Outcome};

/// Which end-to-end metric each per-layer metric should move, on which
/// workload (`layer>metric@workload`; `=` marks a predicted no-change).
/// Every traced run reports every per-layer metric, probed on that
/// workload's own inputs; the map says where a change should show.
pub const MAP: &str = "kernels.*>setup_s@all; \
transmuter.machine.*,transmuter.batch.ns_per_lane_op,sparseadapt.exec.utilisation,sparseadapt.stitch.sweep_s>cold_ms@all,=warm_ms@record-replay,serve-cold-warm; \
transmuter.snapshot_ns,transmuter.state_digest_ns,transmuter.state_bytes,sparseadapt.epoch_cache.*>cold_ms,stored_mb,peak_rss_mb@record-replay,=cold_ms@sweep-cold-warm; \
sparseadapt.schemes_s,sparseadapt.runtime.*,sparseadapt.model.predict_ns>cold_ms,warm_ms@sweep-cold-warm,record-replay,=serve-cold-warm; \
sparseadapt.trace_bin.*>cold_ms,warm_ms,stored_mb@record-replay; \
sparseadapt.trace_cache.*>warm_ms,stored_mb@all; \
serve.http.*>warm_ms@serve-cold-warm,=cold_ms";

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder for the benchmark's own thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Records an already-finished span measured against
    /// [`Tracer::origin`] (client threads time their own requests).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns,
        });
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Position to pass to [`Tracer::total_s_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of every span named `name` recorded since
    /// `mark`, seconds.
    pub fn total_s_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Summed self time (duration minus direct children) per span name.
    fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_s = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += self_s;
                    e.2 += 1;
                }
                None => out.push((s.name, self_s, 1)),
            }
        }
        out
    }

    /// Writes every span as a JSON line under `.perfbench/spans/` and a
    /// self-time summary to standard error.
    pub fn write(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new(".perfbench").join("spans");
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|mut f| f.write_all(text.as_bytes()));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans -> {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for (name, self_s, n) in self.self_times() {
            eprintln!("perfbench: self {self_s:>10.4} s  x{n:<6} {name}");
        }
    }
}

/// Tracing overhead: traced against untraced passes of the same run.
pub fn overhead(out: &mut Outcome, untraced: &[f64], traced: &[f64]) {
    let base = stats::median(untraced);
    out.metric(
        "trace_overhead_pct",
        (stats::median(traced) / base - 1.0) * 100.0,
        "%",
    );
    out.meta("overhead_samples", untraced.len().min(traced.len()));
}

/// Op-stream emission: median build time of the workloads over
/// `reps` rebuilds, and the ops they emit.
pub fn kernels(out: &mut Outcome, reps: usize, mut build: impl FnMut() -> Vec<Workload>) {
    let mut times = Vec::with_capacity(reps);
    let mut ops = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let wls = black_box(build());
        times.push(t.elapsed().as_secs_f64());
        ops = wls.iter().map(op_count).sum::<u64>();
    }
    out.metric("kernels.build_s", stats::median(&times), "s");
    out.metric("kernels.ops_emitted", ops as f64, "count");
}

/// Ops in a workload's streams (every op kind, not only FP ops).
pub fn op_count(w: &Workload) -> u64 {
    w.phases
        .iter()
        .flat_map(|p| p.streams.iter().map(|s| s.len() as u64))
        .sum()
}

/// What the simulator probe hands to later probes.
pub struct SimProbe {
    /// Σ single-threaded per-config `Machine::run` wall time, seconds.
    pub serial_s: f64,
    /// One trace per workload (first config), for codec and model probes.
    pub traces: Vec<Vec<EpochRecord>>,
}

/// Simulator layers on `items` under `configs`, single-threaded:
/// `Machine::run` per config (ns per op, epochs), `MachineBatch::run`
/// (ns per lane-op), the epoch-boundary snapshot and digest, and the
/// trace and epoch codecs.
pub fn simulator(
    tr: &mut Tracer,
    out: &mut Outcome,
    items: &[(MachineSpec, &Workload)],
    configs: &[TransmuterConfig],
) -> SimProbe {
    const CODEC_REPS: usize = 20;
    let mut serial_s = 0.0;
    let (mut ops, mut runs, mut epochs) = (0u64, 0u64, 0u64);
    let mut traces = Vec::new();
    let (mut batch_s, mut lane_ops) = (0.0, 0u64);
    let (mut snap_ns, mut digest_ns, mut state_bytes) = (0.0, 0.0, 0.0);
    let (mut tenc, mut tdec, mut tbytes) = (0.0, 0.0, 0.0);
    let (mut eenc, mut edec, mut ebytes) = (0.0, 0.0, 0.0);
    for &(spec, wl) in items {
        let wl_ops = op_count(wl);
        let mut last = None;
        for &cfg in configs {
            let mut m = Machine::new(spec, cfg);
            let t = Instant::now();
            let r = tr.span("transmuter.machine.run", |_| m.run(wl));
            serial_s += t.elapsed().as_secs_f64();
            ops += wl_ops;
            runs += 1;
            epochs += r.epochs.len() as u64;
            if last.is_none() {
                last = Some((m, r.epochs));
            }
        }
        let lanes = &configs[..configs.len().min(8)];
        let t = Instant::now();
        black_box(tr.span("transmuter.batch.run", |_| {
            MachineBatch::new(spec, lanes).run(wl)
        }));
        batch_s += t.elapsed().as_secs_f64();
        lane_ops += wl_ops * lanes.len() as u64;

        let (machine, trace) = last.expect("at least one config");
        let t = Instant::now();
        let mut state = None;
        for _ in 0..CODEC_REPS {
            state = Some(black_box(machine.snapshot()));
        }
        snap_ns += t.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        let state = state.expect("CODEC_REPS > 0");
        let t = Instant::now();
        for _ in 0..CODEC_REPS {
            black_box(black_box(&state).digest());
        }
        digest_ns += t.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        state_bytes += state.to_bytes().len() as f64;

        let t = Instant::now();
        let mut bytes = Vec::new();
        for _ in 0..CODEC_REPS {
            bytes = black_box(encode_trace(&trace));
        }
        tenc += t.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        let t = Instant::now();
        for _ in 0..CODEC_REPS {
            black_box(decode_trace(&bytes).expect("own encoding decodes"));
        }
        tdec += t.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        tbytes += bytes.len() as f64;

        let epoch = CachedEpoch {
            record: trace.last().expect("runs have epochs").clone(),
            exit: state,
        };
        let t = Instant::now();
        for _ in 0..CODEC_REPS {
            bytes = black_box(encode_epoch(&epoch));
        }
        eenc += t.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        let t = Instant::now();
        for _ in 0..CODEC_REPS {
            black_box(decode_epoch(&bytes).expect("own encoding decodes"));
        }
        edec += t.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        ebytes += bytes.len() as f64;
        traces.push(trace);
    }
    let n = items.len() as f64;
    out.metric(
        "transmuter.machine.ns_per_op",
        serial_s * 1e9 / ops as f64,
        "ns",
    );
    out.metric(
        "transmuter.machine.epochs",
        epochs as f64 / runs as f64,
        "count",
    );
    out.metric(
        "transmuter.batch.ns_per_lane_op",
        batch_s * 1e9 / lane_ops as f64,
        "ns",
    );
    out.metric("transmuter.snapshot_ns", snap_ns / n, "ns");
    out.metric("transmuter.state_digest_ns", digest_ns / n, "ns");
    out.metric("transmuter.state_bytes", state_bytes / n, "bytes");
    out.metric("sparseadapt.trace_bin.encode_ns", tenc / n, "ns");
    out.metric("sparseadapt.trace_bin.decode_ns", tdec / n, "ns");
    out.metric("sparseadapt.trace_bin.bytes_per_trace", tbytes / n, "bytes");
    out.metric("sparseadapt.epoch_cache.encode_ns", eenc / n, "ns");
    out.metric("sparseadapt.epoch_cache.decode_ns", edec / n, "ns");
    out.metric(
        "sparseadapt.epoch_cache.bytes_per_epoch",
        ebytes / n,
        "bytes",
    );
    out.meta("probe_machine_runs", runs);
    SimProbe { serial_s, traces }
}

/// Model inference: ns per `PredictiveEnsemble::predict` over every
/// epoch's telemetry in `traces`.
pub fn model(out: &mut Outcome, ensemble: &PredictiveEnsemble, traces: &[Vec<EpochRecord>]) {
    const REPS: usize = 20;
    let records: Vec<&EpochRecord> = traces.iter().flatten().collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for r in &records {
            black_box(ensemble.predict(black_box(&r.telemetry), &r.config));
        }
    }
    let n = (REPS * records.len()).max(1) as f64;
    out.metric(
        "sparseadapt.model.predict_ns",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
}

/// HTTP codec of the serve layer: ns to parse a `/v2/simulate` request
/// for `matrix` under `config`, and to render the response carrying
/// the summary of `trace`.
pub fn http(
    out: &mut Outcome,
    kernel: &str,
    matrix: &str,
    config: TransmuterConfig,
    trace: &[EpochRecord],
) {
    const REPS: u32 = 2000;
    let body = serde_json::to_string(&SimulateRequest {
        kernel: kernel.to_string(),
        matrix: matrix.to_string(),
        l1_kind: None,
        config: Some(config),
        config_name: None,
    })
    .expect("simulate request serializes");
    let wire = format!(
        "POST /v2/simulate HTTP/1.1\r\nhost: sparseadapt-serve\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
        body.len()
    );
    let t = Instant::now();
    for _ in 0..REPS {
        let mut p = RequestParser::new();
        p.feed(wire.as_bytes());
        let parsed = black_box(p.next_request());
        assert!(matches!(parsed, Parsed::Request(_)), "probe request parses");
    }
    let parse_ns = t.elapsed().as_nanos() as f64 / f64::from(REPS);
    let reply = serde_json::to_string(&SimulateResponse {
        kernel: kernel.to_string(),
        matrix: matrix.to_string(),
        config,
        summary: summarize_trace(trace),
        cached: true,
        sim_ms: 0.05,
    })
    .expect("simulate response serializes");
    let resp = Response::json(200, format!("{{\"data\":{reply}}}"));
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(response_bytes(black_box(&resp), true));
    }
    let render_ns = t.elapsed().as_nanos() as f64 / f64::from(REPS);
    out.metric("serve.http.parse_ns", parse_ns, "ns");
    out.metric("serve.http.render_ns", render_ns, "ns");
}

/// Trace-cache hit path: ns per `TraceCache::get_or_simulate` of a key
/// already resident (the first call simulates and inserts it).
pub fn lookup(out: &mut Outcome, spec: MachineSpec, wl: &Workload, config: TransmuterConfig) {
    const REPS: u32 = 2000;
    let key = TraceKey {
        spec: spec.fingerprint(),
        workload: wl.fingerprint(),
        config: config.fingerprint(),
    };
    let cache = TraceCache::global();
    cache.get_or_simulate(key, || simulate_trace(spec, wl, config));
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(cache.get_or_simulate(key, || simulate_trace(spec, wl, config)));
    }
    out.metric(
        "sparseadapt.trace_cache.lookup_ns",
        t.elapsed().as_nanos() as f64 / f64::from(REPS),
        "ns",
    );
}
