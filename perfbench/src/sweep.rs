//! `sweep-cold-warm`: the paper-harness comparison path, first with
//! every cache empty, then answered from the in-memory trace cache the
//! cold pass filled; plus the input set, comparison helpers and layer
//! probes the other workloads share.

use std::time::Instant;

use sa_bench::experiments::{compare_workload, suite_workload, Kernel};
use sa_bench::Harness;
use sparse::suite::{spec_by_id, Scale};
use sparseadapt::eval::{reference_configs, SchemeComparison};
use sparseadapt::runtime::{run_live, SparseAdaptController};
use sparseadapt::stitch::{sample_configs, SweepData};
use sparseadapt::trace_cache::TraceCache;
use sparseadapt::{schemes, PredictiveEnsemble};
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;
use transmuter::workload::Workload;

use crate::layers::{self, Tracer};
use crate::stats::{self, Outcome};
use crate::RunArgs;

/// Configurations sampled per comparison (the quick-scale harness value).
pub const SAMPLED: usize = 24;
/// Set-up repetitions of the serve daemon per run, and rebuilds in the
/// op-stream probe; `setup_s` is the median of a run's samples.
pub const SETUP_REPS: usize = 9;
/// Fewest cycles a run makes, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;
/// Warm passes per cold pass.
const WARM_PASSES: usize = 4;
const MODE: OptMode = OptMode::EnergyEfficient;
const L1: MemKind = MemKind::Cache;

/// Two SpMSpM inputs (block-diagonal and arrow) carry most of the
/// simulator work; two SpMSpV inputs (stencil and power-law) add the
/// short-epoch kernel. The power-law R01 was left out: its A·Aᵀ op count
/// moves 10% (IQR) between seeds, against 0.4% for R02.
const SWEEP_SET: [(Kernel, &str); 4] = [
    (Kernel::SpMSpM, "R02"),
    (Kernel::SpMSpM, "R08"),
    (Kernel::SpMSpV, "R12"),
    (Kernel::SpMSpV, "R16"),
];

/// Committed reference digests: `seed d1 d2 ...` per line, one hex
/// digest per `SWEEP_SET` entry, produced by the scalar reference path.
const DIGESTS: &str = include_str!("../digests.txt");

/// One workload of an input set.
pub struct Item {
    /// Kernel family (selects machine spec and policy).
    pub kernel: Kernel,
    /// Suite matrix id.
    pub matrix: &'static str,
    /// The generated op streams.
    pub workload: Workload,
}

/// Seed of the configuration sample. Fixed, not taken from `--seed`:
/// which 21 of the 1 800 runtime configurations are drawn changes
/// simulation cost and snapshot size far more than the matrices do
/// (34% spread in `cache_disk_mb` over five seeds), which would hide
/// a change's effect behind the choice of seed.
pub const CONFIG_SEED: u64 = 0x5AAD;

/// Model plus generated workloads for one seed.
pub struct Inputs {
    /// The run's seed, which drove matrix generation.
    pub seed: u64,
    /// Harness settings; `seed` is [`CONFIG_SEED`] and drives the
    /// configuration sample.
    pub harness: Harness,
    /// The committed quick-scale ensemble.
    pub ensemble: PredictiveEnsemble,
    /// Workloads in set order.
    pub items: Vec<Item>,
}

/// Harness settings of every comparison: quick scale, [`SAMPLED`]
/// configurations drawn with [`CONFIG_SEED`].
pub fn harness(threads: usize) -> Harness {
    Harness {
        scale: Scale::Quick,
        sampled_configs: SAMPLED,
        threads,
        seed: CONFIG_SEED,
    }
}

/// Loads the committed quick-scale energy-efficiency ensemble.
pub fn ensemble() -> Result<PredictiveEnsemble, String> {
    let path = sa_bench::models::model_dir(Scale::Quick).join("sparseadapt-cache-energy-eff.json");
    PredictiveEnsemble::load(&path)
        .map_err(|e| format!("cannot load model {}: {e}", path.display()))
}

/// Generates the workload of one set entry from `seed`.
pub fn generate(kernel: Kernel, matrix: &str, seed: u64) -> Result<Workload, String> {
    let spec = spec_by_id(matrix).ok_or_else(|| format!("unknown matrix {matrix}"))?;
    let harness = Harness { seed, ..harness(1) };
    Ok(suite_workload(&harness, &spec, kernel, L1))
}

/// Loads the model and generates every workload of `set`.
pub fn build(set: &[(Kernel, &'static str)], seed: u64, threads: usize) -> Result<Inputs, String> {
    let ensemble = ensemble()?;
    let items = set
        .iter()
        .map(|&(kernel, matrix)| {
            Ok(Item {
                kernel,
                matrix,
                workload: generate(kernel, matrix, seed)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Inputs {
        seed,
        harness: harness(threads),
        ensemble,
        items,
    })
}

/// [`build`], timed: one set-up sample, seconds.
///
/// Runs take one sample before every measured pass rather than all of
/// them back to back at start-up, so `setup_s` sees the same host
/// conditions as the passes instead of only the first second of the
/// process.
pub fn build_timed(
    set: &[(Kernel, &'static str)],
    seed: u64,
    threads: usize,
) -> Result<(Inputs, f64), String> {
    let t = Instant::now();
    let inputs = build(set, seed, threads)?;
    Ok((inputs, t.elapsed().as_secs_f64()))
}

/// Runs `eval::compare` on one item under the harness defaults.
pub fn compare(inputs: &Inputs, item: &Item) -> SchemeComparison {
    compare_workload(
        &inputs.harness,
        &item.workload,
        &inputs.ensemble,
        item.kernel,
        MODE,
        L1,
    )
}

/// Stable digest of every row of a comparison: FNV-1a over the bits of
/// each scheme's time, energy and work, plus SparseAdapt's reconfigs.
pub fn digest(c: &SchemeComparison) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (_, m) in c.rows() {
        put(m.time_s.to_bits());
        put(m.energy_j.to_bits());
        put(m.flops);
    }
    put(c.sparseadapt_reconfigs as u64);
    h
}

/// One pass: a comparison of every item, returning row digests.
pub fn pass(inputs: &Inputs) -> Vec<u64> {
    inputs
        .items
        .iter()
        .map(|item| digest(&compare(inputs, item)))
        .collect()
}

/// The same comparison as [`compare`], assembled from the layer calls
/// `eval::compare` makes, each inside a span: the stitch sweep (which
/// runs the batch engine and the trace cache), the live SparseAdapt
/// run (runtime, model, policy), and the stitched schemes.
pub fn compare_traced(tr: &mut Tracer, inputs: &Inputs, item: &Item) -> SchemeComparison {
    let spec = item.kernel.spec(inputs.harness.scale);
    let (baseline_cfg, best_avg_cfg, max_cfg) = reference_configs(L1);
    let sweep = tr.span("sparseadapt.stitch.sweep", |_| {
        let configs = sample_configs(L1, inputs.harness.sampled_configs, inputs.harness.seed);
        SweepData::simulate(spec, &item.workload, &configs, inputs.harness.threads)
    });
    let (live, reconfigs) = tr.span("sparseadapt.runtime.live", |_| {
        let mut ctrl =
            SparseAdaptController::new(inputs.ensemble.clone(), item.kernel.policy(), spec);
        let live = run_live(spec, best_avg_cfg, &item.workload, &mut ctrl);
        (live.metrics(), ctrl.reconfig_count())
    });
    tr.span("sparseadapt.schemes", |_| {
        let index_of = |cfg| {
            sweep
                .config_index(cfg)
                .expect("reference configs are sampled")
        };
        let profile_idx = index_of(&max_cfg);
        SchemeComparison {
            baseline: sweep.static_metrics(index_of(&baseline_cfg)),
            best_avg: sweep.static_metrics(index_of(&best_avg_cfg)),
            max_cfg: sweep.static_metrics(profile_idx),
            sparseadapt: live,
            sparseadapt_reconfigs: reconfigs,
            ideal_static: schemes::ideal_static(&sweep, MODE).1,
            ideal_greedy: schemes::ideal_greedy(&sweep, MODE).metrics,
            oracle: schemes::oracle(&sweep, MODE).metrics,
            profileadapt_naive: schemes::profileadapt_naive(&sweep, MODE, profile_idx).metrics,
            profileadapt_ideal: schemes::profileadapt_ideal(&sweep, MODE, profile_idx).metrics,
        }
    })
}

/// Traced pass: [`compare_traced`] on every item inside one root span.
pub fn pass_traced(tr: &mut Tracer, inputs: &Inputs) -> Vec<SchemeComparison> {
    tr.span("pass", |tr| {
        inputs
            .items
            .iter()
            .map(|item| compare_traced(tr, inputs, item))
            .collect()
    })
}

fn committed_digests(seed: u64) -> Option<Vec<u64>> {
    DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        fields.map(|d| u64::from_str_radix(d, 16).ok()).collect()
    })
}

/// Reference digests for the run's seed: the committed ones when the
/// seed is listed, otherwise recomputed through the scalar sweep engine
/// (the lockstep batch engine's differential reference), uncached.
fn reference_digests(inputs: &Inputs, out: &mut Outcome) -> Vec<u64> {
    if let Some(d) = committed_digests(inputs.seed) {
        out.meta("reference", "committed");
        return d;
    }
    let d = scalar_digests(inputs);
    out.meta("reference", "scalar-recomputed");
    out.meta(
        "reference_digests",
        d.iter()
            .map(|x| format!("{x:016x}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    d
}

fn scalar_digests(inputs: &Inputs) -> Vec<u64> {
    let lockstep = sparseadapt::exec::lockstep_enabled();
    sparseadapt::exec::set_lockstep(false);
    TraceCache::global().clear();
    let d = pass(inputs);
    TraceCache::global().clear();
    sparseadapt::exec::set_lockstep(lockstep);
    d
}

/// Prints `digests.txt` lines for seeds `from .. from+n` (the file's
/// maintenance path, after a deliberate change to simulated results).
pub fn print_digests(from: u64, n: u64, threads: usize) -> Result<(), String> {
    for seed in from..from + n {
        let inputs = build(&SWEEP_SET, seed, threads)?;
        let d = scalar_digests(&inputs);
        let hex: Vec<String> = d.iter().map(|x| format!("{x:016x}")).collect();
        println!("{seed} {}", hex.join(" "));
    }
    Ok(())
}

fn check(out: &mut Outcome, inputs: &Inputs, expected: &[u64], got: &[u64]) {
    for ((item, e), g) in inputs.items.iter().zip(expected).zip(got) {
        out.op((e != g).then(|| {
            format!(
                "{} {} rows digest {g:016x}, reference {e:016x}",
                item.matrix, item.workload.name
            )
        }));
    }
}

/// The layer probes every traced run makes on its own inputs, with the
/// trace cache empty and no disk tier attached: op-stream emission
/// (`rebuild` regenerates the workloads), one traced comparison pass
/// (stitch sweep, live run, schemes), the simulator and codec probes,
/// the executor's utilisation, model inference, the trace-cache hit
/// path and the HTTP codec.
pub fn probe_layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    inputs: &Inputs,
    rebuild: impl FnMut() -> Vec<Workload>,
) {
    layers::kernels(out, SETUP_REPS, rebuild);
    TraceCache::global().clear();
    let mark = tr.mark();
    let got = pass_traced(tr, inputs);
    let sweep_s = tr.total_s_since(mark, "sparseadapt.stitch.sweep");
    out.metric("sparseadapt.stitch.sweep_s", sweep_s, "s");
    out.metric(
        "sparseadapt.schemes_s",
        tr.total_s_since(mark, "sparseadapt.schemes"),
        "s",
    );
    out.metric(
        "sparseadapt.runtime.live_s",
        tr.total_s_since(mark, "sparseadapt.runtime.live"),
        "s",
    );
    out.metric(
        "sparseadapt.runtime.reconfigs",
        got.iter().map(|c| c.sparseadapt_reconfigs).sum::<usize>() as f64,
        "count",
    );
    TraceCache::global().clear();
    let items: Vec<_> = inputs
        .items
        .iter()
        .map(|i| (i.kernel.spec(inputs.harness.scale), &i.workload))
        .collect();
    let configs = sample_configs(L1, SAMPLED, inputs.harness.seed);
    let probe = layers::simulator(tr, out, &items, &configs);
    out.metric(
        "sparseadapt.exec.utilisation",
        probe.serial_s / (sweep_s * inputs.harness.threads as f64),
        "ratio",
    );
    layers::model(out, &inputs.ensemble, &probe.traces);
    let first = &inputs.items[0];
    let kernel = format!("{:?}", first.kernel).to_lowercase();
    layers::http(out, &kernel, first.matrix, configs[0], &probe.traces[0]);
    layers::lookup(out, items[0].0, &first.workload, configs[0]);
    TraceCache::global().clear();
}

/// Per-run sample collections.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    cold: Vec<f64>,
    cold_traced: Vec<f64>,
    warm: Vec<f64>,
    stored_mb: Vec<f64>,
    /// Trace-cache hits and misses summed over warm passes.
    warm_lookups: (u64, u64),
}

/// One cycle: a cold pass from an empty trace cache, then [`WARM_PASSES`]
/// warm passes answered from what it stored. With a tracer, a traced
/// cold pass follows, so traced and untraced passes alternate under the
/// same host conditions.
fn cycle(
    inputs: &Inputs,
    expected: &[u64],
    out: &mut Outcome,
    s: &mut Samples,
    tr: Option<&mut Tracer>,
) {
    let cache = TraceCache::global();
    cache.clear();
    let t = Instant::now();
    let got = pass(inputs);
    s.cold.push(t.elapsed().as_secs_f64() * 1e3);
    check(out, inputs, expected, &got);
    s.stored_mb.push(cache.stats().resident_bytes as f64 / 1e6);
    for _ in 0..WARM_PASSES {
        let before = cache.stats();
        let t = Instant::now();
        let got = pass(inputs);
        s.warm.push(t.elapsed().as_secs_f64() * 1e3);
        check(out, inputs, expected, &got);
        let after = cache.stats();
        s.warm_lookups.0 += after.hits + after.disk_hits - before.hits - before.disk_hits;
        s.warm_lookups.1 += after.misses - before.misses;
    }
    if let Some(tr) = tr {
        cache.clear();
        let t = Instant::now();
        let got = pass_traced(tr, inputs);
        s.cold_traced.push(t.elapsed().as_secs_f64() * 1e3);
        let got: Vec<u64> = got.iter().map(digest).collect();
        check(out, inputs, expected, &got);
    }
}

/// The `sweep-cold-warm` workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, first_setup) = build_timed(&SWEEP_SET, args.seed, args.threads)?;
    let expected = reference_digests(&inputs, &mut out);
    // The first cycle after start-up pays page faults and allocator
    // growth; it is discarded.
    cycle(&inputs, &expected, &mut out, &mut Samples::default(), None);
    let mut s = Samples {
        setup: vec![first_setup],
        ..Samples::default()
    };
    let mut tr = args.trace.then(Tracer::new);
    let deadline = Instant::now() + args.seconds;
    while s.cold.len() < MIN_CYCLES || Instant::now() < deadline {
        if tr.is_none() {
            s.setup
                .push(build_timed(&SWEEP_SET, args.seed, args.threads)?.1);
        }
        cycle(&inputs, &expected, &mut out, &mut s, tr.as_mut());
    }
    match tr.as_mut() {
        None => {
            out.metric("setup_s", stats::median(&s.setup), "s");
            out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
            out.metric("cold_ms", stats::median(&s.cold), "ms");
            out.metric("warm_ms", stats::median(&s.warm), "ms");
            out.metric("stored_mb", stats::median(&s.stored_mb), "MB");
        }
        Some(tr) => {
            let (hits, misses) = s.warm_lookups;
            out.metric(
                "sparseadapt.trace_cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            );
            out.metric(
                "sparseadapt.trace_cache.resident_mb",
                stats::median(&s.stored_mb),
                "MB",
            );
            layers::overhead(&mut out, &s.cold, &s.cold_traced);
            probe_layers(tr, &mut out, &inputs, || {
                SWEEP_SET
                    .iter()
                    .map(|&(k, m)| generate(k, m, args.seed).expect("generated at set-up"))
                    .collect()
            });
            tr.write(&args.workload, args.seed);
            out.meta("layer_map", layers::MAP);
        }
    }
    out.meta("setup_samples", s.setup.len());
    out.meta("cold_samples", s.cold.len());
    out.meta("warm_samples", s.warm.len());
    out.meta("sampled_configs", SAMPLED);
    out.meta(
        "matrices",
        SWEEP_SET
            .iter()
            .map(|(_, m)| *m)
            .collect::<Vec<_>>()
            .join(" "),
    );
    Ok(out)
}
