//! `record-replay`: the write and read sides of the trace and epoch
//! stores on the comparison path.
//!
//! A cycle records one comparison pass into a fresh on-disk cache
//! directory (trace bins plus an epoch snapshot, digest, `SAEP` encode
//! and write at every epoch boundary), then replays it several times,
//! clearing both memory tiers before each replay so the sweep's traces
//! and the live run's epochs come back from disk. Every replay must be
//! bit-identical to its record pass.

use std::path::Path;
use std::time::Instant;

use sa_bench::experiments::Kernel;
use sparseadapt::epoch_cache::EpochCache;
use sparseadapt::trace_cache::TraceCache;

use crate::layers::{self, Tracer};
use crate::stats::{self, Outcome};
use crate::sweep::{self, Inputs};
use crate::RunArgs;

/// Inputs whose generated work barely depends on the seed: SpMSpM on a
/// banded matrix (op count 1% IQR over ten seeds) and SpMSpV on banded
/// and stencil matrices. On the power-law graphs the seed decides
/// whether the operand hits the heavy rows, which moved the epochs
/// recorded, and so `cache_disk_mb`, by 36% between seeds.
const REPLAY_SET: [(Kernel, &str); 3] = [
    (Kernel::SpMSpM, "R04"),
    (Kernel::SpMSpV, "R09"),
    (Kernel::SpMSpV, "R12"),
];
/// Replays per record pass.
const REPLAYS: usize = 8;
/// Fewest record cycles a run makes, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;

fn attach(dir: Option<&Path>) {
    TraceCache::global().set_disk_dir(dir.map(|d| d.join("traces")));
    EpochCache::global().set_disk_dir(dir.map(|d| d.join("epochs")));
}

/// Commits the filesystem journal for `root` (an fsync of the directory)
/// so every record pass starts from the same writeback state: without
/// it, metadata of the files earlier cycles created and deleted piles up
/// and record passes slow by half over a 25-second run.
fn settle(root: &Path) {
    if let Ok(d) = std::fs::File::open(root) {
        let _ = d.sync_all();
    }
}

fn clear_memory() {
    TraceCache::global().clear();
    EpochCache::global().clear();
}

/// Per-run sample collections.
#[derive(Default)]
struct Samples {
    record: Vec<f64>,
    replay: Vec<f64>,
    replay_traced: Vec<f64>,
    disk_mb: Vec<f64>,
    /// Trace-cache resident bytes after the first record pass.
    record_trace_resident: usize,
    /// Trace-cache hits (memory or disk) and misses summed over replays.
    replay_lookups: (u64, u64),
}

fn check(out: &mut Outcome, inputs: &Inputs, recorded: &[u64], got: &[u64]) {
    for ((item, r), g) in inputs.items.iter().zip(recorded).zip(got) {
        out.op((r != g).then(|| {
            format!(
                "{} replay digest {g:016x} differs from record {r:016x}",
                item.matrix
            )
        }));
    }
}

/// One record pass plus [`REPLAYS`] replays in `dir`, which is removed
/// afterwards. With a tracer, replays alternate untraced and traced.
fn cycle(
    dir: &Path,
    inputs: &Inputs,
    out: &mut Outcome,
    s: &mut Samples,
    mut tr: Option<&mut Tracer>,
) {
    let _ = std::fs::remove_dir_all(dir);
    settle(dir.parent().unwrap_or(dir));
    attach(Some(dir));
    clear_memory();
    let t = Instant::now();
    let recorded = sweep::pass(inputs);
    s.record.push(t.elapsed().as_secs_f64() * 1e3);
    // Every record pass is one attempted operation per item; its output
    // is the reference the replays are checked against.
    out.attempted += recorded.len() as u64;
    s.disk_mb.push(stats::dir_bytes(dir) as f64 / 1e6);
    if s.record.len() == 1 {
        s.record_trace_resident = TraceCache::global().stats().resident_bytes;
    }
    for k in 0..REPLAYS {
        clear_memory();
        let t = Instant::now();
        let got = match tr.as_deref_mut() {
            Some(tr) if k % 2 == 1 => {
                let got = sweep::pass_traced(tr, inputs)
                    .iter()
                    .map(sweep::digest)
                    .collect();
                s.replay_traced.push(t.elapsed().as_secs_f64() * 1e3);
                got
            }
            _ => {
                let got = sweep::pass(inputs);
                s.replay.push(t.elapsed().as_secs_f64() * 1e3);
                got
            }
        };
        check(out, inputs, &recorded, &got);
        let tc = TraceCache::global().stats();
        s.replay_lookups.0 += tc.hits + tc.disk_hits;
        s.replay_lookups.1 += tc.misses;
    }
    attach(None);
    clear_memory();
    let _ = std::fs::remove_dir_all(dir);
}

/// The `record-replay` workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, first_setup) = sweep::build_timed(&REPLAY_SET, args.seed, args.threads)?;
    let mut setup = vec![first_setup];
    EpochCache::global().set_enabled(true);
    let root = args.work_dir.join("cache");
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create cache dir: {e}"))?;
    out.meta("cache_fs", stats::fs_type(&root));
    // A discarded cycle absorbs first-touch costs (page faults,
    // allocator growth, directory creation).
    let mut s = Samples::default();
    cycle(&root.join("warmup"), &inputs, &mut out, &mut s, None);
    let mut s = Samples::default();
    let mut tr = args.trace.then(Tracer::new);
    let deadline = Instant::now() + args.seconds;
    let mut i = 0;
    while s.record.len() < MIN_CYCLES || Instant::now() < deadline {
        if tr.is_none() {
            setup.push(sweep::build_timed(&REPLAY_SET, args.seed, args.threads)?.1);
        }
        let dir = root.join(format!("cycle-{i}"));
        cycle(&dir, &inputs, &mut out, &mut s, tr.as_mut());
        i += 1;
    }
    match tr.as_mut() {
        None => {
            out.metric("setup_s", stats::median(&setup), "s");
            out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
            out.metric("cold_ms", stats::median(&s.record), "ms");
            out.metric("warm_ms", stats::median(&s.replay), "ms");
            out.metric("stored_mb", stats::median(&s.disk_mb), "MB");
        }
        Some(tr) => {
            let (hits, misses) = s.replay_lookups;
            out.metric(
                "sparseadapt.trace_cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            );
            out.metric(
                "sparseadapt.trace_cache.resident_mb",
                s.record_trace_resident as f64 / 1e6,
                "MB",
            );
            layers::overhead(&mut out, &s.replay, &s.replay_traced);
            // Probes run with the caches detached, so they measure the
            // layers themselves.
            EpochCache::global().set_enabled(false);
            sweep::probe_layers(tr, &mut out, &inputs, || {
                REPLAY_SET
                    .iter()
                    .map(|&(k, m)| sweep::generate(k, m, args.seed).expect("generated at set-up"))
                    .collect()
            });
            tr.write(&args.workload, args.seed);
            out.meta("layer_map", layers::MAP);
        }
    }
    out.meta("setup_samples", setup.len());
    out.meta("record_samples", s.record.len());
    out.meta("replay_samples", s.replay.len());
    out.meta("cache_disk_samples", s.disk_mb.len());
    out.meta(
        "matrices",
        REPLAY_SET
            .iter()
            .map(|(_, m)| *m)
            .collect::<Vec<_>>()
            .join(" "),
    );
    Ok(out)
}
