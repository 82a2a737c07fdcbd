//! Order statistics, process memory, and the result document.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the repeat mode reports the same spread the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile (`p` in (0, 100]) of `values`: an observed
/// sample, never an interpolation.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type holding `path`, from this process's mount table
/// (the longest mount point that prefixes the canonical path).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let table = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in table.lines() {
        // Fields: id parent major:minor root mount-point opts... - fstype src opts
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A JSON value for the metadata line.
#[derive(Debug, Clone)]
pub enum Meta {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
}

impl From<f64> for Meta {
    fn from(v: f64) -> Self {
        Meta::Num(v)
    }
}

impl From<usize> for Meta {
    fn from(v: usize) -> Self {
        Meta::Num(v as f64)
    }
}

impl From<u64> for Meta {
    fn from(v: u64) -> Self {
        Meta::Num(v as f64)
    }
}

impl From<&str> for Meta {
    fn from(v: &str) -> Self {
        Meta::Str(v.to_string())
    }
}

impl From<String> for Meta {
    fn from(v: String) -> Self {
        Meta::Str(v)
    }
}

/// What one workload run produced: the operation accounting, the
/// metrics in report order, and run metadata (sample counts, host
/// facts) printed on the line before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compares, passes, requests).
    pub attempted: u64,
    /// Operations that failed: non-200s, 429s, transport errors and
    /// output-check failures all count.
    pub failed: u64,
    /// Human-readable reasons for the first failures.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra facts for the metadata line.
    pub meta: Vec<(String, Meta)>,
}

impl Outcome {
    /// Counts one attempted operation, failed when `err` is `Some`.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Appends a metadata fact.
    pub fn meta(&mut self, key: &str, value: impl Into<Meta>) {
        self.meta.push((key.to_string(), value.into()));
    }

    /// The metadata line: `{"meta": {...}}`.
    pub fn meta_json(&self) -> String {
        let mut out = String::from("{\"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: ", json_str(k));
            match v {
                Meta::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => {
                    let _ = write!(out, "{}", *x as i64);
                }
                Meta::Num(x) => out.push_str(&json_num(*x)),
                Meta::Str(s) => out.push_str(&json_str(s)),
            }
        }
        out.push_str("}}");
        out
    }

    /// The result line: the last line of standard output.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which no metric should produce)
/// become 0 rather than invalid JSON.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
