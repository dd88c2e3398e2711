//! Shared plumbing: run options, the result record, statistics, stream
//! hashing and `/proc` readers.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Input scale. `Full` is the benchmark; `Tiny` is the smoke size the
/// package's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Options shared by every workload.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Scratch directory for this run (server state, span files).
    pub work_dir: PathBuf,
    /// The `dbp` executable the serving workload spawns.
    pub dbp: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run found: its metrics, its operation counts, the checks
/// that failed and the facts to print next to the numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub facts: Vec<(String, String)>,
    /// Human-readable lines (layer tables, sample counts) for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records one correctness check; a failing check counts as a
    /// failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    pub fn facts_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with every digit `f64` holds.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Per slot, the least time any repetition took: repetitions that do
/// identical work slot by slot, on a host whose other tenants only ever
/// add time.
pub fn composite(reps: &[Vec<f64>]) -> Vec<f64> {
    let slots = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..slots)
        .map(|j| {
            reps.iter()
                .filter_map(|r| r.get(j).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Nearest-rank percentile of an ascending slice, `q` in `[0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `q` percentile: the rule that a tail
/// percentile is reported only with at least ten samples beyond it.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= p)
}

/// FNV-1a over 64-bit words: the pinned-input fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A `kB` field of a `/proc/<pid>/status` file, in bytes.
pub fn proc_status_bytes(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
}

/// User plus system CPU time of a process, in clock ticks (`USER_HZ`,
/// 100 per second on Linux).
pub fn proc_cpu_ticks(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

pub const USER_HZ: f64 = 100.0;

pub const MIB: f64 = 1024.0 * 1024.0;

/// The layer split of one traced workload: each layer's self time, the
/// traced total and the part of it no layer covers. The residual is
/// what closes the sum, so `layers + residual == total` holds exactly.
#[derive(Clone, Debug)]
pub struct LayerSplit {
    pub unit: &'static str,
    pub total: f64,
    pub layers: Vec<(&'static str, f64)>,
}

impl LayerSplit {
    pub fn residual(&self) -> f64 {
        self.total - self.layers.iter().map(|(_, v)| v).sum::<f64>()
    }

    pub fn residual_frac(&self) -> f64 {
        if self.total > 0.0 {
            self.residual() / self.total
        } else {
            0.0
        }
    }

    /// The printed table: each layer next to the traced total.
    pub fn table(&self) -> Vec<String> {
        let mut rows = vec![format!(
            "  layer split ({}; traced total {:.3}):",
            self.unit, self.total
        )];
        for (name, v) in &self.layers {
            rows.push(format!(
                "    {name:<22} {v:>14.3}  {:>6.1}%",
                100.0 * v / self.total.max(f64::MIN_POSITIVE)
            ));
        }
        rows.push(format!(
            "    {:<22} {:>14.3}  {:>6.1}%",
            "residual",
            self.residual(),
            100.0 * self.residual_frac()
        ));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_tail_count() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(beyond(&v, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.metric("setup_s", 0.5, "s");
        o.check(true, String::new);
        let line = o.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
