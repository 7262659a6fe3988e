//! The measurement core: seeded inputs, the transaction/span recorder, the
//! per-round statistics and the FNV-1a digest.
//!
//! Everything here is engine-agnostic. A workload runs its operations through
//! a [`Recorder`]: [`Recorder::txn`] times one whole transaction (the unit of
//! every latency sample), [`Recorder::call`] wraps one call into the engine's
//! public API, counts it as an attempted operation, and — only when tracing —
//! records a span around it.
//!
//! **Reference speed.** The reference box is a shared 2-vCPU VM whose speed
//! moves by up to 1.6× in phases longer than a run (measured: see README,
//! "Noise"), so no statistic over one run's samples removes them. Between
//! transactions the recorder therefore runs a [`Reference`] quantum for every
//! 20 ms that passed, and every reported time is the measured time divided by
//! the slowdown of the round it was measured in: the median quantum of that
//! round over [`REFERENCE_QUANTUM_NS`]. The slowdowns are reported with the
//! metrics, so the measured values can be had back.

use inverda_storage::{Relation, Value};
use std::fmt::Display;
use std::io::Write;
use std::time::Instant;

/// splitmix64: the benchmark's only source of randomness, so the op stream
/// depends on `--seed` and on nothing in the engine or its dependency shims.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a, 64 bit. Strings are length-prefixed so concatenations cannot collide.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Int(i) => {
                self.bytes(&[2]);
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.bytes(&[3]);
                self.u64(f.to_bits());
            }
            Value::Text(s) => {
                self.bytes(&[4]);
                self.str(s);
            }
        }
    }

    /// Every row of a relation, in its (key) iteration order.
    pub fn relation(&mut self, label: &str, rel: &Relation) {
        self.str(label);
        self.u64(rel.len() as u64);
        for (key, row) in rel.iter() {
            self.u64(key.0);
            for v in row {
                self.value(v);
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4, clamped as the reference implementation does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// The reference kernel: a fixed amount of ordered-map, allocation and
/// string work on ~3 MB of rows, the kind of work the engine's storage does.
/// It is written against `std` only and shares no code with the engine; it
/// does share the process's heap and caches, and reads up to 5 % differently
/// after one workload's calls than after another's (README, "Noise").
pub struct Reference {
    rows: std::collections::BTreeMap<u64, Vec<String>>,
    state: u64,
}

impl Reference {
    fn new() -> Reference {
        let rows = (0..20_000u64)
            .map(|i| {
                let row = vec![
                    format!("author{:03}", i % 200),
                    format!("task number {i}"),
                    (i % 3).to_string(),
                ];
                (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20, row)
            })
            .collect();
        Reference { rows, state: 1 }
    }

    #[inline(never)]
    fn quantum(&mut self) -> u64 {
        let mut acc = 0;
        for _ in 0..400 {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let k = self.state >> 20;
            if let Some((_, row)) = self.rows.range(k..).next() {
                acc += row.clone()[1].len() as u64;
            }
            let key = k ^ 0x5555;
            self.rows.insert(
                key,
                vec![format!("a{}", k % 200), format!("t{k}"), "1".to_string()],
            );
            self.rows.remove(&key);
        }
        acc
    }
}

/// What one quantum takes on the reference box when it is quiet.
pub const REFERENCE_QUANTUM_NS: f64 = 340_000.0;
const QUANTUM_EVERY_NS: u64 = 20_000_000;

/// Transaction class of a latency sample.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Write,
    Read,
}

/// One timed region. Roots (`parent == NONE`) are transactions or DDL
/// statements; their children are the calls into the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub txn: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NONE: u32 = u32::MAX;

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time per span: its duration minus what its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NONE {
            own[s.parent as usize] -= s.dur_ns();
        }
    }
    own
}

struct Sample {
    class: Class,
    round: u32,
    ns: u64,
}

/// The end-to-end metrics the window gives, in the order `Recorder::per_round`
/// and `Recorder::end_to_end` report them.
pub const WINDOW_METRICS: [&str; 5] = [
    "ops_per_s",
    "write_p50_us",
    "write_p90_us",
    "read_p50_us",
    "read_p90_us",
];

/// Whole-window tail latencies as measured, written to the trace file and
/// never gated.
pub struct Tails {
    pub write_p99_us: f64,
    pub write_max_us: f64,
    pub read_p99_us: f64,
    pub read_max_us: f64,
}

pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    txns: u32,
    samples: Vec<Sample>,
    /// 0 during set-up and warm-up, 1.. inside the window.
    round: u32,
    /// (start_ns, end_ns) of each window round.
    rounds: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    reference: Reference,
    /// Root regions open; a quantum runs only between them.
    depth: u32,
    last_quantum_ns: u64,
    /// (round, duration) of every timed reference quantum.
    quanta: Vec<(u32, u64)>,
    /// (round, duration) of every visit to the reference, untimed quantum
    /// included: what the round's wall time is reduced by.
    reference_ns: Vec<(u32, u64)>,
}

impl Recorder {
    /// `span_capacity` preallocates the span store so that a traced window
    /// never reallocates it.
    pub fn new(tracing: bool, span_capacity: usize) -> Recorder {
        // Built before the clock starts: it is no part of the engine's set-up.
        let reference = Reference::new();
        Recorder {
            epoch: Instant::now(),
            tracing,
            spans: Vec::with_capacity(if tracing { span_capacity } else { 0 }),
            open: Vec::with_capacity(8),
            txns: 0,
            samples: Vec::with_capacity(1 << 16),
            round: 0,
            rounds: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            reference,
            depth: 0,
            last_quantum_ns: 0,
            quanta: Vec::with_capacity(1 << 14),
            reference_ns: Vec::with_capacity(1 << 14),
        }
    }

    /// Called between root regions only: one timed reference quantum for every 20 ms since
    /// the last, at most three at a time, so that a stretch of long engine
    /// calls is sampled about as densely as a stretch of short ones. An
    /// untimed quantum runs first: what the engine left in the caches differs
    /// from call to call, and every timed quantum must start from the same
    /// state or a faster engine call would change the reference.
    fn pace(&mut self, now_ns: u64) {
        if now_ns - self.last_quantum_ns < QUANTUM_EVERY_NS {
            return;
        }
        let due = ((now_ns - self.last_quantum_ns) / QUANTUM_EVERY_NS).min(3);
        std::hint::black_box(self.reference.quantum());
        let mut start = self.now_ns();
        for _ in 0..due {
            std::hint::black_box(self.reference.quantum());
            let end = self.now_ns();
            self.quanta.push((self.round, end - start));
            start = end;
        }
        self.reference_ns.push((self.round, start - now_ns));
        self.last_quantum_ns = start;
    }

    /// Median quantum of a round over the reference quantum: above 1 when the
    /// box ran slower than the reference while the round was measured. Round 0
    /// is everything outside the window: set-up, warm-up, after-window probes.
    pub fn slowdown(&self, round: u32) -> f64 {
        let q: Vec<f64> = self
            .quanta
            .iter()
            .filter(|(r, _)| *r == round)
            .map(|(_, ns)| *ns as f64)
            .collect();
        if q.is_empty() {
            1.0
        } else {
            median(&q) / REFERENCE_QUANTUM_NS
        }
    }

    /// Time a round spent in the reference.
    fn quanta_ns(&self, round: u32) -> u64 {
        self.reference_ns
            .iter()
            .filter(|(r, _)| *r == round)
            .map(|(_, ns)| ns)
            .sum()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str, start_ns: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NONE),
            txn: self.txns,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    fn close_span(&mut self, end_ns: u64) {
        let id = self.open.pop().expect("a span is open");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn fail(&mut self, what: impl Display) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what.to_string());
        }
    }

    /// A checked expectation on a result already counted by [`Recorder::call`].
    pub fn check(&mut self, ok: bool, what: &'static str) {
        if !ok {
            self.fail(what);
        }
    }

    /// One call into the engine: an attempted operation, a span when tracing,
    /// a failure when it returns `Err`.
    pub fn call<T, E: Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        let out = if self.tracing {
            let start = self.now_ns();
            self.open_span(name, start);
            let out = f();
            let end = self.now_ns();
            self.close_span(end);
            out
        } else {
            f()
        };
        if self.depth == 0 {
            let now = self.now_ns();
            self.pace(now);
        }
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{name}: {e}"));
                None
            }
        }
    }

    /// A root region that is not a latency sample of its own (a DDL
    /// statement, or one half of a split transaction). Returns its duration.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, u64) {
        self.txns += 1;
        self.depth += 1;
        let start = self.now_ns();
        if self.tracing {
            self.open_span(name, start);
        }
        let out = f(self);
        let end = self.now_ns();
        if self.tracing {
            self.close_span(end);
        }
        self.depth -= 1;
        self.pace(end);
        (out, end - start)
    }

    pub fn sample(&mut self, class: Class, ns: u64) {
        self.samples.push(Sample {
            class,
            round: self.round,
            ns,
        });
    }

    /// One whole transaction: a root span and one latency sample.
    pub fn txn<T>(
        &mut self,
        class: Class,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let (out, ns) = self.timed(name, f);
        self.sample(class, ns);
        out
    }

    /// Run one window round under the round clock.
    pub fn round(&mut self, f: impl FnOnce(&mut Recorder)) {
        self.round = self.rounds.len() as u32 + 1;
        let start = self.now_ns();
        f(self);
        let end = self.now_ns();
        self.rounds.push((start, end));
        self.round = 0;
    }

    pub fn window_ns(&self) -> u64 {
        self.rounds.iter().map(|(s, e)| e - s).sum()
    }

    fn round_latencies_us(&self, class: Class, round: u32) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.class == class && s.round == round)
            .map(|s| s.ns as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `WINDOW_METRICS` of every round, at reference speed.
    pub fn per_round(&self) -> [Vec<f64>; 5] {
        let mut per_round: [Vec<f64>; 5] = Default::default();
        for (i, (start, end)) in self.rounds.iter().enumerate() {
            let round = i as u32 + 1;
            let write = self.round_latencies_us(Class::Write, round);
            let read = self.round_latencies_us(Class::Read, round);
            let txns = (write.len() + read.len()) as f64;
            let slow = self.slowdown(round);
            let wall = (end - start - self.quanta_ns(round)) as f64 / 1e9;
            per_round[0].push(txns / wall * slow);
            per_round[1].push(percentile(&write, 0.5) / slow);
            per_round[2].push(percentile(&write, 0.9) / slow);
            per_round[3].push(percentile(&read, 0.5) / slow);
            per_round[4].push(percentile(&read, 0.9) / slow);
        }
        per_round
    }

    /// Each of the `WINDOW_METRICS` per round, then the median of the rounds.
    pub fn end_to_end(&self) -> [f64; 5] {
        self.per_round().map(|rounds| median(&rounds))
    }

    /// Time since the recorder was made, less the time spent in the reference
    /// outside the window, at reference speed: the set-up time when called
    /// before the first round.
    pub fn setup_s(&self) -> f64 {
        (self.now_ns() - self.quanta_ns(0)) as f64 / 1e9 / self.slowdown(0)
    }

    pub fn tails(&self) -> Tails {
        let all = |class| {
            let mut v = Vec::new();
            for round in 1..=self.rounds.len() as u32 {
                v.extend(self.round_latencies_us(class, round));
            }
            v.sort_by(f64::total_cmp);
            v
        };
        let (w, r) = (all(Class::Write), all(Class::Read));
        Tails {
            write_p99_us: percentile(&w, 0.99),
            write_max_us: percentile(&w, 1.0),
            read_p99_us: percentile(&r, 0.99),
            read_max_us: percentile(&r, 1.0),
        }
    }

    /// The window round a span lies in; 0 outside the window.
    fn round_of(&self, s: &Span) -> u32 {
        self.rounds
            .iter()
            .position(|(start, end)| s.start_ns >= *start && s.end_ns <= *end)
            .map_or(0, |i| i as u32 + 1)
    }

    /// Durations at reference speed (µs, ascending) of the spans called
    /// `name` that lie inside the window, or of those outside it.
    pub fn span_us(&self, name: &str, in_window: bool) -> Vec<f64> {
        let slow: Vec<f64> = (0..=self.rounds.len() as u32)
            .map(|round| self.slowdown(round))
            .collect();
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s, self.round_of(s)))
            .filter(|(_, round)| (*round > 0) == in_window)
            .map(|(s, round)| s.dur_ns() as f64 / 1e3 / slow[round as usize])
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median duration (µs at reference speed) of the window's spans called `name`.
    pub fn p50_us(&self, name: &str) -> f64 {
        percentile(&self.span_us(name, true), 0.5)
    }

    /// The same for spans outside the window: set-up and after-window probes.
    pub fn p50_outside_us(&self, name: &str) -> f64 {
        percentile(&self.span_us(name, false), 0.5)
    }

    /// Median over the window's transactions of the time (µs at reference
    /// speed) a transaction spent in calls whose name starts with `prefix`.
    pub fn p50_per_txn_us(&self, prefix: &str) -> f64 {
        let mut per_txn = std::collections::BTreeMap::<u32, f64>::new();
        for s in self.spans.iter().filter(|s| s.name.starts_with(prefix)) {
            let round = self.round_of(s);
            if round > 0 {
                *per_txn.entry(s.txn).or_default() +=
                    s.dur_ns() as f64 / 1e3 / self.slowdown(round);
            }
        }
        let mut v: Vec<f64> = per_txn.into_values().collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.5)
    }

    /// Share of the window not spent inside a call into the engine: the gaps
    /// between root spans (reference quanta included) plus the roots' self time.
    pub fn harness_overhead_ratio(&self) -> f64 {
        let own = self_times_ns(&self.spans);
        let (mut roots, mut root_self) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| self.round_of(s) > 0) {
            if s.parent == NONE {
                roots += s.dur_ns();
                root_self += own[s.id as usize];
            }
        }
        let window = self.window_ns();
        (window - roots + root_self) as f64 / window as f64
    }

    /// One JSON object per line: a summary, then every span.
    pub fn write_trace(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let t = self.tails();
        let slowdown: Vec<f64> = (0..=self.rounds.len() as u32)
            .map(|round| self.slowdown(round))
            .collect();
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"window_ns\":{},\"spans\":{},\"slowdown_outside_window_then_by_round\":{slowdown:?},\"write_p99_us\":{},\"write_max_us\":{},\"read_p99_us\":{},\"read_max_us\":{}}}",
            self.window_ns(),
            self.spans.len(),
            t.write_p99_us,
            t.write_max_us,
            t.read_p99_us,
            t.read_max_us
        )?;
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.txn, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // A 2:1 split keeps p50 inside the majority mode and p90 inside the
        // minority mode (design rule 6).
        let split = [1.0, 1.0, 1.0, 1.0, 9.0, 9.0];
        assert_eq!(percentile(&split, 0.5), 1.0);
        assert_eq!(percentile(&split, 0.9), 9.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        // Length prefixes keep ("ab","c") and ("a","bc") apart.
        let (mut x, mut y) = (Fnv::default(), Fnv::default());
        x.str("ab");
        x.str("c");
        y.str("a");
        y.str("bc");
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
        assert!((0..100).all(|_| Rng::new(3).below(5) < 5));
    }

    #[test]
    fn times_are_divided_by_the_slowdown_of_their_round() {
        let mut rec = Recorder::new(true, 8);
        rec.rounds = vec![(0, 1_000_000_000), (1_000_000_000, 2_000_000_000)];
        // Round 1 at reference speed, round 2 on a box twice as slow.
        let q = REFERENCE_QUANTUM_NS as u64;
        rec.quanta = vec![(1, q), (1, q), (1, q), (2, 2 * q), (2, 2 * q), (2, 3 * q)];
        rec.reference_ns = vec![(1, 3 * q), (2, 7 * q)];
        assert_eq!(rec.slowdown(1), 1.0);
        assert_eq!(rec.slowdown(2), 2.0);
        assert_eq!(
            rec.slowdown(0),
            1.0,
            "no quantum outside the window: as measured"
        );
        for (round, ns) in [(1, 100_000), (2, 200_000)] {
            rec.samples.push(Sample {
                class: Class::Write,
                round,
                ns,
            });
            rec.samples.push(Sample {
                class: Class::Read,
                round,
                ns: 2 * ns,
            });
        }
        assert_eq!(rec.per_round()[1], vec![100.0, 100.0]);
        assert_eq!(rec.per_round()[3], vec![200.0, 200.0]);
        // Throughput: the quanta leave the round's wall time, then the same factor.
        let wall = |quanta_ns: u64| (1_000_000_000 - quanta_ns) as f64 / 1e9;
        assert_eq!(
            rec.per_round()[0],
            vec![2.0 / wall(3 * q), 2.0 / wall(7 * q) * 2.0]
        );
        rec.spans = vec![
            span(0, NONE, 10, 1_010),
            span(1, NONE, 1_000_000_010, 1_000_002_010),
            span(2, NONE, 1_000_002_010, 1_000_006_010),
        ];
        assert_eq!(rec.span_us("s", true), vec![1.0, 1.0, 2.0]);
        // Spans 1 and 2 belong to one transaction, span 0 to another.
        rec.spans[0].txn = 0;
        assert_eq!(rec.p50_per_txn_us("s"), 1.0);
    }

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            txn: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, NONE, 0, 100),
            span(1, 0, 10, 40),
            span(2, 1, 15, 25),
            span(3, 0, 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_takes_the_median_of_per_round_values() {
        let mut rec = Recorder::new(true, 64);
        for _ in 0..3 {
            rec.round(|rec| {
                for _ in 0..4 {
                    rec.txn(Class::Write, "txn.write", |rec| {
                        rec.call("call", || Ok::<_, String>(()));
                    });
                    rec.txn(Class::Read, "txn.read", |_| ());
                }
            });
        }
        // Warm-up style samples outside a round are not part of the window.
        rec.txn(Class::Read, "txn.read", |_| ());
        assert_eq!(rec.rounds.len(), 3);
        assert_eq!(rec.samples.iter().filter(|s| s.round == 0).count(), 1);
        assert_eq!(rec.attempted, 12);
        assert_eq!(rec.failed, 0);
        let [ops_per_s, write_p50, write_p90, ..] = rec.end_to_end();
        assert!(ops_per_s > 0.0 && write_p90 >= write_p50);
        assert_eq!(rec.span_us("call", true).len(), 12);
        let ratio = rec.harness_overhead_ratio();
        assert!((0.0..=1.0).contains(&ratio), "{ratio}");
        rec.call("boom", || Err::<(), _>("no"));
        assert_eq!((rec.attempted, rec.failed), (13, 1));
    }
}
