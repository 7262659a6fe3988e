//! The InVerDa benchmark: five workloads driven through the engine's public
//! API, seven end-to-end metrics per workload, and a traced mode that explains
//! them layer by layer. See `README.md` beside this package.
//!
//! ```text
//! run --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! run-all [--seed N] [--smoke]                         every workload, every metric, checked
//! trace WORKLOAD [--seed N]                            spans to out/trace-WORKLOAD.jsonl
//! repeat N [--seed N]                                  N x run-all on one seed, spreads to out/repeat.json
//! ```

mod harness;
mod metrics;
mod pins;
mod workloads;

use harness::{median, quartiles, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Scale;

const DEFAULT_SEED: u64 = 1;
/// What one full-size round takes on the reference box; `--seconds` buys
/// `seconds / ROUND_SECONDS` rounds of fixed operation count, never fewer
/// than `MIN_ROUNDS`.
const ROUND_SECONDS: u64 = 4;
const MIN_ROUNDS: usize = 3;
/// `run_seconds` of BENCHMARK.json, and what `run-all` measures for: three
/// rounds. A fourth puts 114 runs past the driver's 3 420 s when the box runs
/// at two thirds of its speed, which it does for half hours at a time.
const DEFAULT_SECONDS: u64 = 12;
/// Set-ups per measured run, each in a fresh process; `setup_s` is their
/// median, as the driver's contract asks ("set up several times in a run").
const SETUPS: usize = 3;
const SPAN_CAPACITY: usize = 1 << 17;

type Error = String;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------------------
// The child: one workload in a process of its own
// ---------------------------------------------------------------------------

/// What a child process reports to its parent, one line per item.
#[derive(Default, Clone)]
struct Report {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    correct: bool,
    digest: u64,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for (name, value) in &self.metrics {
            println!("M {name} {value}");
        }
        for note in &self.notes {
            println!("N {note}");
        }
        println!("D {:016x}", self.digest);
        println!("A {} {}", self.attempted, self.failed);
        println!("C {}", u8::from(self.correct));
    }

    fn parse(text: &str) -> Result<Report, Error> {
        let mut r = Report::default();
        let mut complete = false;
        for line in text.lines() {
            let bad = || format!("unreadable child line: {line}");
            let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
            let mut words = rest.split(' ');
            match tag {
                "M" => {
                    let name = words.next().ok_or_else(bad)?;
                    let value = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    r.metrics.insert(name.to_string(), value);
                }
                "N" => r.notes.push(rest.to_string()),
                "D" => r.digest = u64::from_str_radix(rest, 16).map_err(|_| bad())?,
                "A" => {
                    r.attempted = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    r.failed = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                }
                "C" => {
                    r.correct = rest == "1";
                    complete = true;
                }
                _ => return Err(bad()),
            }
        }
        if complete {
            Ok(r)
        } else {
            Err("the child ended without a verdict".into())
        }
    }

    /// A report to sum other processes' verdicts into.
    fn passing() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Add another process's counts, verdict and notes.
    fn absorb(&mut self, other: &Report, label: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        self.notes
            .extend(other.notes.iter().map(|note| format!("{label}{note}")));
    }

    fn metric(&self, name: &str) -> Result<f64, Error> {
        self.metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("the child did not report {name}"))
    }
}

#[derive(Clone, Copy)]
struct ChildSpec<'a> {
    workload: &'a str,
    seed: u64,
    rounds: usize,
    scale: Scale,
    trace: bool,
    setup_only: bool,
}

/// VmHWM of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn run_child(spec: ChildSpec) -> Result<Report, Error> {
    let mut rec = Recorder::new(spec.trace, SPAN_CAPACITY);
    let mut report = Report::default();
    let input_ok = workloads::input_hash() == pins::INPUT_HASH;
    if !input_ok {
        report.notes.push(format!(
            "input hash {:016x} differs from the pinned {:016x}: the genealogy scripts changed",
            workloads::input_hash(),
            pins::INPUT_HASH
        ));
    }

    let (mut workload, plan) =
        workloads::build(spec.workload, spec.seed, spec.scale, spec.rounds, &mut rec)
            .ok_or_else(|| format!("unknown workload {}", spec.workload))?;
    workload.iterate(&mut rec, plan.warmup);
    report.metrics.insert("setup_s".into(), rec.setup_s());

    let mut digest_ok = true;
    if !spec.setup_only {
        for _ in 0..plan.rounds {
            rec.round(|rec| workload.iterate(rec, plan.round));
            workload.between_rounds(&mut rec);
        }
        report.digest = workload.verify(&mut rec);
        let pinned =
            spec.seed == DEFAULT_SEED && spec.rounds == rounds_for(DEFAULT_SECONDS) && !spec.trace;
        if let Some(expected) = pins::state_digest(spec.workload, spec.scale).filter(|_| pinned) {
            digest_ok = report.digest == expected;
            if !digest_ok {
                report.notes.push(format!(
                    "final-state digest {:016x} differs from the pinned {expected:016x}",
                    report.digest
                ));
            }
        }
        report.metrics.insert("peak_rss_mb".into(), peak_rss_mib());

        for (name, value) in harness::WINDOW_METRICS.iter().zip(rec.end_to_end()) {
            report.metrics.insert(name.to_string(), value);
        }
        let by_round = |values: Vec<f64>| {
            let words: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
            words.join(" ")
        };
        report.notes.push(format!(
            "by round: ops_per_s {}; slowdown against the reference (value as measured = time x slowdown) {}; during set-up {:.3}",
            by_round(rec.per_round()[0].clone()),
            by_round((1..=plan.rounds as u32).map(|r| rec.slowdown(r)).collect()),
            rec.slowdown(0)
        ));
        if spec.trace {
            let mut layer = vec![
                ("harness.overhead_ratio", rec.harness_overhead_ratio()),
                ("harness.slowdown", rec.slowdown(1)),
            ];
            workload.layer_metrics(&mut rec, &mut layer);
            for (name, value) in layer {
                report.metrics.insert(name.into(), value);
            }
            let dir = out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            rec.write_trace(
                &dir.join(format!("trace-{}.jsonl", spec.workload)),
                spec.workload,
            )
            .map_err(|e| format!("writing the trace: {e}"))?;
        }
    }
    drop(workload);

    report.attempted = rec.attempted;
    report.failed = rec.failed;
    report
        .notes
        .extend(rec.failures.iter().map(|f| format!("failed: {f}")));
    report.correct = rec.failed == 0 && input_ok && digest_ok;
    Ok(report)
}

/// Run a child process: this executable again, with every `INVERDA_*`
/// variable removed so that the engine runs on its defaults.
fn spawn(spec: ChildSpec) -> Result<Report, Error> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(spec.workload)
        .arg(spec.seed.to_string())
        .arg(spec.rounds.to_string())
        .arg(spec.scale.name())
        .arg(u8::from(spec.trace).to_string())
        .arg(u8::from(spec.setup_only).to_string());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("INVERDA_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting the child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {} ended with {}: {}",
            spec.workload,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

// ---------------------------------------------------------------------------
// The parent: measured runs, traced runs, repeats
// ---------------------------------------------------------------------------

/// One measured run: `setups - 1` set-up-only children and one full child,
/// all untraced. `setup_s` becomes the median over the `setups` processes.
fn measure(
    workload: &str,
    seed: u64,
    rounds: usize,
    scale: Scale,
    setups: usize,
) -> Result<Report, Error> {
    let spec = ChildSpec {
        workload,
        seed,
        rounds,
        scale,
        trace: false,
        setup_only: true,
    };
    let mut setup_s = Vec::new();
    let mut total = Report::passing();
    for i in 0..setups {
        let report = spawn(ChildSpec {
            setup_only: i + 1 < setups,
            ..spec
        })?;
        setup_s.push(report.metric("setup_s")?);
        total.absorb(&report, "");
        total.metrics = report.metrics;
        total.digest = report.digest;
    }
    total.metrics.insert("setup_s".into(), median(&setup_s));
    Ok(total)
}

/// One traced run: every workload traced once for its layer metrics, and the
/// named workload once more untraced for the tracing overhead.
fn measure_layers(named: &str, seed: u64) -> Result<Report, Error> {
    let mut merged = Report::passing();
    for workload in workloads::NAMES {
        let spec = ChildSpec {
            workload,
            seed,
            rounds: 1,
            scale: Scale::Trace,
            trace: true,
            setup_only: false,
        };
        let traced = spawn(spec)?;
        merged.absorb(&traced, &format!("{workload}: "));
        for m in metrics::PER_LAYER.iter().filter(|m| m.owner == workload) {
            merged.metrics.insert(m.name.into(), traced.metric(m.name)?);
        }
        if workload == named {
            let plain = spawn(ChildSpec {
                trace: false,
                ..spec
            })?;
            merged.absorb(&plain, &format!("{workload}, untraced: "));
            for name in ["harness.overhead_ratio", "harness.slowdown"] {
                merged.metrics.insert(name.into(), traced.metric(name)?);
            }
            merged.metrics.insert(
                "trace.overhead_ratio".into(),
                1.0 - traced.metric("ops_per_s")? / plain.metric("ops_per_s")?,
            );
        }
    }
    Ok(merged)
}

fn print_metrics(report: &Report, names: impl Iterator<Item = &'static str>) {
    for name in names {
        let Some(value) = report.metrics.get(name) else {
            continue;
        };
        let (better, moves) = match (metrics::end_to_end(name), metrics::layer(name)) {
            (Some(m), _) => (
                m.higher_is_better,
                format!("bound {:.0} %", m.bound * 100.0),
            ),
            (None, Some(m)) => (m.higher_is_better, format!("moves {}", m.moves)),
            (None, None) => continue,
        };
        println!(
            "  {name:<40} {value:>16.4} {:<6} {} is better; {moves}",
            metrics::unit_of(name),
            if better { "higher" } else { "lower" }
        );
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
}

fn print_environment() {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "environment: nproc {nproc}; engine thread width: default (INVERDA_* removed, so available_parallelism = {nproc}); \
         one client thread, closed loop; serving_pinned flush policy: {}",
        workloads::serving::FLUSH_POLICY
    );
}

/// The driver's result line.
fn result_json(report: &Report, names: impl Iterator<Item = &'static str>) -> String {
    let metrics: Vec<String> = names
        .map(|name| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                report.metrics[name],
                metrics::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn end_to_end_names() -> impl Iterator<Item = &'static str> {
    metrics::END_TO_END.iter().map(|m| m.name)
}

fn layer_names() -> impl Iterator<Item = &'static str> {
    metrics::PER_LAYER.iter().map(|m| m.name)
}

fn rounds_for(seconds: u64) -> usize {
    ((seconds / ROUND_SECONDS) as usize).max(MIN_ROUNDS)
}

/// `--name value` pairs after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, Error> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} wants a whole number, not {v}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn known(workload: &str) -> Result<(), Error> {
    if workloads::NAMES.contains(&workload) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload {workload}; the workloads are {}",
            workloads::NAMES.join(", ")
        ))
    }
}

fn cmd_run(flags: &Flags) -> Result<bool, Error> {
    let workload = flags.value("--workload").ok_or("run wants --workload")?;
    known(workload)?;
    let seed = flags.number("--seed", DEFAULT_SEED)?;
    let rounds = rounds_for(flags.number("--seconds", DEFAULT_SECONDS)?);
    print_environment();
    if flags.number("--trace", 0)? == 0 {
        println!("{workload}: seed {seed}, {rounds} rounds, {SETUPS} set-ups, tracing off");
        let report = measure(workload, seed, rounds, Scale::Full, SETUPS)?;
        print_metrics(&report, end_to_end_names());
        println!("{}", result_json(&report, end_to_end_names()));
    } else {
        println!("{workload}: seed {seed}, every workload traced for one short round");
        let report = measure_layers(workload, seed)?;
        print_metrics(&report, layer_names());
        println!("{}", result_json(&report, layer_names()));
    }
    // The verdict is the result line's `correct`; the driver wants exit code 0.
    Ok(true)
}

/// Every workload once; returns the reports in workload order.
fn run_all(seed: u64, smoke: bool) -> Result<Vec<Report>, Error> {
    let (scale, setups) = if smoke {
        (Scale::Smoke, 1)
    } else {
        (Scale::Full, SETUPS)
    };
    let mut reports = Vec::new();
    for workload in workloads::NAMES {
        let report = measure(workload, seed, rounds_for(DEFAULT_SECONDS), scale, setups)?;
        let why = workloads::WHY[workloads::NAMES
            .iter()
            .position(|n| *n == workload)
            .unwrap_or(0)];
        println!("{workload}: {why}");
        println!(
            "  {} ({} operations, {} failed, fail_ratio {}, digest {:016x})",
            if report.correct {
                "correct"
            } else {
                "INCORRECT"
            },
            report.attempted,
            report.failed,
            report.failed as f64 / report.attempted as f64,
            report.digest
        );
        print_metrics(&report, end_to_end_names());
        reports.push(report);
    }
    Ok(reports)
}

fn cmd_run_all(flags: &Flags) -> Result<bool, Error> {
    print_environment();
    let reports = run_all(flags.number("--seed", DEFAULT_SEED)?, flags.has("--smoke"))?;
    Ok(reports.iter().all(|r| r.correct))
}

fn cmd_trace(workload: &str, flags: &Flags) -> Result<bool, Error> {
    known(workload)?;
    print_environment();
    let report = spawn(ChildSpec {
        workload,
        seed: flags.number("--seed", DEFAULT_SEED)?,
        rounds: 1,
        scale: Scale::Trace,
        trace: true,
        setup_only: false,
    })?;
    println!(
        "{workload}: spans in {}",
        out_dir().join(format!("trace-{workload}.jsonl")).display()
    );
    print_metrics(&report, end_to_end_names().chain(layer_names()));
    Ok(report.correct)
}

/// `run-all` N times on one seed, so that every run is held to the pinned
/// digests. For every workload and metric: median, quartiles (as Python's
/// `statistics.quantiles(n=4)`) and (max - min) over the median, which must not
/// exceed half the metric's bound.
fn cmd_repeat(n: usize, flags: &Flags) -> Result<bool, Error> {
    if n < 2 {
        return Err("repeat wants at least 2 runs".into());
    }
    print_environment();
    let seed = flags.number("--seed", DEFAULT_SEED)?;
    let mut runs = Vec::new();
    let mut ok = true;
    for i in 0..n {
        println!("--- run {} of {n}", i + 1);
        let reports = run_all(seed, false)?;
        ok &= reports.iter().all(|r| r.correct);
        runs.push(reports);
    }
    let mut rows = Vec::new();
    println!("--- spreads over {n} runs");
    for (w, workload) in workloads::NAMES.iter().enumerate() {
        for m in metrics::END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r[w].metrics[m.name]).collect();
            let mid = median(&values);
            let (q1, q3) = quartiles(&values).expect("at least two runs");
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let range = (hi - lo) / mid;
            let within = range <= m.bound / 2.0;
            ok &= within;
            println!(
                "  {workload:<16} {:<14} median {mid:>14.4} {:<6} iqr/median {:>6.2} %  range/median {:>6.2} %{}",
                m.name,
                m.unit,
                (q3 - q1) / mid * 100.0,
                range * 100.0,
                if within { "" } else { "  TOO WIDE" }
            );
            rows.push(format!(
                "{{\"workload\": \"{workload}\", \"metric\": \"{}\", \"unit\": \"{}\", \"bound\": {}, \"median\": {mid}, \"q1\": {q1}, \"q3\": {q3}, \"range_over_median\": {range}, \"within_half_the_bound\": {within}, \"values\": {values:?}}}",
                m.name, m.unit, m.bound
            ));
        }
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("repeat.json");
    std::fs::write(&path, format!("[\n  {}\n]\n", rows.join(",\n  ")))
        .map_err(|e| e.to_string())?;
    println!("written to {}", path.display());
    Ok(ok)
}

fn cmd_child(args: &[String]) -> Result<bool, Error> {
    let [workload, seed, rounds, scale, trace, setup_only] = args else {
        return Err("child is started by this program only".into());
    };
    let report = run_child(ChildSpec {
        workload,
        seed: seed.parse().map_err(|_| "seed")?,
        rounds: rounds.parse().map_err(|_| "rounds")?,
        scale: Scale::parse(scale).ok_or("scale")?,
        trace: trace == "1",
        setup_only: setup_only == "1",
    })?;
    report.print();
    // A wrong result is the parent's to report; the child itself ran.
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(args.iter().skip(1).cloned().collect());
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&flags),
        Some("run-all") => cmd_run_all(&flags),
        Some("trace") => match args.get(1) {
            Some(workload) => cmd_trace(workload, &flags),
            None => Err("trace wants a workload".into()),
        },
        Some("repeat") => match args.get(1).and_then(|n| n.parse().ok()) {
            Some(n) => cmd_repeat(n, &flags),
            None => Err("repeat wants a number of runs".into()),
        },
        Some("child") => cmd_child(&args[1..]),
        _ => Err("usage: run --workload W --seed N --seconds S --trace 0|1 | run-all [--seed N] [--smoke] | trace WORKLOAD [--seed N] | repeat N [--seed N]".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a result was wrong, see the notes above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the build driver reads; the registry is what
    /// the program reports. They must list the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repo");
        for (name, why) in workloads::NAMES.iter().zip(workloads::WHY) {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
        }
        let better = |higher| if higher { "higher" } else { "lower" };
        for m in metrics::END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            );
            assert!(json.contains(&entry), "missing {entry}");
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in metrics::PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            );
            assert!(json.contains(&entry), "missing {entry}");
            assert!(
                m.owner == "*" || workloads::NAMES.contains(&m.owner),
                "{}",
                m.name
            );
        }
        let listed = workloads::NAMES.len() + metrics::END_TO_END.len() + metrics::PER_LAYER.len();
        assert_eq!(
            json.matches("\"name\": ").count(),
            listed,
            "an entry the registry lacks"
        );
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
        assert!(metrics::PER_LAYER.len() <= 128 && metrics::END_TO_END.len() <= 16);
    }

    #[test]
    fn seconds_buy_whole_rounds_and_never_fewer_than_three() {
        assert_eq!(rounds_for(1), 3);
        assert_eq!(rounds_for(12), 3);
        assert_eq!(rounds_for(DEFAULT_SECONDS), 3);
        assert_eq!(rounds_for(16), 4);
        assert_eq!(rounds_for(60), 15);
    }

    #[test]
    fn a_child_report_survives_the_pipe() {
        let mut report = Report {
            attempted: 12,
            failed: 1,
            correct: false,
            digest: 0xdead_beef,
            ..Report::default()
        };
        report.metrics.insert("setup_s".into(), 1.25);
        report.notes.push("failed: get.do: no such row".into());
        let mut text = String::new();
        for (name, value) in &report.metrics {
            text.push_str(&format!("M {name} {value}\n"));
        }
        text.push_str("N failed: get.do: no such row\nD 00000000deadbeef\nA 12 1\nC 0\n");
        let parsed = Report::parse(&text).expect("well-formed");
        assert_eq!(parsed.metrics, report.metrics);
        assert_eq!(parsed.notes, report.notes);
        assert_eq!(
            (
                parsed.attempted,
                parsed.failed,
                parsed.correct,
                parsed.digest
            ),
            (12, 1, false, 0xdead_beef)
        );
        assert!(Report::parse("M setup_s 1.0\n").is_err(), "no verdict line");
    }
}
