//! The repository benchmark: closed-loop SQLancer++ campaigns on three
//! named workloads, fuzzing-level end-to-end metrics, and a traced run that
//! splits campaign wall time by layer. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dispatch-mix --seed 7 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod calibrate;
mod spans;
mod workload;
mod wrappers;

use spans::{median, median_f64, ratio, tail, Layer, Op};
use sqlancer_core::{CampaignCoverage, CampaignMetrics};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Rep, Workload};
use wrappers::{BackendCounts, SinkCounts};

/// Passes over the sub-workloads at least, whatever `--seconds` says: the
/// report digest check needs every sub-workload run twice.
const MIN_PASSES: usize = 2;
/// Percentile reported as the tail, when enough samples exist.
const TAIL: f64 = 0.99;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; choose one of {}",
                        Workload::ALL.map(Workload::name).join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be 1..=120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // A printed result exits 0 whether or not its checks passed: the
    // verdict is the result's `correct` field.
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// One metric: name, value, unit, and its direction for the printed table.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
        note: String::new(),
    }
}

/// Everything one run measured.
struct Measured {
    /// Sub-workloads per pass.
    subs: usize,
    /// Untraced repetitions, pass by pass.
    plain: Vec<Rep>,
    /// Traced repetitions, each right after the untraced one of its
    /// sub-workload (empty for `--trace 0`).
    traced: Vec<Rep>,
    /// Span totals of the traced repetitions.
    layers: LayerTotals,
    /// Set-up time of every repetition, ns.
    setup_ns: Vec<u64>,
    /// `Pool::new` samples, ns.
    probe_ns: Vec<u64>,
    /// Per untraced pass: cases, median case wall time and the tail
    /// percentile with its case wall time (ns), over all the pass's cases.
    passes: Vec<PassStats>,
    /// Wall time of the measuring loop, s.
    timed_s: f64,
    /// Campaign metrics summed over the first pass.
    totals: CampaignMetrics,
    /// Coverage atlas merged over the first pass.
    coverage: CampaignCoverage,
    /// Wall time of every case of the first pass, sorted, ns.
    first_pass_ns: Vec<u64>,
    /// Reference kernel times, one before each untraced repetition, ns.
    host_ns: Vec<u64>,
}

/// Runs the workload until the budget is spent.
fn measure(args: &Args, backends: &[workload::Backend]) -> Result<Measured, String> {
    let workload = args.workload;
    let subs = workload::sub_seeds(workload, args.seed);
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut m = Measured {
        subs: subs.len(),
        plain: Vec::new(),
        traced: Vec::new(),
        layers: LayerTotals::default(),
        setup_ns: Vec::new(),
        probe_ns: Vec::new(),
        passes: Vec::new(),
        timed_s: 0.0,
        totals: CampaignMetrics::default(),
        coverage: CampaignCoverage::default(),
        first_pass_ns: Vec::new(),
        host_ns: Vec::new(),
    };
    // Closed loop: one campaign thread, each case issued after the previous
    // one completes. A run cycles through a fixed set of seeded
    // sub-workloads, whole passes at a time, until the budget is spent;
    // medians over its repetitions damp both machine noise and the
    // heavy-tailed cost of single generated cases. The traced run
    // alternates untraced and traced repetitions so both see the same
    // machine state.
    while m.passes.len() < MIN_PASSES || start.elapsed() < budget {
        let mut pass_ns: Vec<u64> = Vec::new();
        for (index, &sub) in subs.iter().enumerate() {
            m.host_ns.push(calibrate::sample());
            let mut rep = workload::run_rep(workload, backends, sub, index, false)?;
            pass_ns.extend(&rep.case_ns);
            let reports = std::mem::take(&mut rep.reports);
            rep.slim();
            if m.passes.is_empty() {
                // Fold the first pass's totals in now and keep only what
                // the checks read later, so the memory a run holds does not
                // grow with its repetitions and distort `peak_rss_mib`.
                for report in reports {
                    m.totals.merge(&report.metrics);
                    m.coverage.merge(&report.coverage);
                    rep.reports.push(workload::checked_part(report, workload));
                }
            }
            m.plain.push(rep);
            if args.trace {
                let mut rep = workload::run_rep(workload, backends, sub, index, true)?;
                m.layers.add(&rep);
                // Only the first traced repetition's spans are kept, for
                // the dump; the rest are folded into the totals and freed.
                if !m.traced.is_empty() {
                    rep.slim();
                }
                m.traced.push(rep);
            }
        }
        pass_ns.sort_unstable();
        if m.passes.is_empty() {
            m.first_pass_ns.clone_from(&pass_ns);
        }
        m.passes.push(PassStats {
            cases: pass_ns.len(),
            p50_ns: median(&pass_ns).unwrap_or(0),
            tail: tail(&pass_ns, TAIL),
        });
    }
    m.timed_s = start.elapsed().as_secs_f64();
    for rep in m.plain.iter().chain(&m.traced) {
        m.setup_ns.push(rep.setup_ns);
        m.probe_ns.extend(&rep.probe_ns);
    }
    Ok(m)
}

/// Case wall-time statistics of one untraced pass, over all its cases.
struct PassStats {
    cases: usize,
    p50_ns: u64,
    tail: Option<(f64, u64)>,
}

/// What the output checks found.
struct Outputs {
    /// Ground truth of the first pass's bug reports.
    truth: workload::GroundTruth,
    /// Cases attempted over every repetition.
    attempted: u64,
    /// Of those, cases lost to infrastructure failures or oracle panics.
    failed: u64,
    /// One line per violated check.
    failures: Vec<String>,
}

/// The output checks: every repetition of a sub-workload — untraced and
/// traced — renders byte-identical reports, none is degraded, and ground
/// truth confirms every bug reported.
fn check(backends: &[workload::Backend], m: &Measured) -> Outputs {
    let mut out = Outputs {
        truth: workload::GroundTruth::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let first_pass = &m.plain[..m.subs];
    for rep in m.plain.iter().chain(&m.traced) {
        let expected = first_pass[rep.sub].digest;
        if rep.digest != expected {
            out.failures.push(format!(
                "sub-workload {} rendered a different report digest ({:#018x} vs {expected:#018x})",
                rep.sub, rep.digest
            ));
        }
        out.attempted += rep.cases;
        out.failed += rep.failed;
    }
    for rep in first_pass {
        for report in &rep.reports {
            if report.degraded {
                out.failures
                    .push(format!("campaign on {} is degraded", report.dbms_name));
            }
        }
        // Ground truth runs after the timed region, on the first pass
        // (every later pass rendered the same reports).
        workload::ground_truth(backends, &rep.reports, &mut out.truth);
    }
    if out.truth.false_positives > 0 {
        out.failures.push(format!(
            "{} bug report(s) with no ground-truth bug: {}",
            out.truth.false_positives,
            out.truth.false_positive_cases.join("; ")
        ));
    }
    if m.totals.test_cases == 0 {
        out.failures.push("the campaign ran no cases".into());
    }
    out
}

fn cases_per_s(rep: &Rep) -> f64 {
    rep.cases as f64 / (rep.wall_ns as f64 / 1e9)
}

/// Runs the benchmark and prints its result.
fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let backends = workload.backends()?;
    let mut m = measure(args, &backends)?;
    let truth_start = Instant::now();
    let mut out = check(&backends, &m);
    let truth_s = truth_start.elapsed().as_secs_f64();

    let mut lines = String::new();
    let _ = writeln!(
        lines,
        "perfbench workload={} seed={} seconds={} trace={} sub-workloads={} reps={} \
         traced_reps={} (timed {:.1} s, checks and ground truth {truth_s:.1} s)",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.subs,
        m.plain.len(),
        m.traced.len(),
        m.timed_s,
    );
    let _ = writeln!(
        lines,
        "cases/s per repetition: {}",
        m.plain
            .iter()
            .map(|rep| format!("{:.0}", cases_per_s(rep)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics = if args.trace {
        let shares = m.layers.self_shares();
        let (metrics, covered) = layer_metrics(workload, &mut m);
        if covered < 0.9 {
            out.failures.push(format!(
                "layer self times cover {:.1}% of traced campaign time (< 90%)",
                covered * 100.0
            ));
        }
        let _ = writeln!(
            lines,
            "layer self times cover {:.2}% of traced campaign wall time:",
            covered * 100.0
        );
        for (layer, share) in &shares {
            let _ = writeln!(lines, "  {:<18} {:>6.2}%", layer.name(), share * 100.0);
        }
        if let Some(path) = write_span_dump(workload, args.seed, &m.traced[0]) {
            let _ = writeln!(lines, "span dump (first traced repetition): {path}");
        }
        metrics
    } else {
        end_to_end_metrics(&m, &out, &mut lines)
    };
    for metric in &metrics {
        let _ = writeln!(
            lines,
            "  {:<38} {:>16.6} {:<6} {:<6} {}",
            metric.name, metric.value, metric.unit, metric.better, metric.note
        );
    }
    for failure in &out.failures {
        let _ = writeln!(lines, "CHECK FAILED: {failure}");
    }
    print!("{lines}");
    let correct = out.failures.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// The end-to-end metrics of the untraced repetitions, plus the guards
/// that stay out of the JSON (written to `lines`).
fn end_to_end_metrics(m: &Measured, out: &Outputs, lines: &mut String) -> Vec<Metric> {
    let cps: Vec<f64> = m.plain.iter().map(cases_per_s).collect();
    // Percentiles are taken over all cases of a pass — every sub-workload
    // — and the median over passes is reported.
    let p50: Vec<f64> = m.passes.iter().map(|p| p.p50_ns as f64 / 1e3).collect();
    let tails: Vec<(f64, f64)> = m
        .passes
        .iter()
        .map(|p| p.tail.map_or((0.0, 0.0), |(q, ns)| (q, ns as f64 / 1e3)))
        .collect();
    let q = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let samples = m.passes.iter().map(|p| p.cases).min().unwrap_or(0);
    let peak_mib: Vec<f64> = m
        .plain
        .iter()
        .map(|rep| rep.peak_rss_kib as f64 / 1024.0)
        .collect();
    let mut setup_sorted = m.setup_ns.clone();
    setup_sorted.sort_unstable();
    let raw_cps = median_f64(&cps);
    let raw_p50 = median_f64(&p50);
    let raw_tail = median_f64(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    let raw_setup = median(&setup_sorted).unwrap_or(0) as f64 / 1e9;
    // The timing figures are scaled to the host speed at which the
    // reference kernel takes its nominal time (see `calibrate`): a slower
    // host stretches the kernel and the campaigns alike, so the scaled
    // figures move with the program and not with the host's load.
    let mut host = m.host_ns.clone();
    host.sort_unstable();
    let host_ns = median(&host).unwrap_or(0) as f64;
    let slowdown = host_ns / calibrate::NOMINAL_NS;
    let _ = writeln!(
        lines,
        "host reference: kernel median {:.3} ms over {} samples, nominal {:.3} ms: \
         host slowdown {slowdown:.4}\n  unscaled: cases_per_s {raw_cps:.1}, \
         case_p50_us {raw_p50:.3}, case_p99_us {raw_tail:.3}, setup_s {raw_setup:.6}",
        host_ns / 1e6,
        host.len(),
        calibrate::NOMINAL_NS / 1e6,
    );

    // The slowest 1% of the first pass's cases, and their share of case
    // time: how heavy the workload's tail is.
    let first_pass: Vec<u64> = m.first_pass_ns.iter().rev().copied().collect();
    let top: u64 = first_pass.iter().take(first_pass.len().div_ceil(100)).sum();
    let _ = writeln!(
        lines,
        "slowest 1% of first-pass cases: {:.1}% of case wall time; slowest (ms): {}",
        100.0 * ratio(top as f64, first_pass.iter().sum::<u64>() as f64),
        first_pass
            .iter()
            .take(5)
            .map(|ns| format!("{:.2}", *ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        lines,
        "guards kept out of the JSON metrics (they can read 0):\n  \
         bugs_found        {:>8}  count  higher  {}\n  \
         false_positives   {:>8}  count  lower   must be 0\n  \
         failed_case_share {:>8}  ratio  lower   {} of {} cases",
        out.truth.bugs.len(),
        out.truth.bugs.iter().copied().collect::<Vec<_>>().join(" "),
        out.truth.false_positives,
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted,
    );
    let mut list = vec![
        metric("cases_per_s", raw_cps * slowdown, "1/s", "higher"),
        metric("case_p50_us", raw_p50 / slowdown, "us", "lower"),
        metric("case_p99_us", raw_tail / slowdown, "us", "lower"),
        metric("setup_s", raw_setup / slowdown, "s", "lower"),
        metric("peak_rss_mib", median_f64(&peak_mib), "MiB", "lower"),
        metric("validity_rate", m.totals.validity_rate(), "ratio", "higher"),
        metric(
            "features_covered",
            m.coverage.distinct_features() as f64,
            "count",
            "higher",
        ),
    ];
    list[0].note = format!("median of {} reps; host-scaled", m.plain.len());
    list[1].note = format!(
        "median of {} passes, >= {samples} cases each; host-scaled",
        m.passes.len()
    );
    list[2].note = format!(
        "p{:.1}, the highest with >= 10 samples beyond; median of {} passes; host-scaled",
        q * 100.0,
        m.passes.len()
    );
    list[3].note = format!("median of {} set-ups; host-scaled", m.setup_ns.len());
    list[4].note = format!("VmHWM of a repetition; median of {} reps", m.plain.len());
    list
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Layer totals summed over the traced repetitions.
#[derive(Default)]
struct LayerTotals {
    campaign_ns: u64,
    unattributed_ns: u64,
    self_ns: BTreeMap<Layer, u64>,
    dur_ns: BTreeMap<Layer, u64>,
    count: BTreeMap<Layer, u64>,
    exec_self_ns: u64,
    exec_n: u64,
    query_self_ns: u64,
    query_self: Vec<u64>,
    rtt: Vec<u64>,
    checkpoint_ns: u64,
    oracle_calls: u64,
    reducer_calls: u64,
    sink: SinkCounts,
    backend: BackendCounts,
}

impl LayerTotals {
    fn add(&mut self, rep: &Rep) {
        let trace = rep
            .trace
            .as_ref()
            .expect("traced repetition carries a trace");
        let own = spans::self_times(&trace.spans);
        let (root_own, root_total) = spans::root_times(&trace.spans, &own);
        self.unattributed_ns += root_own;
        self.campaign_ns += root_total;
        for (span, &own_ns) in trace.spans.iter().zip(&own) {
            let dur = span.duration();
            *self.self_ns.entry(span.layer).or_default() += own_ns;
            *self.dur_ns.entry(span.layer).or_default() += dur;
            *self.count.entry(span.layer).or_default() += 1;
            if span.layer != Layer::Backend {
                continue;
            }
            match span.op {
                Op::Exec | Op::Query => {
                    if span.op == Op::Exec {
                        self.exec_self_ns += own_ns;
                        self.exec_n += 1;
                    } else {
                        self.query_self_ns += own_ns;
                        self.query_self.push(own_ns);
                    }
                    self.rtt.push(own_ns);
                    if span.phase.is_oracle() {
                        self.oracle_calls += 1;
                    } else if span.phase == Layer::Reducer {
                        self.reducer_calls += 1;
                    }
                }
                Op::Checkpoint => self.checkpoint_ns += dur,
                Op::Other => {}
            }
        }
        let s = &trace.sink;
        let t = &mut self.sink;
        for (sum, n) in t.cases.iter_mut().zip(s.cases) {
            *sum += n;
        }
        t.setup_statements += s.setup_statements;
        t.setup_ok += s.setup_ok;
        t.kept += s.kept;
        t.dropped += s.dropped;
        t.reductions += s.reductions;
        t.reduce_before += s.reduce_before;
        t.reduce_after += s.reduce_after;
        t.checkouts += s.checkouts;
        t.resyncs += s.resyncs;
        t.wire_bytes += s.wire_bytes;
        t.respawns += s.respawns;
        let b = &trace.backend;
        self.backend.statements += b.statements;
        self.backend.rejected += b.rejected;
        self.backend.queries_ok += b.queries_ok;
        self.backend.rows += b.rows;
    }

    /// Each layer's self time as a share of traced campaign wall time.
    fn self_shares(&self) -> Vec<(Layer, f64)> {
        self.self_ns
            .iter()
            .map(|(&layer, &ns)| (layer, ratio(ns as f64, self.campaign_ns as f64)))
            .collect()
    }

    fn self_of(&self, layer: Layer) -> f64 {
        self.self_ns.get(&layer).copied().unwrap_or(0) as f64
    }

    fn dur_of(&self, layer: Layer) -> f64 {
        self.dur_ns.get(&layer).copied().unwrap_or(0) as f64
    }

    fn count_of(&self, layer: Layer) -> f64 {
        self.count.get(&layer).copied().unwrap_or(0) as f64
    }
}

/// The per-layer metrics of the traced repetitions, and the share of
/// traced campaign wall time that layer self times cover.
fn layer_metrics(workload: Workload, m: &mut Measured) -> (Vec<Metric>, f64) {
    let (plain, traced, first_totals) = (&m.plain, &m.traced, &m.totals);
    let t = &mut m.layers;
    let reps = traced.len() as f64;
    let cases = t.sink.cases.iter().sum::<u64>() as f64;
    let databases = reps * workload.databases_per_rep() as f64;
    let oracle_layers = [
        Layer::OracleTlp,
        Layer::OracleNorec,
        Layer::OracleRollback,
        Layer::OracleIsolation,
    ];
    let oracle_self: f64 = oracle_layers.iter().map(|&l| t.self_of(l)).sum();
    let wire = workload.is_wire();
    let engine = |v: f64| if wire { 0.0 } else { v };
    let wire_only = |v: f64| if wire { v } else { 0.0 };
    let mut query_self = std::mem::take(&mut t.query_self);
    query_self.sort_unstable();
    let mut rtt = std::mem::take(&mut t.rtt);
    rtt.sort_unstable();
    let t = &*t;
    let per_oracle = |i: usize| ratio(t.dur_of(oracle_layers[i]), t.sink.cases[i] as f64);
    let us = |v: Option<u64>| v.unwrap_or(0) as f64 / 1e3;
    // Each traced repetition ran right after the untraced repetition of
    // the same sub-workload: the overhead is the median paired slowdown.
    let traced_over_plain: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| ratio(p.wall_ns as f64, t.wall_ns as f64))
        .collect();
    let retries: u64 = traced.iter().map(|rep| rep.retries).sum();
    let incidents: u64 = traced.iter().map(|rep| rep.incidents).sum();
    let campaign = t.campaign_ns as f64;
    let unattributed = ratio(t.unattributed_ns as f64, campaign);
    let mut probe_sorted = m.probe_ns.clone();
    probe_sorted.sort_unstable();
    let list = vec![
        metric(
            "generator.ns_per_case",
            ratio(t.self_of(Layer::Generator), cases),
            "ns",
            "lower",
        ),
        metric(
            "generator.share",
            ratio(t.self_of(Layer::Generator), campaign),
            "ratio",
            "lower",
        ),
        metric(
            "setup.ns_per_database",
            ratio(t.dur_of(Layer::Setup), databases),
            "ns",
            "lower",
        ),
        metric(
            "setup.ddl_valid_ratio",
            ratio(t.sink.setup_ok as f64, t.sink.setup_statements as f64),
            "ratio",
            "higher",
        ),
        metric(
            "oracle.self_ns_per_case",
            ratio(oracle_self, cases),
            "ns",
            "lower",
        ),
        metric("oracle.tlp.ns_per_case", per_oracle(0), "ns", "lower"),
        metric("oracle.norec.ns_per_case", per_oracle(1), "ns", "lower"),
        metric("oracle.rollback.ns_per_case", per_oracle(2), "ns", "lower"),
        metric(
            "oracle.dbms_calls_per_case",
            ratio(t.oracle_calls as f64, cases),
            "count",
            "lower",
        ),
        metric(
            "render.ns_per_stmt",
            ratio(t.self_of(Layer::Render), t.count_of(Layer::Render)),
            "ns",
            "lower",
        ),
        metric(
            "parse.ns_per_stmt",
            ratio(t.self_of(Layer::Parse), t.count_of(Layer::Parse)),
            "ns",
            "lower",
        ),
        metric(
            "engine.exec.ns_per_stmt",
            engine(ratio(t.exec_self_ns as f64, t.exec_n as f64)),
            "ns",
            "lower",
        ),
        metric(
            "engine.query.ns_per_stmt",
            engine(ratio(t.query_self_ns as f64, query_self.len() as f64)),
            "ns",
            "lower",
        ),
        metric(
            "engine.query.p99_us",
            engine(us(tail(&query_self, TAIL).map(|(_, v)| v))),
            "us",
            "lower",
        ),
        metric(
            "engine.rows_per_query",
            engine(ratio(t.backend.rows as f64, t.backend.queries_ok as f64)),
            "count",
            "higher",
        ),
        metric(
            "engine.rejected_ratio",
            engine(ratio(
                t.backend.rejected as f64,
                t.backend.statements as f64,
            )),
            "ratio",
            "lower",
        ),
        metric(
            "engine.checkpoint_restore_ns_per_case",
            engine(ratio(t.checkpoint_ns as f64, cases)),
            "ns",
            "lower",
        ),
        metric(
            "engine.cow_clone_rate",
            first_totals.cow_clone_rate(),
            "ratio",
            "lower",
        ),
        metric(
            "engine.txn_begins_per_case",
            ratio(
                first_totals.txn_begins as f64,
                first_totals.test_cases as f64,
            ),
            "count",
            "lower",
        ),
        metric(
            "prioritizer.keep_ratio",
            ratio(t.sink.kept as f64, (t.sink.kept + t.sink.dropped) as f64),
            "ratio",
            "lower",
        ),
        metric(
            "reducer.ns_per_bug",
            ratio(t.dur_of(Layer::Reducer), t.sink.reductions as f64),
            "ns",
            "lower",
        ),
        metric(
            "reducer.dbms_calls_per_bug",
            ratio(t.reducer_calls as f64, t.sink.reductions as f64),
            "count",
            "lower",
        ),
        metric(
            "reducer.stmt_shrink_ratio",
            ratio(t.sink.reduce_after as f64, t.sink.reduce_before as f64),
            "ratio",
            "lower",
        ),
        metric(
            "pool.self_ns_per_case",
            ratio(t.self_of(Layer::Pool), cases),
            "ns",
            "lower",
        ),
        metric(
            "pool.checkouts",
            t.sink.checkouts as f64 / reps,
            "count",
            "lower",
        ),
        metric(
            "pool.resyncs",
            t.sink.resyncs as f64 / reps,
            "count",
            "lower",
        ),
        metric(
            "pool.probe_ms",
            median(&probe_sorted).unwrap_or(0) as f64 / 1e6,
            "ms",
            "lower",
        ),
        metric(
            "wire.rtt_p50_us",
            wire_only(us(median(&rtt))),
            "us",
            "lower",
        ),
        metric(
            "wire.rtt_p99_us",
            wire_only(us(tail(&rtt, TAIL).map(|(_, v)| v))),
            "us",
            "lower",
        ),
        metric(
            "wire.bytes_per_stmt",
            wire_only(ratio(t.sink.wire_bytes as f64, t.backend.statements as f64)),
            "B",
            "lower",
        ),
        metric(
            "wire.respawns",
            t.sink.respawns as f64 / reps,
            "count",
            "lower",
        ),
        metric(
            "supervisor.retries",
            retries as f64 / reps,
            "count",
            "lower",
        ),
        metric(
            "supervisor.incidents",
            incidents as f64 / reps,
            "count",
            "lower",
        ),
        metric(
            "trace.overhead",
            1.0 - median_f64(&traced_over_plain),
            "ratio",
            "lower",
        ),
        metric(
            "campaign.unattributed_share",
            unattributed,
            "ratio",
            "lower",
        ),
    ];
    (list, 1.0 - unattributed)
}

/// Writes the first traced repetition's spans to `.bench_out/` in the
/// working directory; returns the path, or `None` (with a warning) when
/// the file cannot be written — the dump is a diagnostic, not a result.
fn write_span_dump(workload: Workload, seed: u64, rep: &Rep) -> Option<String> {
    let trace = rep.trace.as_ref()?;
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{seed}.tsv", workload.name()));
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::dump(&trace.spans)));
    match result {
        Ok(()) => Some(path.display().to_string()),
        Err(err) => {
            eprintln!("perfbench: span dump not written: {err}");
            None
        }
    }
}
