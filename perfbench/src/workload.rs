//! The three workloads and one campaign repetition over them.
//!
//! Why these three (see `README.md` for the full rationale):
//!
//! * `dispatch-mix` — the 18-dialect simulated fleet on the text path with
//!   1-row tables and the TLP, NoREC and rollback oracles (the isolation
//!   oracle is left out, see [`Workload::config`]): engine work per
//!   statement is tiny, so the platform's own layers (generator, render,
//!   parse, oracles, transactions, reducer) carry the time.
//! * `eval-read` — the same fleet on the AST path with row-heavy tables and
//!   the read-only oracles: the engine's read path carries the time, and
//!   render, parse and transactions are bypassed.
//! * `sqlite-wire` — the real `sqlite3` binary through a 2-connection pool:
//!   subprocess round trips carry the time; the simulated engine and the
//!   parser are bypassed.

use crate::spans::{self, SpanLog};
use crate::wrappers::{
    self, BackendCounts, CaseClock, SinkCounts, StampSink, TextAdapter, TextMode, TimedDriver,
};
use dbms_sim::{derive_dialect_seed, fleet, DialectPreset, ExecutionPath, SimulatedDbms};
use dbms_sqlite::SqliteProcDriver;
use sqlancer_core::{
    check_isolation, check_norec, check_rollback, check_tlp, render_report, Campaign,
    CampaignConfig, CampaignReport, DbmsConnection, Driver, OracleKind, OracleOutcome, Pool,
    ReducibleCase, ScheduleCase, SupervisorConfig, TraceHandle, TxnCase,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fleet, text path, 1-row tables, TLP/NoREC/rollback.
    DispatchMix,
    /// Fleet, AST path, 8-row inserts, TLP/NoREC.
    EvalRead,
    /// Real sqlite3, pool of 2, TLP/NoREC/rollback.
    SqliteWire,
}

/// The system under test behind one campaign of a repetition.
pub enum Backend {
    /// One simulated dialect.
    Sim(DialectPreset),
    /// The system `sqlite3` binary.
    Sqlite,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DispatchMix,
        Workload::EvalRead,
        Workload::SqliteWire,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DispatchMix => "dispatch-mix",
            Workload::EvalRead => "eval-read",
            Workload::SqliteWire => "sqlite-wire",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when the backend is a real process behind a wire.
    pub fn is_wire(self) -> bool {
        self == Workload::SqliteWire
    }

    fn path(self) -> ExecutionPath {
        match self {
            Workload::DispatchMix => ExecutionPath::Text,
            Workload::EvalRead | Workload::SqliteWire => ExecutionPath::Ast,
        }
    }

    fn pool_size(self) -> usize {
        match self {
            Workload::DispatchMix | Workload::EvalRead => 1,
            // At most one connection per CPU of the 2-CPU reference box.
            Workload::SqliteWire => 2,
        }
    }

    /// Databases per campaign and queries per database: a repetition
    /// takes well under a second on the reference box, so a run fits
    /// several passes.
    fn shape(self) -> (usize, usize) {
        match self {
            Workload::DispatchMix => (1, 100),
            Workload::EvalRead => (1, 50),
            Workload::SqliteWire => (2, 150),
        }
    }

    /// Sub-workloads a run cycles through (see [`sub_seeds`]): enough that
    /// one pass over them takes a few seconds, so a run averages over many
    /// independent campaigns: with fewer, larger ones the schemas of a few
    /// databases decide a seed's throughput and p99.
    fn sub_workloads(self) -> usize {
        match self {
            Workload::DispatchMix => 32,
            Workload::EvalRead => 128,
            Workload::SqliteWire => 32,
        }
    }

    /// Databases built per repetition, over all backends.
    pub fn databases_per_rep(self) -> usize {
        let backends = match self {
            Workload::DispatchMix | Workload::EvalRead => fleet().len(),
            Workload::SqliteWire => 1,
        };
        backends * self.shape().0
    }

    /// The campaign configuration for one backend (seed not yet derived).
    fn config(self, seed: u64) -> CampaignConfig {
        let oracles = match self {
            // No isolation oracle: it reports schedules that the fault-free
            // engine runs under snapshot isolation but that match no serial
            // order (see the ignored test
            // `isolation_oracle_passes_a_snapshot_isolation_schedule`), so
            // about one run in three would fail its false-positive check.
            // Put it back once that test passes.
            Workload::DispatchMix => vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Rollback],
            Workload::EvalRead => vec![OracleKind::Tlp, OracleKind::NoRec],
            Workload::SqliteWire => vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Rollback],
        };
        let mut config = CampaignConfig::builder()
            .seed(seed)
            .databases(self.shape().0)
            .ddl_per_database(12)
            .queries_per_database(self.shape().1)
            .oracles(oracles)
            .reduce_bugs(true)
            .max_reduction_checks(24)
            .build();
        config.generator.stats.query_threshold = 0.05;
        config.generator.stats.min_attempts = 30;
        match self {
            Workload::DispatchMix => config.generator.max_insert_rows = 1,
            // Row-heavy, but not so heavy that a few generated join cases
            // decide a run's throughput: with 24-row inserts a single case
            // took 0.85 s of a 4 s repetition and throughput varied 2x
            // between seeds.
            Workload::EvalRead => config.generator.max_insert_rows = 8,
            Workload::SqliteWire => {}
        }
        config
    }

    /// The backends of one repetition. `sqlite-wire` fails here, with a
    /// named error, when `sqlite3` is missing or does not answer: a silent
    /// skip would make its metrics disappear.
    pub fn backends(self) -> Result<Vec<Backend>, String> {
        match self {
            Workload::DispatchMix | Workload::EvalRead => {
                Ok(fleet().into_iter().map(Backend::Sim).collect())
            }
            Workload::SqliteWire => {
                check_sqlite(&SqliteProcDriver::system())?;
                Ok(vec![Backend::Sqlite])
            }
        }
    }
}

/// Connects once through `driver` (and drops the connection, which stops
/// its process), or fails with a named error.
fn check_sqlite(driver: &SqliteProcDriver) -> Result<(), String> {
    driver.connect().map(drop).map_err(|err| {
        format!("sqlite3-unavailable: workload sqlite-wire needs a working `sqlite3` binary: {err}")
    })
}

/// Trace data of one traced repetition.
pub struct TraceData {
    /// Every span, in open order.
    pub spans: Vec<spans::Span>,
    /// What the trace sink counted.
    pub sink: SinkCounts,
    /// What the backend wrappers counted.
    pub backend: BackendCounts,
}

/// One repetition: every backend's campaign, run once.
pub struct Rep {
    /// Index of the sub-workload (see [`sub_seeds`]) this repetition ran.
    pub sub: usize,
    /// Set-up time summed over backends, ns.
    pub setup_ns: u64,
    /// `Pool::new` (connect + capability probe) time per backend, ns.
    pub probe_ns: Vec<u64>,
    /// Campaign wall time summed over backends, set-up excluded, ns.
    pub wall_ns: u64,
    /// Cases run.
    pub cases: u64,
    /// Peak resident set size of the process during the repetition
    /// (`VmHWM`, reset before it starts), KiB.
    pub peak_rss_kib: u64,
    /// Cases lost to infrastructure failures or oracle panics.
    pub failed: u64,
    /// Supervisor retries.
    pub retries: u64,
    /// Supervision incidents.
    pub incidents: u64,
    /// FNV-1a digest of every report's `render_report`.
    pub digest: u64,
    /// Wall time of each case, first `begin_case` to `note_case_outcome`,
    /// and every backend's report, in backend order. [`Rep::slim`] drops
    /// them once they are counted; only the first pass keeps its reports,
    /// cut down to [`checked_part`], so memory does not grow with the
    /// repetitions a run fits.
    pub case_ns: Vec<u64>,
    /// See [`Rep::case_ns`].
    pub reports: Vec<CampaignReport>,
    /// Spans and counts, for traced repetitions.
    pub trace: Option<TraceData>,
}

impl Rep {
    /// Drops the per-case samples, the reports and the spans.
    pub fn slim(&mut self) {
        self.case_ns = Vec::new();
        self.reports = Vec::new();
        if let Some(trace) = self.trace.as_mut() {
            trace.spans = Vec::new();
        }
    }
}

fn backend_name(backend: &Backend) -> String {
    match backend {
        Backend::Sim(preset) => preset.profile.name.clone(),
        Backend::Sqlite => SqliteProcDriver::system().name().to_string(),
    }
}

/// The driver for one backend: the library's own, or in a traced run a
/// [`TimedDriver`] whose connections carry the timing and text adapters.
fn driver(workload: Workload, backend: &Backend, traced: bool) -> Arc<dyn Driver> {
    match (backend, traced) {
        (Backend::Sim(preset), false) => preset.driver(workload.path()),
        (Backend::Sqlite, false) => Arc::new(SqliteProcDriver::system()),
        (Backend::Sim(preset), true) => {
            let mode = match workload.path() {
                ExecutionPath::Text => TextMode::SimText,
                _ => TextMode::SimAst,
            };
            let bare = preset.clone();
            Arc::new(TimedDriver::new(
                preset.profile.name.clone(),
                preset.capability_for_path(workload.path()),
                Box::new(move || {
                    Ok(
                        Box::new(TextAdapter::new(Box::new(bare.instantiate()), mode))
                            as Box<dyn DbmsConnection>,
                    )
                }),
            ))
        }
        (Backend::Sqlite, true) => {
            let wire = SqliteProcDriver::system();
            Arc::new(TimedDriver::new(
                wire.name().to_string(),
                wire.capability(),
                Box::new(move || {
                    wire.connect().map(|conn| {
                        Box::new(TextAdapter::new(conn, TextMode::Wire)) as Box<dyn DbmsConnection>
                    })
                }),
            ))
        }
    }
}

/// The seeds of a run's sub-workloads, derived from `--seed`: a run cycles
/// through all of them, so its inputs are many independent campaigns and
/// the same `--seed` always gives the same ones.
pub fn sub_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    (0..workload.sub_workloads())
        .map(|i| splitmix64(seed ^ splitmix64(i as u64 + 1)))
        .collect()
}

pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set-up of one backend's campaign: driver, `Pool::new` (connect and
/// capability probe — for `sqlite-wire` this spawns the processes) and
/// `Campaign::new` with the pool's capability applied. Returns the pool,
/// the campaign and the `Pool::new` time in ns.
fn set_up(
    workload: Workload,
    backend: &Backend,
    seed: u64,
    traced: bool,
) -> Result<(Pool, Campaign, u64), String> {
    let driver = driver(workload, backend, traced);
    let probe_start = Instant::now();
    let pool = Pool::new(driver, workload.pool_size()).map_err(|err| {
        format!(
            "pool for {} failed to connect: {err}",
            backend_name(backend)
        )
    })?;
    let probe_ns = elapsed_ns(probe_start);
    let seed = derive_dialect_seed(seed, &backend_name(backend));
    let mut campaign = Campaign::new(workload.config(seed));
    campaign.apply_capability(&pool.capability().clone());
    Ok((pool, campaign, probe_ns))
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs every backend's campaign once, closed-loop on this thread, the way
/// `Campaign::run_pooled` does: capability applied, then
/// `run_supervised` over the pool — here through a [`CaseClock`].
pub fn run_rep(
    workload: Workload,
    backends: &[Backend],
    seed: u64,
    sub: usize,
    traced: bool,
) -> Result<Rep, String> {
    let mut rep = Rep {
        sub,
        setup_ns: 0,
        probe_ns: Vec::new(),
        wall_ns: 0,
        cases: 0,
        peak_rss_kib: 0,
        failed: 0,
        retries: 0,
        incidents: 0,
        digest: FNV_OFFSET,
        case_ns: Vec::new(),
        reports: Vec::new(),
        trace: None,
    };
    reset_peak_rss()?;
    let sink = Rc::new(RefCell::new(StampSink::default()));
    if traced {
        spans::install();
        wrappers::take_counts();
    }
    for backend in backends {
        let start = Instant::now();
        let (mut pool, mut campaign, probe_ns) = set_up(workload, backend, seed, traced)?;
        if traced {
            let handle: TraceHandle = sink.clone();
            campaign.set_trace(Some(handle));
        }
        rep.setup_ns += elapsed_ns(start);
        rep.probe_ns.push(probe_ns);
        let start = Instant::now();
        spans::begin_campaign();
        let mut clock = CaseClock::new(&mut pool);
        let report = campaign.run_supervised(&mut clock, &SupervisorConfig::default());
        spans::end_campaign();
        rep.wall_ns += elapsed_ns(start);
        rep.case_ns.append(&mut clock.case_ns);
        rep.cases += report.metrics.test_cases;
        rep.failed += report.robustness.infra_failures + report.robustness.oracle_panics;
        rep.retries += report.robustness.retries;
        rep.incidents += report.incidents.len() as u64;
        rep.digest = fnv1a(rep.digest, render_report(&report).as_bytes());
        rep.reports.push(report);
        drop(pool);
    }
    rep.peak_rss_kib = peak_rss_kib()?;
    if traced {
        let log: SpanLog = spans::take().expect("span log installed for the traced repetition");
        rep.trace = Some(TraceData {
            spans: log.spans,
            sink: sink.borrow().counts,
            backend: wrappers::take_counts(),
        });
    }
    Ok(rep)
}

/// The part of a first-pass report that the output checks read after the
/// timed region: the name, the degraded flag, the kept cases and, for the
/// real `sqlite3`, where every report counts, the bug reports.
pub fn checked_part(report: CampaignReport, workload: Workload) -> CampaignReport {
    CampaignReport {
        dbms_name: report.dbms_name,
        reports: if workload.is_wire() {
            report.reports
        } else {
            Vec::new()
        },
        prioritized_cases: report.prioritized_cases,
        txn_cases: report.txn_cases,
        schedule_cases: report.schedule_cases,
        degraded: report.degraded,
        ..CampaignReport::default()
    }
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident size, so each repetition's peak is its own.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("peak_rss_mib needs a writable /proc/self/clear_refs: {e}"))
}

/// The process's peak resident set size since the last reset, KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mib needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no readable VmHWM line in /proc/self/status".to_string())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Ground truth of bug reports.
#[derive(Debug, Default)]
pub struct GroundTruth {
    /// Distinct injected catalog bugs the kept cases bisect to.
    pub bugs: BTreeSet<&'static str>,
    /// Kept cases that no injected bug explains; on the real `sqlite3`
    /// every report counts, since it has no injected bugs.
    pub false_positives: u64,
    /// One line per false positive: backend and case kind.
    pub false_positive_cases: Vec<String>,
}

/// A kept bug case of any oracle.
enum KeptCase<'a> {
    Query(&'a ReducibleCase),
    Txn(&'a TxnCase),
    Schedule(&'a ScheduleCase),
}

impl KeptCase<'_> {
    fn kind(&self) -> String {
        match self {
            KeptCase::Query(case) => format!("{:?} query case", case.oracle),
            KeptCase::Txn(_) => "rollback case".into(),
            KeptCase::Schedule(_) => "isolation schedule".into(),
        }
    }

    /// The injected bugs whose fault, disabled alone, makes the case pass.
    fn causes(&self, dbms: &SimulatedDbms) -> Vec<&'static str> {
        match self {
            KeptCase::Query(case) => dbms.ground_truth_bugs(case),
            KeptCase::Txn(case) => dbms.ground_truth_txn_bugs(case),
            KeptCase::Schedule(case) => dbms.ground_truth_schedule_bugs(case),
        }
    }

    /// Whether the oracle flags the case when it is replayed on `dbms`.
    fn flags(&self, dbms: &mut SimulatedDbms) -> bool {
        let outcome = match self {
            KeptCase::Query(case) => {
                dbms.reset();
                for sql in &case.setup {
                    let _ = dbms.execute(sql);
                }
                let check = match case.oracle {
                    OracleKind::NoRec => check_norec,
                    _ => check_tlp,
                };
                check(
                    dbms,
                    &case.query,
                    &case.predicate,
                    &case.features,
                    &case.setup,
                )
            }
            KeptCase::Txn(case) => check_rollback(
                dbms,
                &case.table,
                &case.statements,
                &case.features,
                &case.setup,
            ),
            KeptCase::Schedule(case) => {
                check_isolation(dbms, &case.schedule, &case.features, &case.setup).outcome
            }
        };
        matches!(outcome, OracleOutcome::Bug(_))
    }
}

/// Resolves every kept case of one repetition against its dialect, adding
/// to `truth`. Single-fault bisection (`ground_truth_{bugs,txn_bugs,
/// schedule_bugs}`) names the bugs. A case it cannot name is still a real
/// detection when it reproduces on the dialect and the fault-free dialect
/// passes it — two injected faults that each cause the failure alone hide
/// each other from single-fault bisection. Any other case is a false
/// positive.
pub fn ground_truth(backends: &[Backend], reports: &[CampaignReport], truth: &mut GroundTruth) {
    for (backend, report) in backends.iter().zip(reports) {
        let Backend::Sim(preset) = backend else {
            for bug in &report.reports {
                truth.false_positives += 1;
                truth.false_positive_cases.push(format!(
                    "{}: {:?} {}",
                    report.dbms_name, bug.oracle, bug.description
                ));
            }
            continue;
        };
        let dbms = preset.instantiate();
        let kept = report
            .prioritized_cases
            .iter()
            .map(KeptCase::Query)
            .chain(report.txn_cases.iter().map(KeptCase::Txn))
            .chain(report.schedule_cases.iter().map(KeptCase::Schedule));
        for case in kept {
            let causes = case.causes(&dbms);
            let explained = !causes.is_empty()
                || (case.flags(&mut preset.instantiate())
                    && !case.flags(&mut preset.clone().without_engine_faults().instantiate()));
            if !explained {
                truth.false_positives += 1;
                truth
                    .false_positive_cases
                    .push(format!("{}: {}", report.dbms_name, case.kind()));
            }
            truth.bugs.extend(causes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbms_sim::preset_by_name;
    use sqlancer_core::{Schedule, SessionScript};

    /// A small campaign through every timing wrapper renders the same
    /// report, byte for byte, as the library's own pooled run.
    fn assert_wrapped_matches_unwrapped(workload: Workload, path: ExecutionPath, pool_size: usize) {
        for dialect in ["dolt", "mysql", "cratedb"] {
            let preset = preset_by_name(dialect).expect("fleet preset");
            let mut config = workload.config(derive_dialect_seed(11, dialect));
            config.queries_per_database = 40;
            let mut pool =
                Pool::new(preset.driver(path), pool_size).expect("simulated pool connects");
            let expected = render_report(
                &Campaign::new(config.clone()).run_pooled(&mut pool, &SupervisorConfig::default()),
            );

            let mode = if path == ExecutionPath::Text {
                TextMode::SimText
            } else {
                TextMode::SimAst
            };
            let bare = preset.clone();
            let timed = TimedDriver::new(
                dialect.to_string(),
                preset.capability_for_path(path),
                Box::new(move || {
                    Ok(
                        Box::new(TextAdapter::new(Box::new(bare.instantiate()), mode))
                            as Box<dyn DbmsConnection>,
                    )
                }),
            );
            let mut pool = Pool::new(Arc::new(timed), pool_size).expect("timed pool connects");
            let mut campaign = Campaign::new(config);
            campaign.apply_capability(&pool.capability().clone());
            let sink = Rc::new(RefCell::new(StampSink::default()));
            let handle: TraceHandle = sink.clone();
            campaign.set_trace(Some(handle));
            spans::install();
            spans::begin_campaign();
            let mut clock = CaseClock::new(&mut pool);
            let report = campaign.run_supervised(&mut clock, &SupervisorConfig::default());
            spans::end_campaign();
            let log = spans::take().expect("log installed");
            assert_eq!(
                clock.case_ns.len() as u64,
                report.metrics.test_cases,
                "one wall-time sample per case"
            );
            assert!(log.spans.iter().any(|s| s.layer == spans::Layer::Backend));
            assert_eq!(
                render_report(&report),
                expected,
                "{dialect} {path:?} pool {pool_size}: wrapped report differs"
            );
        }
    }

    #[test]
    fn wrappers_keep_reports_byte_identical_text_path() {
        for pool_size in [1, 2] {
            assert_wrapped_matches_unwrapped(Workload::DispatchMix, ExecutionPath::Text, pool_size);
        }
    }

    #[test]
    fn wrappers_keep_reports_byte_identical_ast_path() {
        for pool_size in [1, 2] {
            assert_wrapped_matches_unwrapped(Workload::DispatchMix, ExecutionPath::Ast, pool_size);
            assert_wrapped_matches_unwrapped(Workload::EvalRead, ExecutionPath::Ast, pool_size);
        }
    }

    #[test]
    fn injected_bugs_that_hide_each_other_are_not_false_positives() {
        // Two of cratedb's faults each make this TLP case fail on their
        // own, so disabling either one alone still fails it and
        // single-fault bisection names no bug; the fault-free dialect
        // passes it, so it is a real detection.
        let preset = preset_by_name("cratedb").expect("fleet preset");
        let sql = "SELECT t0.c0, t0.c1 FROM t0 LEFT JOIN t0 ON (NULL < t0.c2) \
                   WHERE (t0.c0 = t0.c1)";
        let Ok(sql_ast::Statement::Select(query)) = sql_parser::parse_statement(sql) else {
            panic!("the query parses as a SELECT");
        };
        let case = ReducibleCase {
            setup: vec![
                "CREATE TABLE t0 (c0 INTEGER, c1 INTEGER NOT NULL, c2 BOOLEAN DEFAULT TRUE)".into(),
                "INSERT INTO t0 (c0, c1, c2) VALUES (-2, -2, NULL), (NULL, 0, TRUE), \
                 (-3, 4, TRUE), (1, 0, TRUE), (6, 0, NULL), (7, 3, TRUE), (4, 7, TRUE)"
                    .into(),
            ],
            predicate: query.where_clause.clone().expect("the query has a WHERE"),
            query: *query,
            oracle: OracleKind::Tlp,
            features: Default::default(),
        };
        assert!(preset.instantiate().ground_truth_bugs(&case).is_empty());
        let report = CampaignReport {
            dbms_name: "cratedb".into(),
            prioritized_cases: vec![case],
            ..CampaignReport::default()
        };
        let mut truth = GroundTruth::default();
        ground_truth(&[Backend::Sim(preset)], &[report], &mut truth);
        assert_eq!(truth.false_positives, 0, "{:?}", truth.false_positive_cases);
    }

    /// The defect that keeps the isolation oracle out of `dispatch-mix`.
    /// Session 0 inserts 3 and then fails an update on the primary key;
    /// session 1, on a snapshot without the 3, deletes every row; both
    /// commit. Snapshot isolation admits the result {3}, which neither
    /// serial order gives ({} and {2}), so the oracle flags the schedule on
    /// vitess with no injected fault at all. Fails until the oracle or the
    /// engine settles which isolation contract schedules are checked
    /// against; run with `cargo test -- --ignored`.
    #[test]
    #[ignore = "known false positive of the isolation oracle on a fault-free dialect"]
    fn isolation_oracle_passes_a_snapshot_isolation_schedule() {
        let stmts = |sqls: &[&str]| -> Vec<sql_ast::Statement> {
            sqls.iter()
                .map(|sql| sql_parser::parse_statement(sql).expect("statement parses"))
                .collect()
        };
        let schedule = Schedule {
            tables: vec!["t1".into()],
            sessions: vec![
                SessionScript {
                    begin: sql_ast::BeginMode::Immediate,
                    statements: stmts(&[
                        "INSERT INTO t1 (c0) VALUES (3)",
                        "UPDATE t1 SET c0 = 2 WHERE (t1.c0 = t1.c0)",
                    ]),
                    commit: true,
                },
                SessionScript {
                    begin: sql_ast::BeginMode::Plain,
                    statements: stmts(&["DELETE FROM t1 WHERE (t1.c0 NOT LIKE '%a%')"]),
                    commit: true,
                },
            ],
            interleaving: vec![0, 1, 0, 0, 0, 1, 1],
        };
        let setup = vec![
            "CREATE TABLE t1 (c0 INTEGER PRIMARY KEY)".to_string(),
            "INSERT INTO t1 (c0) VALUES (5)".to_string(),
        ];
        let preset = preset_by_name("vitess").expect("fleet preset");
        let mut dbms = preset.without_engine_faults().instantiate();
        let verdict = check_isolation(&mut dbms, &schedule, &Default::default(), &setup);
        assert!(
            !matches!(verdict.outcome, OracleOutcome::Bug(_)),
            "{:?}",
            verdict.outcome
        );
    }

    #[test]
    fn missing_sqlite3_is_a_named_error() {
        let missing = SqliteProcDriver::with_binary("/nonexistent/sqlite3");
        let err = check_sqlite(&missing).expect_err("no such binary");
        assert!(err.starts_with("sqlite3-unavailable:"), "{err}");
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
