//! Campaign-throughput benchmark: the same fixed-seed fleet campaign run
//! through paired comparisons, each isolating one variable —
//!
//! * **dispatch** (tiny 1-row tables, so per-statement cost dominates):
//!   the legacy `text` path (render → lex → parse per statement) vs the
//!   `ast` fast path;
//! * **eval** (row-heavy tables, so per-row cost dominates): the AST path
//!   with the tree-walking expression evaluator (`ast_tree`) vs the
//!   closure-compiled evaluator (`ast`, the default);
//! * **txn** (the eval workload with the rollback oracle in the schedule):
//!   every third test case is a multi-statement `BEGIN…ROLLBACK`/
//!   `BEGIN…COMMIT` session with setup-replay rebuilds — paired against
//!   the eval workload's compiled arm and reported as a `txn_overhead`
//!   ratio;
//! * **concurrency** (the eval workload with the isolation oracle in the
//!   schedule): every third test case is a two-session concurrent schedule
//!   replayed serially in both commit orders — paired against the eval
//!   workload's compiled arm and reported as sessions/sec (two concurrent
//!   sessions per schedule), the fleet-wide conflict-abort rate and an
//!   `isolation_throughput_ratio`;
//! * **parallel**: the eval workload's compiled arm on one worker vs all
//!   available workers;
//! * **snapshot** (micro): `BEGIN`/`ROLLBACK` churn over a row-heavy
//!   engine database, reporting `begin_ns_per_table` (the run also asserts
//!   that pure churn performs **zero** CoW row clones);
//! * **robustness** (fault storm): one supervised campaign over a backend
//!   injecting every infrastructure fault kind, reporting
//!   incident/retry/watchdog counters and asserting that the storm never
//!   surfaces as false-positive logic bugs;
//! * **observability** (tracing overhead): the txn workload on one dialect
//!   untraced vs traced (summary, flight recorder, JSONL) — the traced
//!   campaign must keep at least `min_traced_throughput_ratio` of the
//!   untraced throughput and produce a byte-identical report (tracing
//!   observes, never perturbs);
//! * **coverage** (atlas + directed scheduling): the txn workload with
//!   atlas accounting off vs on — the atlas-enabled campaign must keep at
//!   least `min_coverage_throughput_ratio` of the accounting-free
//!   throughput and produce a byte-identical report — plus one
//!   coverage-directed run, which must reach at least the uniform run's
//!   distinct-feature coverage at the same case budget;
//! * **resilience** (self-healing connection layer): the same campaign
//!   through a probing pool against a healthy backend and against a flaky
//!   one (capability lie + probe-time crash + post-respawn flapping) — the
//!   flaky campaign must be fuzzed to completion with zero false-positive
//!   logic bugs, keeping at least `min_probed_throughput_ratio` of the
//!   healthy run's throughput.
//!
//! Every pair is timed by one estimator, [`time_pair`]: one untimed
//! warm-up run per arm, then interleaved repetitions with alternating arm
//! order, each arm's **median** elapsed time (every `elapsed_s` in the
//! artifact is such a median) and the median of the per-repetition ratios
//! (every gated ratio).
//!
//! Writes `BENCH_campaign.json` (`schema_version` 9) with queries/sec per
//! arm, the AST/text, compiled/tree, txn-overhead, isolation, tracing,
//! coverage and probed ratios, CoW effectiveness counters, the fault-storm
//! `robustness` block, the `resilience`, `observability` and `coverage`
//! blocks, the parallel/serial speedup, and the committed `ci_floors` that
//! `ci.sh` gates regressions against. The written file is validated before
//! the process exits: malformed or partial output is a non-zero exit.
//!
//! The gate modes check what no test checks — ratios against floors and
//! whole-campaign attribution. The byte-identity contracts (worker count,
//! pool size, execution path, kill-and-resume) live in the test suites
//! named in each gate's doc:
//!
//! * `--partitioned-check [dialect]`: the sharded campaign's speedup from
//!   one worker to all available workers (armed on multi-CPU machines);
//! * `--fault-storm-check [dialect]`: a full fault storm completes clean,
//!   observes every fault kind with clean bisection and reports zero
//!   false-positive logic bugs;
//! * `--trace-check [dialect]`: the traced/untraced throughput floor;
//! * `--coverage-check [dialect]`: directed ≥ uniform coverage, the
//!   atlas/baseline throughput floor and the flushed JSONL atlas line;
//! * `--flaky-check [dialect]`: the flaky backend completes clean with
//!   full incident attribution, within the probed throughput floor;
//! * `--sqlite-check`: a clean campaign against the system `sqlite3`.
//!
//! Usage:
//!   `campaign_throughput [queries_per_database] [output_path]`
//!   `campaign_throughput --validate <path>`
//!   `campaign_throughput --partitioned-check [dialect]`
//!   `campaign_throughput --fault-storm-check [dialect]`
//!   `campaign_throughput --trace-check [dialect]`
//!   `campaign_throughput --coverage-check [dialect]`
//!   `campaign_throughput --flaky-check [dialect]`
//!   `campaign_throughput --sqlite-check`

use dbms_sim::{
    available_threads, fleet, fleet_drivers, observed_infra_kinds, preset_by_name, CampaignRun,
    DialectPreset, ExecutionPath, FaultyConfig, InfraFaultKind, RunOutcome,
};
use dbms_sqlite::SqliteProcDriver;
use sqlancer_core::driver::{Driver, Pool};
use sqlancer_core::{
    first_divergence, render_report, silence_infra_panics, validate_jsonl, Campaign,
    CampaignConfig, CampaignReport, OracleKind, SupervisorConfig, TraceHandle, Tracer,
    INFRA_MARKER,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The version of the JSON layout this binary writes. Bump when keys are
/// added or renamed so the CI gate can evolve without breaking old files.
const SCHEMA_VERSION: u32 = 9;

/// Committed regression floors, written into the benchmark artifact and
/// enforced by `ci.sh` against the smoke run. Deliberately conservative:
/// the smoke run is short and the CI machine is shared, so the floors sit
/// well below the steady-state ratios recorded in `BENCH_campaign.json`.
const FLOOR_AST_OVER_TEXT: f64 = 1.4;
const FLOOR_COMPILED_OVER_TREE: f64 = 1.02;
/// The txn workload (rollback oracle every third case, with its
/// reset-and-replay arms) must keep at least this fraction of the eval
/// workload's test-case throughput. Raised from the pre-CoW 0.05 now that
/// `BEGIN` snapshots are O(tables): the steady-state ratio sits near 1.0,
/// and this floor still leaves generous CI-variance headroom while
/// catching any return of the per-BEGIN deep clone.
const FLOOR_TXN_THROUGHPUT_RATIO: f64 = 0.45;
/// The concurrency workload (isolation oracle every third case: two
/// concurrent sessions plus up to two serial replays, each with a
/// setup-replay rebuild) must keep at least this fraction of the eval
/// workload's test-case throughput. Raised from the pre-CoW 0.02 for the
/// same reason as the txn floor — snapshot workspaces no longer clone row
/// data at `BEGIN`.
const FLOOR_ISOLATION_THROUGHPUT_RATIO: f64 = 0.45;
/// A campaign run with the full tracing stack attached (deterministic
/// summary, flight recorder, JSONL dump) must keep at least this fraction
/// of the untraced campaign's throughput — the observability budget is
/// ≤5% overhead. The deterministic plane is counter bumps and bounded
/// event pushes, so the steady-state ratio sits at ~1.0; the floor is the
/// budget itself because the pair is timed like the coverage pair (nine
/// interleaved repetitions at ten times [`INSTRUMENT_CASE_BUDGET`]).
const FLOOR_TRACED_THROUGHPUT_RATIO: f64 = 0.95;
/// A campaign run with atlas accounting enabled (per-case feature
/// observation, engine-plane polls, saturation windows) must keep at
/// least this fraction of the accounting-free baseline's throughput. The
/// accounting is set unions and counter bumps charged once per case —
/// never per statement, never per row — so the steady-state ratio sits at
/// ~1.0 and the floor is the observability budget itself (the same ≤5%
/// deal the tracer gets). The coverage-*directed* scheduler is priced
/// separately and not gated: steering changes which SQL is generated, so
/// its elapsed ratio measures workload content, not instrumentation.
/// Enforced at full strength by `--coverage-check`; the smoke artifact's
/// regression floor is [`SMOKE_FLOOR_COVERAGE_THROUGHPUT_RATIO`].
const FLOOR_COVERAGE_THROUGHPUT_RATIO: f64 = 0.95;
/// The committed `ci_floors` value the smoke perf gate compares against.
/// The smoke measurement runs right after the heavier fleet and tracing
/// pairs in the same process, where cgroup-quota throttling adds a few
/// percent of one-sided noise even to the median-of-pairs estimator, so its
/// floor only arms against gross regressions — the strict
/// [`FLOOR_COVERAGE_THROUGHPUT_RATIO`] budget is held by the dedicated
/// `--coverage-check` gate, which runs the same instrument cold.
const SMOKE_FLOOR_COVERAGE_THROUGHPUT_RATIO: f64 = 0.90;
/// A campaign run through the probing pool against the flaky backend
/// (capability lie, probe-time crash, post-respawn flapping — see
/// `FaultyConfig::flaky`) must keep at least this fraction of the same
/// campaign's throughput against the healthy backend. The flaky run pays
/// for real recovery work — whole-case retries with setup replay after
/// probe-time crashes, double retries while the backend flaps, and the
/// capability downgrade reshaping the workload — so the floor only arms
/// against the self-healing layer becoming pathologically expensive
/// (e.g. re-probing per case instead of per connect/re-sync).
const FLOOR_PROBED_THROUGHPUT_RATIO: f64 = 0.25;
/// Case budget of the two observe-only instruments, tracing and the
/// coverage atlas. Their timing pairs run 10x this; the uniform and
/// directed feature-coverage arms run exactly this. Pinned — like the
/// instruments' seeds — rather than scaled with the artifact budget: the
/// directed-vs-uniform comparison is seed-and-budget-specific, and an
/// observer's per-case cost is flat while cases get cheaper as the profile
/// learns, so each ratio should price the same workload in the smoke gate,
/// the CI gate and the committed artifact.
const INSTRUMENT_CASE_BUDGET: usize = 120;

/// Repetitions of a timed pair: five alternating-order repetitions give a
/// median that one preempted repetition cannot move.
const PAIR_REPS: usize = 5;
/// Repetitions of a pair whose ratio is gated close to its steady state
/// (the observe-only instruments at a 0.95 floor, the sharded speedup at
/// 1/1.10): nine, so up to four outlying repetitions leave the median
/// alone.
const TIGHT_PAIR_REPS: usize = 9;

fn base_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(0xBE)
        .databases(2)
        .ddl_per_database(12)
        .queries_per_database(queries_per_database)
        .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
        .reduce_bugs(false)
        .max_reduction_checks(24)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

/// The dispatch workload: 1-row tables, so each statement's cost is
/// dominated by how it reaches the engine (render/lex/parse vs direct
/// AST). Identical to the PR 1 benchmark configuration.
fn dispatch_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = base_config(queries_per_database);
    config.generator.max_insert_rows = 1;
    config
}

/// The eval workload: row-heavy tables, so each statement's cost is
/// dominated by per-row expression evaluation — the regime the compiled
/// evaluator targets (and the realistic one: real tables have rows).
fn eval_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = base_config(queries_per_database);
    config.generator.max_insert_rows = 24;
    config
}

/// The txn workload: the eval workload with the rollback oracle added to
/// the schedule, so every third test case is a transactional session (the
/// first genuinely stateful workload the campaign loop drives).
fn txn_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = eval_config(queries_per_database);
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Rollback];
    config
}

/// The concurrency workload: the eval workload with the isolation oracle
/// added, so every third test case is a two-session concurrent schedule
/// (snapshot workspaces, first-committer-wins validation, serial replays).
fn concurrency_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = eval_config(queries_per_database);
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Isolation];
    config
}

/// Estimated DBMS-visible statements per oracle test case, per workload.
///
/// TLP issues 4 derived queries per case and NoREC 2, so the alternating
/// dispatch/eval schedule averages 3. A rollback-oracle case is far
/// heavier: three setup-replay rebuilds (12 statements each with this
/// configuration), four fingerprint probes, the session body executed
/// three times (~2.5 statements per execution) and six transaction-control
/// statements — roughly 54 — so the three-oracle txn schedule averages
/// about (4 + 2 + 54) / 3 = 20. An isolation-oracle schedule is of the
/// same order (three rebuilds, two concurrent sessions' scripts, up to two
/// serial replays, per-table probes), so the concurrency mix reuses the
/// estimate. These are estimates for the reported throughput numbers, not
/// measured counts.
const STMTS_PER_CASE_TLP_NOREC: f64 = 3.0;
const STMTS_PER_CASE_TXN_MIX: f64 = 20.0;
const STMTS_PER_CASE_ISOLATION_MIX: f64 = 20.0;

struct Arm {
    label: &'static str,
    elapsed_s: f64,
    /// Estimated statements per test case for this arm's oracle schedule.
    stmts_per_case: f64,
    report: RunOutcome,
}

impl Arm {
    /// Estimated DBMS-visible statements issued: DDL/DML plus the derived
    /// oracle statements (see the `STMTS_PER_CASE_*` constants).
    fn statements(&self) -> u64 {
        self.report.totals.ddl_statements
            + (self.stmts_per_case * self.report.totals.test_cases as f64) as u64
    }

    fn test_cases_per_sec(&self) -> f64 {
        self.report.totals.test_cases as f64 / self.elapsed_s
    }

    /// Concurrent sessions opened per second: every isolation schedule
    /// drives two live sessions over one engine (the serial-replay sessions
    /// are the oracle's bookkeeping, not the workload).
    fn sessions_per_sec(&self) -> f64 {
        2.0 * self.report.totals.isolation_schedules as f64 / self.elapsed_s
    }

    fn queries_per_sec(&self) -> f64 {
        self.stmts_per_case * self.report.totals.test_cases as f64 / self.elapsed_s
    }

    fn json(&self) -> String {
        format!(
            "{{\"elapsed_s\": {:.4}, \"test_cases\": {}, \"ddl_statements\": {}, \
             \"statements\": {}, \"test_cases_per_sec\": {:.1}, \"queries_per_sec\": {:.1}, \
             \"detected_bug_cases\": {}}}",
            self.elapsed_s,
            self.report.totals.test_cases,
            self.report.totals.ddl_statements,
            self.statements(),
            self.test_cases_per_sec(),
            self.queries_per_sec(),
            self.report.totals.detected_bug_cases,
        )
    }
}

/// One timed pair of arms: each arm's median elapsed time, the median of
/// the per-repetition `a/b` elapsed ratios, and each arm's last result.
struct Pair<A, B> {
    a_s: f64,
    b_s: f64,
    /// Median per-repetition `a_s / b_s`: arm `b`'s throughput as a
    /// fraction of arm `a`'s when both arms do the same work. The two
    /// arms of a repetition run back to back, so a sustained load spike
    /// on a shared machine slows both about equally and the pair's ratio
    /// stays unbiased; the median then trims the repetitions a preemption
    /// hit in either direction.
    ratio: f64,
    a: A,
    b: B,
}

/// The one timing estimator: runs arms `a` and `b` once each untimed — a
/// fresh process's first runs pay for heap growth and page faults that
/// later runs do not — and then for `reps` timed repetitions, alternating
/// which arm goes first: under cgroup CPU-quota throttling the first arm
/// of a pair tends to get the burst and the second the throttle, so a
/// fixed order biases the ratio one way. Each call is timed whole. The
/// campaigns are deterministic, so every run of an arm yields the same
/// result and the last one is kept.
fn time_pair<A, B>(reps: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> Pair<A, B> {
    let (mut a_last, mut b_last) = (a(), b());
    let (mut a_times, mut b_times) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..reps {
        for a_turn in [rep % 2 == 0, rep % 2 != 0] {
            // The previous result is dropped outside the timed region.
            let start = Instant::now();
            if a_turn {
                let result = a();
                a_times.push(start.elapsed().as_secs_f64());
                a_last = result;
            } else {
                let result = b();
                b_times.push(start.elapsed().as_secs_f64());
                b_last = result;
            }
        }
    }
    let ratios = a_times.iter().zip(&b_times).map(|(a, b)| a / b).collect();
    Pair {
        a_s: median(a_times),
        b_s: median(b_times),
        ratio: median(ratios),
        a: a_last,
        b: b_last,
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One fleet campaign of `config` on `path`, as a [`time_pair`] arm.
fn fleet_arm(config: &CampaignConfig, path: ExecutionPath) -> impl FnMut() -> RunOutcome + '_ {
    move || CampaignRun::fleet(fleet_drivers(path), config.clone()).run()
}

fn preset_or_exit(dialect: &str) -> DialectPreset {
    preset_by_name(dialect).unwrap_or_else(|| {
        eprintln!("unknown dialect {dialect}");
        std::process::exit(1);
    })
}

/// Fails the gate when `actual` differs from `expected`, naming the first
/// diverging line of the two renderings.
fn fail_on_divergence(what: &str, expected: &str, actual: &str) {
    if let Some(divergence) = first_divergence(expected, actual) {
        eprintln!("FAIL: {what} diverged: {divergence}");
        std::process::exit(1);
    }
}

// ------------------------------------------------------- snapshot micro ----

/// Result of the `BEGIN`/`ROLLBACK` churn micro-workload.
struct SnapshotMicro {
    tables: usize,
    rows_per_table: usize,
    iterations: usize,
    begin_ns_per_table: f64,
    tables_snapshotted: u64,
    tables_cow_cloned: u64,
}

/// Measures pure snapshot cost: `BEGIN`/`ROLLBACK` churn over a row-heavy
/// database. With copy-on-write storage every `BEGIN` shares table
/// versions by pointer, so the per-table cost is row-count-independent and
/// the churn performs zero CoW row clones — both are asserted, not just
/// reported.
fn snapshot_micro() -> SnapshotMicro {
    use sql_engine::{Engine, EngineConfig};
    use sql_parser::parse_statement;
    const TABLES: usize = 8;
    const ROWS_PER_TABLE: usize = 384;
    const BATCH: usize = 32;
    const ITERATIONS: usize = 4000;
    let engine = Engine::new(EngineConfig::dynamic());
    let mut session = engine.session();
    let mut run = |sql: &str| {
        session
            .execute(&parse_statement(sql).expect("bench SQL parses"))
            .expect("bench SQL executes");
    };
    for t in 0..TABLES {
        run(&format!("CREATE TABLE t{t} (c0 INTEGER, c1 TEXT)"));
        for batch in 0..(ROWS_PER_TABLE / BATCH) {
            let rows: Vec<String> = (0..BATCH)
                .map(|i| format!("({}, 'r{}')", batch * BATCH + i, i))
                .collect();
            run(&format!(
                "INSERT INTO t{t} (c0, c1) VALUES {}",
                rows.join(", ")
            ));
        }
    }
    let before = engine.cow_stats();
    let start = Instant::now();
    for _ in 0..ITERATIONS {
        run("BEGIN");
        run("ROLLBACK");
    }
    let elapsed = start.elapsed();
    let after = engine.cow_stats();
    assert_eq!(
        after.tables_cow_cloned, before.tables_cow_cloned,
        "BEGIN/ROLLBACK churn must not clone row data"
    );
    SnapshotMicro {
        tables: TABLES,
        rows_per_table: ROWS_PER_TABLE,
        iterations: ITERATIONS,
        begin_ns_per_table: elapsed.as_nanos() as f64 / (ITERATIONS * TABLES) as f64,
        tables_snapshotted: after.tables_snapshotted - before.tables_snapshotted,
        tables_cow_cloned: after.tables_cow_cloned - before.tables_cow_cloned,
    }
}

// ------------------------------------------------- partitioned check ----

/// Times within-dialect database sharding: one worker against all
/// available workers. The bound arms only on machines with real
/// parallelism and is deliberately loose — sharding must not make the
/// campaign more than 10% slower; demonstrating scaling is the wider
/// machine's job. That the two runs' reports and learned profiles are
/// byte-identical is held by the runner's
/// `partitioned_run_is_identical_for_any_thread_count` test.
fn partitioned_check(dialect: &str) -> ! {
    let driver = preset_or_exit(dialect).driver(ExecutionPath::Ast);
    let mut config = base_config(60);
    config.databases = 4;
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Isolation];
    let threads = available_threads();
    let workers = threads.max(2);
    let sharded = |workers| {
        let run = CampaignRun {
            workers,
            ..CampaignRun::sharded(Arc::clone(&driver), config.clone())
        };
        move || run.run()
    };
    let pair = time_pair(TIGHT_PAIR_REPS, sharded(1), sharded(workers));
    let (serial_s, parallel_s, speedup) = (pair.a_s, pair.b_s, pair.ratio);
    println!(
        "partitioned({dialect}): serial {serial_s:.3}s, {workers} workers {parallel_s:.3}s \
         (median x{speedup:.2} over {TIGHT_PAIR_REPS} interleaved pairs)"
    );
    if threads > 1 && speedup * 1.10 < 1.0 {
        eprintln!(
            "FAIL: partitioned campaign slower with {threads} workers \
             (median speedup x{speedup:.2}, bound x{:.2})",
            1.0 / 1.10
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

// ------------------------------------------------- fault-storm gate ----

/// The supervised fault-storm campaign configuration: every infrastructure
/// fault armed on the backend, the full oracle schedule on the platform.
fn storm_campaign_config() -> CampaignConfig {
    let mut config = base_config(120);
    config.seed = 0x57042;
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Rollback];
    config
}

fn storm_preset(dialect: &str, faults: FaultyConfig) -> DialectPreset {
    preset_or_exit(dialect).with_infra_faults(faults)
}

fn run_storm(dialect: &str, faults: FaultyConfig) -> CampaignReport {
    let mut conn = storm_preset(dialect, faults).instantiate_for_path(ExecutionPath::Ast);
    Campaign::new(storm_campaign_config()).run_supervised(&mut conn, &SupervisorConfig::default())
}

/// Counts bug reports whose description carries the infrastructure marker —
/// the false positives the supervisor must prevent. Always 0 on a healthy
/// platform; reported (and gated on) rather than assumed.
fn false_positive_logic_bugs(report: &CampaignReport) -> usize {
    report
        .reports
        .iter()
        .filter(|bug| bug.description.contains(INFRA_MARKER))
        .count()
}

/// The CI fault-storm gate. A campaign with **all** infrastructure faults
/// armed must:
///
/// 1. complete without aborting or quarantining (every planned fault clears
///    within the default retry budget);
/// 2. observe **every** injected `infra_*` fault kind, with ground-truth
///    bisection — disarming a kind removes exactly that kind's incidents;
/// 3. report **zero** false-positive logic bugs (no bug report carries the
///    infrastructure marker).
///
/// Kill-and-resume identity under the storm is held by
/// `resume_determinism::killed_serial_campaign_resumes_to_byte_identical_report`
/// (serial) and
/// `resume_determinism::killed_partitioned_campaign_resumes_identically_for_any_worker_count`
/// (sharded).
fn fault_storm_check(dialect: &str) -> ! {
    silence_infra_panics();
    let all_kinds: Vec<&str> = InfraFaultKind::all().iter().map(|k| k.id()).collect();

    // 1+2+3: the storm completes, observes everything, reports no
    // false positives.
    let storm = run_storm(dialect, FaultyConfig::storm());
    let observed = observed_infra_kinds(&storm);
    if observed != all_kinds {
        eprintln!("FAIL: storm observed {observed:?}, expected {all_kinds:?}");
        std::process::exit(1);
    }
    if storm.degraded || storm.robustness.quarantines > 0 || storm.robustness.infra_failures > 0 {
        eprintln!(
            "FAIL: storm campaign degraded (quarantines {}, infra_failures {})",
            storm.robustness.quarantines, storm.robustness.infra_failures
        );
        std::process::exit(1);
    }
    let false_positives = false_positive_logic_bugs(&storm);
    if false_positives > 0 {
        eprintln!("FAIL: {false_positives} infrastructure faults surfaced as logic bugs");
        std::process::exit(1);
    }
    // 2 (bisection): disarming a kind removes exactly that kind.
    for kind in InfraFaultKind::all() {
        let without =
            observed_infra_kinds(&run_storm(dialect, FaultyConfig::storm().without(kind)));
        if without.contains(&kind.id()) {
            eprintln!("FAIL: disarming {} left its incidents behind", kind.id());
            std::process::exit(1);
        }
    }
    println!(
        "fault-storm({dialect}): {} cases, {} incidents ({} retries, {} watchdog trips), \
         all {} fault kinds observed with clean bisection, 0 false-positive logic bugs",
        storm.metrics.test_cases,
        storm.robustness.incidents,
        storm.robustness.retries,
        storm.robustness.watchdog_trips,
        all_kinds.len(),
    );
    std::process::exit(0);
}

// ---------------------------------------------------------- trace gate ----

/// The observability workload: the txn schedule (the heaviest per-case
/// event stream — statements, rebuilds, retries) on one dialect.
fn trace_campaign_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = txn_config(queries_per_database);
    config.seed = 0x7247CE;
    config
}

/// One untraced supervised campaign.
fn untraced_run(preset: &DialectPreset, config: &CampaignConfig) -> CampaignReport {
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    Campaign::new(config.clone()).run_supervised(&mut conn, &SupervisorConfig::default())
}

/// One supervised campaign with the full tracing stack attached
/// (deterministic summary, 32-slot flight recorder, JSONL dump). Returns
/// the sealed tracer alongside the report.
fn traced_run(
    preset: &DialectPreset,
    config: &CampaignConfig,
    jsonl_path: &std::path::Path,
) -> (CampaignReport, Tracer) {
    let tracer = Rc::new(RefCell::new(
        Tracer::new()
            .with_flight_recorder(32)
            .with_jsonl_path(jsonl_path.to_path_buf()),
    ));
    let handle: TraceHandle = tracer.clone();
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    let mut campaign = Campaign::new(config.clone());
    campaign.set_trace(Some(handle));
    let report = campaign.run_supervised(&mut conn, &SupervisorConfig::default());
    drop(campaign);
    let tracer = Rc::try_unwrap(tracer)
        .expect("campaign released its trace handle")
        .into_inner();
    (report, tracer)
}

/// The untraced-vs-traced pair at ten times [`INSTRUMENT_CASE_BUDGET`].
/// Tracing must not perturb the campaign, so the reports are checked
/// identical before the timings are used.
fn measure_trace_overhead(dialect: &str) -> Pair<CampaignReport, (CampaignReport, Tracer)> {
    let preset = preset_or_exit(dialect);
    let config = trace_campaign_config(INSTRUMENT_CASE_BUDGET * 10);
    let jsonl_path = std::env::temp_dir().join(format!(
        "sqlancerpp_trace_overhead_{}_{dialect}.jsonl",
        std::process::id()
    ));
    let pair = time_pair(
        TIGHT_PAIR_REPS,
        || untraced_run(&preset, &config),
        || traced_run(&preset, &config, &jsonl_path),
    );
    let _ = std::fs::remove_file(&jsonl_path);
    fail_on_divergence(
        "traced campaign report (against the untraced run; tracing must observe, never perturb)",
        &render_report(&pair.a),
        &render_report(&pair.b.0),
    );
    pair
}

/// The CI observability gate: the fully-traced campaign keeps at least
/// [`FLOOR_TRACED_THROUGHPUT_RATIO`] of the untraced throughput, with a
/// byte-identical report.
///
/// The trace contracts are held by `trace_determinism`: merged-summary
/// identity for any worker and pool count under the storm
/// (`trace_summary_is_byte_identical_for_any_worker_and_pool_count`,
/// `storm_fault_hitting_an_oracle_rebuild_does_not_break_pool_invariance`)
/// and one pinned history per detected bug with a valid JSONL flush
/// (`every_detected_bug_has_a_complete_jsonl_history`).
fn trace_check(dialect: &str) -> ! {
    silence_infra_panics();
    let ratio = measure_trace_overhead(dialect).ratio;
    if !ratio.is_finite() || ratio < FLOOR_TRACED_THROUGHPUT_RATIO {
        eprintln!(
            "FAIL: tracing overhead too high: traced/untraced throughput ratio {ratio:.3} \
             < floor {FLOOR_TRACED_THROUGHPUT_RATIO}"
        );
        std::process::exit(1);
    }
    println!(
        "trace-check({dialect}): traced/untraced throughput ratio {ratio:.3} \
         (floor {FLOOR_TRACED_THROUGHPUT_RATIO}, median of {TIGHT_PAIR_REPS} interleaved pairs), \
         reports byte-identical"
    );
    std::process::exit(0);
}

// ------------------------------------------------- coverage-atlas gate ----

/// The coverage workload: the txn schedule (the richest feature mix —
/// query features plus transactional statements) with the atlas
/// accounting and the coverage-directed scheduler toggled per arm.
fn coverage_campaign_config(
    queries_per_database: usize,
    atlas: bool,
    directed: bool,
) -> CampaignConfig {
    let mut config = txn_config(queries_per_database);
    config.seed = 0x5EED1;
    config.coverage_atlas = atlas;
    config.coverage_directed = directed;
    config
}

/// The atlas-off-vs-on pair at ten times [`INSTRUMENT_CASE_BUDGET`]: at
/// the base budget one arm finishes in tens of milliseconds, where a single
/// scheduler preemption distorts a repetition by ~10% — too coarse to hold
/// a 0.95 floor against. The arms execute the same workload byte for byte
/// — the atlas touches no RNG — so their ratio prices the accounting
/// alone, and the reports are checked identical before the timings are
/// used.
fn measure_coverage_overhead(dialect: &str) -> Pair<CampaignReport, CampaignReport> {
    let preset = preset_or_exit(dialect);
    let timing_budget = INSTRUMENT_CASE_BUDGET * 10;
    let baseline_config = coverage_campaign_config(timing_budget, false, false);
    let atlas_config = coverage_campaign_config(timing_budget, true, false);
    let pair = time_pair(
        TIGHT_PAIR_REPS,
        || untraced_run(&preset, &baseline_config),
        || untraced_run(&preset, &atlas_config),
    );
    fail_on_divergence(
        "atlas-enabled campaign report (against the accounting-free run; coverage must \
         observe, never perturb)",
        &render_report(&pair.a),
        &render_report(&pair.b),
    );
    pair
}

/// The uniform and coverage-directed atlas-enabled runs at
/// [`INSTRUMENT_CASE_BUDGET`]. Directed mode steers generation (a
/// different, usually heavier workload), so it is compared with uniform on
/// distinct-feature coverage at the same case budget, never on elapsed.
fn uniform_and_directed(dialect: &str) -> (CampaignReport, CampaignReport) {
    let preset = preset_or_exit(dialect);
    let run = |directed| {
        untraced_run(
            &preset,
            &coverage_campaign_config(INSTRUMENT_CASE_BUDGET, true, directed),
        )
    };
    (run(false), run(true))
}

/// The CI coverage-atlas gate. Asserts:
///
/// 1. **directed wins** — coverage-directed scheduling reaches at least
///    the uniform scheduler's distinct-feature coverage at the same case
///    budget;
/// 2. **overhead** — the atlas-enabled campaign keeps at least
///    [`FLOOR_COVERAGE_THROUGHPUT_RATIO`] of the accounting-free
///    baseline's throughput, with a byte-identical report;
/// 3. **self-validating flush** — the atlas line flushed through the
///    flight-recorder JSONL path is well-formed and byte-identical to the
///    final report's atlas.
///
/// Atlas identity for any worker count, pool size and execution path under
/// a full fault storm is held by
/// `coverage_determinism::atlas_is_byte_identical_for_any_worker_pool_and_path`.
fn coverage_check(dialect: &str) -> ! {
    silence_infra_panics();

    // 1: directed mode reaches at least uniform coverage at the same case
    // budget.
    let (uniform, directed) = uniform_and_directed(dialect);
    let uniform_features = uniform.coverage.distinct_features();
    let directed_features = directed.coverage.distinct_features();
    if directed_features < uniform_features {
        eprintln!(
            "FAIL: coverage-directed scheduling lost coverage: {directed_features} distinct \
             features vs {uniform_features} uniform at the same case budget"
        );
        std::process::exit(1);
    }

    // 2: the accounting keeps the committed fraction of the baseline's
    // throughput.
    let ratio = measure_coverage_overhead(dialect).ratio;
    if !ratio.is_finite() || ratio < FLOOR_COVERAGE_THROUGHPUT_RATIO {
        eprintln!(
            "FAIL: atlas accounting too expensive: atlas/baseline throughput ratio \
             {ratio:.3} < floor {FLOOR_COVERAGE_THROUGHPUT_RATIO}"
        );
        std::process::exit(1);
    }

    // 3: the atlas flushed through the flight-recorder JSONL path is
    // well-formed and matches the final in-memory atlas exactly.
    let jsonl_path = std::env::temp_dir().join(format!(
        "sqlancerpp_coverage_check_{}_{dialect}.jsonl",
        std::process::id()
    ));
    let (report, _) = traced_run(
        &preset_or_exit(dialect),
        &coverage_campaign_config(INSTRUMENT_CASE_BUDGET, true, true),
        &jsonl_path,
    );
    let text = match std::fs::read_to_string(&jsonl_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("FAIL: atlas JSONL was not flushed: {err}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_file(&jsonl_path);
    let jsonl_lines = match validate_jsonl(&text) {
        Ok(lines) => lines,
        Err(why) => {
            eprintln!("FAIL: atlas JSONL malformed: {why}");
            std::process::exit(1);
        }
    };
    let atlas_line = report.coverage.to_json_line(&report.dbms_name);
    // `lines()` strips the terminator `to_json_line` appends.
    let atlas_line = atlas_line.trim_end();
    if !text.lines().any(|line| line == atlas_line) {
        eprintln!("FAIL: flushed JSONL is missing the final coverage-atlas line");
        std::process::exit(1);
    }

    println!(
        "coverage-check({dialect}): directed {directed_features} >= uniform {uniform_features} \
         distinct features, atlas/baseline throughput ratio {ratio:.3} \
         (floor {FLOOR_COVERAGE_THROUGHPUT_RATIO}), atlas JSONL valid ({jsonl_lines} lines)"
    );
    std::process::exit(0);
}

// ------------------------------------------------- flaky-backend gate ----

/// The resilience workload: the storm schedule (TLP + NoREC + rollback,
/// so transaction control is actually generated — the regime where a
/// capability lie matters) over three databases, so the per-database
/// breaker reset and drift re-announcement are exercised.
fn flaky_campaign_config() -> CampaignConfig {
    let mut config = base_config(120);
    config.seed = 0xF1AC;
    config.databases = 3;
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Rollback];
    config
}

/// The healthy-vs-flaky pooled pair: the same campaign through a probing
/// 2-connection pool against the clean backend and against
/// `FaultyConfig::flaky` (capability lie + probe-time crash +
/// post-respawn flapping). Arm `b` is the flaky run's report.
fn measure_flaky(dialect: &str) -> Pair<RunOutcome, CampaignReport> {
    let config = flaky_campaign_config();
    let pooled = |driver: Arc<dyn Driver>| {
        let run = CampaignRun {
            pool_size: 2,
            ..CampaignRun::sharded(driver, config.clone())
        };
        move || run.run()
    };
    let healthy = pooled(preset_or_exit(dialect).driver(ExecutionPath::Ast));
    let flaky = pooled(storm_preset(dialect, FaultyConfig::flaky()).driver(ExecutionPath::Ast));
    time_pair(PAIR_REPS, healthy, move || flaky().reports.remove(0))
}

/// The CI self-healing gate. A backend that lies about transaction
/// support, crashes during capability probes and flaps after respawns
/// must be probed, downgraded and fuzzed to completion:
///
/// 1. **clean completion** — the flaky campaign is never degraded, never
///    quarantines, exhausts no retry budget, and reports **zero**
///    false-positive logic bugs;
/// 2. **full attribution** — exactly the armed flaky fault kinds (probe
///    crash, respawn flap, capability lie) appear in the incident ledger,
///    every breaker trip and recovery is ledgered as an incident matching
///    its robustness counter, and both trips and recoveries actually
///    happened;
/// 3. **overhead** — the flaky campaign keeps at least
///    [`FLOOR_PROBED_THROUGHPUT_RATIO`] of the healthy pooled campaign's
///    throughput.
///
/// Report identity for any path, worker count and pool size while breakers
/// trip and recover is held by
/// `resume_determinism::killed_pooled_flaky_campaign_resumes_with_breaker_state`.
fn flaky_check(dialect: &str) -> ! {
    silence_infra_panics();

    // 1+2: the reference run completes clean with full attribution.
    let reference = CampaignRun::sharded(
        storm_preset(dialect, FaultyConfig::flaky()).driver(ExecutionPath::Ast),
        flaky_campaign_config(),
    )
    .run()
    .reports
    .remove(0);
    if reference.metrics.test_cases == 0 {
        eprintln!("FAIL: flaky campaign ran no test cases");
        std::process::exit(1);
    }
    if reference.degraded
        || reference.robustness.quarantines > 0
        || reference.robustness.infra_failures > 0
    {
        eprintln!(
            "FAIL: flaky campaign degraded (quarantines {}, infra_failures {})",
            reference.robustness.quarantines, reference.robustness.infra_failures
        );
        std::process::exit(1);
    }
    let false_positives = false_positive_logic_bugs(&reference);
    if false_positives > 0 {
        eprintln!("FAIL: {false_positives} flaky-backend faults surfaced as logic bugs");
        std::process::exit(1);
    }
    let observed = observed_infra_kinds(&reference);
    if observed != vec!["infra_probe", "infra_flap", "infra_capability_lie"] {
        eprintln!(
            "FAIL: flaky campaign observed {observed:?}, expected exactly \
             [infra_probe, infra_flap, infra_capability_lie]"
        );
        std::process::exit(1);
    }
    if reference.robustness.capability_drifts == 0 {
        eprintln!("FAIL: the lying driver produced no capability-drift incidents");
        std::process::exit(1);
    }
    use sqlancer_core::supervisor::IncidentKind;
    let ledger_trips = reference
        .incidents
        .iter()
        .filter(|i| i.kind == IncidentKind::BreakerTrip)
        .count() as u64;
    let ledger_recoveries = reference
        .incidents
        .iter()
        .filter(|i| i.kind == IncidentKind::BreakerRecovery)
        .count() as u64;
    if reference.robustness.breaker_trips == 0 || ledger_trips != reference.robustness.breaker_trips
    {
        eprintln!(
            "FAIL: {} breaker trips counted but {ledger_trips} in the incident ledger \
             (every trip must be ledgered, and the flaky backend must trip some)",
            reference.robustness.breaker_trips
        );
        std::process::exit(1);
    }
    if reference.robustness.breaker_recoveries == 0
        || ledger_recoveries != reference.robustness.breaker_recoveries
    {
        eprintln!(
            "FAIL: {} breaker recoveries counted but {ledger_recoveries} in the incident ledger",
            reference.robustness.breaker_recoveries
        );
        std::process::exit(1);
    }

    // 3: the self-healing machinery keeps the committed fraction of the
    // healthy campaign's throughput.
    let ratio = measure_flaky(dialect).ratio;
    if !ratio.is_finite() || ratio < FLOOR_PROBED_THROUGHPUT_RATIO {
        eprintln!(
            "FAIL: self-healing too expensive: probed/healthy throughput ratio {ratio:.3} \
             < floor {FLOOR_PROBED_THROUGHPUT_RATIO}"
        );
        std::process::exit(1);
    }

    println!(
        "flaky-check({dialect}): {} cases, {} capability drift(s), {} probe failure(s), \
         {} breaker trip(s) / {} recovery(ies) all ledgered, 0 false-positive logic bugs, \
         probed/healthy throughput ratio {ratio:.3} (floor {FLOOR_PROBED_THROUGHPUT_RATIO})",
        reference.metrics.test_cases,
        reference.robustness.capability_drifts,
        reference.robustness.probe_failures,
        reference.robustness.breaker_trips,
        reference.robustness.breaker_recoveries,
    );
    std::process::exit(0);
}

// ------------------------------------------------------------ validation ----

/// Extracts the number following `"key": ` (top-level or nested).
fn number_after(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validates the shape of a benchmark artifact: all expected keys present,
/// braces balanced, and the headline numbers parse to sane values.
///
/// # Errors
///
/// Returns a description of the first problem found.
fn validate_bench_json(json: &str) -> Result<(), String> {
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    if opens == 0 || opens != closes {
        return Err(format!("unbalanced braces ({opens} open, {closes} close)"));
    }
    for key in [
        "schema_version",
        "seed",
        "dialects",
        "queries_per_database",
        "dispatch",
        "eval",
        "txn",
        "concurrency",
        "snapshot",
        "cow",
        "text",
        "ast_tree",
        "ast",
        "speedup_ast_over_text",
        "speedup_compiled_over_tree",
        "txn_overhead",
        "txn_throughput_ratio",
        "isolation_throughput_ratio",
        "sessions_per_sec",
        "conflict_abort_rate",
        "begin_ns_per_table",
        "tables_snapshotted",
        "tables_cow_cloned",
        "cow_clone_rate",
        "conflicts_avoided",
        "robustness",
        "storm_test_cases",
        "incidents",
        "retries",
        "watchdog_trips",
        "quarantines",
        "infra_failures",
        "observed_infra_kinds",
        "false_positive_logic_bugs",
        "resilience",
        "probed_throughput_ratio",
        "capability_drifts",
        "probe_failures",
        "breaker_trips",
        "breaker_recoveries",
        "flaky_false_positives",
        "observability",
        "traced_throughput_ratio",
        "trace_statements",
        "jsonl_lines",
        "coverage",
        "coverage_throughput_ratio",
        "distinct_features_uniform",
        "distinct_features_directed",
        "engine_points",
        "saturation_novel",
        "parallel",
        "ci_floors",
        "min_speedup_ast_over_text",
        "min_speedup_compiled_over_tree",
        "min_txn_throughput_ratio",
        "min_isolation_throughput_ratio",
        "min_traced_throughput_ratio",
        "min_coverage_throughput_ratio",
        "min_probed_throughput_ratio",
    ] {
        if !json.contains(&format!("\"{key}\":")) {
            return Err(format!("missing key \"{key}\""));
        }
    }
    let schema = number_after(json, "schema_version")
        .ok_or_else(|| "schema_version is not a number".to_string())?;
    if schema < 9.0 {
        return Err(format!(
            "schema_version {schema} predates the resilience (self-healing pool) gate"
        ));
    }
    match number_after(json, "false_positive_logic_bugs") {
        Some(0.0) => {}
        Some(v) => {
            return Err(format!(
                "robustness block reports {v} false-positive logic bugs, must be 0"
            ))
        }
        None => return Err("false_positive_logic_bugs is not a number".to_string()),
    }
    match number_after(json, "flaky_false_positives") {
        Some(0.0) => {}
        Some(v) => {
            return Err(format!(
                "resilience block reports {v} false-positive logic bugs, must be 0"
            ))
        }
        None => return Err("flaky_false_positives is not a number".to_string()),
    }
    match number_after(json, "storm_test_cases") {
        Some(v) if v > 0.0 => {}
        Some(v) => return Err(format!("fault-storm campaign ran {v} cases")),
        None => return Err("storm_test_cases is not a number".to_string()),
    }
    match number_after(json, "distinct_features_directed") {
        Some(v) if v > 0.0 => {}
        Some(v) => return Err(format!("coverage block reports {v} distinct features")),
        None => return Err("distinct_features_directed is not a number".to_string()),
    }
    for key in [
        "speedup_ast_over_text",
        "speedup_compiled_over_tree",
        "txn_overhead",
        "txn_throughput_ratio",
        "isolation_throughput_ratio",
        "traced_throughput_ratio",
        "coverage_throughput_ratio",
        "probed_throughput_ratio",
        "begin_ns_per_table",
    ] {
        let v = number_after(json, key).ok_or_else(|| format!("\"{key}\" is not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("\"{key}\" has implausible value {v}"));
        }
    }
    // Every arm (dispatch text/ast, eval ast_tree/ast, txn ast,
    // concurrency ast) must have run a nonzero campaign — check all
    // occurrences, not just the first.
    let mut arm_count = 0usize;
    let mut scan = json;
    while let Some(at) = scan.find("\"test_cases\":") {
        let tail = &scan[at..];
        match number_after(tail, "test_cases") {
            Some(v) if v > 0.0 => arm_count += 1,
            Some(v) => return Err(format!("an arm has test_cases {v}, campaign ran nothing")),
            None => return Err("test_cases is not a number".to_string()),
        }
        scan = &scan[at + "\"test_cases\":".len()..];
    }
    if arm_count < 6 {
        return Err(format!(
            "expected test_cases in all 6 arms, found {arm_count}"
        ));
    }
    Ok(())
}

fn validate_file(path: &str) -> ! {
    match std::fs::read_to_string(path) {
        Ok(json) => match validate_bench_json(&json) {
            Ok(()) => {
                println!("{path}: OK (schema_version >= {SCHEMA_VERSION})");
                std::process::exit(0);
            }
            Err(why) => {
                eprintln!("{path}: INVALID: {why}");
                std::process::exit(1);
            }
        },
        Err(err) => {
            eprintln!("{path}: unreadable: {err}");
            std::process::exit(1);
        }
    }
}

/// The CI wire-backend smoke gate: a full campaign (TLP + NoREC + the
/// rollback oracle) against the real system `sqlite3` binary over the
/// subprocess driver, through a 2-connection pool. The platform sees only
/// SQL text and error strings; everything it cannot parse must surface as
/// learned invalidity, never as a bug — real SQLite does not have the
/// logic bugs this generator could expose, so **any** bug report is a
/// false positive and fails the gate.
///
/// Skips with a visible notice (exit 0) when no working `sqlite3` binary
/// is on `PATH`, so the offline build stays green.
fn sqlite_check() -> ! {
    silence_infra_panics();
    let driver = SqliteProcDriver::system();
    if !driver.available() {
        println!("sqlite-check: SKIPPED (no working sqlite3 binary on PATH)");
        std::process::exit(0);
    }
    let mut config = CampaignConfig::builder()
        .seed(0x511E)
        .databases(2)
        .ddl_per_database(8)
        .queries_per_database(45)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .max_reduction_checks(16)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    let driver: Arc<dyn Driver> = Arc::new(driver);
    let mut pool = Pool::new(driver, 2).unwrap_or_else(|err| {
        eprintln!("FAIL: sqlite3 pool did not connect: {err}");
        std::process::exit(1);
    });
    let start = Instant::now();
    let mut campaign = Campaign::new(config);
    let report = campaign.run_pooled(&mut pool, &SupervisorConfig::default());
    let elapsed = start.elapsed().as_secs_f64();
    if report.degraded || report.robustness.quarantines > 0 {
        eprintln!(
            "FAIL: sqlite campaign degraded (quarantines {})",
            report.robustness.quarantines
        );
        std::process::exit(1);
    }
    if report.metrics.test_cases == 0 || report.metrics.valid_test_cases == 0 {
        eprintln!(
            "FAIL: sqlite campaign ran {} cases, {} valid — the wire backend did nothing",
            report.metrics.test_cases, report.metrics.valid_test_cases
        );
        std::process::exit(1);
    }
    if !report.reports.is_empty() {
        eprintln!(
            "FAIL: {} bug report(s) against real sqlite3 — all false positives:",
            report.reports.len()
        );
        for bug in &report.reports {
            eprintln!("  [{:?}] {}", bug.oracle, bug.description);
        }
        std::process::exit(1);
    }
    println!(
        "sqlite-check: {} cases ({:.0}% valid), {} ddl statements, 0 false positives, \
         pool size 2, {elapsed:.2}s",
        report.metrics.test_cases,
        report.metrics.validity_rate() * 100.0,
        report.metrics.ddl_statements,
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--validate") {
        match args.get(2) {
            Some(path) => validate_file(path),
            None => {
                eprintln!("usage: campaign_throughput --validate <path>");
                std::process::exit(1);
            }
        }
    }
    if args.get(1).map(String::as_str) == Some("--partitioned-check") {
        partitioned_check(args.get(2).map(String::as_str).unwrap_or("mariadb"));
    }
    if args.get(1).map(String::as_str) == Some("--fault-storm-check") {
        fault_storm_check(args.get(2).map(String::as_str).unwrap_or("sqlite"));
    }
    if args.get(1).map(String::as_str) == Some("--trace-check") {
        trace_check(args.get(2).map(String::as_str).unwrap_or("dolt"));
    }
    if args.get(1).map(String::as_str) == Some("--coverage-check") {
        coverage_check(args.get(2).map(String::as_str).unwrap_or("dolt"));
    }
    if args.get(1).map(String::as_str) == Some("--flaky-check") {
        flaky_check(args.get(2).map(String::as_str).unwrap_or("sqlite"));
    }
    if args.get(1).map(String::as_str) == Some("--sqlite-check") {
        sqlite_check();
    }
    silence_infra_panics();
    let queries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    let output = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "BENCH_campaign.json".to_string());
    let dispatch = dispatch_config(queries);
    let eval = eval_config(queries);
    let txn = txn_config(queries);
    let concurrency = concurrency_config(queries);
    let threads = dbms_sim::available_threads();

    let arm = |label, elapsed_s, stmts_per_case, report| Arm {
        label,
        elapsed_s,
        stmts_per_case,
        report,
    };
    let dispatch_pair = time_pair(
        PAIR_REPS,
        fleet_arm(&dispatch, ExecutionPath::Text),
        fleet_arm(&dispatch, ExecutionPath::Ast),
    );
    let text = arm(
        "text",
        dispatch_pair.a_s,
        STMTS_PER_CASE_TLP_NOREC,
        dispatch_pair.a,
    );
    let ast_small = arm(
        "ast",
        dispatch_pair.b_s,
        STMTS_PER_CASE_TLP_NOREC,
        dispatch_pair.b,
    );
    let eval_pair = time_pair(
        PAIR_REPS,
        fleet_arm(&eval, ExecutionPath::AstTreeWalk),
        fleet_arm(&eval, ExecutionPath::Ast),
    );
    let ast_tree = arm(
        "ast_tree",
        eval_pair.a_s,
        STMTS_PER_CASE_TLP_NOREC,
        eval_pair.a,
    );
    let ast = arm("ast", eval_pair.b_s, STMTS_PER_CASE_TLP_NOREC, eval_pair.b);
    // The txn and concurrency schedules are each paired with the eval
    // workload's compiled arm, so their throughput ratios come from
    // back-to-back repetitions rather than from arms timed seconds apart.
    let txn_pair = time_pair(
        PAIR_REPS,
        fleet_arm(&eval, ExecutionPath::Ast),
        fleet_arm(&txn, ExecutionPath::Ast),
    );
    let txn_arm = arm("txn", txn_pair.b_s, STMTS_PER_CASE_TXN_MIX, txn_pair.b);
    let concurrency_pair = time_pair(
        PAIR_REPS,
        fleet_arm(&eval, ExecutionPath::Ast),
        fleet_arm(&concurrency, ExecutionPath::Ast),
    );
    let concurrency_arm = arm(
        "concurrency",
        concurrency_pair.b_s,
        STMTS_PER_CASE_ISOLATION_MIX,
        concurrency_pair.b,
    );
    let parallel_run = CampaignRun {
        workers: threads,
        ..CampaignRun::fleet(fleet_drivers(ExecutionPath::Ast), eval.clone())
    };
    let parallel_pair = time_pair(PAIR_REPS, fleet_arm(&eval, ExecutionPath::Ast), || {
        parallel_run.run()
    });

    let snapshot = snapshot_micro();

    // The robustness workload: the dispatch-sized campaign under a full
    // fault storm, supervised. Reported for the counters, gated (much more
    // thoroughly) by `--fault-storm-check`.
    let storm_start = Instant::now();
    let storm = run_storm("sqlite", FaultyConfig::storm());
    let storm_elapsed = storm_start.elapsed().as_secs_f64();
    let storm_false_positives = false_positive_logic_bugs(&storm);
    assert_eq!(
        storm_false_positives, 0,
        "infrastructure faults surfaced as logic bugs"
    );

    // The observability workload: the txn schedule on one dialect,
    // untraced vs fully traced. Gated against the committed floor via
    // `ci.sh`, and by `--trace-check`.
    let trace_overhead = measure_trace_overhead("dolt");
    let traced_ratio = trace_overhead.ratio;
    let (trace_report, tracer) = &trace_overhead.b;
    let trace_totals = tracer.summary().dialects.values().fold(
        sqlancer_core::TraceCounters::default(),
        |mut acc, trace| {
            acc.merge(&trace.counters);
            acc
        },
    );
    let trace_jsonl_lines = tracer
        .jsonl()
        .map(|text| validate_jsonl(&text).expect("tracer JSONL must be well-formed"))
        .unwrap_or(0);
    let trace_pinned = tracer
        .recorder()
        .map(|recorder| recorder.pinned().len())
        .unwrap_or(0);
    assert_eq!(
        trace_totals.cases, trace_report.metrics.test_cases,
        "the trace summary must account for every test case"
    );

    // The coverage workload: the txn schedule with atlas accounting off
    // vs on, plus uniform and directed runs. Gated against the committed
    // floor via `ci.sh`, and by `--coverage-check`.
    let coverage = measure_coverage_overhead("dolt");
    let coverage_ratio = coverage.ratio;
    let (coverage_uniform, coverage_directed) = uniform_and_directed("dolt");
    let coverage_uniform_features = coverage_uniform.coverage.distinct_features();
    let coverage_directed_features = coverage_directed.coverage.distinct_features();

    // The resilience workload: the storm schedule through a probing
    // 2-connection pool, healthy vs flaky backend. Gated against the
    // committed floor via `ci.sh`, and by `--flaky-check`.
    let flaky = measure_flaky("sqlite");
    let probed_ratio = flaky.ratio;
    let flaky_false_positives = false_positive_logic_bugs(&flaky.b);
    assert_eq!(
        flaky_false_positives, 0,
        "flaky-backend faults surfaced as logic bugs"
    );
    assert!(
        !flaky.b.degraded && flaky.b.robustness.capability_drifts > 0,
        "the lying driver must be probed and downgraded without degrading the campaign"
    );

    // Consistency checks: arms sharing a workload must have run the same
    // campaign, and the parallel run must reproduce the serial AST run
    // exactly. A divergence means the compiled evaluator (or the parallel
    // runner) changed semantics, not just speed.
    assert_eq!(
        text.report.totals, ast_small.report.totals,
        "text and AST arms diverged — parity broken"
    );
    assert_eq!(
        ast_tree.report.totals, ast.report.totals,
        "tree-walk and compiled arms diverged — compiled-evaluator parity broken"
    );
    assert_eq!(
        ast.report.totals, parallel_pair.b.totals,
        "parallel run diverged from serial — determinism broken"
    );

    let speedup = dispatch_pair.ratio;
    let compiled_speedup = eval_pair.ratio;
    let par_elapsed = parallel_pair.b_s;
    let parallel_speedup = parallel_pair.ratio;
    // Per-test-case throughput of the transactional schedule relative to
    // the plain eval schedule (the rollback oracle's reset-and-replay arms
    // dominate): the pair's elapsed ratio, scaled by the case counts.
    let cases_ratio = |schedule: &Arm| {
        schedule.report.totals.test_cases as f64 / ast.report.totals.test_cases as f64
    };
    let txn_ratio = txn_pair.ratio * cases_ratio(&txn_arm);
    let txn_overhead = 1.0 / txn_ratio;
    // Same ratio for the concurrency schedule (snapshot workspaces plus
    // serial replays dominate).
    let isolation_ratio = concurrency_pair.ratio * cases_ratio(&concurrency_arm);
    let conflict_abort_rate = concurrency_arm.report.totals.conflict_abort_rate();

    println!("dispatch workload (1-row tables):");
    for arm in [&text, &ast_small] {
        println!(
            "  {:<9} {:>8.3}s  {:>10.0} queries/s  ({} statements)",
            arm.label,
            arm.elapsed_s,
            arm.queries_per_sec(),
            arm.statements(),
        );
    }
    println!("eval workload (row-heavy tables):");
    for arm in [&ast_tree, &ast] {
        println!(
            "  {:<9} {:>8.3}s  {:>10.0} queries/s  ({} statements)",
            arm.label,
            arm.elapsed_s,
            arm.queries_per_sec(),
            arm.statements(),
        );
    }
    println!("txn workload (eval + rollback oracle):");
    println!(
        "  {:<9} {:>8.3}s  {:>10.1} cases/s  ({} statements)",
        txn_arm.label,
        txn_arm.elapsed_s,
        txn_arm.test_cases_per_sec(),
        txn_arm.statements(),
    );
    println!("concurrency workload (eval + isolation oracle):");
    println!(
        "  {:<9} {:>8.3}s  {:>10.1} cases/s  {:>8.1} sessions/s  ({:.0}% conflict aborts)",
        concurrency_arm.label,
        concurrency_arm.elapsed_s,
        concurrency_arm.test_cases_per_sec(),
        concurrency_arm.sessions_per_sec(),
        conflict_abort_rate * 100.0,
    );
    let cow = concurrency_arm.report.totals;
    println!(
        "  cow: {} begins, {} tables snapshotted, {} cloned ({:.1}% clone rate), \
         {} conflicts avoided by row-range intent",
        cow.txn_begins,
        cow.tables_snapshotted,
        cow.tables_cow_cloned,
        cow.cow_clone_rate() * 100.0,
        cow.conflicts_avoided,
    );
    println!(
        "snapshot micro ({} tables x {} rows): BEGIN {:.0} ns/table, {} cow clones",
        snapshot.tables,
        snapshot.rows_per_table,
        snapshot.begin_ns_per_table,
        snapshot.tables_cow_cloned,
    );
    println!(
        "fault storm (sqlite, all infra faults armed): {:.3}s, {} cases, {} incidents, \
         {} retries, {} watchdog trips, {} backoff ticks, {} false-positive logic bugs",
        storm_elapsed,
        storm.metrics.test_cases,
        storm.robustness.incidents,
        storm.robustness.retries,
        storm.robustness.watchdog_trips,
        storm.robustness.backoff_ticks,
        storm_false_positives,
    );
    println!(
        "observability (dolt, txn workload): untraced {:.3}s, traced {:.3}s \
         (throughput ratio {traced_ratio:.3}), {} statements traced, {} pinned record(s), \
         JSONL {} lines",
        trace_overhead.a_s,
        trace_overhead.b_s,
        trace_totals.statements,
        trace_pinned,
        trace_jsonl_lines,
    );
    println!(
        "coverage (dolt, txn workload): baseline {:.3}s, atlas {:.3}s \
         (throughput ratio {coverage_ratio:.3}), distinct features {} uniform / {} directed, \
         {} engine points, {} novel features",
        coverage.a_s,
        coverage.b_s,
        coverage_uniform_features,
        coverage_directed_features,
        coverage_directed.coverage.engine.total_points(),
        coverage_directed.coverage.saturation.novel_features,
    );
    println!(
        "resilience (sqlite, flaky backend through probing pool): healthy {:.3}s, \
         flaky {:.3}s (throughput ratio {probed_ratio:.3}), {} capability drift(s), \
         {} probe failure(s), {} breaker trip(s) / {} recovery(ies), \
         {flaky_false_positives} false-positive logic bugs",
        flaky.a_s,
        flaky.b_s,
        flaky.b.robustness.capability_drifts,
        flaky.b.robustness.probe_failures,
        flaky.b.robustness.breaker_trips,
        flaky.b.robustness.breaker_recoveries,
    );
    println!(
        "parallel({threads} threads) {par_elapsed:>8.3}s  (x{parallel_speedup:.2} over serial AST)"
    );
    println!("AST-path speedup over text path:        x{speedup:.2}");
    println!("compiled-evaluator speedup over tree:   x{compiled_speedup:.2}");
    println!("txn-workload overhead over eval:        x{txn_overhead:.2}");
    println!("concurrency-workload throughput ratio:  {isolation_ratio:.3}");

    let storm_kinds = format!(
        "[{}]",
        observed_infra_kinds(&storm)
            .iter()
            .map(|id| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let flaky_kinds = format!(
        "[{}]",
        observed_infra_kinds(&flaky.b)
            .iter()
            .map(|id| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let json = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"seed\": {},\n  \"dialects\": {},\n  \
         \"queries_per_database\": {},\n  \
         \"dispatch\": {{\"max_insert_rows\": 1, \"text\": {}, \"ast\": {}}},\n  \
         \"eval\": {{\"max_insert_rows\": {}, \"ast_tree\": {}, \"ast\": {}}},\n  \
         \"txn\": {{\"oracles\": \"tlp+norec+rollback\", \"ast\": {}}},\n  \
         \"concurrency\": {{\"oracles\": \"tlp+norec+isolation\", \"ast\": {}, \
         \"sessions_per_sec\": {sessions_per_sec:.1}, \
         \"isolation_schedules\": {isolation_schedules}, \
         \"conflict_abort_rate\": {conflict_abort_rate:.3}}},\n  \
         \"snapshot\": {{\"tables\": {snap_tables}, \"rows_per_table\": {snap_rows}, \
         \"begin_rollback_iters\": {snap_iters}, \
         \"begin_ns_per_table\": {begin_ns_per_table:.1}, \
         \"tables_snapshotted\": {snap_shared}, \"tables_cow_cloned\": {snap_cloned}}},\n  \
         \"cow\": {{\"txn_begins\": {cow_begins}, \
         \"tables_snapshotted\": {cow_snapshotted}, \
         \"tables_cow_cloned\": {cow_cloned}, \
         \"cow_clone_rate\": {cow_clone_rate:.4}, \
         \"conflicts_avoided\": {cow_avoided}}},\n  \
         \"robustness\": {{\"dialect\": \"sqlite\", \"faults\": \"storm\", \
         \"elapsed_s\": {storm_elapsed:.4}, \"storm_test_cases\": {storm_cases}, \
         \"incidents\": {storm_incidents}, \"retries\": {storm_retries}, \
         \"watchdog_trips\": {storm_watchdog}, \"backoff_ticks\": {storm_backoff}, \
         \"quarantines\": {storm_quarantines}, \"oracle_panics\": {storm_panics}, \
         \"infra_failures\": {storm_infra_failures}, \
         \"storage_metric_errors\": {storm_storage_errors}, \
         \"recovered_workers\": {storm_recovered}, \
         \"observed_infra_kinds\": {storm_kinds}, \
         \"false_positive_logic_bugs\": {storm_false_positives}}},\n  \
         \"resilience\": {{\"dialect\": \"sqlite\", \"faults\": \"flaky\", \"pool_size\": 2, \
         \"healthy_elapsed_s\": {flaky_healthy_s:.4}, \
         \"flaky_elapsed_s\": {flaky_elapsed_s:.4}, \
         \"probed_throughput_ratio\": {probed_ratio:.3}, \
         \"capability_drifts\": {flaky_drifts}, \
         \"probe_failures\": {flaky_probe_failures}, \
         \"breaker_trips\": {flaky_trips}, \
         \"breaker_recoveries\": {flaky_recoveries}, \
         \"observed_infra_kinds\": {flaky_kinds}, \
         \"flaky_false_positives\": {flaky_false_positives}}},\n  \
         \"observability\": {{\"dialect\": \"dolt\", \"workload\": \"txn\", \
         \"untraced_elapsed_s\": {trace_untraced_s:.4}, \
         \"traced_elapsed_s\": {trace_traced_s:.4}, \
         \"traced_throughput_ratio\": {traced_ratio:.3}, \
         \"trace_cases\": {trace_cases}, \"trace_statements\": {trace_statements}, \
         \"trace_case_ticks\": {trace_case_ticks}, \
         \"pinned_records\": {trace_pinned}, \"jsonl_lines\": {trace_jsonl_lines}}},\n  \
         \"coverage\": {{\"dialect\": \"dolt\", \"workload\": \"txn\", \
         \"queries_per_database\": {INSTRUMENT_CASE_BUDGET}, \
         \"baseline_elapsed_s\": {coverage_baseline_s:.4}, \
         \"atlas_elapsed_s\": {coverage_atlas_s:.4}, \
         \"coverage_throughput_ratio\": {coverage_ratio:.3}, \
         \"distinct_features_uniform\": {coverage_uniform_features}, \
         \"distinct_features_directed\": {coverage_directed_features}, \
         \"engine_points\": {coverage_engine_points}, \
         \"saturation_novel\": {coverage_saturation_novel}, \
         \"longest_dry_run\": {coverage_longest_dry}}},\n  \
         \"speedup_ast_over_text\": {speedup:.3},\n  \
         \"speedup_compiled_over_tree\": {compiled_speedup:.3},\n  \
         \"txn_overhead\": {txn_overhead:.3},\n  \
         \"txn_throughput_ratio\": {txn_ratio:.3},\n  \
         \"isolation_throughput_ratio\": {isolation_ratio:.3},\n  \
         \"parallel\": {{\"threads\": {threads}, \"elapsed_s\": {par_elapsed:.4}, \
         \"speedup_over_serial_ast\": {parallel_speedup:.3}}},\n  \
         \"ci_floors\": {{\"min_speedup_ast_over_text\": {FLOOR_AST_OVER_TEXT}, \
         \"min_speedup_compiled_over_tree\": {FLOOR_COMPILED_OVER_TREE}, \
         \"min_txn_throughput_ratio\": {FLOOR_TXN_THROUGHPUT_RATIO}, \
         \"min_isolation_throughput_ratio\": {FLOOR_ISOLATION_THROUGHPUT_RATIO}, \
         \"min_traced_throughput_ratio\": {FLOOR_TRACED_THROUGHPUT_RATIO}, \
         \"min_coverage_throughput_ratio\": {SMOKE_FLOOR_COVERAGE_THROUGHPUT_RATIO}, \
         \"min_probed_throughput_ratio\": {FLOOR_PROBED_THROUGHPUT_RATIO}}}\n}}\n",
        dispatch.seed,
        fleet().len(),
        queries,
        text.json(),
        ast_small.json(),
        eval.generator.max_insert_rows,
        ast_tree.json(),
        ast.json(),
        txn_arm.json(),
        concurrency_arm.json(),
        sessions_per_sec = concurrency_arm.sessions_per_sec(),
        isolation_schedules = concurrency_arm.report.totals.isolation_schedules,
        snap_tables = snapshot.tables,
        snap_rows = snapshot.rows_per_table,
        snap_iters = snapshot.iterations,
        begin_ns_per_table = snapshot.begin_ns_per_table,
        snap_shared = snapshot.tables_snapshotted,
        snap_cloned = snapshot.tables_cow_cloned,
        storm_cases = storm.metrics.test_cases,
        storm_incidents = storm.robustness.incidents,
        storm_retries = storm.robustness.retries,
        storm_watchdog = storm.robustness.watchdog_trips,
        storm_backoff = storm.robustness.backoff_ticks,
        storm_quarantines = storm.robustness.quarantines,
        storm_panics = storm.robustness.oracle_panics,
        storm_infra_failures = storm.robustness.infra_failures,
        storm_storage_errors = storm.robustness.storage_metric_errors,
        storm_recovered = storm.robustness.recovered_workers,
        flaky_healthy_s = flaky.a_s,
        flaky_elapsed_s = flaky.b_s,
        flaky_drifts = flaky.b.robustness.capability_drifts,
        flaky_probe_failures = flaky.b.robustness.probe_failures,
        flaky_trips = flaky.b.robustness.breaker_trips,
        flaky_recoveries = flaky.b.robustness.breaker_recoveries,
        trace_untraced_s = trace_overhead.a_s,
        trace_traced_s = trace_overhead.b_s,
        trace_cases = trace_totals.cases,
        trace_statements = trace_totals.statements,
        trace_case_ticks = trace_totals.case_ticks,
        coverage_baseline_s = coverage.a_s,
        coverage_atlas_s = coverage.b_s,
        coverage_engine_points = coverage_directed.coverage.engine.total_points(),
        coverage_saturation_novel = coverage_directed.coverage.saturation.novel_features,
        coverage_longest_dry = coverage_directed.coverage.saturation.longest_dry_run,
        cow_begins = cow.txn_begins,
        cow_snapshotted = cow.tables_snapshotted,
        cow_cloned = cow.tables_cow_cloned,
        cow_clone_rate = cow.cow_clone_rate(),
        cow_avoided = cow.conflicts_avoided,
    );
    std::fs::write(&output, &json).expect("write benchmark output");

    // Self-check: a malformed or partial artifact must fail the process,
    // not silently pass a later grep. Read back what actually hit disk.
    let written = std::fs::read_to_string(&output).expect("read back benchmark output");
    if let Err(why) = validate_bench_json(&written) {
        eprintln!("{output}: written artifact failed validation: {why}");
        std::process::exit(2);
    }
    println!("wrote {output}");
}
