//! Crash-safe campaign checkpoint/resume.
//!
//! A supervised campaign serialises its complete progress — case cursor,
//! the adaptive generator's learned profile and RNG state, partial report,
//! prioritizer state and incident log — to a *resume file* every
//! [`crate::SupervisorConfig::checkpoint_every`] cases. A campaign killed
//! at any case index resumes from the file and produces a **byte-identical**
//! final report versus an uninterrupted run: every piece of state that
//! feeds generation, classification or reporting is carried verbatim, and
//! the file is written atomically (temp file + rename) so a crash during a
//! checkpoint leaves the previous one intact.
//!
//! The format follows the learned-profile convention ([`crate::profile`]):
//! a line-oriented text file with a `#` header, space-separated fields,
//! rest-of-line payloads for SQL (escaped `\\`, `\n`, `\r`), and `f64`
//! values stored as `to_bits` hex so they round-trip exactly. SQL
//! statements and expressions are serialised through their canonical
//! [`std::fmt::Display`] rendering and re-parsed with `sql-parser` on load
//! — the same text round-trip the platform's replay tooling already
//! guarantees.

use crate::campaign::{CampaignMetrics, CampaignReport};
use crate::dbms::StorageMetrics;
use crate::feature::{Feature, FeatureSet};
use crate::oracle::{BugReport, OracleKind, Schedule, SessionScript};
use crate::prioritizer::PrioritizerStats;
use crate::reducer::{ReducibleCase, ScheduleCase, TxnCase};
use crate::schema::{ModelColumn, ModelIndex, ModelTable, SchemaModel};
use crate::stats::{FeatureCounts, FeatureKind, FeatureStats};
use crate::supervisor::{CampaignIncident, IncidentKind, RobustnessCounters};
use sql_ast::{BeginMode, DataType, Expr, Select, Statement};
use sql_parser::{parse_expression, parse_statement};
use std::fmt::Write as _;
use std::path::Path;

/// The header line every checkpoint file starts with. v4 added the
/// connection-layer resilience ledger (`resil` tag) and the
/// breaker/probe robustness counters; v3 added the coverage-atlas block
/// (`cov*` tags); v2 added the watchdog deadline/observed virtual-tick
/// fields to incident lines. Older versions are rejected (a
/// version-mismatch load fails, and the campaign starts fresh — safe,
/// just slower than resuming).
const HEADER: &str = "# sqlancer++ campaign checkpoint v4";

/// A complete snapshot of a running campaign: everything needed to resume
/// it to a byte-identical final report.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// The campaign seed (sanity-checked against the resuming config).
    pub config_seed: u64,
    /// The database index the campaign was working on.
    pub database: usize,
    /// The next case index (within the database) to execute.
    pub next_case: usize,
    /// The campaign-global oracle rotation cursor.
    pub oracle_index: usize,
    /// The generator RNG's raw state word.
    pub rng_state: u64,
    /// Executions recorded by the generator (drives suppression refresh and
    /// the depth schedule).
    pub recorded: u64,
    /// The generator's current expression-depth cap.
    pub current_depth: usize,
    /// The internal schema model, verbatim (its name counter advances even
    /// for rejected DDL, so it cannot be rebuilt by replay).
    pub schema: SchemaModel,
    /// The learned feature statistics.
    pub stats: FeatureStats,
    /// The suppressed query features, verbatim (suppression only refreshes
    /// at update-interval boundaries, so it is state, not derived data).
    pub suppressed_query: Vec<Feature>,
    /// The suppressed DDL/DML features, verbatim.
    pub suppressed_ddl: Vec<Feature>,
    /// The prioritizer's kept feature sets, in insertion order.
    pub kept_sets: Vec<FeatureSet>,
    /// The prioritizer's statistics (not recomputable from the kept sets).
    pub prioritizer_stats: PrioritizerStats,
    /// The current database's replayable setup log.
    pub setup_log: Vec<String>,
    /// Storage-metric delta accumulated over completed work (the resumed
    /// run samples a fresh baseline and adds to this).
    pub storage_delta: StorageMetrics,
    /// The supervisor's consecutive-infrastructure-failure count.
    pub consecutive_infra: u32,
    /// The connection layer's opaque resilience ledger (per-slot breaker
    /// and backoff state plus the resilience clock), as produced by
    /// [`crate::DbmsConnection::resilience_checkpoint`]. `None` for
    /// connections without one (unpooled backends).
    pub resilience: Option<String>,
    /// The partial report: metrics, bug reports, replayable cases,
    /// validity series, incidents, robustness counters, degraded flag.
    pub report: CampaignReport,
}

// ------------------------------------------------------------ escaping ----

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(ch),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

// ----------------------------------------------------------- rendering ----

fn oracle_name(kind: OracleKind) -> &'static str {
    kind.name()
}

fn oracle_from_name(name: &str) -> Result<OracleKind, String> {
    Ok(match name {
        "TLP" => OracleKind::Tlp,
        "NoREC" => OracleKind::NoRec,
        "ROLLBACK" => OracleKind::Rollback,
        "ISOLATION" => OracleKind::Isolation,
        other => return Err(format!("unknown oracle '{other}'")),
    })
}

fn begin_mode_name(mode: BeginMode) -> &'static str {
    match mode {
        BeginMode::Plain => "plain",
        BeginMode::Deferred => "deferred",
        BeginMode::Immediate => "immediate",
    }
}

fn begin_mode_from_name(name: &str) -> Result<BeginMode, String> {
    Ok(match name {
        "plain" => BeginMode::Plain,
        "deferred" => BeginMode::Deferred,
        "immediate" => BeginMode::Immediate,
        other => return Err(format!("unknown begin mode '{other}'")),
    })
}

fn write_features(out: &mut String, tag: &str, features: &FeatureSet) {
    out.push_str(tag);
    for feature in features.iter() {
        out.push(' ');
        out.push_str(feature.name());
    }
    out.push('\n');
}

fn features_from(rest: &str) -> FeatureSet {
    rest.split_whitespace().map(Feature::new).collect()
}

fn write_metrics(out: &mut String, metrics: &CampaignMetrics) {
    let _ = writeln!(
        out,
        "metrics {} {} {} {} {} {} {} {} {} {} {} {} {}",
        metrics.ddl_statements,
        metrics.ddl_successes,
        metrics.test_cases,
        metrics.valid_test_cases,
        metrics.detected_bug_cases,
        metrics.prioritized_bugs,
        metrics.deduplicated_bugs,
        metrics.isolation_schedules,
        metrics.conflict_aborts,
        metrics.txn_begins,
        metrics.tables_snapshotted,
        metrics.tables_cow_cloned,
        metrics.conflicts_avoided,
    );
}

fn write_counters(out: &mut String, counters: &RobustnessCounters) {
    let _ = writeln!(
        out,
        "counters {} {} {} {} {} {} {} {} {} {} {} {} {}",
        counters.incidents,
        counters.retries,
        counters.watchdog_trips,
        counters.backoff_ticks,
        counters.quarantines,
        counters.oracle_panics,
        counters.infra_failures,
        counters.storage_metric_errors,
        counters.recovered_workers,
        counters.breaker_trips,
        counters.breaker_recoveries,
        counters.probe_failures,
        counters.capability_drifts,
    );
}

fn write_incident(out: &mut String, incident: &CampaignIncident) {
    let _ = writeln!(
        out,
        "incident {} {} {} {} {} {} {}",
        incident.kind.name(),
        incident.database,
        incident.case_index,
        incident.attempt,
        incident.deadline_ticks,
        incident.observed_ticks,
        escape(&incident.detail),
    );
}

fn write_coverage(out: &mut String, coverage: &crate::atlas::CampaignCoverage) {
    for (oracle, per_oracle) in &coverage.oracles {
        let _ = writeln!(out, "covo {oracle} {}", per_oracle.cases);
        for (verdict, count) in &per_oracle.verdicts {
            let _ = writeln!(out, "covv {oracle} {verdict} {count}");
        }
        write_features(out, &format!("covf {oracle}"), &per_oracle.features);
    }
    for (plane, points) in &coverage.engine.planes {
        for point in points {
            let _ = writeln!(out, "cove {plane} {}", escape(point));
        }
    }
    let curve = &coverage.saturation;
    let _ = writeln!(
        out,
        "covs {} {} {} {}",
        curve.novel_features, curve.trailing_dry_cases, curve.longest_dry_run, coverage.dry_run
    );
    if !curve.windows.is_empty() {
        out.push_str("covw");
        for count in &curve.windows {
            let _ = write!(out, " {count}");
        }
        out.push('\n');
        out.push_str("covc");
        for count in &curve.window_cases {
            let _ = write!(out, " {count}");
        }
        out.push('\n');
    }
    if !curve.gaps.is_empty() {
        let _ = writeln!(out, "covg {} {}", curve.gaps.sum(), curve.gaps.max());
        for (index, _, count) in curve.gaps.nonzero_buckets() {
            let _ = writeln!(out, "covgb {index} {count}");
        }
    }
    if !coverage.seen.is_empty() {
        // Feature names never contain whitespace or ':', so `name:mask`
        // tokens round-trip the per-database novelty map exactly,
        // including the oracle-membership hint bits. The map is hashed
        // for probe speed; sorting here keeps checkpoint files
        // byte-stable.
        let mut seen: Vec<_> = coverage.seen.iter().collect();
        seen.sort_by(|a, b| a.0.cmp(b.0));
        out.push_str("covn");
        for (feature, mask) in seen {
            let _ = write!(out, " {}:{mask}", feature.name());
        }
        out.push('\n');
    }
}

fn write_bug(out: &mut String, bug: &BugReport) {
    let _ = writeln!(out, "bug {}", oracle_name(bug.oracle));
    let _ = writeln!(out, "bd {}", escape(&bug.description));
    for sql in &bug.setup {
        let _ = writeln!(out, "bs {}", escape(sql));
    }
    for sql in &bug.queries {
        let _ = writeln!(out, "bq {}", escape(sql));
    }
    write_features(out, "bf", &bug.features);
    out.push_str("end\n");
}

fn write_case(out: &mut String, case: &ReducibleCase) {
    let _ = writeln!(out, "case {}", oracle_name(case.oracle));
    for sql in &case.setup {
        let _ = writeln!(out, "cs {}", escape(sql));
    }
    let _ = writeln!(out, "cq {}", escape(&case.query.to_string()));
    let _ = writeln!(out, "cp {}", escape(&case.predicate.to_string()));
    write_features(out, "cf", &case.features);
    out.push_str("end\n");
}

fn write_txn_case(out: &mut String, case: &TxnCase) {
    let _ = writeln!(out, "txn {}", case.table);
    for sql in &case.setup {
        let _ = writeln!(out, "ts {}", escape(sql));
    }
    for stmt in &case.statements {
        let _ = writeln!(out, "tm {}", escape(&stmt.to_string()));
    }
    write_features(out, "tf", &case.features);
    out.push_str("end\n");
}

fn write_schedule_case(out: &mut String, case: &ScheduleCase) {
    out.push_str("sched\n");
    for sql in &case.setup {
        let _ = writeln!(out, "ss {}", escape(sql));
    }
    out.push_str("st");
    for table in &case.schedule.tables {
        out.push(' ');
        out.push_str(table);
    }
    out.push('\n');
    for session in &case.schedule.sessions {
        let _ = writeln!(
            out,
            "sn {} {}",
            begin_mode_name(session.begin),
            u8::from(session.commit)
        );
        for stmt in &session.statements {
            let _ = writeln!(out, "sm {}", escape(&stmt.to_string()));
        }
    }
    out.push_str("si");
    for &step in &case.schedule.interleaving {
        let _ = write!(out, " {step}");
    }
    out.push('\n');
    write_features(out, "sf", &case.features);
    out.push_str("end\n");
}

/// Serialises a checkpoint to the resume-file text format.
pub fn checkpoint_to_string(checkpoint: &CampaignCheckpoint) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    let _ = writeln!(out, "dialect {}", escape(&checkpoint.report.dbms_name));
    let _ = writeln!(out, "seed {}", checkpoint.config_seed);
    let _ = writeln!(
        out,
        "cursor {} {} {}",
        checkpoint.database, checkpoint.next_case, checkpoint.oracle_index
    );
    let _ = writeln!(
        out,
        "rng {} {} {}",
        checkpoint.rng_state, checkpoint.recorded, checkpoint.current_depth
    );
    let _ = writeln!(
        out,
        "super {} {}",
        checkpoint.consecutive_infra,
        u8::from(checkpoint.report.degraded)
    );
    // Schema model. Object and column names are generator-produced
    // (`t0`, `c3`, ...) and contain no whitespace.
    let _ = writeln!(out, "schema_counter {}", checkpoint.schema.name_counter());
    for table in checkpoint.schema.tables() {
        let _ = writeln!(
            out,
            "table {} {} {}",
            u8::from(table.is_view),
            table.approx_rows,
            table.name
        );
        for col in &table.columns {
            let _ = writeln!(
                out,
                "col {} {} {} {} {}",
                u8::from(col.not_null),
                u8::from(col.primary_key),
                col.data_type.sql_keyword(),
                table.name,
                col.name
            );
        }
    }
    for index in checkpoint.schema.indexes() {
        let _ = write!(
            out,
            "index {} {} {}",
            u8::from(index.unique),
            index.name,
            index.table
        );
        for col in &index.columns {
            out.push(' ');
            out.push_str(col);
        }
        out.push('\n');
    }
    // Learned statistics and suppression sets.
    for (tag, entries) in [
        ("Q", checkpoint.stats.iter_query().collect::<Vec<_>>()),
        ("D", checkpoint.stats.iter_ddl().collect::<Vec<_>>()),
    ] {
        for (feature, counts) in entries {
            let _ = writeln!(
                out,
                "stat {tag} {} {} {} {}",
                feature.name(),
                counts.attempts,
                counts.successes,
                counts.consecutive_failures
            );
        }
    }
    for feature in &checkpoint.suppressed_query {
        let _ = writeln!(out, "supq {}", feature.name());
    }
    for feature in &checkpoint.suppressed_ddl {
        let _ = writeln!(out, "supd {}", feature.name());
    }
    // Prioritizer.
    for set in &checkpoint.kept_sets {
        write_features(&mut out, "kept", set);
    }
    let _ = writeln!(
        out,
        "pstats {} {} {}",
        checkpoint.prioritizer_stats.seen,
        checkpoint.prioritizer_stats.prioritized,
        checkpoint.prioritizer_stats.deduplicated
    );
    // Report scalars.
    write_metrics(&mut out, &checkpoint.report.metrics);
    let _ = writeln!(
        out,
        "storage {} {} {} {}",
        checkpoint.storage_delta.txn_begins,
        checkpoint.storage_delta.tables_snapshotted,
        checkpoint.storage_delta.tables_cow_cloned,
        checkpoint.storage_delta.conflicts_avoided
    );
    write_counters(&mut out, &checkpoint.report.robustness);
    if let Some(resilience) = &checkpoint.resilience {
        let _ = writeln!(out, "resil {}", escape(resilience));
    }
    write_coverage(&mut out, &checkpoint.report.coverage);
    for sample in &checkpoint.report.validity_series {
        let _ = writeln!(out, "v {:016x}", sample.to_bits());
    }
    for sql in &checkpoint.setup_log {
        let _ = writeln!(out, "setup {}", escape(sql));
    }
    for incident in &checkpoint.report.incidents {
        write_incident(&mut out, incident);
    }
    for bug in &checkpoint.report.reports {
        write_bug(&mut out, bug);
    }
    for case in &checkpoint.report.prioritized_cases {
        write_case(&mut out, case);
    }
    for case in &checkpoint.report.txn_cases {
        write_txn_case(&mut out, case);
    }
    for case in &checkpoint.report.schedule_cases {
        write_schedule_case(&mut out, case);
    }
    out
}

// ------------------------------------------------------------- parsing ----

// One in-flight block per parse, so the variant size spread is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Block {
    None,
    Bug(BugReport),
    Case(ReducibleCase),
    Txn(TxnCase),
    Sched(ScheduleCase),
}

fn err(line_no: usize, message: impl std::fmt::Display) -> String {
    format!("checkpoint line {}: {message}", line_no + 1)
}

fn parse_u64(line_no: usize, s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| err(line_no, format_args!("malformed number '{s}'")))
}

fn parse_usize(line_no: usize, s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| err(line_no, format_args!("malformed number '{s}'")))
}

fn parse_flag(line_no: usize, s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(err(line_no, format_args!("malformed flag '{other}'"))),
    }
}

fn parse_u64_list(line_no: usize, rest: &str) -> Result<Vec<u64>, String> {
    rest.split_whitespace()
        .map(|s| parse_u64(line_no, s))
        .collect()
}

fn fields(line_no: usize, rest: &str, want: usize) -> Result<Vec<&str>, String> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    if parts.len() != want {
        return Err(err(
            line_no,
            format_args!("expected {want} fields, got {}", parts.len()),
        ));
    }
    Ok(parts)
}

fn parse_stmt(line_no: usize, sql: &str) -> Result<Statement, String> {
    parse_statement(sql).map_err(|e| err(line_no, e))
}

/// Parses a checkpoint produced by [`checkpoint_to_string`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
#[allow(clippy::too_many_lines)]
pub fn checkpoint_from_string(text: &str) -> Result<CampaignCheckpoint, String> {
    let mut checkpoint = CampaignCheckpoint {
        config_seed: 0,
        database: 0,
        next_case: 0,
        oracle_index: 0,
        rng_state: 0,
        recorded: 0,
        current_depth: 0,
        schema: SchemaModel::new(),
        stats: FeatureStats::new(),
        suppressed_query: Vec::new(),
        suppressed_ddl: Vec::new(),
        kept_sets: Vec::new(),
        prioritizer_stats: PrioritizerStats::default(),
        setup_log: Vec::new(),
        storage_delta: StorageMetrics::default(),
        consecutive_infra: 0,
        resilience: None,
        report: CampaignReport::default(),
    };
    let mut saw_header = false;
    let mut tables: Vec<ModelTable> = Vec::new();
    let mut indexes: Vec<ModelIndex> = Vec::new();
    let mut name_counter = 0usize;
    let mut block = Block::None;

    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if line == HEADER {
                saw_header = true;
            }
            continue;
        }
        let (tag, rest) = match line.split_once(' ') {
            Some((tag, rest)) => (tag, rest),
            None => (line, ""),
        };
        // Block-scoped tags first.
        match &mut block {
            Block::Bug(bug) => match tag {
                "bd" => {
                    bug.description = unescape(rest);
                    continue;
                }
                "bs" => {
                    bug.setup.push(unescape(rest));
                    continue;
                }
                "bq" => {
                    bug.queries.push(unescape(rest));
                    continue;
                }
                "bf" => {
                    bug.features = features_from(rest);
                    continue;
                }
                "end" => {
                    let done = std::mem::replace(&mut block, Block::None);
                    if let Block::Bug(bug) = done {
                        checkpoint.report.reports.push(bug);
                    }
                    continue;
                }
                _ => {
                    return Err(err(
                        line_no,
                        format_args!("unexpected '{tag}' in bug block"),
                    ))
                }
            },
            Block::Case(case) => match tag {
                "cs" => {
                    case.setup.push(unescape(rest));
                    continue;
                }
                "cq" => {
                    let stmt = parse_stmt(line_no, &unescape(rest))?;
                    let Statement::Select(select) = stmt else {
                        return Err(err(line_no, "case query is not a SELECT"));
                    };
                    case.query = *select;
                    continue;
                }
                "cp" => {
                    case.predicate =
                        parse_expression(&unescape(rest)).map_err(|e| err(line_no, e))?;
                    continue;
                }
                "cf" => {
                    case.features = features_from(rest);
                    continue;
                }
                "end" => {
                    let done = std::mem::replace(&mut block, Block::None);
                    if let Block::Case(case) = done {
                        checkpoint.report.prioritized_cases.push(case);
                    }
                    continue;
                }
                _ => {
                    return Err(err(
                        line_no,
                        format_args!("unexpected '{tag}' in case block"),
                    ))
                }
            },
            Block::Txn(case) => match tag {
                "ts" => {
                    case.setup.push(unescape(rest));
                    continue;
                }
                "tm" => {
                    case.statements.push(parse_stmt(line_no, &unescape(rest))?);
                    continue;
                }
                "tf" => {
                    case.features = features_from(rest);
                    continue;
                }
                "end" => {
                    let done = std::mem::replace(&mut block, Block::None);
                    if let Block::Txn(case) = done {
                        checkpoint.report.txn_cases.push(case);
                    }
                    continue;
                }
                _ => {
                    return Err(err(
                        line_no,
                        format_args!("unexpected '{tag}' in txn block"),
                    ))
                }
            },
            Block::Sched(case) => match tag {
                "ss" => {
                    case.setup.push(unescape(rest));
                    continue;
                }
                "st" => {
                    case.schedule.tables = rest.split_whitespace().map(str::to_string).collect();
                    continue;
                }
                "sn" => {
                    let parts = fields(line_no, rest, 2)?;
                    case.schedule.sessions.push(SessionScript {
                        begin: begin_mode_from_name(parts[0]).map_err(|e| err(line_no, e))?,
                        statements: Vec::new(),
                        commit: parse_flag(line_no, parts[1])?,
                    });
                    continue;
                }
                "sm" => {
                    let stmt = parse_stmt(line_no, &unescape(rest))?;
                    let Some(session) = case.schedule.sessions.last_mut() else {
                        return Err(err(line_no, "session statement before any session"));
                    };
                    session.statements.push(stmt);
                    continue;
                }
                "si" => {
                    case.schedule.interleaving = rest
                        .split_whitespace()
                        .map(|s| {
                            s.parse::<u8>()
                                .map_err(|_| err(line_no, format_args!("malformed step '{s}'")))
                        })
                        .collect::<Result<Vec<u8>, String>>()?;
                    continue;
                }
                "sf" => {
                    case.features = features_from(rest);
                    continue;
                }
                "end" => {
                    let done = std::mem::replace(&mut block, Block::None);
                    if let Block::Sched(case) = done {
                        checkpoint.report.schedule_cases.push(case);
                    }
                    continue;
                }
                _ => {
                    return Err(err(
                        line_no,
                        format_args!("unexpected '{tag}' in schedule block"),
                    ))
                }
            },
            Block::None => {}
        }
        match tag {
            "dialect" => checkpoint.report.dbms_name = unescape(rest),
            "seed" => checkpoint.config_seed = parse_u64(line_no, rest.trim())?,
            "cursor" => {
                let parts = fields(line_no, rest, 3)?;
                checkpoint.database = parse_usize(line_no, parts[0])?;
                checkpoint.next_case = parse_usize(line_no, parts[1])?;
                checkpoint.oracle_index = parse_usize(line_no, parts[2])?;
            }
            "rng" => {
                let parts = fields(line_no, rest, 3)?;
                checkpoint.rng_state = parse_u64(line_no, parts[0])?;
                checkpoint.recorded = parse_u64(line_no, parts[1])?;
                checkpoint.current_depth = parse_usize(line_no, parts[2])?;
            }
            "super" => {
                let parts = fields(line_no, rest, 2)?;
                checkpoint.consecutive_infra = parse_u64(line_no, parts[0])? as u32;
                checkpoint.report.degraded = parse_flag(line_no, parts[1])?;
            }
            "schema_counter" => name_counter = parse_usize(line_no, rest.trim())?,
            "table" => {
                let parts = fields(line_no, rest, 3)?;
                tables.push(ModelTable {
                    name: parts[2].to_string(),
                    columns: Vec::new(),
                    is_view: parse_flag(line_no, parts[0])?,
                    approx_rows: parse_usize(line_no, parts[1])?,
                });
            }
            "col" => {
                let parts = fields(line_no, rest, 5)?;
                let data_type = DataType::from_keyword(parts[2])
                    .ok_or_else(|| err(line_no, format_args!("unknown type '{}'", parts[2])))?;
                let table = tables
                    .iter_mut()
                    .find(|t| t.name == parts[3])
                    .ok_or_else(|| {
                        err(
                            line_no,
                            format_args!("column for unknown table '{}'", parts[3]),
                        )
                    })?;
                table.columns.push(ModelColumn {
                    name: parts[4].to_string(),
                    data_type,
                    not_null: parse_flag(line_no, parts[0])?,
                    primary_key: parse_flag(line_no, parts[1])?,
                });
            }
            "index" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() < 3 {
                    return Err(err(line_no, "index needs unique, name, table"));
                }
                indexes.push(ModelIndex {
                    name: parts[1].to_string(),
                    table: parts[2].to_string(),
                    columns: parts[3..].iter().map(|s| s.to_string()).collect(),
                    unique: parse_flag(line_no, parts[0])?,
                });
            }
            "stat" => {
                let parts = fields(line_no, rest, 5)?;
                let kind = match parts[0] {
                    "Q" => FeatureKind::Query,
                    "D" => FeatureKind::DdlDml,
                    other => return Err(err(line_no, format_args!("unknown category '{other}'"))),
                };
                checkpoint.stats.load_counts(
                    Feature::new(parts[1].to_string()),
                    kind,
                    FeatureCounts {
                        attempts: parse_u64(line_no, parts[2])?,
                        successes: parse_u64(line_no, parts[3])?,
                        consecutive_failures: parse_u64(line_no, parts[4])?,
                    },
                );
            }
            "supq" => checkpoint
                .suppressed_query
                .push(Feature::new(rest.trim().to_string())),
            "supd" => checkpoint
                .suppressed_ddl
                .push(Feature::new(rest.trim().to_string())),
            "kept" => checkpoint.kept_sets.push(features_from(rest)),
            "pstats" => {
                let parts = fields(line_no, rest, 3)?;
                checkpoint.prioritizer_stats = PrioritizerStats {
                    seen: parse_usize(line_no, parts[0])?,
                    prioritized: parse_usize(line_no, parts[1])?,
                    deduplicated: parse_usize(line_no, parts[2])?,
                };
            }
            "metrics" => {
                let parts = fields(line_no, rest, 13)?;
                let n = |i: usize| parse_u64(line_no, parts[i]);
                checkpoint.report.metrics = CampaignMetrics {
                    ddl_statements: n(0)?,
                    ddl_successes: n(1)?,
                    test_cases: n(2)?,
                    valid_test_cases: n(3)?,
                    detected_bug_cases: n(4)?,
                    prioritized_bugs: n(5)?,
                    deduplicated_bugs: n(6)?,
                    isolation_schedules: n(7)?,
                    conflict_aborts: n(8)?,
                    txn_begins: n(9)?,
                    tables_snapshotted: n(10)?,
                    tables_cow_cloned: n(11)?,
                    conflicts_avoided: n(12)?,
                };
            }
            "storage" => {
                let parts = fields(line_no, rest, 4)?;
                checkpoint.storage_delta = StorageMetrics {
                    txn_begins: parse_u64(line_no, parts[0])?,
                    tables_snapshotted: parse_u64(line_no, parts[1])?,
                    tables_cow_cloned: parse_u64(line_no, parts[2])?,
                    conflicts_avoided: parse_u64(line_no, parts[3])?,
                };
            }
            "counters" => {
                let parts = fields(line_no, rest, 13)?;
                let n = |i: usize| parse_u64(line_no, parts[i]);
                checkpoint.report.robustness = RobustnessCounters {
                    incidents: n(0)?,
                    retries: n(1)?,
                    watchdog_trips: n(2)?,
                    backoff_ticks: n(3)?,
                    quarantines: n(4)?,
                    oracle_panics: n(5)?,
                    infra_failures: n(6)?,
                    storage_metric_errors: n(7)?,
                    recovered_workers: n(8)?,
                    breaker_trips: n(9)?,
                    breaker_recoveries: n(10)?,
                    probe_failures: n(11)?,
                    capability_drifts: n(12)?,
                };
            }
            "resil" => {
                checkpoint.resilience = Some(unescape(rest));
            }
            "covo" => {
                let parts = fields(line_no, rest, 2)?;
                let entry = checkpoint
                    .report
                    .coverage
                    .oracles
                    .entry(parts[0].to_string())
                    .or_default();
                entry.cases = parse_u64(line_no, parts[1])?;
            }
            "covv" => {
                let parts = fields(line_no, rest, 3)?;
                let entry = checkpoint
                    .report
                    .coverage
                    .oracles
                    .entry(parts[0].to_string())
                    .or_default();
                entry
                    .verdicts
                    .insert(parts[1].to_string(), parse_u64(line_no, parts[2])?);
            }
            "covf" => {
                let (oracle, names) = rest.split_once(' ').unwrap_or((rest, ""));
                if oracle.is_empty() {
                    return Err(err(line_no, "coverage features need an oracle"));
                }
                checkpoint
                    .report
                    .coverage
                    .oracles
                    .entry(oracle.to_string())
                    .or_default()
                    .features = features_from(names);
            }
            "cove" => {
                let (plane, point) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(line_no, "engine point needs plane and point"))?;
                checkpoint
                    .report
                    .coverage
                    .engine
                    .record(plane, &unescape(point));
            }
            "covs" => {
                let parts = fields(line_no, rest, 4)?;
                let coverage = &mut checkpoint.report.coverage;
                coverage.saturation.novel_features = parse_u64(line_no, parts[0])?;
                coverage.saturation.trailing_dry_cases = parse_u64(line_no, parts[1])?;
                coverage.saturation.longest_dry_run = parse_u64(line_no, parts[2])?;
                coverage.dry_run = parse_u64(line_no, parts[3])?;
            }
            "covw" => {
                checkpoint.report.coverage.saturation.windows = parse_u64_list(line_no, rest)?;
            }
            "covc" => {
                checkpoint.report.coverage.saturation.window_cases = parse_u64_list(line_no, rest)?;
            }
            "covg" => {
                let parts = fields(line_no, rest, 2)?;
                checkpoint
                    .report
                    .coverage
                    .saturation
                    .gaps
                    .restore_stats(parse_u64(line_no, parts[0])?, parse_u64(line_no, parts[1])?);
            }
            "covgb" => {
                let parts = fields(line_no, rest, 2)?;
                checkpoint.report.coverage.saturation.gaps.restore_bucket(
                    parse_usize(line_no, parts[0])?,
                    parse_u64(line_no, parts[1])?,
                );
            }
            "covn" => {
                for token in rest.split_whitespace() {
                    let (name, mask) = token.split_once(':').ok_or_else(|| {
                        err(line_no, format_args!("malformed seen-feature '{token}'"))
                    })?;
                    let mask = mask.parse::<u8>().map_err(|_| {
                        err(line_no, format_args!("malformed seen-feature '{token}'"))
                    })?;
                    checkpoint
                        .report
                        .coverage
                        .seen
                        .insert(Feature::new(name), mask);
                }
            }
            "v" => {
                let bits = u64::from_str_radix(rest.trim(), 16)
                    .map_err(|_| err(line_no, format_args!("malformed sample '{rest}'")))?;
                checkpoint.report.validity_series.push(f64::from_bits(bits));
            }
            "setup" => checkpoint.setup_log.push(unescape(rest)),
            "incident" => {
                let (head, detail) = {
                    let mut parts = rest.splitn(7, ' ');
                    let kind = parts.next().unwrap_or("");
                    let database = parts.next().unwrap_or("");
                    let case_index = parts.next().unwrap_or("");
                    let attempt = parts.next().unwrap_or("");
                    let deadline = parts.next().unwrap_or("");
                    let observed = parts.next().unwrap_or("");
                    let detail = parts.next().unwrap_or("");
                    (
                        [kind, database, case_index, attempt, deadline, observed],
                        detail,
                    )
                };
                let kind = IncidentKind::parse(head[0])
                    .ok_or_else(|| err(line_no, format_args!("unknown incident '{}'", head[0])))?;
                checkpoint.report.incidents.push(CampaignIncident {
                    kind,
                    database: parse_usize(line_no, head[1])?,
                    case_index: parse_u64(line_no, head[2])?,
                    attempt: parse_u64(line_no, head[3])? as u32,
                    deadline_ticks: parse_u64(line_no, head[4])?,
                    observed_ticks: parse_u64(line_no, head[5])?,
                    detail: unescape(detail),
                });
            }
            "bug" => {
                block = Block::Bug(BugReport {
                    oracle: oracle_from_name(rest.trim()).map_err(|e| err(line_no, e))?,
                    description: String::new(),
                    setup: Vec::new(),
                    queries: Vec::new(),
                    features: FeatureSet::new(),
                });
            }
            "case" => {
                block = Block::Case(ReducibleCase {
                    setup: Vec::new(),
                    query: Select::new(),
                    predicate: Expr::boolean(true),
                    oracle: oracle_from_name(rest.trim()).map_err(|e| err(line_no, e))?,
                    features: FeatureSet::new(),
                });
            }
            "txn" => {
                block = Block::Txn(TxnCase {
                    setup: Vec::new(),
                    table: rest.trim().to_string(),
                    statements: Vec::new(),
                    features: FeatureSet::new(),
                });
            }
            "sched" => {
                block = Block::Sched(ScheduleCase {
                    setup: Vec::new(),
                    schedule: Schedule {
                        tables: Vec::new(),
                        sessions: Vec::new(),
                        interleaving: Vec::new(),
                    },
                    features: FeatureSet::new(),
                });
            }
            other => return Err(err(line_no, format_args!("unknown tag '{other}'"))),
        }
    }
    if !saw_header {
        return Err("not a campaign checkpoint (missing header)".to_string());
    }
    if !matches!(block, Block::None) {
        return Err("unterminated block at end of checkpoint".to_string());
    }
    checkpoint.schema = SchemaModel::restore(tables, indexes, name_counter);
    Ok(checkpoint)
}

// ----------------------------------------------------------------- I/O ----

/// Writes a checkpoint atomically: the text is written to `<path>.tmp` and
/// renamed over `path`, so a crash mid-write leaves the previous checkpoint
/// intact (rename is atomic on POSIX filesystems).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_checkpoint(checkpoint: &CampaignCheckpoint, path: &Path) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, checkpoint_to_string(checkpoint))?;
    std::fs::rename(&tmp, path)
}

/// Loads a checkpoint from a file.
///
/// # Errors
///
/// Propagates I/O errors and format errors.
pub fn load_checkpoint(path: &Path) -> Result<CampaignCheckpoint, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    checkpoint_from_string(&text)
}

// ---------------------------------------------------- report rendering ----

/// Renders a campaign report to a canonical text form. Two reports render
/// identically **iff** every reported quantity — metrics, robustness
/// counters, incidents, bug reports, replayable cases and the validity
/// series (bit-exact) — is identical, which is how the resume-determinism
/// tests and the CI fault-storm gate state their byte-identity claims.
pub fn render_report(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# campaign report: {}", report.dbms_name);
    let _ = writeln!(out, "degraded {}", u8::from(report.degraded));
    write_metrics(&mut out, &report.metrics);
    write_counters(&mut out, &report.robustness);
    for sample in &report.validity_series {
        let _ = writeln!(out, "v {:016x}", sample.to_bits());
    }
    for incident in &report.incidents {
        write_incident(&mut out, incident);
    }
    for bug in &report.reports {
        write_bug(&mut out, bug);
    }
    for case in &report.prioritized_cases {
        write_case(&mut out, case);
    }
    for case in &report.txn_cases {
        write_txn_case(&mut out, case);
    }
    for case in &report.schedule_cases {
        write_schedule_case(&mut out, case);
    }
    out
}

/// Locates the first line where two renderings (of [`render_report`] or
/// any other canonical text form) differ: `None` when they are identical,
/// otherwise the 1-based line number with both lines. A text that ends
/// early shows as `<end of text>` on its side, so a rendering that is a
/// strict prefix of the other is reported at its first missing line.
pub fn first_divergence(expected: &str, actual: &str) -> Option<String> {
    let mut expected_lines = expected.lines();
    let mut actual_lines = actual.lines();
    for number in 1.. {
        match (expected_lines.next(), actual_lines.next()) {
            (None, None) => break,
            (left, right) if left == right => {}
            (left, right) => {
                let show =
                    |line: Option<&str>| line.map_or("<end of text>".into(), |l| format!("`{l}`"));
                return Some(format!(
                    "line {number}: expected {}, actual {}",
                    show(left),
                    show(right)
                ));
            }
        }
    }
    // Line-equal texts can still differ in line endings.
    (expected != actual).then(|| "texts differ only in their line endings".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_divergence_names_the_first_differing_line() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_divergence("a\nb\nc\n", "a\nx\nc\n").as_deref(),
            Some("line 2: expected `b`, actual `x`")
        );
        assert_eq!(
            first_divergence("a\nb\n", "a\n").as_deref(),
            Some("line 2: expected `b`, actual <end of text>")
        );
        assert_eq!(
            first_divergence("a", "a\nextra").as_deref(),
            Some("line 2: expected <end of text>, actual `extra`")
        );
        assert!(first_divergence("a", "a\n").is_some());
    }
    use sql_ast::SelectItem;

    fn feature_set(names: &[&str]) -> FeatureSet {
        names.iter().map(|n| Feature::new(n.to_string())).collect()
    }

    fn sample_checkpoint() -> CampaignCheckpoint {
        let mut schema = SchemaModel::new();
        schema.apply_success(&parse_statement("CREATE TABLE t0 (c0 INTEGER, c1 TEXT)").unwrap());
        schema.apply_success(&parse_statement("CREATE INDEX i0 ON t0(c0)").unwrap());
        schema.apply_success(&parse_statement("INSERT INTO t0 (c0, c1) VALUES (1, 'x')").unwrap());
        // Advance the name counter past the object count: rejected DDL and
        // query-time aliases burn names without creating objects, and the
        // checkpoint must carry the counter verbatim, not recompute it.
        let _ = schema.free_name("t");
        let _ = schema.free_name("sub");
        let _ = schema.free_name("alias");

        let mut stats = FeatureStats::new();
        stats.record(&feature_set(&["OP_EQ", "FN_ABS"]), FeatureKind::Query, true);
        stats.record(&feature_set(&["OP_EQ"]), FeatureKind::Query, false);
        stats.record(&feature_set(&["TYPE_TEXT"]), FeatureKind::DdlDml, true);

        let select = Select {
            projections: vec![SelectItem::expr(Expr::column("c0"))],
            from: vec![sql_ast::TableWithJoins::table("t0")],
            where_clause: Some(Expr::column("c0").eq(Expr::integer(1))),
            ..Select::new()
        };
        let predicate = Expr::column("c0").eq(Expr::integer(1));

        let mut report = CampaignReport {
            dbms_name: "simdb (mariadb)".to_string(),
            ..CampaignReport::default()
        };
        report.degraded = true;
        report.metrics.test_cases = 42;
        report.metrics.valid_test_cases = 40;
        report.validity_series = vec![0.5, 0.975, 1.0 / 3.0];
        report.robustness.retries = 3;
        report.robustness.incidents = 2;
        report.incidents.push(CampaignIncident {
            kind: IncidentKind::BackendCrash,
            database: 1,
            case_index: 17,
            attempt: 0,
            deadline_ticks: 100_000,
            observed_ticks: 312,
            detail: "infra: backend crashed (injected infra_crash)".to_string(),
        });
        report.reports.push(BugReport {
            oracle: OracleKind::Tlp,
            description: "TLP mismatch: base 2 rows, partitions 1".to_string(),
            setup: vec!["CREATE TABLE t0 (c0 INTEGER)".to_string()],
            queries: vec!["SELECT c0 FROM t0".to_string()],
            features: feature_set(&["OP_EQ"]),
        });
        report.prioritized_cases.push(ReducibleCase {
            setup: vec!["CREATE TABLE t0 (c0 INTEGER)".to_string()],
            query: select,
            predicate,
            oracle: OracleKind::Tlp,
            features: feature_set(&["OP_EQ"]),
        });
        report.txn_cases.push(TxnCase {
            setup: vec!["CREATE TABLE t0 (c0 INTEGER)".to_string()],
            table: "t0".to_string(),
            statements: vec![
                parse_statement("INSERT INTO t0 (c0) VALUES (1)").unwrap(),
                parse_statement("SAVEPOINT sp1").unwrap(),
                parse_statement("ROLLBACK TO sp1").unwrap(),
            ],
            features: feature_set(&["TXN_SAVEPOINT"]),
        });
        report.coverage.begin_database();
        report.coverage.observe_case(
            OracleKind::Tlp,
            crate::trace::TraceVerdict::Pass,
            &feature_set(&["OP_EQ", "FN_ABS"]),
            0,
        );
        report.coverage.observe_case(
            OracleKind::NoRec,
            crate::trace::TraceVerdict::Invalid,
            &feature_set(&["OP_EQ"]),
            1,
        );
        let mut engine = crate::dbms::EngineCoverage::default();
        engine.record("functions", "ABS");
        engine.record("statements", "STMT_SELECT");
        report.coverage.absorb_engine(&engine);
        report.schedule_cases.push(ScheduleCase {
            setup: vec!["CREATE TABLE t0 (c0 INTEGER)".to_string()],
            schedule: Schedule {
                tables: vec!["t0".to_string()],
                sessions: vec![
                    SessionScript {
                        begin: BeginMode::Plain,
                        statements: vec![
                            parse_statement("UPDATE t0 SET c0 = 2 WHERE (c0 = 1)").unwrap()
                        ],
                        commit: true,
                    },
                    SessionScript {
                        begin: BeginMode::Immediate,
                        statements: vec![parse_statement("DELETE FROM t0").unwrap()],
                        commit: false,
                    },
                ],
                interleaving: vec![0, 1, 0, 1, 0, 1],
            },
            features: feature_set(&["ISO_SCHEDULE"]),
        });

        CampaignCheckpoint {
            config_seed: 0xBEEF,
            database: 1,
            next_case: 17,
            oracle_index: 53,
            rng_state: 0x1234_5678_9ABC_DEF0,
            recorded: 99,
            current_depth: 4,
            schema,
            stats,
            suppressed_query: vec![Feature::new("OP_NULLSAFE_EQ")],
            suppressed_ddl: vec![Feature::new("TYPE_BOOLEAN")],
            kept_sets: vec![feature_set(&["OP_EQ"]), FeatureSet::new()],
            prioritizer_stats: PrioritizerStats {
                seen: 5,
                prioritized: 2,
                deduplicated: 3,
            },
            setup_log: vec![
                "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)".to_string(),
                "INSERT INTO t0 (c0, c1) VALUES (1, 'a\nb\\c')".to_string(),
            ],
            storage_delta: StorageMetrics {
                txn_begins: 7,
                tables_snapshotted: 14,
                tables_cow_cloned: 3,
                conflicts_avoided: 1,
            },
            consecutive_infra: 2,
            resilience: Some(
                "v1 clock 42 | 1 closed 0 0 | 0 open 50 2 | 0 half 0 1 | 0 closed 0 0".to_string(),
            ),
            report,
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let original = sample_checkpoint();
        let text = checkpoint_to_string(&original);
        let loaded = checkpoint_from_string(&text).unwrap();
        // The text format is the equality witness: a second serialisation
        // of the parsed checkpoint must be byte-identical.
        assert_eq!(checkpoint_to_string(&loaded), text);
        // Spot-check the semantically critical fields directly too.
        assert_eq!(loaded.config_seed, original.config_seed);
        assert_eq!(loaded.rng_state, original.rng_state);
        assert_eq!(loaded.schema, original.schema);
        assert_eq!(loaded.setup_log, original.setup_log);
        assert_eq!(loaded.kept_sets, original.kept_sets);
        assert_eq!(loaded.prioritizer_stats, original.prioritizer_stats);
        assert_eq!(loaded.consecutive_infra, original.consecutive_infra);
        assert_eq!(loaded.resilience, original.resilience);
        assert_eq!(loaded.report.degraded, original.report.degraded);
        assert_eq!(loaded.report.metrics, original.report.metrics);
        assert_eq!(loaded.report.robustness, original.report.robustness);
        assert_eq!(loaded.report.incidents, original.report.incidents);
        assert_eq!(loaded.report.reports, original.report.reports);
        // The atlas — including the per-database working state that keeps
        // a resumed novelty stream exact — is carried verbatim.
        assert_eq!(loaded.report.coverage, original.report.coverage);
        // f64 samples round-trip bit-exactly through the hex encoding.
        assert_eq!(
            loaded
                .report
                .validity_series
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            original
                .report
                .validity_series
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn schema_name_counter_is_carried_verbatim() {
        let original = sample_checkpoint();
        let text = checkpoint_to_string(&original);
        let loaded = checkpoint_from_string(&text).unwrap();
        assert_eq!(loaded.schema.name_counter(), original.schema.name_counter());
        assert!(loaded.schema.name_counter() > loaded.schema.object_count());
    }

    #[test]
    fn save_and_load_are_atomic_via_rename() {
        let dir =
            std::env::temp_dir().join(format!("sqlancerpp-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let original = sample_checkpoint();
        save_checkpoint(&original, &path).unwrap();
        // The temp file must be gone after a successful save.
        assert!(!dir.join("campaign.ckpt.tmp").exists());
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(
            checkpoint_to_string(&loaded),
            checkpoint_to_string(&original)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(checkpoint_from_string("").is_err(), "missing header");
        assert!(
            checkpoint_from_string("seed 1\n").is_err(),
            "missing header"
        );
        assert!(
            checkpoint_from_string(&format!("{HEADER}\nwhatisthis 1\n")).is_err(),
            "unknown tag"
        );
        assert!(
            checkpoint_from_string(&format!("{HEADER}\nbug TLP\nbd x\n")).is_err(),
            "unterminated block"
        );
        assert!(
            checkpoint_from_string(&format!("{HEADER}\ncursor 1 2\n")).is_err(),
            "wrong arity"
        );
        assert!(
            checkpoint_from_string(&format!("{HEADER}\nbug NOPE\nend\n")).is_err(),
            "unknown oracle"
        );
        // A valid minimal checkpoint parses.
        assert!(checkpoint_from_string(&format!("{HEADER}\nseed 7\n")).is_ok());
    }

    #[test]
    fn escaping_round_trips_hostile_strings() {
        for hostile in [
            "plain",
            "back\\slash",
            "new\nline",
            "carriage\rreturn",
            "\\n literal",
            "trailing\\",
            "mix\\\n\r\\r",
        ] {
            assert_eq!(unescape(&escape(hostile)), hostile, "{hostile:?}");
            assert!(!escape(hostile).contains('\n'));
            assert!(!escape(hostile).contains('\r'));
        }
    }

    #[test]
    fn render_report_distinguishes_differing_reports() {
        let base = sample_checkpoint().report;
        let rendered = render_report(&base);
        assert!(rendered.contains("degraded 1"));
        let mut tweaked = base.clone();
        tweaked.metrics.valid_test_cases += 1;
        assert_ne!(render_report(&tweaked), rendered);
        let mut tweaked = base.clone();
        tweaked.validity_series[0] += 1e-15;
        assert_ne!(render_report(&tweaked), rendered, "bit-exact series");
        assert_eq!(render_report(&base.clone()), rendered);
    }
}
