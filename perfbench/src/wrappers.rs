//! Timing wrappers around each layer's public API. Nothing here changes
//! what a campaign does: every wrapper forwards every `DbmsConnection`
//! method, so reports stay byte-identical to an unwrapped campaign (the
//! tests in `workload.rs` hold them to that).
//!
//! The stack in a traced run, outermost first:
//!
//! ```text
//! Campaign ─ TracedConnection (core) ─ CaseClock ─ Pool ─ TimedConn ─ TextAdapter ─ backend
//! ```

use crate::spans::{self, Layer, Op};
use sql_ast::{Select, Statement};
use sqlancer_core::{
    BackendEvent, Capability, DbmsConnection, DialectQuirks, Driver, EngineCoverage, OracleKind,
    QueryResult, ResilienceEvent, StateCheckpoint, StatementOutcome, StorageMetrics, TraceEvent,
    TraceEventKind, TraceSink,
};
use std::time::Instant;

/// Call counters kept beside the spans: rows and rejections are outcomes,
/// not times, so they are counted where the call returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounts {
    /// Statements (exec + query) the backend answered.
    pub statements: u64,
    /// Statements the backend rejected or failed.
    pub rejected: u64,
    /// Queries that returned rows.
    pub queries_ok: u64,
    /// Rows those queries returned.
    pub rows: u64,
}

thread_local! {
    static COUNTS: std::cell::Cell<BackendCounts> = const { std::cell::Cell::new(BackendCounts {
        statements: 0,
        rejected: 0,
        queries_ok: 0,
        rows: 0,
    }) };
}

/// Returns and clears this thread's backend call counters.
pub fn take_counts() -> BackendCounts {
    COUNTS.with(|c| c.replace(BackendCounts::default()))
}

fn count(rejected: bool, rows: Option<usize>) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        counts.statements += 1;
        counts.rejected += u64::from(rejected);
        if let Some(rows) = rows {
            counts.queries_ok += 1;
            counts.rows += rows as u64;
        }
        c.set(counts);
    });
}

/// The outermost wrapper, around the pool: stamps each case's wall time
/// from its first `begin_case` (a retry repeats the seed and keeps the
/// first stamp) to `note_case_outcome`. It has to sit outside the pool,
/// because the pool consumes `note_case_outcome` and never forwards it.
/// When a span log is installed, every call also becomes a `Pool` span and
/// a database boundary starts the `Setup` phase.
pub struct CaseClock<'a> {
    inner: &'a mut dyn DbmsConnection,
    open_case: Option<(u64, Instant)>,
    /// Wall time of every finished case, ns, in case order.
    pub case_ns: Vec<u64>,
}

impl<'a> CaseClock<'a> {
    /// Wraps the campaign's connection (the pool).
    pub fn new(inner: &'a mut dyn DbmsConnection) -> CaseClock<'a> {
        CaseClock {
            inner,
            open_case: None,
            case_ns: Vec::new(),
        }
    }
}

fn pool<T>(op: Op, f: impl FnOnce() -> T) -> T {
    spans::timed(Layer::Pool, op, f)
}

impl DbmsConnection for CaseClock<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        pool(Op::Exec, || self.inner.execute(sql))
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        pool(Op::Query, || self.inner.query(sql))
    }

    fn reset(&mut self) {
        pool(Op::Other, || self.inner.reset());
    }

    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        pool(Op::Exec, || self.inner.execute_ast(stmt))
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        pool(Op::Query, || self.inner.query_ast(select))
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        // Sessions come back already wrapped by `TimedConn`; wrapping them
        // again here would count their time twice.
        pool(Op::Other, || self.inner.open_session())
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        pool(Op::Other, || self.inner.storage_metrics())
    }

    fn begin_case(&mut self, case_seed: u64) {
        if case_seed != 0 && self.open_case.map(|(seed, _)| seed) != Some(case_seed) {
            self.open_case = Some((case_seed, Instant::now()));
        }
        pool(Op::Other, || self.inner.begin_case(case_seed));
    }

    fn virtual_ticks(&self) -> u64 {
        self.inner.virtual_ticks()
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        pool(Op::Checkpoint, || self.inner.checkpoint())
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        pool(Op::Checkpoint, || self.inner.restore(checkpoint))
    }

    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        pool(Op::Other, || self.inner.drain_backend_events())
    }

    fn engine_coverage(&self) -> Option<EngineCoverage> {
        pool(Op::Other, || self.inner.engine_coverage())
    }

    fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        self.inner.drain_resilience_events()
    }

    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        pool(Op::Other, || {
            self.inner.note_case_outcome(case_seed, infra_failed);
        });
        if let Some((seed, start)) = self.open_case {
            if seed == case_seed {
                let ns = start.elapsed().as_nanos();
                self.case_ns.push(u64::try_from(ns).unwrap_or(u64::MAX));
                self.open_case = None;
            }
        }
    }

    fn resilience_checkpoint(&self) -> Option<String> {
        self.inner.resilience_checkpoint()
    }

    fn restore_resilience(&mut self, data: &str) -> bool {
        self.inner.restore_resilience(data)
    }

    fn note_database_boundary(&mut self) {
        spans::switch_phase(Layer::Setup, 0);
        pool(Op::Other, || self.inner.note_database_boundary());
    }
}

/// Which text work the [`TextAdapter`] does itself, and therefore times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextMode {
    /// Simulated DBMS on the text path: AST calls are rendered to SQL and
    /// parsed back; text calls are parsed. The AST goes to the engine.
    SimText,
    /// Simulated DBMS on the AST path: AST calls pass straight through;
    /// text calls (setup replay, reduction) are parsed.
    SimAst,
    /// Wire backend: AST calls are rendered; the backend parses the text.
    Wire,
}

/// The traced run's text adapter: does the rendering and parsing that the
/// backend (or `TextOnlyConnection`) would otherwise do inside its call,
/// each in its own span, with the same results and the same error text as
/// the simulated DBMS's own text entry points.
pub struct TextAdapter {
    inner: Box<dyn DbmsConnection>,
    mode: TextMode,
}

impl TextAdapter {
    /// Wraps a bare backend connection (no `TextOnlyConnection`).
    pub fn new(inner: Box<dyn DbmsConnection>, mode: TextMode) -> TextAdapter {
        TextAdapter { inner, mode }
    }

    fn parse(sql: &str) -> Result<Statement, String> {
        spans::timed(Layer::Parse, Op::Other, || sql_parser::parse_statement(sql))
            .map_err(|err| format!("syntax error: {err}"))
    }

    fn execute_text(&mut self, sql: &str) -> StatementOutcome {
        match TextAdapter::parse(sql) {
            Ok(stmt) => self.inner.execute_ast(&stmt),
            Err(message) => StatementOutcome::Failure(message),
        }
    }

    fn query_text(&mut self, sql: &str) -> Result<QueryResult, String> {
        match TextAdapter::parse(sql)? {
            Statement::Select(select) => self.inner.query_ast(&select),
            // Not a query: the backend's own text path words the rejection.
            _ => self.inner.query(sql),
        }
    }
}

fn render(display: &dyn std::fmt::Display) -> String {
    spans::timed(Layer::Render, Op::Other, || display.to_string())
}

impl DbmsConnection for TextAdapter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        match self.mode {
            TextMode::Wire => self.inner.execute(sql),
            TextMode::SimText | TextMode::SimAst => self.execute_text(sql),
        }
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        match self.mode {
            TextMode::Wire => self.inner.query(sql),
            TextMode::SimText | TextMode::SimAst => self.query_text(sql),
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        match self.mode {
            TextMode::SimAst => self.inner.execute_ast(stmt),
            TextMode::SimText => {
                let sql = render(stmt);
                self.execute_text(&sql)
            }
            TextMode::Wire => {
                let sql = render(stmt);
                self.inner.execute(&sql)
            }
        }
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        match self.mode {
            TextMode::SimAst => self.inner.query_ast(select),
            TextMode::SimText => {
                let sql = render(select);
                self.query_text(&sql)
            }
            TextMode::Wire => {
                let sql = render(select);
                self.inner.query(&sql)
            }
        }
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        let mode = self.mode;
        self.inner
            .open_session()
            .map(|session| Box::new(TextAdapter::new(session, mode)) as Box<dyn DbmsConnection>)
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        self.inner.storage_metrics()
    }

    fn begin_case(&mut self, case_seed: u64) {
        self.inner.begin_case(case_seed);
    }

    fn virtual_ticks(&self) -> u64 {
        self.inner.virtual_ticks()
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        self.inner.restore(checkpoint)
    }

    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        self.inner.drain_backend_events()
    }

    fn engine_coverage(&self) -> Option<EngineCoverage> {
        self.inner.engine_coverage()
    }

    fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        self.inner.drain_resilience_events()
    }

    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        self.inner.note_case_outcome(case_seed, infra_failed);
    }

    fn resilience_checkpoint(&self) -> Option<String> {
        self.inner.resilience_checkpoint()
    }

    fn restore_resilience(&mut self, data: &str) -> bool {
        self.inner.restore_resilience(data)
    }

    fn note_database_boundary(&mut self) {
        self.inner.note_database_boundary();
    }
}

/// Times every call on one pooled connection, or on one session that
/// connection opened, as a `Backend` span.
pub struct TimedConn {
    inner: Box<dyn DbmsConnection>,
}

impl TimedConn {
    /// Wraps a backend connection.
    pub fn new(inner: Box<dyn DbmsConnection>) -> TimedConn {
        TimedConn { inner }
    }
}

fn backend<T>(op: Op, f: impl FnOnce() -> T) -> T {
    spans::timed(Layer::Backend, op, f)
}

impl DbmsConnection for TimedConn {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        let outcome = backend(Op::Exec, || self.inner.execute(sql));
        count(!outcome.is_success(), None);
        outcome
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        let result = backend(Op::Query, || self.inner.query(sql));
        count(
            result.is_err(),
            result.as_ref().ok().map(QueryResult::row_count),
        );
        result
    }

    fn reset(&mut self) {
        backend(Op::Other, || self.inner.reset());
    }

    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        let outcome = backend(Op::Exec, || self.inner.execute_ast(stmt));
        count(!outcome.is_success(), None);
        outcome
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        let result = backend(Op::Query, || self.inner.query_ast(select));
        count(
            result.is_err(),
            result.as_ref().ok().map(QueryResult::row_count),
        );
        result
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        backend(Op::Other, || self.inner.open_session())
            .map(|session| Box::new(TimedConn::new(session)) as Box<dyn DbmsConnection>)
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        backend(Op::Other, || self.inner.storage_metrics())
    }

    fn begin_case(&mut self, case_seed: u64) {
        backend(Op::Other, || self.inner.begin_case(case_seed));
    }

    fn virtual_ticks(&self) -> u64 {
        self.inner.virtual_ticks()
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        backend(Op::Checkpoint, || self.inner.checkpoint())
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        backend(Op::Checkpoint, || self.inner.restore(checkpoint))
    }

    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        self.inner.drain_backend_events()
    }

    fn engine_coverage(&self) -> Option<EngineCoverage> {
        backend(Op::Other, || self.inner.engine_coverage())
    }

    fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        self.inner.drain_resilience_events()
    }

    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        self.inner.note_case_outcome(case_seed, infra_failed);
    }

    fn resilience_checkpoint(&self) -> Option<String> {
        self.inner.resilience_checkpoint()
    }

    fn restore_resilience(&mut self, data: &str) -> bool {
        self.inner.restore_resilience(data)
    }

    fn note_database_boundary(&mut self) {
        self.inner.note_database_boundary();
    }
}

/// The traced run's driver: connects through the wrapped driver, or
/// through a bare-backend constructor when a [`TextAdapter`] must replace
/// the backend's own text handling, and wraps each connection in
/// [`TimedConn`]. Reports the wrapped driver's name and capability.
pub struct TimedDriver {
    name: String,
    capability: Capability,
    connect: Box<dyn Fn() -> Result<Box<dyn DbmsConnection>, String> + Send + Sync>,
}

impl TimedDriver {
    /// A timed driver with the given identity and connection factory.
    pub fn new(
        name: String,
        capability: Capability,
        connect: Box<dyn Fn() -> Result<Box<dyn DbmsConnection>, String> + Send + Sync>,
    ) -> TimedDriver {
        TimedDriver {
            name,
            capability,
            connect,
        }
    }
}

impl Driver for TimedDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn capability(&self) -> Capability {
        self.capability.clone()
    }

    fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
        (self.connect)().map(|conn| Box::new(TimedConn::new(conn)) as Box<dyn DbmsConnection>)
    }
}

/// Trace-plane counts the sink collects beside the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounts {
    /// Cases started, per oracle (TLP, NoREC, rollback, isolation).
    pub cases: [u64; 4],
    /// Setup statements executed during `Setup` phases, and how many
    /// succeeded.
    pub setup_statements: u64,
    /// Successful setup statements.
    pub setup_ok: u64,
    /// Prioritizer rulings that kept the bug.
    pub kept: u64,
    /// Prioritizer rulings that dropped it as a duplicate.
    pub dropped: u64,
    /// Reductions finished, with statement counts before and after.
    pub reductions: u64,
    /// Σ statements before reduction.
    pub reduce_before: u64,
    /// Σ statements after reduction.
    pub reduce_after: u64,
    /// Pool checkouts.
    pub checkouts: u64,
    /// Pool slot re-syncs.
    pub resyncs: u64,
    /// Wire bytes written plus read.
    pub wire_bytes: u64,
    /// Backend child respawns.
    pub respawns: u64,
}

/// Index of an oracle in [`SinkCounts::cases`].
pub fn oracle_index(oracle: OracleKind) -> usize {
    match oracle {
        OracleKind::Tlp => 0,
        OracleKind::NoRec => 1,
        OracleKind::Rollback => 2,
        OracleKind::Isolation => 3,
    }
}

/// The benchmark's trace sink: stamps `CaseStarted`, `Verdict`,
/// `Prioritized`, `Reduced` and `SetupStatement` events with wall-clock
/// time by switching the span log's phase, and counts what they report.
#[derive(Debug, Default)]
pub struct StampSink {
    /// What the events reported so far.
    pub counts: SinkCounts,
}

impl TraceSink for StampSink {
    fn event(&mut self, event: &TraceEvent) {
        match &event.kind {
            TraceEventKind::CaseStarted { oracle, .. } => {
                self.counts.cases[oracle_index(*oracle)] += 1;
                let phase = match oracle {
                    OracleKind::Tlp => Layer::OracleTlp,
                    OracleKind::NoRec => Layer::OracleNorec,
                    OracleKind::Rollback => Layer::OracleRollback,
                    OracleKind::Isolation => Layer::OracleIsolation,
                };
                spans::switch_phase(phase, event.case_seed);
            }
            TraceEventKind::Verdict { .. } => spans::switch_phase(Layer::Generator, 0),
            TraceEventKind::Prioritized { kept } => {
                if *kept {
                    self.counts.kept += 1;
                    spans::switch_phase(Layer::Reducer, event.case_seed);
                } else {
                    self.counts.dropped += 1;
                }
            }
            TraceEventKind::Reduced {
                statements_before,
                statements_after,
            } => {
                self.counts.reductions += 1;
                self.counts.reduce_before += *statements_before as u64;
                self.counts.reduce_after += *statements_after as u64;
                spans::switch_phase(Layer::Generator, 0);
            }
            TraceEventKind::SetupStatement { ok }
                if spans::current_phase() == Some(Layer::Setup) =>
            {
                self.counts.setup_statements += 1;
                self.counts.setup_ok += u64::from(*ok);
            }
            _ => {}
        }
    }

    fn backend_event(&mut self, event: &BackendEvent) {
        match event {
            BackendEvent::SlotCheckouts { count, .. } => self.counts.checkouts += count,
            BackendEvent::SlotResyncs { count, .. } => self.counts.resyncs += count,
            BackendEvent::WireWrites { bytes } | BackendEvent::WireReads { bytes } => {
                self.counts.wire_bytes += bytes;
            }
            BackendEvent::Respawns { count } => self.counts.respawns += count,
            _ => {}
        }
    }
}
