//! In-memory span log for the traced run, plus the statistics helpers the
//! benchmark reports with (percentiles, self time, unattributed share).
//!
//! Spans live in a thread-local log: the campaign runs on one thread, and a
//! `Driver` must be `Send + Sync`, so the timing wrappers cannot hold an
//! `Rc` to a shared log. With no log installed (the untraced run) every
//! recording call is a no-op.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span belongs to. Phase layers (`Setup`, `Generator`,
/// `Oracle*`, `Reducer`) tile a campaign's wall time between trace events;
/// call layers (`Pool`, `Backend`, `Render`, `Parse`) wrap calls into a
/// layer's public API and nest under the phase that made them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One campaign: `Campaign::run_supervised` from call to return.
    Campaign,
    /// Database setup: database boundary to the first case's start.
    Setup,
    /// Case generation plus the learner/atlas update of the previous case.
    Generator,
    /// A TLP case, `CaseStarted` to `Verdict`.
    OracleTlp,
    /// A NoREC case.
    OracleNorec,
    /// A rollback-oracle case.
    OracleRollback,
    /// An isolation-oracle case.
    OracleIsolation,
    /// Reduction of a kept bug: `Prioritized` to `Reduced`.
    Reducer,
    /// One call on the campaign's connection, which is the `Pool`.
    Pool,
    /// One call on a pooled backend connection or one of its sessions.
    Backend,
    /// Rendering a statement AST to SQL text.
    Render,
    /// `sql_parser::parse_statement`.
    Parse,
}

impl Layer {
    /// The name written to the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Campaign => "campaign",
            Layer::Setup => "setup",
            Layer::Generator => "generator",
            Layer::OracleTlp => "oracle.tlp",
            Layer::OracleNorec => "oracle.norec",
            Layer::OracleRollback => "oracle.rollback",
            Layer::OracleIsolation => "oracle.isolation",
            Layer::Reducer => "reducer",
            Layer::Pool => "pool",
            Layer::Backend => "backend",
            Layer::Render => "render",
            Layer::Parse => "parse",
        }
    }

    /// `true` for the four per-oracle case phases.
    pub fn is_oracle(self) -> bool {
        matches!(
            self,
            Layer::OracleTlp | Layer::OracleNorec | Layer::OracleRollback | Layer::OracleIsolation
        )
    }
}

/// What a call span did, so per-statement metrics count statements only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `execute` / `execute_ast`.
    Exec,
    /// `query` / `query_ast`.
    Query,
    /// `checkpoint` / `restore`.
    Checkpoint,
    /// Anything else (reset, case bookkeeping, sessions, counters).
    Other,
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the log was installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// What the call did (phases use [`Op::Other`]).
    pub op: Op,
    /// The phase that was running when the span opened (a phase's own
    /// phase is itself).
    pub phase: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Seed of the case being run when the span opened (0 outside cases).
    pub case_seed: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span log of one traced campaign repetition.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Every span recorded, in open order (a parent precedes its children).
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    phase: Layer,
    case_seed: u64,
}

impl SpanLog {
    fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            phase: Layer::Campaign,
            case_seed: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open_at(&mut self, layer: Layer, op: Op, start: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span log holds fewer than 2^32 spans");
        let phase = if layer == Layer::Campaign || is_phase(layer) {
            layer
        } else {
            self.phase
        };
        self.spans.push(Span {
            layer,
            op,
            phase,
            start,
            end: start,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            case_seed: self.case_seed,
        });
        self.stack.push(id);
        id
    }

    fn close_at(&mut self, id: u32, end: u64) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in reverse open order");
        self.spans[id as usize].end = end;
    }
}

fn is_phase(layer: Layer) -> bool {
    matches!(layer, Layer::Setup | Layer::Generator | Layer::Reducer) || layer.is_oracle()
}

thread_local! {
    static LOG: RefCell<Option<SpanLog>> = const { RefCell::new(None) };
}

/// Installs an empty span log on this thread: recording starts.
pub fn install() {
    LOG.with(|log| *log.borrow_mut() = Some(SpanLog::new()));
}

/// Removes and returns this thread's span log: recording stops.
pub fn take() -> Option<SpanLog> {
    LOG.with(|log| log.borrow_mut().take())
}

/// Opens a call span under the innermost open span. Returns `None` (and
/// records nothing) when no log is installed or no campaign span is open —
/// work outside a campaign, such as `Pool::new`'s probe, is set-up time.
pub fn open(layer: Layer, op: Op) -> Option<u32> {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        let log = log.as_mut()?;
        if log.stack.is_empty() {
            return None;
        }
        let now = log.now();
        Some(log.open_at(layer, op, now))
    })
}

/// Closes a span returned by [`open`].
pub fn close(id: Option<u32>) {
    if let Some(id) = id {
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                let now = log.now();
                log.close_at(id, now);
            }
        });
    }
}

/// Runs `f` inside a call span.
pub fn timed<T>(layer: Layer, op: Op, f: impl FnOnce() -> T) -> T {
    let id = open(layer, op);
    let out = f();
    close(id);
    out
}

/// Opens the root span of one campaign. No phase runs until the first
/// database boundary, so the campaign's prologue stays unattributed.
pub fn begin_campaign() {
    LOG.with(|log| {
        if let Some(log) = log.borrow_mut().as_mut() {
            let now = log.now();
            log.phase = Layer::Campaign;
            log.case_seed = 0;
            log.open_at(Layer::Campaign, Op::Other, now);
        }
    });
}

/// Closes the running phase and the campaign's root span.
pub fn end_campaign() {
    LOG.with(|log| {
        if let Some(log) = log.borrow_mut().as_mut() {
            let now = log.now();
            while let Some(&id) = log.stack.last() {
                log.close_at(id, now);
            }
        }
    });
}

/// Ends the running phase and starts `next` at the same instant, so phases
/// tile the campaign span without gaps. `case_seed` stamps spans opened
/// during the new phase. A no-op outside a campaign.
pub fn switch_phase(next: Layer, case_seed: u64) {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        let Some(log) = log.as_mut() else { return };
        if log.stack.is_empty() {
            return;
        }
        let now = log.now();
        // Only the campaign span and the running phase may be open here:
        // trace events and database boundaries never arrive mid-call.
        while log.stack.len() > 1 {
            let id = *log.stack.last().expect("stack holds the phase");
            log.close_at(id, now);
        }
        log.phase = next;
        log.case_seed = case_seed;
        log.open_at(next, Op::Other, now);
    });
}

/// The phase currently running, if a campaign is open.
pub fn current_phase() -> Option<Layer> {
    LOG.with(|log| {
        log.borrow()
            .as_ref()
            .filter(|log| !log.stack.is_empty())
            .map(|log| log.phase)
    })
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Overlapping children
/// are merged first, so no instant is subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|span| span.parent != NO_PARENT)
        .map(|span| (span.parent, span.start, span.end))
        .collect();
    children.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::duration).collect();
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let p = spans[parent as usize];
        let mut covered = 0u64;
        let mut run: Option<(u64, u64)> = None;
        while i < children.len() && children[i].0 == parent {
            let start = children[i].1.clamp(p.start, p.end);
            let end = children[i].2.clamp(p.start, p.end);
            run = match run {
                Some((s, e)) if start <= e => Some((s, e.max(end))),
                Some((s, e)) => {
                    covered += e - s;
                    Some((start, end))
                }
                None => Some((start, end)),
            };
            i += 1;
        }
        if let Some((s, e)) = run {
            covered += e - s;
        }
        out[parent as usize] = p.duration().saturating_sub(covered);
    }
    out
}

/// Time of the root spans that no child span covers, and their total
/// time, ns. The unattributed share is the first over the second.
pub fn root_times(spans: &[Span], self_ns: &[u64]) -> (u64, u64) {
    let (mut own, mut total) = (0u64, 0u64);
    for (span, own_ns) in spans.iter().zip(self_ns) {
        if span.parent == NO_PARENT {
            own += own_ns;
            total += span.duration();
        }
    }
    (own, total)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank index of percentile `q` (0 < q ≤ 1) in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The median of sorted samples, or `None` when there are none.
pub fn median(sorted: &[u64]) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(0.5, sorted.len())])
}

/// The tail percentile to report: the highest percentile, at most
/// `target`, with at least ten samples beyond it, and its value. `None`
/// when fewer than eleven samples exist.
pub fn tail(sorted: &[u64], target: f64) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    // Index n - 11 is the last one with ten samples after it.
    let index = rank(target, n).min(n - 11);
    Some(((index + 1) as f64 / n as f64, sorted[index]))
}

/// The median of unsorted floating-point samples.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(0.5, sorted.len())]
    }
}

/// Writes spans as tab-separated lines: id, layer, start and end (ns since
/// the log was installed), parent id (empty for a root), case seed.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tcase_seed\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT {
            String::new()
        } else {
            span.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{parent}\t{:#x}",
            span.layer.name(),
            span.start,
            span.end,
            span.case_seed
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start: u64, end: u64) -> Span {
        Span {
            layer: Layer::Pool,
            op: Op::Other,
            phase: Layer::Generator,
            start,
            end,
            parent,
            case_seed: 0,
        }
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        // 1000 samples: p99 is rank 990, with exactly ten samples beyond.
        assert_eq!(tail(&samples, 0.99), Some((0.99, 990)));
        // 200 samples: p99 would leave two beyond, so report p95.
        let samples: Vec<u64> = (1..=200).collect();
        let (q, value) = tail(&samples, 0.99).unwrap();
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(value, 190);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        // Eleven samples is the least that leaves ten beyond anything.
        assert_eq!(tail(&(1..=11).collect::<Vec<u64>>(), 0.99).unwrap().1, 1);
        assert_eq!(tail(&(1..=10).collect::<Vec<u64>>(), 0.99), None);
        assert_eq!(median(&[1, 2, 3, 4]), Some(2));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(NO_PARENT, 0, 100),
            // Children [10, 40) and [30, 60) overlap on [30, 40); [90, 120)
            // pokes out of the parent and is clipped to [90, 100).
            span(0, 10, 40),
            span(0, 30, 60),
            span(0, 90, 120),
            // A grandchild does not reduce the root's self time again.
            span(1, 15, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 5);
        // Self times of a tree whose children do not overlap sum to the
        // root's duration.
        let tree = vec![span(NO_PARENT, 0, 100), span(0, 0, 40), span(0, 40, 90)];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn unattributed_share_is_root_self_time_over_root_time() {
        let spans = vec![
            span(NO_PARENT, 0, 100),
            span(0, 0, 90),
            span(NO_PARENT, 200, 300),
            span(2, 200, 230),
            span(2, 220, 280),
        ];
        let own = self_times(&spans);
        // Roots: 10 ns uncovered of 100, and 20 ns of 100.
        assert_eq!(root_times(&spans, &own), (30, 200));
        assert_eq!(ratio(30.0, 200.0), 0.15);
        assert_eq!(root_times(&[], &[]), (0, 0));
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn phases_tile_the_campaign_and_calls_nest_under_them() {
        install();
        assert_eq!(open(Layer::Pool, Op::Exec), None, "no campaign open yet");
        begin_campaign();
        switch_phase(Layer::Setup, 0);
        timed(Layer::Pool, Op::Exec, || {
            timed(Layer::Backend, Op::Exec, || ())
        });
        switch_phase(Layer::OracleTlp, 7);
        timed(Layer::Pool, Op::Query, || ());
        switch_phase(Layer::Generator, 0);
        end_campaign();
        let log = take().unwrap();
        let layers: Vec<Layer> = log.spans.iter().map(|s| s.layer).collect();
        assert_eq!(
            layers,
            vec![
                Layer::Campaign,
                Layer::Setup,
                Layer::Pool,
                Layer::Backend,
                Layer::OracleTlp,
                Layer::Pool,
                Layer::Generator,
            ]
        );
        assert_eq!(log.spans[3].parent, 2);
        assert_eq!(log.spans[5].parent, 4);
        assert_eq!(log.spans[5].case_seed, 7);
        assert_eq!(log.spans[5].phase, Layer::OracleTlp);
        assert_eq!(log.spans[1].end, log.spans[4].start);
        let own = self_times(&log.spans);
        assert_eq!(
            own[0],
            log.spans[1].start - log.spans[0].start,
            "only the prologue before the first phase is unattributed"
        );
    }
}
