//! The campaign runner: one [`CampaignRun`] spec, one guarded job
//! scheduler.
//!
//! The paper's platform tests 18 DBMSs; at fleet scale the campaigns are
//! embarrassingly parallel — each dialect gets its own connection pool,
//! its own adaptive generator and its own prioritizer — and one dialect's
//! campaign shards the same way by database. Both shapes are a list of
//! independent jobs with seeds derived from the campaign seed, so
//!
//! * any worker count and any pool size produce **identical** reports
//!   (verdicts, metrics and bug reports, byte for byte), and
//! * adding or removing dialects never perturbs the seeds of the others.
use sqlancer_core::driver::{Driver, Pool};
use sqlancer_core::stats::FeatureStats;
use sqlancer_core::supervisor::panic_message;
use sqlancer_core::{
    load_checkpoint, BugPrioritizer, Campaign, CampaignCheckpoint, CampaignConfig,
    CampaignIncident, CampaignMetrics, CampaignReport, IncidentKind, OracleKind, PriorityDecision,
    RobustnessCounters, SupervisorConfig, TraceHandle, TraceSummary, Tracer,
};
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Which execution path the fleet campaign drives the connections through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionPath {
    /// The AST fast path: statements flow into the simulated engines as
    /// typed ASTs, skipping rendering, lexing and parsing, and expressions
    /// run through the closure-compiled evaluator (the default).
    Ast,
    /// The AST fast path with the tree-walking expression evaluator: the
    /// engine re-walks each expression AST per row. This is the
    /// pre-compilation configuration, kept as the baseline arm of the
    /// compiled-vs-tree benchmark and the parity reference.
    AstTreeWalk,
    /// The text path: every statement is rendered to SQL and re-parsed, as
    /// a real wire-protocol backend would require. Used as the baseline arm
    /// in benchmarks and parity tests.
    Text,
}

/// Derives the seed for one dialect's campaign from the fleet campaign
/// seed. FNV-1a over the dialect name, mixed with the campaign seed through
/// SplitMix64 finalisation — deterministic, order-independent and stable
/// across runs and thread schedules. The hash primitives live in
/// [`sql_ast::hash`] (shared with the row fingerprints) rather than being
/// re-inlined here.
pub fn derive_dialect_seed(campaign_seed: u64, dialect: &str) -> u64 {
    sql_ast::mix_seed(campaign_seed, dialect)
}

/// Derives the generator seed for one database shard of a sharded
/// campaign. Like [`derive_dialect_seed`], but over the shard index, so
/// every database's generator stream is independent of how many shards run
/// and on which worker.
pub fn derive_shard_seed(campaign_seed: u64, database_index: usize) -> u64 {
    sql_ast::splitmix64(campaign_seed ^ sql_ast::fnv1a64(&database_index.to_le_bytes()))
}

/// The number of worker threads to use by default: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The per-job checkpoint file of a campaign run: the campaign's
/// checkpoint path with a `.shard<index>` suffix appended, so jobs never
/// clobber each other's resume state.
pub fn shard_checkpoint_path(base: &Path, index: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{index}"));
    PathBuf::from(name)
}

/// What a [`CampaignRun`] tests.
pub enum RunTarget {
    /// One campaign per driver over all configured databases, seeded by
    /// [`derive_dialect_seed`] over the driver's name; the outcome holds
    /// one report per driver, in driver order.
    Fleet(Vec<Arc<dyn Driver>>),
    /// One driver's campaign sharded by database: every database is an
    /// independent single-database campaign seeded by
    /// [`derive_shard_seed`], and the shards merge in database order into
    /// a single report.
    Sharded(Arc<dyn Driver>),
}

/// The one way to run a campaign: what to test, how, and on how many
/// threads. Build it with [`CampaignRun::fleet`] or
/// [`CampaignRun::sharded`], override fields with struct-update syntax,
/// and execute it with [`CampaignRun::run`].
///
/// Every campaign runs as a set of *jobs* — one per driver for a fleet,
/// one per database for a sharded run — through a single scheduler:
/// workers claim jobs from a shared counter and write results back by job
/// index, so the outcome is byte-identical (under
/// [`sqlancer_core::render_report`]) for any `workers` and any
/// `pool_size`.
pub struct CampaignRun {
    /// The drivers under test.
    pub target: RunTarget,
    /// The campaign configuration; each job derives its own seed from
    /// `config.seed`.
    pub config: CampaignConfig,
    /// Connections per job's [`Pool`] (seed-ordered checkout; a throughput
    /// knob, never an observable).
    pub pool_size: usize,
    /// Scoped worker threads claiming jobs.
    pub workers: usize,
    /// The supervision policy of every job. A checkpoint path is suffixed
    /// per job ([`shard_checkpoint_path`]), and a job whose checkpoint file
    /// exists with a matching seed resumes from it.
    pub supervision: SupervisorConfig,
    /// Collect a deterministic [`TraceSummary`]: every job runs with its
    /// own [`Tracer`] and the job summaries fold into
    /// [`RunOutcome::trace`].
    pub trace: bool,
}

/// The result of a [`CampaignRun`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// One report per driver for a fleet run (driver order); the single
    /// merged report for a sharded run.
    pub reports: Vec<CampaignReport>,
    /// The learned validity-feedback profile behind `reports[i]` (a
    /// sharded run folds its shard profiles in database order).
    pub profiles: Vec<FeatureStats>,
    /// Sum of all reports' metrics.
    pub totals: CampaignMetrics,
    /// Sum of all reports' robustness counters (retries, watchdog trips,
    /// quarantines, incidents, ...).
    pub robustness: RobustnessCounters,
    /// The merged trace summary when the run was traced.
    pub trace: Option<TraceSummary>,
}

/// One scheduled unit of work: a campaign of `databases` databases against
/// `driver`, seeded with `seed`. `index` is the job's slot in the outcome
/// order and names its checkpoint file.
struct Job<'a> {
    driver: &'a Arc<dyn Driver>,
    seed: u64,
    databases: usize,
    index: usize,
}

/// What one job yields: its report, learned profile and trace summary
/// (empty when untraced).
type JobResult = (CampaignReport, FeatureStats, TraceSummary);

impl CampaignRun {
    /// A fleet run with one pooled connection per driver, one worker,
    /// default supervision and no tracing.
    pub fn fleet(drivers: Vec<Arc<dyn Driver>>, config: CampaignConfig) -> CampaignRun {
        CampaignRun::new(RunTarget::Fleet(drivers), config)
    }

    /// A database-sharded run of one driver with the same defaults as
    /// [`CampaignRun::fleet`].
    pub fn sharded(driver: Arc<dyn Driver>, config: CampaignConfig) -> CampaignRun {
        CampaignRun::new(RunTarget::Sharded(driver), config)
    }

    fn new(target: RunTarget, config: CampaignConfig) -> CampaignRun {
        CampaignRun {
            target,
            config,
            pool_size: 1,
            workers: 1,
            supervision: SupervisorConfig::default(),
            trace: false,
        }
    }

    /// Runs every job and assembles the outcome.
    ///
    /// A sharded run merges its shards in database order: metrics sum, the
    /// validity series concatenates, and bug reports are re-prioritized by
    /// a merge-time [`BugPrioritizer`] walking the shards in order, so
    /// duplicates across shards drop exactly as a serial pass over the
    /// same stream would drop them (`prioritized + deduplicated =
    /// detected` holds).
    pub fn run(&self) -> RunOutcome {
        let jobs: Vec<Job> = match &self.target {
            RunTarget::Fleet(drivers) => drivers
                .iter()
                .enumerate()
                .map(|(index, driver)| Job {
                    driver,
                    seed: derive_dialect_seed(self.config.seed, driver.name()),
                    databases: self.config.databases,
                    index,
                })
                .collect(),
            RunTarget::Sharded(driver) => (0..self.config.databases)
                .map(|index| Job {
                    driver,
                    seed: derive_shard_seed(self.config.seed, index),
                    databases: 1,
                    index,
                })
                .collect(),
        };
        let mut trace = TraceSummary::new();
        let mut results = Vec::with_capacity(jobs.len());
        for (report, profile, summary) in self.run_jobs(&jobs) {
            trace.merge(&summary);
            results.push((report, profile));
        }
        let (reports, profiles): (Vec<_>, Vec<_>) = match &self.target {
            RunTarget::Fleet(_) => results.into_iter().unzip(),
            RunTarget::Sharded(driver) => {
                let (report, profile) = merge_shards(driver.name(), results);
                (vec![report], vec![profile])
            }
        };
        let mut totals = CampaignMetrics::default();
        let mut robustness = RobustnessCounters::default();
        for report in &reports {
            totals.merge(&report.metrics);
            robustness.merge(&report.robustness);
        }
        RunOutcome {
            reports,
            profiles,
            totals,
            robustness,
            trace: self.trace.then_some(trace),
        }
    }

    /// The scheduler: up to `workers` scoped threads claim jobs from a
    /// shared counter and write results back by job index. Every job runs
    /// under [`CampaignRun::run_job_guarded`] whatever the worker count;
    /// poisoned result slots are recovered, not propagated, and a slot
    /// whose claiming worker died before writing is re-run inline.
    fn run_jobs(&self, jobs: &[Job]) -> Vec<JobResult> {
        let workers = self.workers.clamp(1, jobs.len().max(1));
        if workers == 1 {
            return jobs.iter().map(|job| self.run_job_guarded(job)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let result = self.run_job_guarded(job);
                        *slots[job.index]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner) = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .zip(jobs)
            .map(|(slot, job)| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| self.run_job_guarded(job))
            })
            .collect()
    }

    /// [`CampaignRun::run_job`] with panics contained: a job that panics
    /// outside the supervisor's reach (e.g. its driver fails to connect)
    /// keeps its slot as a degraded report carrying one
    /// [`IncidentKind::WorkerPanic`] incident, an empty profile and an
    /// empty trace summary, instead of taking the whole run down.
    fn run_job_guarded(&self, job: &Job) -> JobResult {
        catch_unwind(AssertUnwindSafe(|| self.run_job(job))).unwrap_or_else(|payload| {
            let mut report = CampaignReport {
                dbms_name: job.driver.name().to_string(),
                degraded: true,
                ..CampaignReport::default()
            };
            report.robustness.incidents = 1;
            report.robustness.recovered_workers = 1;
            report.incidents.push(CampaignIncident {
                kind: IncidentKind::WorkerPanic,
                database: 0,
                case_index: 0,
                attempt: 0,
                deadline_ticks: 0,
                observed_ticks: 0,
                detail: format!("campaign worker panicked: {}", panic_message(&*payload)),
            });
            (report, FeatureStats::new(), TraceSummary::new())
        })
    }

    /// One job: the job's seed and database count over the run's config, a
    /// per-job checkpoint path, a pooled connection with the driver's
    /// capability applied, checkpoint resume, and an optional tracer.
    fn run_job(&self, job: &Job) -> JobResult {
        let mut config = self.config.clone();
        config.seed = job.seed;
        config.databases = job.databases;
        let mut supervision = self.supervision.clone();
        if let Some(base) = &self.supervision.checkpoint_path {
            supervision.checkpoint_path = Some(shard_checkpoint_path(base, job.index));
        }
        let tracer = self.trace.then(|| Rc::new(RefCell::new(Tracer::new())));
        let mut campaign = Campaign::new(config);
        campaign.set_trace(tracer.clone().map(|tracer| tracer as TraceHandle));
        let mut pool = Pool::new(Arc::clone(job.driver), self.pool_size).unwrap_or_else(|err| {
            panic!("pool for {} failed to connect: {err}", job.driver.name())
        });
        campaign.apply_capability(&pool.capability().clone());
        let report = match resumable_checkpoint(&supervision, job.seed) {
            Some(checkpoint) => campaign.resume(&mut pool, &supervision, checkpoint),
            None => campaign.run_supervised(&mut pool, &supervision),
        };
        let summary = tracer.map_or_else(TraceSummary::new, |tracer| {
            tracer.borrow().summary().clone()
        });
        (report, campaign.generator.stats.clone(), summary)
    }
}

/// Loads the checkpoint a job should resume from, if any: the supervision
/// config names a checkpoint path, the file loads, and the recorded seed
/// matches the job's seed. A stale or foreign checkpoint (different seed)
/// is ignored rather than trusted — the job simply runs fresh and
/// overwrites it at the next cadence tick.
fn resumable_checkpoint(supervision: &SupervisorConfig, seed: u64) -> Option<CampaignCheckpoint> {
    let path = supervision.checkpoint_path.as_deref()?;
    let checkpoint = load_checkpoint(path).ok()?;
    (checkpoint.config_seed == seed).then_some(checkpoint)
}

/// The injected infrastructure fault ids whose incidents appear in a
/// report, in catalog order. The ground-truth check for fault-storm
/// campaigns: arm a fault kind, run, and its id must appear here; disarm
/// it (bisection) and it must vanish.
pub fn observed_infra_kinds(report: &CampaignReport) -> Vec<&'static str> {
    [
        "infra_crash",
        "infra_hang",
        "infra_drop",
        "infra_garble",
        "infra_probe",
        "infra_flap",
        "infra_capability_lie",
    ]
    .into_iter()
    .filter(|id| report.incidents.iter().any(|i| i.detail.contains(id)))
    .collect()
}

/// Folds per-database shard results together in database order.
fn merge_shards(
    dialect: &str,
    shards: Vec<(CampaignReport, FeatureStats)>,
) -> (CampaignReport, FeatureStats) {
    let mut merged = CampaignReport {
        dbms_name: dialect.to_string(),
        ..CampaignReport::default()
    };
    let mut profile = FeatureStats::new();
    let mut prioritizer = BugPrioritizer::new();
    for (shard_index, (shard, stats)) in shards.into_iter().enumerate() {
        merged.metrics.merge(&shard.metrics);
        merged.validity_series.extend(shard.validity_series);
        merged.robustness.merge(&shard.robustness);
        merged.coverage.merge(&shard.coverage);
        merged.degraded |= shard.degraded;
        // Each shard ran as database 0 of its own single-database campaign;
        // restore the fleet-level view by stamping the shard index back
        // into its incidents.
        merged
            .incidents
            .extend(shard.incidents.into_iter().map(|mut incident| {
                incident.database = shard_index;
                incident
            }));
        // Each shard pushed one replayable case per kept report, in the
        // same order; walk them with per-kind cursors so a merge-time
        // duplicate drops the report *and* its case together.
        let mut cases = shard.prioritized_cases.into_iter();
        let mut txn_cases = shard.txn_cases.into_iter();
        let mut schedule_cases = shard.schedule_cases.into_iter();
        for report in shard.reports {
            let decision = prioritizer.classify(&report.features);
            match report.oracle {
                OracleKind::Tlp | OracleKind::NoRec => {
                    let case = cases.next().expect("one case per single-query report");
                    if decision == PriorityDecision::New {
                        merged.prioritized_cases.push(case);
                        merged.reports.push(report);
                    }
                }
                OracleKind::Rollback => {
                    let case = txn_cases.next().expect("one case per rollback report");
                    if decision == PriorityDecision::New {
                        merged.txn_cases.push(case);
                        merged.reports.push(report);
                    }
                }
                OracleKind::Isolation => {
                    let case = schedule_cases
                        .next()
                        .expect("one case per isolation report");
                    if decision == PriorityDecision::New {
                        merged.schedule_cases.push(case);
                        merged.reports.push(report);
                    }
                }
            }
        }
        profile.merge(&stats);
    }
    // Cross-shard deduplication recomputes the prioritization tallies; the
    // detected count is untouched, preserving the campaign invariant.
    merged.metrics.prioritized_bugs = merged.reports.len() as u64;
    merged.metrics.deduplicated_bugs = merged
        .metrics
        .detected_bug_cases
        .saturating_sub(merged.metrics.prioritized_bugs);
    (merged, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::fleet;
    use sqlancer_core::OracleKind;

    fn small_config() -> CampaignConfig {
        CampaignConfig::builder()
            .seed(0xF1EE7)
            .databases(1)
            .ddl_per_database(6)
            .queries_per_database(12)
            .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
            .reduce_bugs(false)
            .build()
    }

    #[test]
    fn derived_seeds_differ_per_dialect_and_are_stable() {
        let a = derive_dialect_seed(1, "sqlite");
        let b = derive_dialect_seed(1, "mysql");
        assert_ne!(a, b);
        assert_eq!(a, derive_dialect_seed(1, "sqlite"));
        assert_ne!(a, derive_dialect_seed(2, "sqlite"));
    }

    fn first_fleet(n: usize) -> Vec<Arc<dyn Driver>> {
        fleet()
            .iter()
            .take(n)
            .map(|preset| preset.driver(ExecutionPath::Ast))
            .collect()
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let serial = CampaignRun::fleet(first_fleet(4), small_config());
        let parallel = CampaignRun {
            workers: 4,
            ..CampaignRun::fleet(first_fleet(4), small_config())
        };
        let (serial, parallel) = (serial.run(), parallel.run());
        assert_eq!(serial.reports.len(), parallel.reports.len());
        for (s, p) in serial.reports.iter().zip(&parallel.reports) {
            assert_eq!(s.dbms_name, p.dbms_name);
            assert_eq!(s.metrics, p.metrics);
            assert_eq!(s.reports, p.reports);
            assert_eq!(s.validity_series, p.validity_series);
        }
        assert_eq!(serial.totals, parallel.totals);
        assert_eq!(serial.profiles.len(), serial.reports.len());
    }

    #[test]
    fn partitioned_run_is_identical_for_any_thread_count() {
        let driver = crate::preset_by_name("mariadb")
            .unwrap()
            .driver(ExecutionPath::Ast);
        let mut config = small_config();
        config.databases = 4;
        config.oracles = vec![OracleKind::Tlp, OracleKind::Isolation];
        let run = |workers| {
            let mut outcome = CampaignRun {
                workers,
                ..CampaignRun::sharded(Arc::clone(&driver), config.clone())
            }
            .run();
            assert_eq!(outcome.reports.len(), 1);
            (outcome.reports.remove(0), outcome.profiles.remove(0))
        };
        let (serial, serial_profile) = run(1);
        let (parallel, parallel_profile) = run(4);
        assert_eq!(serial.dbms_name, parallel.dbms_name);
        assert_eq!(serial.metrics, parallel.metrics);
        assert_eq!(serial.reports, parallel.reports);
        assert_eq!(serial.validity_series, parallel.validity_series);
        assert_eq!(serial.schedule_cases, parallel.schedule_cases);
        assert!(serial_profile
            .iter_query()
            .eq(parallel_profile.iter_query()));
        // The invariant the merge-time prioritizer must preserve.
        assert_eq!(
            serial.metrics.prioritized_bugs + serial.metrics.deduplicated_bugs,
            serial.metrics.detected_bug_cases
        );
    }

    #[test]
    fn shard_seeds_are_stable_and_distinct() {
        assert_eq!(derive_shard_seed(7, 0), derive_shard_seed(7, 0));
        assert_ne!(derive_shard_seed(7, 0), derive_shard_seed(7, 1));
        assert_ne!(derive_shard_seed(7, 0), derive_shard_seed(8, 0));
    }

    #[test]
    fn totals_accumulate_across_dialects() {
        let report = CampaignRun::fleet(first_fleet(2), small_config()).run();
        let sum: u64 = report.reports.iter().map(|r| r.metrics.test_cases).sum();
        assert_eq!(report.totals.test_cases, sum);
        assert!(report.totals.test_cases > 0);
    }
}
