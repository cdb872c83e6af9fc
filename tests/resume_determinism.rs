//! Crash-safe resume determinism: a campaign killed at an arbitrary case
//! index and resumed from its checkpoint file must converge to a report
//! **byte-identical** (under `render_report`) to an uninterrupted run —
//! serially and for any partitioned worker count — and the stateful
//! oracles must reach the same verdicts whether the backend offers a
//! snapshot facility or forces the SQL-text setup-replay fallback.

mod common;

use common::assert_matrix_identical;
use sqlancerpp::core::{
    load_checkpoint, render_report, Campaign, CampaignConfig, CampaignReport, DbmsConnection,
    DialectQuirks, OracleKind, QueryResult, StateCheckpoint, StatementOutcome, StorageMetrics,
    SupervisorConfig,
};
use sqlancerpp::sim::{
    preset_by_name, shard_checkpoint_path, CampaignRun, DialectPreset, ExecutionPath, FaultyConfig,
};
use std::path::PathBuf;

fn storm_preset(dialect: &str) -> DialectPreset {
    preset_by_name(dialect)
        .unwrap()
        .with_infra_faults(FaultyConfig::storm())
}

fn resume_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(8)
        .queries_per_database(25)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(false)
        .build()
}

/// A unique scratch path for one test's checkpoint file.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sqlancerpp_resume_{}_{name}", std::process::id()))
}

fn cleanup(base: &PathBuf, shards: usize) {
    let _ = std::fs::remove_file(base);
    for index in 0..shards {
        let _ = std::fs::remove_file(shard_checkpoint_path(base, index));
    }
}

#[test]
fn killed_serial_campaign_resumes_to_byte_identical_report() {
    let config = resume_config(0xC0FFEE);
    let path = scratch("serial");
    cleanup(&path, 0);

    // The uninterrupted reference: supervised, but never checkpointed.
    let mut conn = storm_preset("sqlite").instantiate_for_path(ExecutionPath::Ast);
    let reference =
        Campaign::new(config.clone()).run_supervised(&mut conn, &SupervisorConfig::default());
    let reference_text = render_report(&reference);
    assert!(
        reference.robustness.incidents > 0,
        "the storm should land at least one fault in this campaign"
    );

    for kill_at in [7u64, 23u64] {
        let checkpointing = SupervisorConfig {
            checkpoint_every: 5,
            checkpoint_path: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        // Run until the simulated kill. Like a real crash, everything since
        // the last cadence checkpoint is lost with the process.
        let killed = SupervisorConfig {
            stop_after_cases: Some(kill_at),
            ..checkpointing.clone()
        };
        let mut conn = storm_preset("sqlite").instantiate_for_path(ExecutionPath::Ast);
        let partial = Campaign::new(config.clone()).run_supervised(&mut conn, &killed);
        assert!(partial.metrics.test_cases <= kill_at + config.databases as u64);

        // A new process: fresh campaign, fresh connection, checkpoint file.
        let checkpoint = load_checkpoint(&path).expect("cadence checkpoint was written");
        let mut conn = storm_preset("sqlite").instantiate_for_path(ExecutionPath::Ast);
        let resumed = Campaign::new(config.clone()).resume(&mut conn, &checkpointing, checkpoint);
        assert_eq!(
            render_report(&resumed),
            reference_text,
            "kill at case {kill_at}: resumed report diverged from the uninterrupted run"
        );
        cleanup(&path, 0);
    }
}

/// A sharded run of `preset` under `supervision`: the merged report.
fn sharded_run(
    preset: &DialectPreset,
    config: &CampaignConfig,
    workers: usize,
    pool_size: usize,
    supervision: &SupervisorConfig,
) -> CampaignReport {
    CampaignRun {
        workers,
        pool_size,
        supervision: supervision.clone(),
        ..CampaignRun::sharded(preset.driver(ExecutionPath::Ast), config.clone())
    }
    .run()
    .reports
    .remove(0)
}

#[test]
fn killed_partitioned_campaign_resumes_identically_for_any_worker_count() {
    let mut config = resume_config(0xFEED);
    config.databases = 3;
    let preset = storm_preset("mariadb");
    let reference = sharded_run(&preset, &config, 1, 1, &SupervisorConfig::default());

    assert_matrix_identical(
        "partitioned kill-at-9 resume",
        &render_report(&reference),
        &[ExecutionPath::Ast],
        &[1, 3],
        &[1],
        |_, workers, pool_size| {
            let path = scratch(&format!("partitioned_{workers}"));
            cleanup(&path, config.databases);
            let checkpointing = SupervisorConfig {
                checkpoint_every: 4,
                checkpoint_path: Some(path.clone()),
                ..SupervisorConfig::default()
            };
            let killed = SupervisorConfig {
                stop_after_cases: Some(9),
                ..checkpointing.clone()
            };
            let partial = sharded_run(&preset, &config, workers, pool_size, &killed);
            assert!(partial.metrics.test_cases < reference.metrics.test_cases);

            // Re-invoking the same partitioned campaign finds the per-shard
            // checkpoint files and resumes each shard to completion.
            let resumed = sharded_run(&preset, &config, workers, pool_size, &checkpointing);
            cleanup(&path, config.databases);
            render_report(&resumed)
        },
    );
}

/// Forwards everything but denies the snapshot facility, forcing the
/// stateful oracles onto the SQL-text setup-replay fallback.
struct NoSnapshot(Box<dyn DbmsConnection>);

impl DbmsConnection for NoSnapshot {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn execute(&mut self, sql: &str) -> StatementOutcome {
        self.0.execute(sql)
    }
    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.0.query(sql)
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn quirks(&self) -> DialectQuirks {
        self.0.quirks()
    }
    fn execute_ast(&mut self, stmt: &sqlancerpp::ast::Statement) -> StatementOutcome {
        self.0.execute_ast(stmt)
    }
    fn query_ast(&mut self, select: &sqlancerpp::ast::Select) -> Result<QueryResult, String> {
        self.0.query_ast(select)
    }
    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        self.0.open_session()
    }
    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        self.0.storage_metrics()
    }
    fn begin_case(&mut self, case_seed: u64) {
        self.0.begin_case(case_seed);
    }
    fn virtual_ticks(&self) -> u64 {
        self.0.virtual_ticks()
    }
    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        None
    }
    fn restore(&mut self, _checkpoint: &StateCheckpoint) -> bool {
        false
    }
}

#[test]
fn setup_replay_fallback_reaches_the_same_verdicts_as_snapshot_restore() {
    let config = CampaignConfig::builder()
        .seed(0xAB5E)
        .databases(2)
        .ddl_per_database(8)
        .queries_per_database(20)
        .oracles(vec![OracleKind::Rollback, OracleKind::Isolation])
        .reduce_bugs(false)
        .build();
    let run = |deny_snapshots: bool| -> CampaignReport {
        let preset = preset_by_name("sqlite").unwrap();
        let inner = preset.instantiate_for_path(ExecutionPath::Ast);
        if deny_snapshots {
            let mut conn = NoSnapshot(inner);
            Campaign::new(config.clone()).run(&mut conn)
        } else {
            let mut conn = inner;
            Campaign::new(config.clone()).run(&mut conn)
        }
    };
    let with_snapshots = run(false);
    let without_snapshots = run(true);
    // Verdicts, case counts and bug reports must agree exactly. (The
    // storage counters legitimately differ: the fallback path re-executes
    // the setup SQL where the snapshot path restores a clone, and that
    // extra engine work is precisely what the counters measure.)
    assert_eq!(with_snapshots.reports, without_snapshots.reports);
    assert_eq!(
        with_snapshots.validity_series,
        without_snapshots.validity_series
    );
    assert_eq!(
        with_snapshots.metrics.test_cases,
        without_snapshots.metrics.test_cases
    );
    assert_eq!(
        with_snapshots.metrics.valid_test_cases,
        without_snapshots.metrics.valid_test_cases
    );
    assert_eq!(
        with_snapshots.metrics.detected_bug_cases,
        without_snapshots.metrics.detected_bug_cases
    );
    assert_eq!(
        with_snapshots.metrics.prioritized_bugs,
        without_snapshots.metrics.prioritized_bugs
    );
    assert_eq!(
        with_snapshots.metrics.isolation_schedules,
        without_snapshots.metrics.isolation_schedules
    );
    assert_eq!(
        with_snapshots.metrics.conflict_aborts,
        without_snapshots.metrics.conflict_aborts
    );
    assert!(with_snapshots.metrics.test_cases > 0);
}

#[test]
fn killed_pooled_flaky_campaign_resumes_with_breaker_state() {
    let mut config = resume_config(0xB4EA);
    config.databases = 3;
    let preset = preset_by_name("sqlite")
        .unwrap()
        .with_infra_faults(FaultyConfig::flaky());

    // The uninterrupted reference must actually exercise the breakers:
    // probe crashes and post-respawn flapping trip them and the backoff
    // schedule recovers them.
    let reference = sharded_run(&preset, &config, 1, 2, &SupervisorConfig::default());
    assert!(
        reference.robustness.breaker_trips > 0,
        "the flaky storm should trip at least one breaker in this campaign"
    );

    assert_matrix_identical(
        "pooled flaky kill-at-9 resume",
        &render_report(&reference),
        &[ExecutionPath::Ast],
        &[1, 3],
        &[2],
        |_, workers, pool_size| {
            let path = scratch(&format!("pooled_flaky_{workers}"));
            cleanup(&path, config.databases);
            let checkpointing = SupervisorConfig {
                checkpoint_every: 4,
                checkpoint_path: Some(path.clone()),
                ..SupervisorConfig::default()
            };
            let killed = SupervisorConfig {
                stop_after_cases: Some(9),
                ..checkpointing.clone()
            };
            let partial = sharded_run(&preset, &config, workers, pool_size, &killed);
            assert!(partial.metrics.test_cases < reference.metrics.test_cases);

            // The checkpoint files written mid-storm carry the pool's
            // breaker and backoff state, so the resumed pool re-opens
            // mid-backoff instead of forgetting the slot was misbehaving.
            let carried = (0..config.databases)
                .filter_map(|index| load_checkpoint(&shard_checkpoint_path(&path, index)).ok())
                .any(|checkpoint| checkpoint.resilience.is_some());
            assert!(
                carried,
                "at least one shard checkpoint must carry the breaker ledger"
            );

            let resumed = sharded_run(&preset, &config, workers, pool_size, &checkpointing);
            cleanup(&path, config.databases);
            render_report(&resumed)
        },
    );
}
