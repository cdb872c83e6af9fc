//! Coverage-atlas determinism contracts.
//!
//! The rendered atlas ([`render_atlas_report`]) is a pure function of the
//! campaign definition: byte-identical for any worker count, any pool
//! size, both execution paths, and across a kill-at-k resume. The
//! coverage-directed mode keeps the same property — its weight boosts are
//! derived from case seeds, never from wall clock or thread schedule.

mod common;

use common::assert_matrix_identical;
use sqlancerpp::core::{
    load_checkpoint, render_atlas_report, render_report, Campaign, CampaignConfig, CampaignReport,
    OracleKind, SupervisorConfig,
};
use sqlancerpp::sim::{preset_by_name, CampaignRun, DialectPreset, ExecutionPath, FaultyConfig};
use std::path::PathBuf;

fn storm_preset(dialect: &str) -> DialectPreset {
    preset_by_name(dialect)
        .unwrap()
        .with_infra_faults(FaultyConfig::storm())
}

fn coverage_config(seed: u64) -> CampaignConfig {
    coverage_config_directed(seed, false)
}

fn coverage_config_directed(seed: u64, directed: bool) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(8)
        .queries_per_database(40)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .max_reduction_checks(16)
        .coverage_directed(directed)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sqlancerpp_atlas_{}_{name}", std::process::id()))
}

#[test]
fn atlas_is_byte_identical_for_any_worker_pool_and_path() {
    let config = coverage_config(0xA71A5);
    let preset = storm_preset("dolt");
    let atlas = |path, workers, pool_size| {
        let run = CampaignRun {
            workers,
            pool_size,
            ..CampaignRun::sharded(preset.driver(path), config.clone())
        }
        .run();
        render_atlas_report(&run.reports[0])
    };
    let baseline = atlas(ExecutionPath::Ast, 1, 1);
    assert!(
        baseline.contains("oracle TLP") && baseline.contains("saturation novel"),
        "atlas should render oracle and saturation sections:\n{baseline}"
    );
    assert!(
        baseline.contains("engine statements"),
        "the simulated backend must surface engine-plane coverage:\n{baseline}"
    );
    // Coverage is charged at the shared text/AST funnel, so the execution
    // path is not an observable either: every cell of both paths must
    // match the AST baseline.
    assert_matrix_identical(
        "atlas",
        &baseline,
        &[ExecutionPath::Ast, ExecutionPath::Text],
        &[1, 2],
        &[1, 2, 4],
        atlas,
    );
}

fn run_supervised(
    preset: &DialectPreset,
    config: &CampaignConfig,
    supervision: &SupervisorConfig,
) -> CampaignReport {
    let mut campaign = Campaign::new(config.clone());
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    campaign.run_supervised(&mut conn, supervision)
}

#[test]
fn kill_at_k_resume_reports_the_same_atlas() {
    let config = coverage_config(0xC0FFEE);
    let preset = storm_preset("dolt");
    let path = scratch("kill_resume");
    let _ = std::fs::remove_file(&path);

    let reference = run_supervised(&preset, &config, &SupervisorConfig::default());
    let reference_atlas = render_atlas_report(&reference);
    assert!(
        reference.coverage.saturation.novel_features > 0,
        "the reference campaign should discover features"
    );

    let checkpointing = SupervisorConfig {
        checkpoint_every: 5,
        checkpoint_path: Some(path.clone()),
        ..SupervisorConfig::default()
    };
    // Kill at several depths: each k exercises a different split of the
    // per-database novelty stream (including mid-database kills, where the
    // atlas working state must resume from the checkpoint, not reset).
    // Every k lies past the first checkpoint cadence tick, so a resume
    // file always exists.
    for stop_after in [7u64, 11, 27] {
        let _ = std::fs::remove_file(&path);
        let killed_config = SupervisorConfig {
            stop_after_cases: Some(stop_after),
            ..checkpointing.clone()
        };
        let _ = run_supervised(&preset, &config, &killed_config);
        let checkpoint = load_checkpoint(&path).expect("cadence checkpoint was written");
        let mut campaign = Campaign::new(config.clone());
        let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
        let resumed = campaign.resume(&mut conn, &checkpointing, checkpoint);
        assert_eq!(
            render_report(&resumed),
            render_report(&reference),
            "kill at {stop_after}: resume must converge to the reference report"
        );
        assert_eq!(
            render_atlas_report(&resumed),
            reference_atlas,
            "kill at {stop_after}: resumed atlas must match the uninterrupted one"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn coverage_directed_mode_is_seed_stable_and_changes_generation() {
    let preset = storm_preset("dolt");
    let run = |config: CampaignConfig, workers, pool_size| {
        CampaignRun {
            workers,
            pool_size,
            ..CampaignRun::sharded(preset.driver(ExecutionPath::Ast), config)
        }
        .run()
        .reports
        .remove(0)
    };

    let directed = coverage_config_directed(0xD12EC7, true);
    let uniform = coverage_config(0xD12EC7);

    let first = run(directed.clone(), 1, 1);
    let again = run(directed, 2, 2);
    assert_eq!(
        render_atlas_report(&first),
        render_atlas_report(&again),
        "directed mode must stay deterministic across workers and pools"
    );
    assert_eq!(
        render_report(&first),
        render_report(&again),
        "directed-mode reports must stay deterministic too"
    );

    let baseline = run(uniform, 1, 1);
    assert_ne!(
        render_atlas_report(&first),
        render_atlas_report(&baseline),
        "the A/B knob must actually steer generation"
    );
}
