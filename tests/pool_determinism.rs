//! Pool-size invariance: the deterministic connection pool checks a test
//! case out of slot `case_seed % size`, re-syncing stale slots by SQL
//! replay, so the campaign's verdict stream — and therefore the rendered
//! report — must be **byte-identical** for any pool size. The pool size is
//! purely a throughput knob, never an observable.

mod common;

use common::assert_matrix_identical;
use sqlancerpp::core::{render_report, CampaignConfig, OracleKind};
use sqlancerpp::sim::{fleet_drivers, preset_by_name, CampaignRun, ExecutionPath};

fn pool_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(10)
        .queries_per_database(40)
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
    config
}

fn fleet_rendering(path: ExecutionPath, workers: usize, pool_size: usize) -> String {
    let fleet = CampaignRun {
        workers,
        pool_size,
        ..CampaignRun::fleet(fleet_drivers(path), pool_config(0xB001))
    }
    .run();
    fleet.reports.iter().map(render_report).collect()
}

#[test]
fn serial_fleet_reports_are_byte_identical_for_any_pool_size() {
    assert_matrix_identical(
        "fleet report",
        &fleet_rendering(ExecutionPath::Ast, 1, 1),
        &[ExecutionPath::Ast, ExecutionPath::Text],
        &[1, 2],
        &[1, 2, 4],
        fleet_rendering,
    );
}

#[test]
fn partitioned_campaign_is_byte_identical_for_any_pool_size() {
    let preset = preset_by_name("sqlite").expect("sqlite preset exists");
    let render = |path, workers, pool_size| {
        let run = CampaignRun {
            workers,
            pool_size,
            ..CampaignRun::sharded(preset.driver(path), pool_config(0xB002))
        }
        .run();
        render_report(&run.reports[0])
    };
    assert_matrix_identical(
        "partitioned report",
        &render(ExecutionPath::Text, 2, 1),
        &[ExecutionPath::Text],
        &[1, 2],
        &[1, 2, 4],
        render,
    );
}
