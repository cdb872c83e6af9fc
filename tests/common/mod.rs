//! The determinism-matrix harness shared by the identity suites.

use sqlancerpp::core::first_divergence;
use sqlancerpp::sim::ExecutionPath;

/// Asserts that `render(path, workers, pool_size)` equals `expected` in
/// every cell of the paths × workers × pool sizes matrix. A failure names
/// the cell and the first line where the renderings diverge.
pub fn assert_matrix_identical(
    what: &str,
    expected: &str,
    paths: &[ExecutionPath],
    workers: &[usize],
    pool_sizes: &[usize],
    mut render: impl FnMut(ExecutionPath, usize, usize) -> String,
) {
    for &path in paths {
        for &worker_count in workers {
            for &pool_size in pool_sizes {
                let actual = render(path, worker_count, pool_size);
                if let Some(divergence) = first_divergence(expected, &actual) {
                    panic!(
                        "{what} drifted on the {path:?} path at {worker_count} workers, \
                         pool size {pool_size}: {divergence}"
                    );
                }
            }
        }
    }
}
