//! Each workload's traced pass, run twice on one seed, must repeat every
//! work counter exactly. A difference means hashing or iteration order
//! leaked into the kernels (see `hypergraph::hash::DetMap`).

use std::path::PathBuf;

use perfbench::{batch, serve, Workload, DEFAULT_SEED};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test work dir");
    dir
}

// One test for all workloads: hgobs counters are process-global, so
// passes running on parallel test threads would mix their counts.
#[test]
fn work_counters_repeat_exactly() {
    for workload in [Workload::ServeHot, Workload::ServeMiss] {
        let dir = work_dir(workload.name());
        let (first, failed) = serve::replay_counters(workload, DEFAULT_SEED, &dir).unwrap();
        assert_eq!(
            failed,
            0,
            "{}: replayed answers were wrong",
            workload.name()
        );
        let (second, _) = serve::replay_counters(workload, DEFAULT_SEED, &dir).unwrap();
        assert_eq!(first, second, "{}", workload.name());
        if workload == Workload::ServeMiss {
            assert!(
                first.values().any(|&c| c > 0),
                "serve-miss replay did no kernel work"
            );
        }
    }
    let dir = work_dir("batch-paper");
    let first = batch::pass_counters(DEFAULT_SEED, &dir).unwrap();
    let second = batch::pass_counters(DEFAULT_SEED, &dir).unwrap();
    assert!(
        first.values().any(|&c| c > 0),
        "batch-paper pass did no kernel work"
    );
    assert_eq!(first, second, "batch-paper");
}
