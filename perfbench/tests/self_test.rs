//! The benchmark must notice a wrong answer: with one expected answer
//! corrupted, a run reports `correct: false` and exits 1, while the same
//! run without the corruption passes. The serve workloads launch the
//! `hg` binary built into the same target directory: build it with
//! `cargo build --release -p hgcli --bin hg` at the repository root
//! under the same `CARGO_TARGET_DIR` first.

use std::process::Command;

fn run(workload: &str, corrupt: bool) -> (Option<i32>, String) {
    let dir =
        std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("self-test-{workload}"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
    ])
    .arg("--work-dir")
    .arg(&dir);
    if corrupt {
        cmd.arg("--corrupt-expected");
    }
    let out = cmd.output().expect("launch perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.code() != Some(2),
        "{workload}: the run could not be made: {stderr}"
    );
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

#[test]
fn corrupted_expected_answer_fails_each_workload() {
    for workload in ["serve-hot", "serve-miss", "batch-paper"] {
        let (code, result) = run(workload, false);
        assert_eq!(code, Some(0), "{workload}: clean run failed: {result}");
        assert!(result.starts_with("{\"correct\":true,"), "{result}");

        let (code, result) = run(workload, true);
        assert_eq!(
            code,
            Some(1),
            "{workload}: corrupted run did not fail: {result}"
        );
        assert!(result.starts_with("{\"correct\":false,"), "{result}");
    }
}

#[test]
fn manifest_declares_exactly_the_printed_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("read BENCHMARK.json");
    for (name, unit) in perfbench::END_TO_END.iter().chain(perfbench::PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = manifest.matches("\"name\":").count();
    let workloads = perfbench::Workload::ALL.len();
    assert_eq!(
        declared,
        workloads + perfbench::END_TO_END.len() + perfbench::PER_LAYER.len(),
        "BENCHMARK.json declares metrics the benchmark does not print"
    );
}
