//! `bench_diff`'s exit code is the gate's verdict even when its stdout is
//! closed (`bench_diff … | head -0`): the table's EPIPE ends the output,
//! not the run.

use std::path::Path;
use std::process::Command;

/// One `matmul` measurement in `bench_kernels`' JSON schema.
fn bench_json(gflops: f64) -> String {
    format!(
        "[\n  {{\"name\": \"matmul\", \"shape\": \"8x8x8\", \"ns_per_iter\": 100.0, \
         \"gflops\": {gflops:.3}}}\n]\n"
    )
}

/// Runs `bench_diff` on a baseline/fresh pair with its stdout's read end
/// already closed, so every stdout write meets EPIPE.
fn diff_with_stdout_closed(dir: &Path, base: f64, fresh: f64) -> Option<i32> {
    let (base_path, fresh_path) = (dir.join("base.json"), dir.join("fresh.json"));
    std::fs::write(&base_path, bench_json(base)).expect("write baseline");
    std::fs::write(&fresh_path, bench_json(fresh)).expect("write fresh run");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let run = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg("--baseline")
        .arg(&base_path)
        .arg("--fresh")
        .arg(&fresh_path)
        .args(["--require", "matmul"])
        .stdout(writer)
        .output()
        .expect("run bench_diff");
    run.status.code()
}

#[test]
fn closed_stdout_keeps_the_verdict() {
    let dir = std::env::temp_dir().join(format!("bench-diff-epipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // 9 of 10 GFLOP/s passes the 0.3x gate; 1 of 10 fails it.
    assert_eq!(diff_with_stdout_closed(&dir, 10.0, 9.0), Some(0));
    assert_eq!(diff_with_stdout_closed(&dir, 10.0, 1.0), Some(1));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
