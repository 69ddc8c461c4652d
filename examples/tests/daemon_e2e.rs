//! End-to-end: `proauth daemon` as real OS processes.
//!
//! Each test invokes the compiled `proauth` binary, which forks one `serve`
//! process per node (plus a chaos `proxy` when requested), runs the collector,
//! and self-checks the outcome against the in-process engine via `--check`.
//! Exit code 0 therefore certifies the full acceptance chain: certified keys
//! match, zero forgeries, all nodes completed every round.

use std::process::Command;

fn run_daemon(tag: &str, extra: &[&str]) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("proauth-e2e-{}-{tag}", std::process::id()));
    let addr = format!("unix:{}", dir.display());
    let out = Command::new(env!("CARGO_BIN_EXE_proauth"))
        .args(["daemon", "--n", "4", "--units", "1", "--check", "--addr", &addr])
        .args(extra)
        .output()
        .expect("spawn proauth daemon");
    let _ = std::fs::remove_dir_all(dir);
    out
}

#[test]
fn daemon_faithful_check_passes() {
    let out = run_daemon("faithful", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "daemon exited with {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("check PASSED"), "missing check verdict:\n{stdout}");
    assert!(stdout.contains("bit-identical"), "faithful run must be bit-identical:\n{stdout}");
    assert!(stdout.contains("authenticated goodput"), "missing goodput report:\n{stdout}");
}

#[test]
fn daemon_chaos_check_passes() {
    let out = run_daemon("chaos", &["--delay", "20", "--dup", "5"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "daemon exited with {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("check PASSED"), "missing check verdict:\n{stdout}");
    assert!(
        stdout.contains("bit-identical under link chaos"),
        "link chaos must be checked bit for bit:\n{stdout}"
    );
}
