//! End-to-end: `proauth service`, the ALS layer run as a signing service
//! under an open-loop client workload, invoked as the compiled binary.

use std::process::{Command, Output};

fn service(mix: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_proauth"))
        .args(["service", "--units", "2", "--mix", mix])
        .output()
        .expect("spawn proauth service")
}

/// The `signed <k> of <offered>` count the service reports.
fn signed(out: &Output) -> usize {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("signed ")?.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no `signed` line in:\n{stdout}"))
}

#[test]
fn service_signs_under_a_mix_and_rejects_unknown_ops() {
    let out = service("sign=8,verify=1");
    assert!(
        out.status.success(),
        "service exited with {}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(signed(&out) > 0, "the service signed nothing");

    // Refresh is scheduled, never a client operation.
    let out = service("refresh=1");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown mix op `refresh`"), "{stderr}");

    // A fractional weight dilutes its op; it does not starve the others.
    assert!(signed(&service("sign=8,verify=0.01")) > 0);
}
