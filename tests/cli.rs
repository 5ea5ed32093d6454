//! `trips-serve` argument handling: flags that do not exist or do not
//! combine exit with status 2 (usage) before any deployment is trained.

use std::process::Command;

#[test]
fn rejected_arguments_exit_with_usage() {
    for (args, why) in [
        (&["--snapshot", "x"][..], "unknown argument: --snapshot"),
        (
            &["--snapshot-root", "d"],
            "unknown argument: --snapshot-root",
        ),
        (
            &["--segment-bytes", "1"],
            "unknown argument: --segment-bytes",
        ),
        (&["--fsync", "never"], "--fsync needs --wal-dir"),
        (
            &["--idle-timeout", "0"],
            "--idle-timeout must be at least 1 second",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trips-serve"))
            .args(args)
            .output()
            .expect("trips-serve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "trips-serve {args:?}: {stderr}");
        assert!(stderr.contains(why), "trips-serve {args:?}: {stderr}");
    }
}
