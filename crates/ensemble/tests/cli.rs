//! The `awp` binary's exit codes: a known subcommand runs and exits 0; an
//! unknown subcommand, a flag the subcommand does not declare or an unknown
//! `repro` row prints the usage and exits 2 before any work starts.

use std::process::{Command, Output};

fn awp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_awp")).args(args).output().expect("awp runs")
}

/// Runs in a scratch directory: a full `repro` row writes its record under
/// `results/` of the workspace it finds above the working directory, so
/// here it lands in `<tmp>/results` and leaves the tracked records alone.
#[test]
fn listing_subcommands_exit_zero() {
    let tmp = tempfile::tempdir().expect("temp dir");
    for (args, record) in [
        (&["scenarios"][..], None),
        (&["repro", "T1"], Some("table1.json")),
        (&["repro", "S5A"], Some("s5a.json")),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_awp"))
            .args(args)
            .current_dir(tmp.path())
            .output()
            .expect("awp runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
        if let Some(record) = record {
            assert!(tmp.path().join("results").join(record).exists(), "{args:?} wrote no record");
        }
    }
}

/// A run whose record cannot be written fails, here because `results` is a
/// plain file.
#[test]
fn repro_exits_1_when_a_record_cannot_be_written() {
    let tmp = tempfile::tempdir().expect("temp dir");
    std::fs::write(tmp.path().join("results"), "").expect("results file");
    let out = Command::new(env!("CARGO_BIN_EXE_awp"))
        .args(["repro", "T1"])
        .current_dir(tmp.path())
        .output()
        .expect("awp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to write"), "{stderr}");
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    // `verify` is retired: its gates are checks of `awp repro VRF`.
    for args in [&["florp"][..], &[], &["verify", "--smoke"]] {
        let out = awp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
    }
}

#[test]
fn undeclared_flag_exits_2_with_usage() {
    for args in [
        &["workflow", "shakeout-k", "24", "10", "--sched"][..],
        &["scenarios", "--lts"],
        &["chaos", "--chaos-seed"],
        &["chaos", "--chaos-seed", "not-a-number"],
        &["run", "nowhere"],
        &["repro", "T1", "F99"],
        &["repro", "--smoke"],
    ] {
        let out = awp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} started work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
