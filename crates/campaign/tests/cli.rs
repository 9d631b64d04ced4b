//! The `campaign` binary's argument contract, driven through the real
//! executable (`CARGO_BIN_EXE_campaign`). Every case here is rejected (or,
//! for `--list-protocols`, answered) before any campaign runs: unknown
//! flags, flags missing their value and unparsable counts print the usage
//! text and exit 2, rule violations print one `campaign error:` line and
//! exit 2, and a flag a subcommand does not use is unknown to it rather
//! than silently dropped.

use specstab_protocols::registry;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A temporary directory one test owns, removed when dropped. Every
/// invocation runs inside it, so nothing a subcommand might write by
/// default lands in the source tree.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("specstab-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir writable");
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }

    fn campaign(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("campaign binary runs")
    }

    /// `args` must be refused with the usage text and exit code 2.
    fn assert_usage(&self, args: &[&str]) {
        let out = self.campaign(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "campaign {args:?}: {stderr}");
        assert!(stderr.starts_with("usage: campaign"), "campaign {args:?} printed:\n{stderr}");
    }

    /// `args` must be refused with exactly `campaign error: {message}`.
    fn assert_error(&self, args: &[&str], message: &str) {
        let out = self.campaign(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "campaign {args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("campaign error: {message}"), "campaign {args:?}");
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A one-cell matrix, so a flag that slips through costs almost nothing.
const TINY: [&str; 10] =
    ["--topologies", "ring:4", "--daemons", "sync", "--faults", "0", "--seeds", "1", "--seed", "7"];

fn with<'a>(head: &[&'a str], tail: &[&'a str]) -> Vec<&'a str> {
    head.iter().chain(tail).copied().collect()
}

#[test]
fn unknown_flags_are_usage_errors_in_every_subcommand() {
    let s = WorkDir::new("unknown");
    let missing = s.path("missing.json");
    s.assert_usage(&["--bogus", "1"]);
    s.assert_usage(&["run", "--bogus", "1"]);
    s.assert_usage(&["plan", "--bogus", "1"]);
    s.assert_usage(&["shard", "--plan", &missing, "--shard", "0", "--bogus", "1"]);
    s.assert_usage(&["merge", "--bogus", &missing]);
    s.assert_usage(&["serve", "--plan", &missing, "--bogus", "1"]);
    s.assert_usage(&["work", "--coordinator", "http://127.0.0.1:9", "--bogus", "1"]);
}

#[test]
fn flags_missing_their_value_are_usage_errors() {
    let s = WorkDir::new("missing-value");
    let missing = s.path("missing.json");
    s.assert_usage(&["--json"]);
    s.assert_usage(&["run", "--seeds"]);
    s.assert_usage(&["plan", "--out"]);
    s.assert_usage(&["shard", "--shard", "0", "--plan"]);
    s.assert_usage(&["merge", &missing, "--json"]);
    s.assert_usage(&["serve", "--plan"]);
    s.assert_usage(&["work", "--coordinator"]);
}

#[test]
fn unparsable_counts_are_usage_errors() {
    let s = WorkDir::new("counts");
    let missing = s.path("missing.json");
    s.assert_usage(&["--seeds", "many"]);
    s.assert_usage(&["run", "--threads", "x"]);
    s.assert_usage(&["plan", "--seeds", "-1"]);
    s.assert_usage(&["shard", "--plan", &missing, "--shard", "first"]);
    s.assert_usage(&["shard", "--plan", &missing, "--shard", "0", "--threads", "x"]);
    s.assert_usage(&["serve", "--plan", &missing, "--lease-ms", "soon"]);
    s.assert_usage(&["work", "--coordinator", "http://127.0.0.1:9", "--threads", "x"]);
}

#[test]
fn rule_violations_exit_2_with_their_error_line() {
    let s = WorkDir::new("rules");
    let metrics = s.path("m.json");
    let missing = s.path("missing.json");
    let rule = "--metrics requires --trace (the sidecar is distilled from the event stream)";
    s.assert_error(&with(&["run", "--metrics", &metrics], &TINY), rule);
    s.assert_error(&["serve", "--plan", &missing, "--metrics", &metrics], rule);
    s.assert_error(&["merge", "--cells-in-json"], "merge needs at least one partial artifact");
    assert!(!Path::new(&metrics).exists(), "no sidecar may be written");
}

#[test]
fn flags_a_subcommand_does_not_use_are_unknown_to_it() {
    let s = WorkDir::new("unused");
    let (plan, out, missing) = (s.path("plan.json"), s.path("out.json"), s.path("missing.json"));
    // `plan` writes a plan and nothing else: it neither runs the matrix
    // nor writes an artifact or a sidecar, so it takes none of their flags.
    let plan_argv = with(&["plan", "--out", &plan], &TINY);
    for unused in [
        &["--json", &out][..],
        &["--csv", &out],
        &["--metrics", &out],
        &["--cells-in-json"],
        &["--threads", "2"],
        &["--workers", "2"],
    ] {
        s.assert_usage(&with(&plan_argv, unused));
    }
    // `run` writes artifacts (`--json`, `--csv`), not a plan.
    s.assert_usage(&with(&["run", "--out", &out], &TINY));
    // The engine follows from the daemon; no subcommand takes `--batch`.
    s.assert_usage(&with(&["run", "--batch", "on"], &TINY));
    s.assert_usage(&["shard", "--plan", &missing, "--shard", "0", "--batch", "off"]);
    s.assert_usage(&["work", "--coordinator", "not-a-url", "--batch", "on"]);
    assert!(!Path::new(&plan).exists(), "no plan may be written");
    assert!(!Path::new(&out).exists(), "no artifact may be written");
}

#[test]
fn list_protocols_names_every_protocol_with_its_capabilities() {
    let s = WorkDir::new("list");
    let out = s.campaign(&["--list-protocols"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].contains("registered protocols"), "{stdout}");
    let header = lines[1];
    let column = |name: &str| header.find(name).unwrap_or_else(|| panic!("{name} column"));
    let (witness, batched) = (column("witness"), column("batched"));
    let cell = |row: &str, at: usize| row[at..].split_whitespace().next().unwrap_or("").to_string();
    let names = registry::names();
    assert_eq!(names.len(), 6, "six registered protocols");
    for name in names {
        let row = lines[3..]
            .iter()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{name} listed in\n{stdout}"));
        let info = registry::info(name).expect("registered");
        let yes = |on: bool| if on { "yes" } else { "-" };
        assert_eq!(cell(row, witness), yes(info.has_witness), "{name} witness");
        assert_eq!(cell(row, batched), yes(info.batched), "{name} batched");
    }
}
