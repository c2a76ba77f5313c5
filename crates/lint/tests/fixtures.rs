//! End-to-end tests of the `obiwan-lint` binary against fixture trees,
//! covering the exit-code contract: nonzero with `file:line` diagnostics on
//! a violating tree, zero on a clean one.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_lint(tree: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obiwan-lint"))
        .arg(tree)
        .output()
        .expect("spawn obiwan-lint");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn bad_tree_fails_with_file_line_diagnostics() {
    let (ok, stdout) = run_lint(&fixture("bad_tree"));
    assert!(!ok, "bad tree must fail; output:\n{stdout}");
    // file:line prefix for the guard-across-transport seeded violation.
    assert!(
        stdout.contains("crates/demo/src/lib.rs:7: [guard-across-transport]"),
        "missing guard diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/lib.rs:15: [no-unwrap-on-lock-or-decode]"),
        "missing decode-expect diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/lib.rs:20: [single-shard-guard]"),
        "missing second-shard-guard diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/lib.rs:25: [single-shard-guard]"),
        "missing same-statement shard-pair diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/lib.rs:30: [no-io-under-shard-guard]"),
        "missing wal-under-guard diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/lib.rs:34: [no-io-under-shard-guard]"),
        "missing same-statement io diagnostic in:\n{stdout}"
    );
    // A journaled op whose deltas are built, and logged, under the guard
    // they were read under.
    assert!(
        stdout.contains("crates/demo/src/lib.rs:46: [no-io-under-shard-guard]"),
        "missing journal-under-guard diagnostic in:\n{stdout}"
    );
    // The bare allow suppresses its guard-across-transport finding but is
    // itself flagged by the audit rule.
    assert!(
        stdout.contains("crates/demo/src/lib.rs:39: [allow-without-rationale]"),
        "missing allow-audit diagnostic in:\n{stdout}"
    );
    assert!(
        !stdout.contains("crates/demo/src/lib.rs:40:"),
        "the bare allow must still suppress its target finding in:\n{stdout}"
    );
    // Interprocedural seeds: the AB/BA inversion only exists through the
    // call graph, and both unretired-intent shapes anchor at the intent.
    assert!(
        stdout.contains("crates/demo/src/locks.rs:9: [lock-order-cycle]"),
        "missing lock-order-cycle diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/intent.rs:6: [wal-intent-lifecycle]"),
        "missing tail-exit intent diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/intent.rs:13: [wal-intent-lifecycle]"),
        "missing early-return intent diagnostic in:\n{stdout}"
    );
    // The group form: a list of intents nobody retires, and one retired
    // for a single id only.
    assert!(
        stdout.contains("crates/demo/src/intent.rs:25: [wal-intent-lifecycle]"),
        "missing unretired-group diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/intent.rs:31: [wal-intent-lifecycle]"),
        "missing retired-one-of-a-group diagnostic in:\n{stdout}"
    );
    assert!(stdout.contains("13 violation(s)"), "count in:\n{stdout}");
}

#[test]
fn clean_tree_passes() {
    let (ok, stdout) = run_lint(&fixture("clean_tree"));
    assert!(ok, "clean tree must pass; output:\n{stdout}");
    assert!(stdout.contains("obiwan-lint: clean"));
}

#[test]
fn the_workspace_itself_is_clean() {
    // The analyzer's own acceptance bar: the tree this test runs in has no
    // violations. (Equivalent to `cargo run -p obiwan-lint` in CI.)
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let (ok, stdout) = run_lint(root);
    assert!(ok, "workspace has lint violations:\n{stdout}");
}
