//! The path to the `octopocs` and `octopocsd` binaries, for the
//! integration tests that run them.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

/// The path of the `octopocs` package's binary `name`, built from the
/// source under test.
///
/// The binaries belong to `crates/core`, which a `cargo test` of this
/// package does not build. So the first call in a test binary runs
/// `cargo build -p octopocs --bins` in the test's own profile (with
/// `--release` when the test runs from a `release` directory). The
/// build is a no-op when the binaries are fresh.
pub fn bin_path(name: &str) -> PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let mut dir = std::env::current_exe().expect("test exe path");
        dir.pop(); // deps/
        dir.pop(); // debug/ or release/
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "--quiet", "-p", "octopocs", "--bins"]);
        if dir.ends_with("release") {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build");
        assert!(status.success(), "cargo build -p octopocs --bins failed");
        dir
    })
    .join(name)
}
