//! End-to-end: exported corpus files drive the `octopocs` CLI binary and
//! reproduce the Table II verdicts through the *serialised* program
//! representation (printer → files → parser → pipeline), closing the loop
//! between the dataset, the assembler round-trip, and the tool.

mod common;

use std::process::Command;

use octo_corpus::{all_pairs, Expected};
use octo_ir::printer::print_program;

use common::bin_path;

#[test]
fn cli_reproduces_table2_verdicts_from_exported_files() {
    let cli = bin_path("octopocs");
    let dir = std::env::temp_dir().join(format!("octopocs-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");

    // A representative row per verdict class (running all 15 through a
    // subprocess each would slow the suite without adding coverage).
    for idx in [1u32, 8, 10, 15] {
        let pair = all_pairs().into_iter().find(|p| p.idx == idx).expect("idx");
        let s_path = dir.join(format!("s{idx}.mir"));
        let t_path = dir.join(format!("t{idx}.mir"));
        let poc_path = dir.join(format!("poc{idx}.bin"));
        std::fs::write(&s_path, print_program(&pair.s)).expect("write s");
        std::fs::write(&t_path, print_program(&pair.t)).expect("write t");
        std::fs::write(&poc_path, pair.poc.bytes()).expect("write poc");

        let output = Command::new(&cli)
            .args([
                "--s",
                s_path.to_str().expect("utf8"),
                "--t",
                t_path.to_str().expect("utf8"),
                "--poc",
                poc_path.to_str().expect("utf8"),
                "--shared",
                &pair.shared.join(","),
                "--json",
            ])
            .output()
            .expect("spawn cli");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let expected_code = match pair.expected {
            Expected::TypeI | Expected::TypeII => 0,
            Expected::TypeIII => 1,
            Expected::Failure => 2,
        };
        assert_eq!(
            output.status.code(),
            Some(expected_code),
            "Idx-{idx}: exit code mismatch; stdout: {stdout}"
        );
        assert!(
            stdout.contains(&format!("\"verdict\":\"{}\"", pair.expected.label())),
            "Idx-{idx}: verdict mismatch in {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
