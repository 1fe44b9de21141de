//! One seed yields a byte-identical request stream in two separate
//! processes.  Hash maps are seeded per process, so determinism within one
//! process would not show this.

use std::process::Command;

fn dump(workload: &str, seed: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--dump-stream",
        ])
        .output()
        .expect("servebench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn a_seed_gives_the_same_stream_in_two_processes() {
    for workload in ["hit-serial", "miss-serial", "batch-mix"] {
        let first = dump(workload, "7");
        assert!(!first.is_empty(), "{workload}: empty stream");
        assert!(first == dump(workload, "7"), "{workload}: streams differ");
        assert!(
            first != dump(workload, "8"),
            "{workload}: the seed must matter"
        );
    }
}
