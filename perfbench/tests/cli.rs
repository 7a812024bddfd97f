//! The benchmark binary's contract: the last line of standard output is the
//! result, and the exit code says whether every check passed.

use std::process::Command;

fn perfbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

const QUICK: [&str; 8] = [
    "--workload",
    "run-starved",
    "--seed",
    "3",
    "--seconds",
    "0.1",
    "--trace",
    "0",
];

#[test]
fn a_correct_run_exits_zero_with_the_result_last() {
    let (code, stdout) = perfbench(&[&QUICK[..], &["--quick"]].concat());
    assert_eq!(code, Some(0));
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"setup_s\": {\"value\": "), "{last}");
}

#[test]
fn a_wrong_expected_value_exits_nonzero_with_the_result_last() {
    let (code, stdout) = perfbench(&[&QUICK[..], &["--quick", "--corrupt-expected"]].concat());
    assert_eq!(code, Some(1));
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false, "), "{last}");
    assert!(!last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn a_usage_error_prints_no_result() {
    let (code, stdout) = perfbench(&["--workload", "nope", "--trace", "0"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "{stdout}");
}
