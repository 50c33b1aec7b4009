//! `commlint` answers a pragma whose expression nests far too deeply with
//! a parse diagnostic and exit status 2, not a stack overflow.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn deep_pragma_expression_exits_with_a_parse_diagnostic() {
    let n = 200_000;
    let src = format!(
        "#pragma comm_p2p sender({}rank{}) receiver(b)\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("deep_pragma.comm");
    std::fs::write(&file, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_commlint"))
        .arg(&file)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nests deeper than"), "{stderr}");
}
