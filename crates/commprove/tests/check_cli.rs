//! `commprove --check` refuses a certificate whose integer field was
//! rewritten as a float, and accepts the committed golden.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn check_refuses_floats_in_integer_fields() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/prove_fixtures");
    let golden = std::fs::read_to_string(fixtures.join("golden/ring.cert.json")).unwrap();
    for (i, lcm) in ["1", "1.0", "1e0"].into_iter().enumerate() {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("check_cli_{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        let cert = golden.replacen("\"lcm\": 1,", &format!("\"lcm\": {lcm},"), 1);
        std::fs::write(dir.join("ring.cert.json"), cert).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_commprove"))
            .args(["--check", "--cert-dir"])
            .args([dir, fixtures.join("ring.comm")])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refused = stderr.contains("region[0]: `lcm` is not a non-negative integer");
        assert_eq!(
            out.status.code(),
            Some(if lcm == "1" { 0 } else { 3 }),
            "{stderr}"
        );
        assert_eq!(refused, lcm != "1", "{stderr}");
    }
}
