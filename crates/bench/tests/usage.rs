//! A flag whose value does not parse is a usage error: the bench
//! binaries exit with status 2 and name the flag, instead of running
//! on the flag's default.

use std::process::Command;

/// Runs `bin` with `args`; its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn an_unparsable_value_exits_2_and_names_its_flag() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for (args, flag) in [
        (&["--figure", "fig4", "--windows", "2O"][..], "--windows"),
        (&["--figure", "fig4", "--seed", "-1"][..], "--seed"),
        (&["--figure", "table1", "--keys", "128,x"][..], "--keys"),
    ] {
        let (code, stderr) = run(repro, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    let doctor = env!("CARGO_BIN_EXE_grid_doctor");
    let (code, stderr) = run(doctor, &["--threshold", "0.2.5"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--threshold"), "{stderr}");
}
