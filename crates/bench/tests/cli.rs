//! `reproduce` CLI contract, driven through the real binary: bad input
//! exits 2 at once, naming the accepted values, instead of starting a
//! long run of something else.

use std::process::Command;

#[test]
fn bad_input_exits_2_and_names_the_accepted_values() {
    let sections = "sections: fig6_1 fig6_2 fig6_3a fig6_3b fig6_4 fig6_5 fig6_6ab fig6_6c";
    for (args, scale, expect) in [
        (&["--only", "nosuch"][..], "tiny", sections),
        (&["--bogus"], "tiny", sections),
        (&["fig6_1"], "tiny", sections),
        (&["--only"], "tiny", sections),
        (&["--only", "fig6_1"], "tny", "use tiny, std or full"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .env("REBOUND_SCALE", scale)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(expect), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not start a run");
    }
}
