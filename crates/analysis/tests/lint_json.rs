//! `hompres-lint --format json` writes valid JSON for any input path: a
//! file whose name holds `"` and `\` comes back, parsed, as its own path
//! in every mode that reports per-input objects.

use std::path::Path;
use std::process::Command;

use hp_analysis::json::{self, Json};

#[test]
fn json_output_escapes_the_input_path() {
    let dir = std::env::temp_dir().join(format!("hp-lint-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lint/warn/duplicate_rule.dl");
    let path = dir.join("we\"ird\\name.dl");
    std::fs::copy(&fixture, &path).expect("fixture copied");
    let path = path.to_str().expect("temp path is UTF-8");

    // `--fix` last: it rewrites the file the other two read.
    for (mode, field) in [
        (None, "diagnostics"),
        (Some("--fix=check"), "diff"),
        (Some("--fix"), "changed"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hompres-lint"))
            .args(mode)
            .args(["--format", "json", path])
            .output()
            .expect("hompres-lint runs");
        let text = String::from_utf8(out.stdout).expect("UTF-8 output");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{mode:?}: {e}\n{text}"));
        let [input] = doc.as_arr().expect("an array of inputs") else {
            panic!("{mode:?}: not one input\n{text}");
        };
        assert_eq!(
            input.get("input").and_then(Json::as_str),
            Some(path),
            "{mode:?}"
        );
        assert!(input.get(field).is_some(), "{mode:?}: no {field:?}\n{text}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
