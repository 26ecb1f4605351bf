//! Fixture-based tests for the `ngl-lint` rule engine, plus acceptance
//! mutations of the real workspace: stripping a SAFETY comment from
//! `kernels.rs`/`pool.rs`, adding an `unwrap()` to `crates/store/src/`
//! or adding a `pub fn` nothing calls under `crates/` must each make
//! the lint fail.
//!
//! Fixtures live in `tests/fixture_data/` (a directory `lint_workspace`
//! deliberately skips) and are linted under *synthetic* relative paths,
//! because rule scoping is path-driven.

use std::path::Path;

use ngl_lint::{
    find_workspace_root, lint_lockfile, lint_source, lint_sources, lint_workspace, Diagnostic,
    Report, Waiver,
};

fn rules(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

// ---- R1: SAFETY comments ----------------------------------------------

#[test]
fn r1_fires_on_bare_unsafe() {
    let report = lint_source("crates/nn/src/simd.rs", include_str!("fixture_data/r1_bad.rs"));
    assert_eq!(rules(&report.diagnostics), ["R1"]);
    assert_eq!(report.diagnostics[0].line, 2);
}

#[test]
fn r1_satisfied_by_safety_comment() {
    let report = lint_source("crates/nn/src/simd.rs", include_str!("fixture_data/r1_good.rs"));
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn r1_applies_even_in_test_files() {
    let report = lint_source("crates/nn/tests/simd.rs", include_str!("fixture_data/r1_bad.rs"));
    assert_eq!(rules(&report.diagnostics), ["R1"]);
}

// ---- R2: panic-free durable paths -------------------------------------

#[test]
fn r2_fires_on_store_paths_but_not_in_test_modules() {
    let src = include_str!("fixture_data/r2.rs");
    let report = lint_source("crates/store/src/fixture.rs", src);
    assert_eq!(rules(&report.diagnostics), ["R2"], "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].line, 2, "only the non-test unwrap");
}

#[test]
fn r2_ignores_files_outside_durable_scope() {
    let src = include_str!("fixture_data/r2.rs");
    let report = lint_source("crates/text/src/fixture.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

// ---- R3: determinism ban ----------------------------------------------

#[test]
fn r3_fires_on_wall_clock_and_ad_hoc_threads() {
    let src = include_str!("fixture_data/r3.rs");
    let report = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&report.diagnostics), ["R3", "R3"], "{:?}", report.diagnostics);
}

#[test]
fn r3_exempts_runtime_bench_and_cli() {
    let src = include_str!("fixture_data/r3.rs");
    for rel in
        ["crates/runtime/src/fixture.rs", "crates/bench/src/fixture.rs", "crates/cli/src/main.rs"]
    {
        let report = lint_source(rel, src);
        assert!(report.diagnostics.is_empty(), "{rel}: {:?}", report.diagnostics);
    }
}

// ---- R4: kernel-layer enforcement -------------------------------------

#[test]
fn r4_fires_on_hand_rolled_reductions() {
    let src = include_str!("fixture_data/r4.rs");
    let report = lint_source("crates/core/src/fixture.rs", src);
    let fired = rules(&report.diagnostics);
    assert!(fired.contains(&"R4"), "{:?}", report.diagnostics);
    assert!(fired.iter().all(|r| *r == "R4"), "{:?}", report.diagnostics);
    assert!(report.diagnostics.len() >= 2, "both the chain and the loop: {:?}", report.diagnostics);
}

#[test]
fn r4_exempts_the_kernel_layer_itself() {
    let src = include_str!("fixture_data/r4.rs");
    let report = lint_source("crates/nn/src/kernels.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

// ---- R5: checked framing arithmetic -----------------------------------

#[test]
fn r5_fires_on_bare_narrowing_and_unchecked_adds() {
    let src = include_str!("fixture_data/r5_bad.rs");
    let report = lint_source("crates/nn/src/codec.rs", src);
    assert_eq!(rules(&report.diagnostics), ["R5", "R5"], "{:?}", report.diagnostics);
}

#[test]
fn r5_accepts_try_from_and_checked_add() {
    let src = include_str!("fixture_data/r5_good.rs");
    let report = lint_source("crates/nn/src/codec.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn r5_only_applies_to_framing_files() {
    let src = include_str!("fixture_data/r5_bad.rs");
    let report = lint_source("crates/core/src/fixture.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

// ---- waivers -----------------------------------------------------------

#[test]
fn reasoned_waiver_suppresses_and_is_marked_used() {
    let report =
        lint_source("crates/core/src/fixture.rs", include_str!("fixture_data/r3_waived.rs"));
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.waivers.len(), 1);
    assert!(report.waivers[0].used);
    assert_eq!(report.waivers[0].rule, "R3");
    assert!(!report.waivers[0].reason.is_empty());
}

#[test]
fn waiver_without_reason_is_rejected_and_does_not_suppress() {
    let report =
        lint_source("crates/core/src/fixture.rs", include_str!("fixture_data/waiver_no_reason.rs"));
    let fired = rules(&report.diagnostics);
    assert!(fired.contains(&"W1"), "{:?}", report.diagnostics);
    assert!(fired.contains(&"R3"), "rejected waiver must not suppress: {:?}", report.diagnostics);
    assert!(report.waivers.is_empty());
}

#[test]
fn waiver_naming_unknown_rule_is_rejected() {
    let report = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixture_data/waiver_unknown_rule.rs"),
    );
    assert_eq!(rules(&report.diagnostics), ["W1"]);
}

#[test]
fn unused_reasoned_waiver_is_reported_but_not_an_error() {
    let report =
        lint_source("crates/core/src/fixture.rs", include_str!("fixture_data/waiver_unused.rs"));
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.waivers.len(), 1);
    assert!(!report.waivers[0].used);
}

// ---- R6: path dependencies only ---------------------------------------

#[test]
fn r6_fires_on_registry_packages_only() {
    let diags = lint_lockfile("Cargo.lock", include_str!("fixture_data/r6.lock"));
    assert_eq!(rules(&diags), ["R6"], "{diags:?}");
    assert_eq!(diags[0].line, 12);
    assert!(diags[0].message.contains("`rand`"), "{}", diags[0].message);
}

#[test]
fn r6_accepts_a_path_only_lockfile() {
    let lock = include_str!("fixture_data/r6.lock");
    let path_only: String =
        lock.lines().filter(|l| !l.starts_with("source")).collect::<Vec<_>>().join("\n");
    assert!(lint_lockfile("Cargo.lock", &path_only).is_empty());
}

// ---- R7: public items nothing names -------------------------------------

const R7_LIB: &str = "crates/fixture/src/lib.rs";

fn r7_lines(report: &Report) -> Vec<usize> {
    assert!(report.diagnostics.iter().all(|d| d.rule == "R7"), "{:?}", report.diagnostics);
    report.diagnostics.iter().map(|d| d.line).collect()
}

#[test]
fn r7_fires_on_pub_items_named_only_in_their_own_definition() {
    let report = lint_sources(&[(R7_LIB, include_str!("fixture_data/r7_bad.rs"))], &[]);
    // `orphan`, the self-recursive `countdown` and `origin`; `Point` is
    // named by `origin`, and `pub(crate)` items and fields are not R7's.
    assert_eq!(r7_lines(&report), [1, 5, 15]);
}

#[test]
fn r7_counts_callers_that_are_read_but_not_linted() {
    let harness = ("perfbench/harness/src/main.rs", "fn main() { let _ = fixture::origin(); }");
    let report = lint_sources(&[(R7_LIB, include_str!("fixture_data/r7_bad.rs"))], &[harness]);
    assert_eq!(r7_lines(&report), [1, 5]);
}

#[test]
fn r7_accepts_a_reasoned_waiver() {
    let report = lint_sources(&[(R7_LIB, include_str!("fixture_data/r7_waived.rs"))], &[]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.waivers.len(), 1);
    assert!(report.waivers[0].used && report.waivers[0].rule == "R7");
}

#[test]
fn r7_does_not_count_references_from_cfg_test_code() {
    let report = lint_sources(&[(R7_LIB, include_str!("fixture_data/r7_test_only.rs"))], &[]);
    assert_eq!(r7_lines(&report), [1]);
}

#[test]
fn r7_does_not_count_references_from_an_out_of_line_cfg_test_module() {
    let lib = include_str!("fixture_data/r7_test_module.rs");
    let reference = include_str!("fixture_data/r7_reference.rs");
    for (parent, child) in [
        (R7_LIB, "crates/fixture/src/reference.rs"),
        ("crates/fixture/src/stage.rs", "crates/fixture/src/stage/reference.rs"),
    ] {
        let report = lint_sources(&[(parent, lib), (child, reference)], &[]);
        let found: Vec<_> = report.diagnostics.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(found, [(parent, 4)], "{parent}");
    }
    // Declared without `#[cfg(test)]`, the module is production code:
    // its call keeps `helper` alive and its own item is the dead one.
    let plain = lib.replacen("#[cfg(test)]\n", "", 1);
    let child = "crates/fixture/src/reference.rs";
    let report = lint_sources(&[(R7_LIB, plain.as_str()), (child, reference)], &[]);
    let found: Vec<_> = report.diagnostics.iter().map(|d| (d.file.as_str(), d.line)).collect();
    assert_eq!(found, [(child, 1)]);
}

#[test]
fn r7_does_not_count_a_use_path_leaf() {
    let caller = ("tests/api.rs", "#[test]\nfn t() {\n    assert_eq!(fixture::called(), 4);\n}\n");
    let files = [(R7_LIB, include_str!("fixture_data/r7_reexport.rs")), caller];
    // `reexported_only` is named only by the `pub use` that re-exports it.
    assert_eq!(r7_lines(&lint_sources(&files, &[])), [2]);
}

#[test]
fn r7_counts_references_from_a_tests_file() {
    let files = [
        (R7_LIB, include_str!("fixture_data/r7_lib.rs")),
        ("tests/api.rs", include_str!("fixture_data/r7_caller.rs")),
    ];
    let report = lint_sources(&files, &[]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    // Without the caller the item is dead.
    assert_eq!(r7_lines(&lint_sources(&files[..1], &[])), [1]);
}

#[test]
fn r7_checks_only_crate_and_src_sources() {
    let src = include_str!("fixture_data/r7_bad.rs");
    for rel in ["tests/support.rs", "examples/demo.rs", "crates/fixture/tests/it.rs"] {
        let report = lint_sources(&[(rel, src)], &[]);
        assert!(report.diagnostics.is_empty(), "{rel}: {:?}", report.diagnostics);
    }
    let report = lint_sources(&[("src/bin/tool.rs", src)], &[]);
    assert_eq!(r7_lines(&report), [1, 5, 15]);
}

// ---- JSON schema -------------------------------------------------------

#[test]
fn json_report_has_the_stable_v1_schema() {
    let report = Report {
        files_scanned: 2,
        diagnostics: vec![Diagnostic {
            rule: "R1".into(),
            name: "safety-comment".into(),
            file: "crates/nn/src/\"odd\".rs".into(),
            line: 3,
            message: "line one\nline two".into(),
        }],
        waivers: vec![Waiver {
            rule: "R3".into(),
            file: "crates/core/src/pipeline.rs".into(),
            line: 9,
            reason: "stage timing only".into(),
            used: true,
        }],
    };
    let json = report.to_json();
    assert!(json.contains("\"version\": 1"), "{json}");
    assert!(json.contains("\"files_scanned\": 2"), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains(r#""rule": "R1""#), "{json}");
    assert!(json.contains(r#"\"odd\""#), "quotes must be escaped: {json}");
    assert!(json.contains(r"line one\nline two"), "newlines must be escaped: {json}");
    assert!(json.contains(r#""used": true"#), "{json}");

    let clean = Report { files_scanned: 0, diagnostics: vec![], waivers: vec![] };
    let json = clean.to_json();
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(json.contains("\"diagnostics\": []"), "{json}");
}

// ---- the workspace itself ---------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace")
}

#[test]
fn workspace_is_lint_clean_with_reasoned_waivers_only() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(report.files_scanned > 50, "scan saw {} files", report.files_scanned);
    assert!(report.clean(), "workspace must lint clean at HEAD:\n{:#?}", report.diagnostics);
    for w in &report.waivers {
        assert!(!w.reason.is_empty(), "unreasoned waiver survived: {w:?}");
    }
}

// ---- acceptance mutations ---------------------------------------------

fn read_real(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect(rel)
}

#[test]
fn stripping_safety_comments_from_kernels_fails_r1() {
    let rel = "crates/nn/src/kernels.rs";
    let src = read_real(rel);
    let baseline = lint_source(rel, &src);
    assert!(baseline.diagnostics.is_empty(), "{:?}", baseline.diagnostics);

    let mutated = src.replace("SAFETY:", "NOTE:").replace("# Safety", "# Notes");
    assert_ne!(src, mutated, "kernels.rs must actually carry SAFETY comments");
    let report = lint_source(rel, &mutated);
    assert!(
        report.diagnostics.iter().any(|d| d.rule == "R1"),
        "deleting SAFETY comments must trip R1: {:?}",
        report.diagnostics
    );
}

#[test]
fn stripping_safety_comments_from_pool_fails_r1() {
    let rel = "crates/runtime/src/pool.rs";
    let src = read_real(rel);
    let baseline = lint_source(rel, &src);
    assert!(baseline.diagnostics.is_empty(), "{:?}", baseline.diagnostics);

    let mutated = src.replace("SAFETY:", "NOTE:").replace("# Safety", "# Notes");
    assert_ne!(src, mutated, "pool.rs must actually carry SAFETY comments");
    let report = lint_source(rel, &mutated);
    assert!(
        report.diagnostics.iter().any(|d| d.rule == "R1"),
        "deleting SAFETY comments must trip R1: {:?}",
        report.diagnostics
    );
}

#[test]
fn adding_an_unwrap_to_the_store_fails_r2() {
    let rel = "crates/store/src/lib.rs";
    let src = read_real(rel);
    let baseline = lint_source(rel, &src);
    assert!(baseline.diagnostics.is_empty(), "{:?}", baseline.diagnostics);

    let mutated = format!(
        "{src}\npub fn injected_regression(v: &[u8]) -> u8 {{\n    v.first().copied().unwrap()\n}}\n"
    );
    let report = lint_source(rel, &mutated);
    assert!(
        report.diagnostics.iter().any(|d| d.rule == "R2"),
        "a fresh unwrap in the store must trip R2: {:?}",
        report.diagnostics
    );
}

/// Copies the trees `lint_workspace` reads (sources, the benchmark
/// harness, the lockfile) to `to`.
fn copy_lint_inputs(from: &Path, to: &Path) {
    fn copy_rs(from: &Path, to: &Path) {
        for entry in std::fs::read_dir(from).expect("read dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("name");
            if path.is_dir() {
                if name != "target" {
                    copy_rs(&path, &to.join(name));
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                std::fs::create_dir_all(to).expect("mkdir");
                std::fs::copy(&path, to.join(name)).expect("copy");
            }
        }
    }
    for dir in ["crates", "src", "tests", "examples", "perfbench/harness/src"] {
        copy_rs(&from.join(dir), &to.join(dir));
    }
    std::fs::copy(from.join("Cargo.lock"), to.join("Cargo.lock")).expect("copy lockfile");
}

#[test]
fn adding_a_pub_fn_nothing_calls_fails_r7() {
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("r7-mutation");
    let _ = std::fs::remove_dir_all(&copy);
    copy_lint_inputs(&workspace_root(), &copy);
    let baseline = lint_workspace(&copy).expect("scan the copy");
    assert!(baseline.clean(), "{:#?}", baseline.diagnostics);

    let rel = "crates/text/src/lib.rs";
    let src = std::fs::read_to_string(copy.join(rel)).expect(rel);
    let injected = "pub fn injected_dead_api() -> usize {\n    0\n}\n";
    std::fs::write(copy.join(rel), format!("{src}\n{injected}")).expect("mutate");
    let report = lint_workspace(&copy).expect("scan the mutated copy");
    let _ = std::fs::remove_dir_all(&copy);
    assert!(
        report.diagnostics.iter().any(|d| d.rule == "R7" && d.file == rel),
        "an unreferenced pub fn must trip R7: {:?}",
        report.diagnostics
    );
}
