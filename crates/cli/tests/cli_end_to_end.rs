//! Drives the `ngl` binary end-to-end: generate → train → tag → eval.

use std::process::Command;

fn ngl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ngl"))
}

/// A scratch directory of the test's own: tests run in parallel, and
/// each removes its directory when done.
fn tmpdir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ngl-cli-test-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Writes miniature CoNLL corpora (generated in-process so the test does
/// not pay for full-size profiles), then exercises every subcommand.
#[test]
fn full_cli_workflow() {
    use ngl_corpus::namegen::Universe;
    use ngl_corpus::{Dataset, DatasetSpec, KnowledgeBase, Topic};

    let dir = tmpdir("workflow");
    let train_kb = KnowledgeBase::build_in(11, 120, Universe::Train);
    let d5_kb = KnowledgeBase::build(12, 80);
    let train = Dataset::generate(&DatasetSpec::non_streaming("train", 700, 21), &train_kb);
    let d5 = Dataset::generate(&DatasetSpec::streaming("d5", 500, Topic::ALL.to_vec(), 22), &d5_kb);
    let train_path = dir.join("train.conll");
    let d5_path = dir.join("d5.conll");
    let model_path = dir.join("model.nglb");
    std::fs::write(&train_path, train.to_conll()).expect("write train");
    std::fs::write(&d5_path, d5.to_conll()).expect("write d5");

    // train
    let out = ngl()
        .args([
            "train",
            "--train",
            train_path.to_str().expect("utf8"),
            "--d5",
            d5_path.to_str().expect("utf8"),
            "--out",
            model_path.to_str().expect("utf8"),
            "--dim",
            "16",
            "--epochs",
            "3",
        ])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model_path.exists());

    // tag (stdin)
    let tweets_path = dir.join("tweets.txt");
    std::fs::write(&tweets_path, "gov Beshear said stay home\nthanks beshear again\n")
        .expect("write tweets");
    let out = ngl()
        .args([
            "tag",
            "--model",
            model_path.to_str().expect("utf8"),
            "--input",
            tweets_path.to_str().expect("utf8"),
            "--conll",
        ])
        .output()
        .expect("run tag");
    assert!(out.status.success(), "tag failed: {}", String::from_utf8_lossy(&out.stderr));
    let conll = String::from_utf8_lossy(&out.stdout);
    assert!(conll.contains("gov\t"), "conll output malformed: {conll}");
    // Two sentences → two blank-line-terminated blocks.
    assert_eq!(conll.matches("\n\n").count(), 2, "{conll}");

    // A reader that closed stdout before the first write ends `recover`
    // and `tag` cleanly: exit 0 and no panic.
    let store = dir.join("store");
    let model = model_path.to_str().expect("utf8");
    for args in [
        vec!["recover", "--model", model, "--store-dir", store.to_str().expect("utf8")],
        vec!["tag", "--model", model, "--input", tweets_path.to_str().expect("utf8")],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = ngl().args(&args).stdout(writer).output().expect("run with stdout closed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} with stdout closed: {}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?} with stdout closed: {stderr}");
    }

    // eval: score the gold file against itself — must be perfect.
    let out = ngl()
        .args([
            "eval",
            "--gold",
            d5_path.to_str().expect("utf8"),
            "--pred",
            d5_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("run eval");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("macro-F1: 1.000"), "self-eval not perfect: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_writes_conll() {
    let dir = tmpdir("generate");
    let path = dir.join("gen.conll");
    // d1 is the smallest full profile (1000 tweets).
    let out = ngl()
        .args(["generate", "--profile", "d1", "--seed", "5", "--out", path.to_str().expect("utf8")])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("read back");
    let parsed = ngl_corpus::from_conll(&text).expect("valid conll");
    assert_eq!(parsed.len(), 1000);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = ngl().args(["definitely-not-a-command"]).output().expect("run");
    assert!(!out.status.success());
    let out = ngl().args(["train"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --train"));
    let out = ngl().args(["tag", "--model", "/nonexistent/model.nglb"]).output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = ngl().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
