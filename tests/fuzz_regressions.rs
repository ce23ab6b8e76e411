//! Regression corpus: shrunk fuzz repros and hand-picked generated
//! scenarios, replayed deterministically through every oracle on each
//! test run (DESIGN.md §4g).
//!
//! Each JSON file under `tests/corpus/` is either a bare scenario or a
//! full repro document (scenario under the `"scenario"` key).  A
//! scenario lands here once a fuzz failure has been fixed — from then
//! on the corpus keeps the fix honest without re-running the fuzzer.
//!
//! Replay a single file by hand with:
//! `cargo run --release -p fuzz -- --replay tests/corpus/<name>.json`

use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let p = e.expect("readable dir entry").path();
            (p.extension().is_some_and(|x| x == "json")).then_some(p)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_nonempty() {
    assert!(
        corpus_files().len() >= 3,
        "regression corpus must hold at least three scenarios"
    );
}

#[test]
fn corpus_replays_clean() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let sc = fuzz::parse_repro(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        if let Some(f) = fuzz::oracle::check(&sc) {
            panic!(
                "{} regressed ({}): {}\n{}",
                path.display(),
                f.phase,
                f.detail,
                f.post_mortem.join("\n"),
            );
        }
    }
}

#[test]
fn corpus_post_mortem_carries_critical_path_summary() {
    // Replaying a corpus entry must produce a post-mortem that embeds
    // the one-paragraph critical-path summary, and that summary must be
    // self-consistent (its built-in attribution tiling check passed and
    // every recv was causally matched to a send copy).
    let path = corpus_dir().join("same-prog-bumps-hpf-to-hpf.json");
    let text = std::fs::read_to_string(&path).expect("readable corpus file");
    let sc = fuzz::parse_repro(&text).expect("parseable");
    let run = fuzz::exec::run_scenario(&sc, false);
    let cp = run
        .critical_path
        .as_deref()
        .expect("traced replay records transfer spans");
    assert!(cp.starts_with("critical path:"), "summary: {cp}");
    assert!(cp.contains("attribution=ok"), "summary: {cp}");
    assert!(cp.contains("dominant bottleneck"), "summary: {cp}");
    let pm = fuzz::oracle::post_mortem(&run);
    assert_eq!(
        pm.last().map(String::as_str),
        Some(cp),
        "post-mortem must end with the critical-path paragraph"
    );
}

#[test]
fn corpus_scenarios_replay_deterministically() {
    // A corpus entry must also round-trip: serializing the parsed
    // scenario and parsing it back yields the same scenario, so repros
    // stay self-contained as the schema evolves.
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let sc = fuzz::parse_repro(&text).expect("parseable");
        let again = fuzz::scenario::Scenario::from_json(&sc.to_json())
            .unwrap_or_else(|e| panic!("{}: reserialize failed: {e}", path.display()));
        assert_eq!(again, sc, "{}: lossy round-trip", path.display());
    }
}
