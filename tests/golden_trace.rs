//! Golden trace: the JSONL export of `repro trace --n 256 --reps 1` must
//! stay byte-identical to the committed file.  Span details and mark
//! labels are typed notes rendered at export time, so this holds the
//! rendering to the text the transfer path has always written.
//!
//! A deliberate trace change regenerates the file with
//! `cargo run --release -p bench --bin repro -- trace --n 256 --reps 1
//! --trace-out tests/golden/trace_n256_reps1.jsonl`.

use bench::traced::traced_coupled_run;

#[test]
fn coupled_run_exports_the_golden_jsonl() {
    let golden = include_str!("golden/trace_n256_reps1.jsonl");
    let run = traced_coupled_run(256, 1);
    let got = mcsim::jsonl_events(&run.traces);
    let first = got.lines().zip(golden.lines()).position(|(g, w)| g != w);
    assert!(
        got == golden,
        "trace differs from tests/golden/trace_n256_reps1.jsonl ({} vs {} bytes); \
         first differing (line, got, golden): {:?}",
        got.len(),
        golden.len(),
        first.map(|i| (i + 1, got.lines().nth(i), golden.lines().nth(i)))
    );
}
