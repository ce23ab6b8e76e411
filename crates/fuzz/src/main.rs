//! Fuzz driver.
//!
//! ```text
//! cargo run --release -p fuzz -- --iters 500 --seed 1
//! cargo run --release -p fuzz -- --matrix --iters 304 --seed 1
//! cargo run --release -p fuzz -- --replay tests/corpus/some-repro.json
//! ```
//!
//! Random mode draws one scenario per iteration from a SplitMix64
//! sequence; `--matrix` forces every one of the 16 library pairs in
//! round-robin so a bounded budget still covers the whole
//! interoperability matrix.  On the first oracle violation the driver
//! shrinks the scenario and writes a self-contained repro (scenario +
//! failure + flight-recorder post-mortem) to `target/fuzz/`, then
//! exits non-zero.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fuzz::gen::{gen_recovery, generate_pair_sized, generate_sized};
use fuzz::json::{arr, obj, Value};
use fuzz::oracle::{check, Failure};
use fuzz::scenario::{LibKind, Scenario};
use fuzz::shrink::{shrink, DEFAULT_BUDGET};
use mcsim::rng::Rng;

struct Opts {
    iters: usize,
    seed: u64,
    matrix: bool,
    recover: bool,
    wide: bool,
    replay: Option<String>,
    dump: Option<u64>,
    budget: usize,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--iters N] [--seed S] [--matrix] [--recover] [--wide] [--budget N] [--out DIR]\n       fuzz --replay FILE\n       fuzz --dump SEED   (print the generated scenario as JSON)\n\n--recover soaks crash-recovery scenarios: supervised worlds, scripted\nmid-transfer crashes, and the bit-identical convergence oracle.\n--wide soaks 8- and 16-rank worlds through the cooperative scheduler."
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        iters: 200,
        seed: mcsim::test_seed(),
        matrix: false,
        recover: false,
        wide: false,
        replay: None,
        dump: None,
        budget: DEFAULT_BUDGET,
        out_dir: PathBuf::from("target/fuzz"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().unwrap_or_else(|| usage_for(name));
        match a.as_str() {
            "--iters" => opts.iters = val("--iters").parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--budget" => opts.budget = val("--budget").parse().unwrap_or_else(|_| usage()),
            "--matrix" => opts.matrix = true,
            "--recover" => opts.recover = true,
            "--wide" => opts.wide = true,
            "--replay" => opts.replay = Some(val("--replay")),
            "--dump" => opts.dump = Some(val("--dump").parse().unwrap_or_else(|_| usage())),
            "--out" => opts.out_dir = PathBuf::from(val("--out")),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

fn usage_for(name: &str) -> ! {
    eprintln!("missing value for {name}");
    std::process::exit(2);
}

fn repro_value(sc: &Scenario, failure: &Failure, attempts: usize) -> Value {
    obj(vec![
        ("scenario", sc.to_value()),
        (
            "failure",
            obj(vec![
                ("phase", Value::Str(failure.phase.clone())),
                ("detail", Value::Str(failure.detail.clone())),
                (
                    "post_mortem",
                    arr(failure
                        .post_mortem
                        .iter()
                        .map(|l| Value::Str(l.clone()))
                        .collect()),
                ),
            ]),
        ),
        ("shrink_attempts", Value::Int(attempts as u64)),
    ])
}

fn report_failure(opts: &Opts, sc: &Scenario, failure: Failure) -> ExitCode {
    eprintln!("FAIL seed={} {}", sc.seed, sc.label());
    eprintln!("  phase:  {}", failure.phase);
    eprintln!("  detail: {}", failure.detail);

    eprintln!("shrinking (budget {})...", opts.budget);
    let (small, attempts) = shrink(sc, opts.budget);
    // Re-check the minimum to attach its own failure and post-mortem.
    let small_failure = check(&small).unwrap_or(failure);
    eprintln!(
        "  shrunk after {attempts} attempts to: {} (regions {}+{}, {} elems, fault entries {})",
        small.label(),
        small.src_set.num_regions(),
        small.dst_set.num_regions(),
        small.dst_set.total(),
        small.fault.as_ref().map_or(0, |f| f.entries()),
    );

    let path = opts.out_dir.join(format!("repro-{}.json", sc.seed));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let doc = repro_value(&small, &small_failure, attempts).to_json();
    match std::fs::write(&path, doc + "\n") {
        Ok(()) => eprintln!("repro written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    for line in small_failure.post_mortem.iter().rev().take(12).rev() {
        eprintln!("  trace: {line}");
    }
    ExitCode::FAILURE
}

/// Scripted-crash scenarios panic inside rank tasks *by design*;
/// the world catches them and reports typed errors.  Suppress just
/// those expected payloads so the driver's stderr stays readable, and
/// let anything unexpected print the full default report.
fn install_quiet_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        let injected = msg.contains("crashed by fault plan")
            || msg.contains("peer rank")
            || msg.contains("world tore down");
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() -> ExitCode {
    let opts = parse_opts();
    install_quiet_panic_hook();

    if let Some(s) = opts.dump {
        let sc = generate_sized(s, opts.wide);
        eprintln!("{}", sc.label());
        println!("{}", sc.to_json());
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let sc = match fuzz::parse_repro(&text) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!("replaying {}: {}", path, sc.label());
        return match check(&sc) {
            None => {
                println!("PASS: all oracles hold");
                ExitCode::SUCCESS
            }
            Some(f) => {
                eprintln!("FAIL phase:  {}", f.phase);
                eprintln!("FAIL detail: {}", f.detail);
                for line in f.post_mortem.iter().rev().take(12).rev() {
                    eprintln!("  trace: {line}");
                }
                ExitCode::FAILURE
            }
        };
    }

    let mut seq = Rng::seed_from_u64(opts.seed);
    let pairs: Vec<(LibKind, LibKind)> = LibKind::ALL
        .into_iter()
        .flat_map(|s| LibKind::ALL.into_iter().map(move |d| (s, d)))
        .collect();

    let total = if opts.matrix {
        opts.iters.div_ceil(pairs.len()) * pairs.len()
    } else {
        opts.iters
    };
    println!(
        "fuzz: {total} scenarios, seed {}, {}",
        opts.seed,
        if opts.recover {
            "crash-recovery soak"
        } else if opts.matrix {
            "full 16-pair matrix"
        } else {
            "random pairs"
        }
    );

    for i in 0..total {
        let s = seq.next_u64();
        let sc = if opts.recover {
            gen_recovery(s)
        } else if opts.matrix {
            let (src, dst) = pairs[i % pairs.len()];
            generate_pair_sized(s, src, dst, opts.wide)
        } else {
            generate_sized(s, opts.wide)
        };
        if let Some(failure) = check(&sc) {
            return report_failure(&opts, &sc, failure);
        }
        if (i + 1) % 50 == 0 || i + 1 == total {
            println!("  {}/{} ok (last: {})", i + 1, total, sc.label());
        }
    }
    println!("PASS: {total} scenarios, all oracles hold");
    ExitCode::SUCCESS
}
