//! The scenario model: a self-contained, JSON-serializable description of
//! one randomized interoperability run.
//!
//! A scenario fixes everything the execution needs: which library holds
//! each side, its shape, a `dist_seed` that deterministically regenerates
//! the (randomly chosen but valid) distribution through the adapters'
//! `random` constructors, explicit region sets (the shrinker mutates
//! these), a step script of moves and epoch bumps, and an optional fault
//! plan.  Serializing the scenario is therefore enough to replay it
//! bit-for-bit anywhere.

use crate::json::{self, arr, obj, Value};

/// Which of the four libraries holds a side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibKind {
    Multiblock,
    Hpf,
    Tulip,
    Chaos,
}

impl LibKind {
    pub const ALL: [LibKind; 4] = [
        LibKind::Multiblock,
        LibKind::Hpf,
        LibKind::Tulip,
        LibKind::Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            LibKind::Multiblock => "multiblock",
            LibKind::Hpf => "hpf",
            LibKind::Tulip => "tulip",
            LibKind::Chaos => "chaos",
        }
    }

    pub fn from_name(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown library '{s}'"))
    }

    /// Regular-section libraries address elements by `RegularSection`;
    /// the others by `IndexSet`.
    pub fn uses_sections(self) -> bool {
        matches!(self, LibKind::Multiblock | LibKind::Hpf)
    }

    /// Whether the library supports a mid-stream distribution change
    /// (regrid / redistribute / remap).  Tulip collections are dealt
    /// round-robin once and never move.
    pub fn supports_bump(self) -> bool {
        !matches!(self, LibKind::Tulip)
    }
}

/// One side's library, global shape, and the seed that regenerates its
/// (valid-by-construction) random distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LibSpec {
    pub kind: LibKind,
    pub shape: Vec<usize>,
    pub dist_seed: u64,
}

impl LibSpec {
    pub fn total_elems(&self) -> usize {
        self.shape.iter().product()
    }
}

/// The transfer's element selection on one side, in linearization order.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionsSpec {
    /// One entry per region; per region one `(lo, hi, stride)` per dim.
    Sections(Vec<Vec<(usize, usize, usize)>>),
    /// One entry per region; each a list of global flat indices.
    Indices(Vec<Vec<usize>>),
}

fn dim_count(lo: usize, hi: usize, stride: usize) -> usize {
    if lo >= hi {
        0
    } else {
        (hi - lo - 1) / stride + 1
    }
}

impl RegionsSpec {
    pub fn num_regions(&self) -> usize {
        match self {
            RegionsSpec::Sections(v) => v.len(),
            RegionsSpec::Indices(v) => v.len(),
        }
    }

    pub fn region_count(&self, r: usize) -> usize {
        match self {
            RegionsSpec::Sections(v) => v[r]
                .iter()
                .map(|&(lo, hi, s)| dim_count(lo, hi, s))
                .product(),
            RegionsSpec::Indices(v) => v[r].len(),
        }
    }

    /// Total elements across all regions (the linearization length).
    pub fn total(&self) -> usize {
        (0..self.num_regions()).map(|r| self.region_count(r)).sum()
    }

    /// Global flattened (row-major over `shape`) index of linearization
    /// position `p`.  Pure — this is the serial oracle's address map.
    pub fn global_of(&self, shape: &[usize], mut p: usize) -> usize {
        match self {
            RegionsSpec::Indices(lists) => {
                for l in lists {
                    if p < l.len() {
                        return l[p];
                    }
                    p -= l.len();
                }
                panic!("position beyond set");
            }
            RegionsSpec::Sections(regions) => {
                for dims in regions {
                    let counts: Vec<usize> = dims
                        .iter()
                        .map(|&(lo, hi, s)| dim_count(lo, hi, s))
                        .collect();
                    let cnt: usize = counts.iter().product();
                    if p < cnt {
                        // Row-major unflatten over the section, then
                        // flatten the global coords over the array shape.
                        let mut rem = p;
                        let mut flat = 0;
                        for d in 0..dims.len() {
                            let suffix: usize = counts[d + 1..].iter().product();
                            let k = rem / suffix;
                            rem %= suffix;
                            let (lo, _, stride) = dims[d];
                            flat = flat * shape[d] + (lo + k * stride);
                        }
                        return flat;
                    }
                    p -= cnt;
                }
                panic!("position beyond set");
            }
        }
    }
}

/// One step of the scenario's script.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Execute the transfer once (data_move / send+recv pair).
    Move,
    /// Redistribute the source object to a new random distribution
    /// regenerated from `dist_seed`, then rebuild the schedule.
    BumpSrc { dist_seed: u64 },
    /// Same for the destination object.
    BumpDst { dist_seed: u64 },
}

/// A serializable fault plan: one set of default rates plus scripted
/// crashes.  Plain scenarios script at most one absolute-time `crash`;
/// recovery scenarios use `crashes`, whose times are *fractions* of the
/// victim rank's transfer window — the executor measures the window on a
/// fault-free baseline run, so a crash always lands inside the resumable
/// protocol rather than inside a collective build (which no supervisor
/// can repair).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub seed: u64,
    pub drop: f64,
    pub dup: f64,
    pub corrupt: f64,
    pub delay: f64,
    pub delay_secs: f64,
    /// `(rank, virtual time)` of a scripted crash.
    pub crash: Option<(usize, f64)>,
    /// Recovery crashes: `(rank, fraction of that rank's transfer
    /// window)`, each fraction in `[0, 1)`.
    pub crashes: Vec<(usize, f64)>,
}

impl FaultSpec {
    /// Number of plan entries (rates block + crashes) — the shrinker's
    /// and the acceptance criteria's size measure.
    pub fn entries(&self) -> usize {
        let rates = usize::from(
            self.drop > 0.0 || self.dup > 0.0 || self.corrupt > 0.0 || self.delay > 0.0,
        );
        rates + usize::from(self.crash.is_some()) + self.crashes.len()
    }
}

/// A complete, self-contained fuzz scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The generator seed this scenario came from (provenance only).
    pub seed: u64,
    /// Two coupled programs (`data_move_send`/`recv` over a split world)
    /// vs one program holding both objects (`try_data_move`).
    pub coupled: bool,
    pub procs_src: usize,
    pub procs_dst: usize,
    /// 0 = Cooperation, 1 = Duplication.
    pub method: u8,
    pub src: LibSpec,
    pub dst: LibSpec,
    pub src_set: RegionsSpec,
    pub dst_set: RegionsSpec,
    pub steps: Vec<Step>,
    pub fault: Option<FaultSpec>,
    /// Virtual-clock deadline for the no-hang oracle, seconds.
    pub deadline: f64,
    /// Run under a supervised world through a `RecoverySession`: crashed
    /// ranks restart from checkpoint and the convergence oracle applies
    /// (destination bit-identical to the fault-free run).
    pub recover: bool,
    /// Scheduler tie-break seed (`World::with_perturb_seed`) of every
    /// world the scenario runs; `None` runs equal virtual times in rank
    /// order.
    pub perturb_seed: Option<u64>,
}

impl Scenario {
    pub fn num_moves(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Move))
            .count()
    }

    pub fn total_procs(&self) -> usize {
        if self.coupled {
            self.procs_src + self.procs_dst
        } else {
            debug_assert_eq!(self.procs_src, self.procs_dst);
            self.procs_src
        }
    }

    /// A short one-line label for progress output.
    pub fn label(&self) -> String {
        format!(
            "{}->{} {} {}{} procs={}+{} regions={}+{} elems={} steps={} fault={}{}",
            self.src.kind.name(),
            self.dst.kind.name(),
            if self.method == 0 { "coop" } else { "dup" },
            if self.recover { "recover " } else { "" },
            if self.coupled { "coupled" } else { "same-prog" },
            self.procs_src,
            self.procs_dst,
            self.src_set.num_regions(),
            self.dst_set.num_regions(),
            self.dst_set.total(),
            self.steps.len(),
            match &self.fault {
                None => "none".to_string(),
                Some(f) => format!(
                    "{}entries{}",
                    f.entries(),
                    if f.crash.is_some() { "+crash" } else { "" }
                ),
            },
            self.perturb_seed
                .map_or(String::new(), |p| format!(" perturb={p}")),
        )
    }

    pub fn to_value(&self) -> Value {
        let lib = |l: &LibSpec| {
            obj(vec![
                ("kind", Value::Str(l.kind.name().into())),
                (
                    "shape",
                    arr(l.shape.iter().map(|&n| Value::Int(n as u64)).collect()),
                ),
                ("dist_seed", Value::Int(l.dist_seed)),
            ])
        };
        let regions = |r: &RegionsSpec| match r {
            RegionsSpec::Sections(v) => obj(vec![(
                "sections",
                arr(v
                    .iter()
                    .map(|dims| {
                        arr(dims
                            .iter()
                            .map(|&(lo, hi, s)| {
                                arr(vec![
                                    Value::Int(lo as u64),
                                    Value::Int(hi as u64),
                                    Value::Int(s as u64),
                                ])
                            })
                            .collect())
                    })
                    .collect()),
            )]),
            RegionsSpec::Indices(v) => obj(vec![(
                "indices",
                arr(v
                    .iter()
                    .map(|l| arr(l.iter().map(|&g| Value::Int(g as u64)).collect()))
                    .collect()),
            )]),
        };
        let steps = arr(self
            .steps
            .iter()
            .map(|s| match s {
                Step::Move => obj(vec![("op", Value::Str("move".into()))]),
                Step::BumpSrc { dist_seed } => obj(vec![
                    ("op", Value::Str("bump_src".into())),
                    ("dist_seed", Value::Int(*dist_seed)),
                ]),
                Step::BumpDst { dist_seed } => obj(vec![
                    ("op", Value::Str("bump_dst".into())),
                    ("dist_seed", Value::Int(*dist_seed)),
                ]),
            })
            .collect());
        let fault = match &self.fault {
            None => Value::Null,
            Some(f) => {
                let mut entries = vec![
                    ("seed", Value::Int(f.seed)),
                    ("drop", Value::Num(f.drop)),
                    ("dup", Value::Num(f.dup)),
                    ("corrupt", Value::Num(f.corrupt)),
                    ("delay", Value::Num(f.delay)),
                    ("delay_secs", Value::Num(f.delay_secs)),
                ];
                if let Some((rank, at)) = f.crash {
                    entries.push((
                        "crash",
                        obj(vec![
                            ("rank", Value::Int(rank as u64)),
                            ("at", Value::Num(at)),
                        ]),
                    ));
                }
                if !f.crashes.is_empty() {
                    entries.push((
                        "crashes",
                        arr(f
                            .crashes
                            .iter()
                            .map(|&(rank, frac)| {
                                obj(vec![
                                    ("rank", Value::Int(rank as u64)),
                                    ("frac", Value::Num(frac)),
                                ])
                            })
                            .collect()),
                    ));
                }
                obj(entries)
            }
        };
        obj(vec![
            ("seed", Value::Int(self.seed)),
            ("coupled", Value::Bool(self.coupled)),
            ("procs_src", Value::Int(self.procs_src as u64)),
            ("procs_dst", Value::Int(self.procs_dst as u64)),
            (
                "method",
                Value::Str(
                    if self.method == 0 {
                        "cooperation"
                    } else {
                        "duplication"
                    }
                    .into(),
                ),
            ),
            ("src", lib(&self.src)),
            ("dst", lib(&self.dst)),
            ("src_set", regions(&self.src_set)),
            ("dst_set", regions(&self.dst_set)),
            ("steps", steps),
            ("fault", fault),
            ("deadline", Value::Num(self.deadline)),
            ("recover", Value::Bool(self.recover)),
            (
                "perturb_seed",
                self.perturb_seed.map_or(Value::Null, Value::Int),
            ),
        ])
    }

    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    pub fn from_value(v: &Value) -> Result<Scenario, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing/invalid '{key}'"))
        };
        let lib = |key: &str| -> Result<LibSpec, String> {
            let l = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
            let kind = LibKind::from_name(
                l.get("kind")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{key}: missing kind"))?,
            )?;
            let shape = l
                .get("shape")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{key}: missing shape"))?
                .iter()
                .map(|n| n.as_u64().map(|n| n as usize))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("{key}: bad shape"))?;
            let dist_seed = l
                .get("dist_seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{key}: missing dist_seed"))?;
            Ok(LibSpec {
                kind,
                shape,
                dist_seed,
            })
        };
        let regions = |key: &str| -> Result<RegionsSpec, String> {
            let r = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
            if let Some(secs) = r.get("sections").and_then(Value::as_arr) {
                let mut out = Vec::new();
                for region in secs {
                    let dims = region
                        .as_arr()
                        .ok_or_else(|| format!("{key}: bad section"))?
                        .iter()
                        .map(|d| {
                            let t = d.as_arr()?;
                            Some((
                                t.first()?.as_u64()? as usize,
                                t.get(1)?.as_u64()? as usize,
                                t.get(2)?.as_u64()? as usize,
                            ))
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| format!("{key}: bad dim slice"))?;
                    out.push(dims);
                }
                Ok(RegionsSpec::Sections(out))
            } else if let Some(idx) = r.get("indices").and_then(Value::as_arr) {
                let mut out = Vec::new();
                for region in idx {
                    out.push(
                        region
                            .as_arr()
                            .ok_or_else(|| format!("{key}: bad index region"))?
                            .iter()
                            .map(|g| g.as_u64().map(|g| g as usize))
                            .collect::<Option<Vec<_>>>()
                            .ok_or_else(|| format!("{key}: bad index"))?,
                    );
                }
                Ok(RegionsSpec::Indices(out))
            } else {
                Err(format!("{key}: neither sections nor indices"))
            }
        };
        let steps = v
            .get("steps")
            .and_then(Value::as_arr)
            .ok_or("missing 'steps'")?
            .iter()
            .map(|s| {
                let op = s.get("op").and_then(Value::as_str)?;
                match op {
                    "move" => Some(Step::Move),
                    "bump_src" => Some(Step::BumpSrc {
                        dist_seed: s.get("dist_seed")?.as_u64()?,
                    }),
                    "bump_dst" => Some(Step::BumpDst {
                        dist_seed: s.get("dist_seed")?.as_u64()?,
                    }),
                    _ => None,
                }
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("bad step")?;
        let fault = match v.get("fault") {
            None | Some(Value::Null) => None,
            Some(f) => {
                let g = |key: &str| -> Result<f64, String> {
                    f.get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("fault: missing '{key}'"))
                };
                let crash = match f.get("crash") {
                    None | Some(Value::Null) => None,
                    Some(c) => Some((
                        c.get("rank")
                            .and_then(Value::as_u64)
                            .ok_or("crash: missing rank")? as usize,
                        c.get("at")
                            .and_then(Value::as_f64)
                            .ok_or("crash: missing at")?,
                    )),
                };
                let crashes = match f.get("crashes").and_then(Value::as_arr) {
                    None => Vec::new(),
                    Some(list) => list
                        .iter()
                        .map(|c| {
                            Some((
                                c.get("rank")?.as_u64()? as usize,
                                c.get("frac").and_then(Value::as_f64)?,
                            ))
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or("fault: bad crashes entry")?,
                };
                Some(FaultSpec {
                    seed: f
                        .get("seed")
                        .and_then(Value::as_u64)
                        .ok_or("fault: missing seed")?,
                    drop: g("drop")?,
                    dup: g("dup")?,
                    corrupt: g("corrupt")?,
                    delay: g("delay")?,
                    delay_secs: g("delay_secs")?,
                    crash,
                    crashes,
                })
            }
        };
        let method = match v.get("method").and_then(Value::as_str) {
            Some("cooperation") => 0,
            Some("duplication") => 1,
            _ => return Err("missing/invalid 'method'".into()),
        };
        Ok(Scenario {
            seed: u("seed")?,
            coupled: v
                .get("coupled")
                .and_then(Value::as_bool)
                .ok_or("missing 'coupled'")?,
            procs_src: u("procs_src")? as usize,
            procs_dst: u("procs_dst")? as usize,
            method,
            src: lib("src")?,
            dst: lib("dst")?,
            src_set: regions("src_set")?,
            dst_set: regions("dst_set")?,
            steps,
            fault,
            deadline: v
                .get("deadline")
                .and_then(Value::as_f64)
                .ok_or("missing 'deadline'")?,
            recover: v.get("recover").and_then(Value::as_bool).unwrap_or(false),
            perturb_seed: v.get("perturb_seed").and_then(Value::as_u64),
        })
    }

    pub fn from_json(text: &str) -> Result<Scenario, String> {
        Scenario::from_value(&json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let sc = Scenario {
            seed: u64::MAX,
            coupled: true,
            procs_src: 2,
            procs_dst: 1,
            method: 1,
            src: LibSpec {
                kind: LibKind::Multiblock,
                shape: vec![6, 8],
                dist_seed: 7,
            },
            dst: LibSpec {
                kind: LibKind::Chaos,
                shape: vec![40],
                dist_seed: 9,
            },
            src_set: RegionsSpec::Sections(vec![vec![(0, 6, 1), (0, 4, 2)]]),
            dst_set: RegionsSpec::Indices(vec![vec![3, 1, 8], vec![20, 30, 12, 7, 5, 6, 2, 0, 4]]),
            steps: vec![Step::Move, Step::BumpDst { dist_seed: 42 }, Step::Move],
            fault: Some(FaultSpec {
                seed: 5,
                drop: 0.1,
                dup: 0.0,
                corrupt: 0.05,
                delay: 0.0,
                delay_secs: 0.001,
                crash: Some((2, 0.004)),
                crashes: vec![(0, 0.25), (2, 0.75)],
            }),
            deadline: 60.0,
            recover: true,
            perturb_seed: Some(3),
        };
        let text = sc.to_json();
        assert_eq!(Scenario::from_json(&text).unwrap(), sc);
    }

    #[test]
    fn linearization_matches_region_semantics() {
        // 2-D section (rows 1..3, cols 0..5 step 2) over shape [4, 6]:
        // coords (1,0),(1,2),(1,4),(2,0),(2,2),(2,4).
        let r = RegionsSpec::Sections(vec![vec![(1, 3, 1), (0, 5, 2)]]);
        assert_eq!(r.total(), 6);
        let flats: Vec<usize> = (0..6).map(|p| r.global_of(&[4, 6], p)).collect();
        assert_eq!(flats, vec![6, 8, 10, 12, 14, 16]);

        let i = RegionsSpec::Indices(vec![vec![5, 3], vec![9]]);
        assert_eq!(i.total(), 3);
        assert_eq!(i.global_of(&[10], 2), 9);
    }
}
