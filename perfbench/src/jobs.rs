//! The fixed point sets of the serve workloads, the seeded client
//! sequences drawn from them, and the report digest that shows
//! bit-identity across runs.

use svr_serve::PointSpec;
use svr_sim::{fnv1a64, report_to_json, ExecMode, RunReport, SimConfig};
use svr_workloads::{GraphInput, Kernel, Rng64, Scale};

/// A sweep (the warm-cache fill): kernels × configurations at one scale
/// and mode.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Kernels (the sweep builds each once).
    pub kernels: Vec<Kernel>,
    /// Input scale.
    pub scale: Scale,
    /// Execution mode.
    pub mode: ExecMode,
}

/// Threads a sweep runs on (and workers the daemon runs): the 2-core hosts
/// this benchmark targets.
pub const THREADS: usize = 2;

fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        let j = rng.index(i + 1);
        v.swap(i, j);
    }
}

/// The traffic mix of a serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `serve_warm`: every submission is a warm point, read from the cache.
    Warm,
    /// `serve_mixed`: warm reads, cold writes and dedup joins.
    Mixed,
}

/// How a serve submission is expected to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// In the cache before the round starts: a cache read.
    Warm,
    /// Not cached: claim → simulate → store.
    Cold,
    /// A point the other client also submits: one of the two joins.
    Repeat,
}

/// One client submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// What is submitted.
    pub spec: PointSpec,
    /// Whether it should resolve `cached` (false: `simulated`).
    pub expect_cached: bool,
    /// The op's role in the mix.
    pub kind: OpKind,
}

const WARM_KERNELS: [Kernel; 6] = [
    Kernel::Camel,
    Kernel::HashJoin(2),
    Kernel::HashJoin(8),
    Kernel::Kangaroo,
    Kernel::NasIs,
    Kernel::Randacc,
];
const WARM_CONFIGS: [&str; 4] = ["InO", "IMP", "SVR16", "SVR64"];
const COLD_KERNELS: [Kernel; 3] = [
    Kernel::Bfs(GraphInput::Kr),
    Kernel::Pr(GraphInput::Ur),
    Kernel::NasCg,
];
const COLD_CONFIGS: [&str; 4] = ["InO", "OoO", "SVR16", "SVR128"];

/// Repeats each client makes of the other client's points.
pub const REPEATS_PER_CLIENT: usize = 6;

fn tiny(kernel: Kernel, config: &str) -> PointSpec {
    PointSpec {
        workload: kernel.name(),
        config: config.to_string(),
        scale: "tiny".into(),
        mode: "detailed".into(),
    }
}

/// The warm set (filled into the cache during set-up): kernels × configs.
pub fn warm_grid() -> (Vec<Kernel>, Vec<SimConfig>) {
    grid(&WARM_KERNELS, &WARM_CONFIGS)
}

/// The cold set (simulated by the daemon during the round).
pub fn cold_grid() -> (Vec<Kernel>, Vec<SimConfig>) {
    grid(&COLD_KERNELS, &COLD_CONFIGS)
}

fn grid(kernels: &[Kernel], configs: &[&str]) -> (Vec<Kernel>, Vec<SimConfig>) {
    let configs = configs
        .iter()
        .map(|c| SimConfig::from_label(c).expect("fixed config label resolves"))
        .collect();
    (kernels.to_vec(), configs)
}

fn specs(kernels: &[Kernel], configs: &[&str]) -> Vec<PointSpec> {
    kernels
        .iter()
        .flat_map(|&k| configs.iter().map(move |c| tiny(k, c)))
        .collect()
}

/// Every distinct point a round of `mix` resolves (warm, then cold).
pub fn serve_pool(mix: Mix) -> Vec<PointSpec> {
    let mut v = specs(&WARM_KERNELS, &WARM_CONFIGS);
    if mix == Mix::Mixed {
        v.extend(specs(&COLD_KERNELS, &COLD_CONFIGS));
    }
    v
}

/// The two clients' submission sequences for one seed. The multiset of
/// points is fixed: every point of [`serve_pool`] once, split evenly
/// between the clients, plus, for [`Mix::Mixed`], [`REPEATS_PER_CLIENT`]
/// repeats each of the other client's points. The seed picks the split,
/// the repeats and the order.
pub fn serve_sequences(seed: u64, mix: Mix) -> [Vec<Op>; 2] {
    let mut rng = Rng64::new(seed ^ 0x5e72_e0a1);
    let mut warm = specs(&WARM_KERNELS, &WARM_CONFIGS);
    let mut cold = specs(&COLD_KERNELS, &COLD_CONFIGS);
    shuffle(&mut warm, &mut rng);
    shuffle(&mut cold, &mut rng);
    let own = |c: usize| -> Vec<Op> {
        let half = |v: &[PointSpec]| -> Vec<PointSpec> {
            let h = v.len() / 2;
            if c == 0 {
                v[..h].to_vec()
            } else {
                v[h..].to_vec()
            }
        };
        let mut ops: Vec<Op> = half(&warm)
            .into_iter()
            .map(|spec| Op {
                spec,
                expect_cached: true,
                kind: OpKind::Warm,
            })
            .collect();
        if mix == Mix::Mixed {
            ops.extend(half(&cold).into_iter().map(|spec| Op {
                spec,
                expect_cached: false,
                kind: OpKind::Cold,
            }));
        }
        ops
    };
    let repeats = match mix {
        Mix::Warm => 0,
        Mix::Mixed => REPEATS_PER_CLIENT,
    };
    let owned = [own(0), own(1)];
    let mut out: [Vec<Op>; 2] = [owned[0].clone(), owned[1].clone()];
    for (c, seq) in out.iter_mut().enumerate() {
        let mut theirs = owned[1 - c].clone();
        shuffle(&mut theirs, &mut rng);
        seq.extend(theirs.into_iter().take(repeats).map(|op| Op {
            kind: OpKind::Repeat,
            ..op
        }));
        shuffle(seq, &mut rng);
    }
    out
}

/// FNV-1a over `report_to_json` of the reports sorted by (workload,
/// config): equal digests mean bit-identical reports.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    let mut docs: Vec<(String, String, String)> = reports
        .into_iter()
        .map(|r| {
            (
                r.workload.clone(),
                r.config.clone(),
                report_to_json(r).dump(),
            )
        })
        .collect();
    docs.sort();
    let mut all = String::new();
    for (_, _, doc) in docs {
        all.push_str(&doc);
        all.push('\n');
    }
    fnv1a64(&all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(op: &Op) -> String {
        format!("{}/{}", op.spec.workload, op.spec.config)
    }

    #[test]
    fn serve_sequences_are_deterministic_per_seed() {
        for mix in [Mix::Warm, Mix::Mixed] {
            assert_eq!(serve_sequences(7, mix), serve_sequences(7, mix));
            assert_ne!(serve_sequences(7, mix), serve_sequences(8, mix));
        }
    }

    #[test]
    fn serve_sequences_cover_the_pool_with_fixed_counts() {
        for (mix, per_client, repeats) in [
            (Mix::Warm, 12, 0),
            (Mix::Mixed, 12 + 6 + REPEATS_PER_CLIENT, REPEATS_PER_CLIENT),
        ] {
            for seed in 0..20 {
                check_cover(serve_sequences(seed, mix), mix, per_client, repeats);
            }
        }
    }

    fn check_cover(seqs: [Vec<Op>; 2], mix: Mix, per_client: usize, repeats: usize) {
        {
            let mut submitted: BTreeMap<String, usize> = BTreeMap::new();
            for seq in &seqs {
                assert_eq!(seq.len(), per_client);
                for op in seq {
                    *submitted.entry(key(op)).or_default() += 1;
                }
            }
            let pool: Vec<String> = serve_pool(mix)
                .iter()
                .map(|s| format!("{}/{}", s.workload, s.config))
                .collect();
            assert_eq!(submitted.len(), pool.len(), "every pool point once");
            assert!(pool.iter().all(|p| submitted.contains_key(p)));
            let twice = submitted.values().filter(|&&n| n == 2).count();
            assert_eq!(twice, 2 * repeats, "repeats hit distinct points");
            for (c, seq) in seqs.iter().enumerate() {
                for op in seq.iter().filter(|o| o.kind == OpKind::Repeat) {
                    assert!(
                        seqs[1 - c]
                            .iter()
                            .any(|o| o.kind != OpKind::Repeat && key(o) == key(op)),
                        "a repeat names a point the other client owns"
                    );
                }
            }
        }
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let opts = svr_sim::RunOptions::default();
        let run = |cfg: SimConfig| {
            svr_sim::run_kernel(Kernel::Camel, Scale::Tiny, &cfg, &opts).expect("camel runs")
        };
        let a = run(SimConfig::inorder());
        let b = run(SimConfig::svr(16));
        let d1 = digest([&a, &b]);
        assert_eq!(d1, digest([&b, &a]));
        assert_eq!(
            d1,
            digest([&run(SimConfig::inorder()), &b]),
            "re-simulation is bit-identical"
        );
        let mut c = b.clone();
        c.core.cycles += 1;
        assert_ne!(d1, digest([&a, &c]));
    }
}
