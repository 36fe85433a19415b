//! Seeded op-stream generation. Every input a deployment receives is
//! generated here, from the run's seed, before the deployment starts.

/// SplitMix64: a tiny, well-mixed deterministic generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible for the
    /// small `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One generated client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenOp {
    /// Eventual put of a value unique within the deployment.
    Put { key: u32, val: String },
    /// Get; `after_put` names the client's previous put in `prev`.
    Get {
        key: u32,
        strict: bool,
        after_put: bool,
    },
    /// Eventual whole-object `Keys` query (scatter-gather on S > 1).
    Keys,
}

impl GenOp {
    pub fn is_strict(&self) -> bool {
        matches!(self, GenOp::Get { strict: true, .. })
    }

    /// The key an operation touches, if any.
    pub fn key(&self) -> Option<u32> {
        match self {
            GenOp::Put { key, .. } | GenOp::Get { key, .. } => Some(*key),
            GenOp::Keys => None,
        }
    }
}

pub fn key_name(key: u32) -> String {
    format!("k{key}")
}

/// An operation mix, in parts per thousand.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Keys are uniform over `0..keys`.
    pub keys: u32,
    /// Strict gets.
    pub strict_permille: u64,
    /// Eventual `Keys` gathers.
    pub gather_permille: u64,
    /// Of the remaining eventual ops, the share that are puts (the rest
    /// are gets), per thousand.
    pub put_permille: u64,
    /// Of all gets, the share naming the client's previous put in
    /// `prev`, per thousand.
    pub after_put_permille: u64,
}

/// The TCP mix: ~5% strict gets, ~0.4% eventual `Keys` gathers, the rest
/// eventual gets and puts at 3:1; 1 in 10 gets names the previous put.
pub const TCP_MIX: Mix = Mix {
    keys: 1024,
    strict_permille: 50,
    gather_permille: 4,
    put_permille: 250,
    after_put_permille: 100,
};

/// The WAL mix: eventual puts over 64 keys, plus ~5% strict gets so the
/// strict latency metrics and the Theorem 5.8 check exist on this
/// workload too.
pub const WAL_MIX: Mix = Mix {
    keys: 64,
    strict_permille: 50,
    gather_permille: 0,
    put_permille: 1000,
    after_put_permille: 100,
};

/// The op streams of one deployment: `clients` streams of
/// `ops_per_client` operations, a pure function of
/// `(seed, deployment, mix)`. Every stream holds exactly the mix's share
/// of each kind of operation, in seeded order over seeded keys, so that
/// runs differ in which keys and when, not in how much of each kind of
/// work they do.
pub fn generate(
    seed: u64,
    deployment: u64,
    clients: usize,
    ops_per_client: usize,
    mix: &Mix,
) -> Vec<Vec<GenOp>> {
    let mut rng = SplitMix64::new(seed ^ deployment.wrapping_mul(0xA24B_AED4_963E_E407));
    let n = ops_per_client as u64;
    let strict = n * mix.strict_permille / 1000;
    let gathers = n * mix.gather_permille / 1000;
    let puts = (n - strict - gathers) * mix.put_permille / 1000;
    (0..clients)
        .map(|c| {
            // Kinds: 0 strict get, 1 gather, 2 put, 3 eventual get;
            // shuffled Fisher-Yates.
            let mut kinds: Vec<u8> = (0..n)
                .map(|i| match i {
                    i if i < strict => 0,
                    i if i < strict + gathers => 1,
                    i if i < strict + gathers + puts => 2,
                    _ => 3,
                })
                .collect();
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut has_put = false;
            kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| {
                    let key = rng.below(u64::from(mix.keys)) as u32;
                    let after_put = has_put && rng.below(1000) < mix.after_put_permille;
                    match kind {
                        0 => GenOp::Get {
                            key,
                            strict: true,
                            after_put,
                        },
                        1 => GenOp::Keys,
                        2 => {
                            has_put = true;
                            GenOp::Put {
                                key,
                                val: format!("v{deployment}.{c}.{i}"),
                            }
                        }
                        _ => GenOp::Get {
                            key,
                            strict: false,
                            after_put,
                        },
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a = generate(7, 0, 2, 500, &TCP_MIX);
        assert_eq!(a, generate(7, 0, 2, 500, &TCP_MIX));
        assert_ne!(a, generate(8, 0, 2, 500, &TCP_MIX));
        assert_ne!(a, generate(7, 1, 2, 500, &TCP_MIX));
    }

    #[test]
    fn every_stream_has_the_mix_exactly() {
        for seed in 0..5 {
            for ops in generate(seed, 3, 2, 500, &TCP_MIX) {
                let count = |f: &dyn Fn(&GenOp) -> bool| ops.iter().filter(|o| f(o)).count();
                assert_eq!(count(&|o| o.is_strict()), 25);
                assert_eq!(count(&|o| matches!(o, GenOp::Keys)), 2);
                assert_eq!(count(&|o| matches!(o, GenOp::Put { .. })), 118);
                assert_eq!(
                    count(&|o| matches!(o, GenOp::Get { strict: false, .. })),
                    355
                );
            }
        }
        let ops: Vec<GenOp> = generate(3, 0, 4, 5000, &TCP_MIX).concat();
        let after = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    GenOp::Get {
                        after_put: true,
                        ..
                    }
                )
            })
            .count() as f64;
        let gets = ops
            .iter()
            .filter(|o| matches!(o, GenOp::Get { .. }))
            .count() as f64;
        assert!(
            (after / gets - 0.1).abs() < 0.02,
            "after-put share {}",
            after / gets
        );
    }

    #[test]
    fn wal_mix_is_puts_and_strict_gets() {
        let ops: Vec<GenOp> = generate(3, 0, 2, 2000, &WAL_MIX).concat();
        assert!(ops
            .iter()
            .all(|o| matches!(o, GenOp::Put { .. } | GenOp::Get { strict: true, .. })));
        assert_eq!(ops.iter().filter(|o| o.is_strict()).count(), 200);
        assert!(ops.iter().all(|o| o.key().is_some_and(|k| k < 64)));
    }
}
