//! Seeded input generation. Every workload's inputs — subject names,
//! item ids, goal order, revocation order — come from one [`Rng`]
//! started at `--seed`, so the same seed yields the same inputs and the
//! program under test sees only the generated values. (Key generation
//! is the exception: see `harness::Ctx::system`.)

/// SplitMix64: small, fast, and good enough to shuffle workloads.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so a workload's
    /// rounds draw independent inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below
    /// anything a workload of a few thousand draws can see.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `n` distinct subject names of one fixed width (`<prefix>` + index +
/// seeded salt), so the bytes a certificate or goal occupies do not
/// depend on the seed.
pub fn subjects(rng: &mut Rng, prefix: char, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("{prefix}{i:05}x{:06x}", rng.below(1 << 24)))
        .collect()
}

/// `n` distinct nine-digit item ids in seeded order (fixed width for
/// the same reason as [`subjects`]).
pub fn items(rng: &mut Rng, n: usize) -> Vec<i64> {
    let base = 100_000_000 + rng.below(800_000_000) as i64;
    let mut ids: Vec<i64> = (0..n as i64).map(|i| base + i).collect();
    rng.shuffle(&mut ids);
    ids
}

/// `good(<subject>).` for every subject: the source `issue_certificates`
/// signs one certificate per fact of.
pub fn good_facts(subjects: &[String]) -> String {
    subjects.iter().map(|s| format!("good({s}). ")).collect()
}

/// The goal a receiver's policy grants for a certified subject.
pub fn read_goal(subject: &str) -> String {
    format!("access({subject},f,read)")
}

/// A seeded permutation of `0..n`.
pub fn order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (
                subjects(&mut rng, 's', 8),
                items(&mut rng, 8),
                order(&mut rng, 8),
            )
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn names_and_items_are_distinct_and_fixed_width() {
        let mut rng = Rng::new(5, 0);
        let names = subjects(&mut rng, 's', 300);
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| n.len() == names[0].len()));
        let ids = items(&mut rng, 300);
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        assert!(ids.iter().all(|i| (100_000_000..1_000_000_000).contains(i)));
    }
}
