//! Seeded request-stream samplers. The benchmark's `--seed` reaches the
//! server only through what these draw.

/// xorshift64* — a tiny deterministic stream.
#[derive(Debug, Clone)]
pub struct Xorshift(u64);

impl Xorshift {
    pub fn new(seed: u64) -> Self {
        // splitmix the seed so nearby seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Xorshift((z ^ (z >> 31)).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Which popularity law a workload draws its queries from.
#[derive(Debug, Clone)]
pub enum Popularity {
    /// Every query equally likely.
    Uniform { n: usize },
    /// Zipf(`s`) over a seeded permutation of the queries: rank `r`
    /// (1-based) has weight `1 / r^s`. `cdf` is cumulative over ranks.
    Zipf {
        s: f64,
        cdf: Vec<f64>,
        rank_to_query: Vec<usize>,
    },
}

impl Popularity {
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "empty query universe");
        Popularity::Uniform { n }
    }

    /// Zipf(`s`) over `n` queries; which query holds which rank is a
    /// seeded shuffle, so the hot set changes with the seed.
    pub fn zipf(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "empty query universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut rank_to_query: Vec<usize> = (0..n).collect();
        let mut rng = Xorshift::new(seed ^ 0x5a1f_0000_0000_0000);
        for i in (1..n).rev() {
            let j = rng.below(i + 1);
            rank_to_query.swap(i, j);
        }
        Popularity::Zipf {
            s,
            cdf,
            rank_to_query,
        }
    }

    /// Draws one query index.
    pub fn draw(&self, rng: &mut Xorshift) -> usize {
        match self {
            Popularity::Uniform { n } => rng.below(*n),
            Popularity::Zipf {
                cdf, rank_to_query, ..
            } => {
                let u = rng.next_f64();
                let rank = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
                rank_to_query[rank]
            }
        }
    }

    pub fn describe(&self) -> String {
        match self {
            Popularity::Uniform { n } => format!("uniform over {n}"),
            Popularity::Zipf { s, cdf, .. } => format!("zipf({s}) over {}", cdf.len()),
        }
    }
}

/// The request stream of client connection `conn`: its own generator,
/// derived from the workload seed.
pub fn conn_rng(seed: u64, conn: usize) -> Xorshift {
    Xorshift::new(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(conn as u64 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(p: &Popularity, seed: u64, n: usize) -> Vec<usize> {
        let mut rng = conn_rng(seed, 0);
        (0..n).map(|_| p.draw(&mut rng)).collect()
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let z = Popularity::zipf(70, 1.1, 7);
        assert_eq!(
            stream(&z, 7, 1000),
            stream(&Popularity::zipf(70, 1.1, 7), 7, 1000)
        );
        assert_ne!(
            stream(&z, 7, 1000),
            stream(&Popularity::zipf(70, 1.1, 8), 8, 1000)
        );
        let u = Popularity::uniform(70);
        assert_eq!(stream(&u, 3, 1000), stream(&u, 3, 1000));
        assert_ne!(stream(&u, 3, 1000), stream(&u, 4, 1000));
        assert_ne!(conn_rng(3, 0).next_u64(), conn_rng(3, 1).next_u64());
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_flat() {
        let n = 70;
        let draws = 200_000;
        let mut counts = vec![0usize; n];
        let z = Popularity::zipf(n, 1.1, 11);
        for q in stream(&z, 11, draws) {
            counts[q] += 1;
        }
        let Popularity::Zipf { rank_to_query, .. } = &z else {
            unreachable!()
        };
        // Rank 1 carries 1 / H(70, 1.1) ≈ 24.7% of the mass.
        let top = counts[rank_to_query[0]] as f64 / draws as f64;
        assert!((0.235..0.26).contains(&top), "rank-1 share {top}");
        assert!(counts[rank_to_query[0]] > counts[rank_to_query[1]]);
        assert!(counts[rank_to_query[1]] > counts[rank_to_query[9]]);

        let mut flat = vec![0usize; n];
        for q in stream(&Popularity::uniform(n), 11, draws) {
            flat[q] += 1;
        }
        let (lo, hi) = (flat.iter().min().unwrap(), flat.iter().max().unwrap());
        assert!(*lo as f64 > 0.8 * (draws / n) as f64 && (*hi as f64) < 1.2 * (draws / n) as f64);
    }

    #[test]
    fn zipf_permutation_covers_every_query_once() {
        let Popularity::Zipf { rank_to_query, .. } = Popularity::zipf(70, 1.1, 5) else {
            unreachable!()
        };
        let mut seen = rank_to_query.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..70).collect::<Vec<_>>());
    }
}
