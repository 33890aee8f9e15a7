//! Seeded input generation: a small PRNG, the YCSB scrambled Zipfian
//! generator, key derivation and the value encodings the oracles check.
//!
//! Everything here is a pure function of `--seed`, so one seed always
//! produces the same keys, the same operation mix and the same windows.

/// SplitMix64 finaliser: a bijection on `u64`, so distinct inputs give
/// distinct keys.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: tiny, fast and good enough to drive an
/// operation mix.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` (thread, phase).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        ))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The YCSB Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases") over ranks `0..n`, with the
/// YCSB "scrambled" step that hashes each rank onto an item so the hot
/// items are spread over the keyspace instead of clustered at its start.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A generator over `n` items with skew `theta` (YCSB uses 0.99).
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2, "a Zipfian needs at least two items");
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// The next rank in `0..n`; rank 0 is the most popular.
    pub fn rank(&mut self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// The next item in `0..n`: a rank scrambled by a hash, as YCSB's
    /// `ScrambledZipfianGenerator` does (colliding ranks share an item).
    pub fn item(&mut self, rng: &mut Rng) -> u64 {
        let rank = self.rank(rng);
        self.item_of(rank)
    }

    /// The item `rank` is scrambled onto.
    pub fn item_of(&self, rank: u64) -> u64 {
        mix64(rank ^ 0x5bd1_e995) % self.n
    }
}

/// The fixed 8-byte key of item id `id` under `seed`: a bijection of the
/// id, so keys are distinct and uniformly spread over `u64`.
pub fn key_of(seed: u64, id: u64) -> u64 {
    mix64(id.wrapping_add(mix64(seed)))
}

/// The value the oracles expect for `key` at `version`: the high half
/// identifies the key, the low half counts its updates, so a value read
/// back under the wrong key or at a stale version is caught.
pub fn value_of(key: u64, version: u32) -> u64 {
    (mix64(key ^ 0xa076_1d64_78bd_642f) & 0xffff_ffff_0000_0000) | version as u64
}

/// The memcached key string of keyspace id `id`.
pub fn mc_key(id: u64) -> String {
    format!("key:{id:012}")
}

/// Bytes of every memcached value.
pub const MC_VALUE_BYTES: usize = 64;

/// The memcached flags stored with `key` (derived, so a get checks them).
pub fn mc_flags(key: &[u8]) -> u32 {
    (mix64(fnv1a(key)) & 0xffff) as u32
}

/// The 64-byte memcached value of `key`: the key itself, then hash
/// bytes of it, so a payload returned under another key never matches.
pub fn mc_value(key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MC_VALUE_BYTES);
    out.extend_from_slice(&key[..key.len().min(MC_VALUE_BYTES / 2)]);
    out.push(b'=');
    let mut h = fnv1a(key);
    while out.len() < MC_VALUE_BYTES {
        h = mix64(h);
        out.extend_from_slice(format!("{:016x}", h).as_bytes());
    }
    out.truncate(MC_VALUE_BYTES);
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..16).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn keys_are_distinct() {
        let mut keys: Vec<u64> = (0..100_000).map(|i| key_of(3, i)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 100_000);
    }

    /// With theta = 0.99 over 1 M items the hottest 1 % of ranks carries
    /// zeta(10^4)/zeta(10^6) = 66 % of the draws and rank 0 alone
    /// 1/zeta(10^6) = 6.5 %.
    #[test]
    fn zipf_head_mass() {
        let n = 1_000_000u64;
        let mut z = Zipf::new(n, 0.99);
        let mut rng = Rng::new(42, 0);
        let draws = 400_000;
        let (mut top, mut head) = (0u64, 0u64);
        for _ in 0..draws {
            let r = z.rank(&mut rng);
            assert!(r < n);
            top += (r == 0) as u64;
            head += (r < n / 100) as u64;
        }
        let top = top as f64 / draws as f64;
        let head = head as f64 / draws as f64;
        let expect_top = 1.0 / z.zetan;
        assert!(
            (top - expect_top).abs() < 0.01,
            "rank-0 mass {top} vs {expect_top}"
        );
        assert!((0.6..0.72).contains(&head), "top-1% mass {head}");
    }

    #[test]
    fn scrambled_items_stay_in_range_and_spread() {
        let n = 200_000u64;
        let mut z = Zipf::new(n, 0.99);
        let mut rng = Rng::new(1, 0);
        let mut low_half = 0u64;
        for _ in 0..100_000 {
            let it = z.item(&mut rng);
            assert!(it < n);
            low_half += (it < n / 2) as u64;
        }
        // Unscrambled, nearly every draw would land in the low half.
        assert!((35_000..65_000).contains(&low_half), "{low_half}");
    }

    #[test]
    fn values_identify_key_and_version() {
        let (a, b) = (key_of(1, 1), key_of(1, 2));
        assert_ne!(value_of(a, 1), value_of(b, 1));
        assert_ne!(value_of(a, 1), value_of(a, 2));
        assert_eq!(mc_value(b"key:000000000001").len(), MC_VALUE_BYTES);
        assert_ne!(mc_value(b"key:000000000001"), mc_value(b"key:000000000002"));
    }
}
