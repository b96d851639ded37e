//! Random number generation primitives.
//!
//! The Park–Miller "minimal standard" LCG is the generator ACOTSP's
//! sequential code uses (`ran01`), and the device function the paper
//! substitutes for CURAND in version 3 of Table II. It is implemented here
//! once and shared by the CPU reference implementation and the simulated
//! kernels, so CPU/GPU runs can be seeded identically.

/// Modulus of the minimal-standard generator: `2^31 - 1`.
pub const PM_MODULUS: u32 = 2_147_483_647;
/// Multiplier of the minimal-standard generator.
pub const PM_MULTIPLIER: u64 = 16_807;

/// One Park–Miller step. State must be in `1..PM_MODULUS`; any other seed
/// is folded into range first.
#[inline]
pub fn park_miller(state: u32) -> u32 {
    let s = state % PM_MODULUS;
    let s = if s == 0 { 1 } else { s };
    ((s as u64 * PM_MULTIPLIER) % PM_MODULUS as u64) as u32
}

/// One Park–Miller step of a lane's state and its draw in `[0, 1)`: the
/// device function of Table II, version 3.
#[inline(always)]
pub fn pm_draw(state: &mut u32) -> f32 {
    *state = park_miller(*state);
    *state as f32 / PM_MODULUS as f32
}

/// Park–Miller stream as an iterator-style struct for host code.
#[derive(Debug, Clone)]
pub struct PmRng {
    state: u32,
}

impl PmRng {
    /// Seed the stream (0 is remapped to 1, as the LCG has no zero state).
    pub fn new(seed: u32) -> Self {
        let s = seed % PM_MODULUS;
        PmRng { state: if s == 0 { 1 } else { s } }
    }

    /// Next raw state.
    pub fn next_u32(&mut self) -> u32 {
        self.state = park_miller(self.state);
        self.state
    }

    /// Next uniform value in `[0, 1)`, `f64` (as ACOTSP's `ran01`).
    pub fn next_f64(&mut self) -> f64 {
        self.next_u32() as f64 / PM_MODULUS as f64
    }

    /// Next uniform value in `[0, 1)`, `f32` (as the device function).
    pub fn next_f32(&mut self) -> f32 {
        pm_draw(&mut self.state)
    }

    /// Derive a decorrelated per-thread seed from a base seed and an index
    /// (splitmix-style avalanche, folded into the Park–Miller range).
    pub fn thread_seed(base: u64, thread: u64) -> u32 {
        let mut z = base ^ thread.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % (PM_MODULUS as u64 - 1)) as u32 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_miller_known_sequence() {
        // Classic test vector: starting from 1, the 10000th value is
        // 1043618065 (Park & Miller, 1988).
        let mut s = 1u32;
        for _ in 0..10_000 {
            s = park_miller(s);
        }
        assert_eq!(s, 1_043_618_065);
    }

    #[test]
    fn zero_state_is_remapped() {
        assert_ne!(park_miller(0), 0);
        assert_eq!(park_miller(0), park_miller(1));
        let mut r = PmRng::new(0);
        assert_ne!(r.next_u32(), 0);
    }

    #[test]
    fn stream_stays_in_unit_interval() {
        let mut r = PmRng::new(12345);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            let w = r.next_f32();
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = PmRng::new(99);
        let mut b = PmRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn thread_seeds_differ_and_stay_in_range() {
        let s0 = PmRng::thread_seed(42, 0);
        let s1 = PmRng::thread_seed(42, 1);
        assert_ne!(s0, s1);
        for t in 0..100 {
            let s = PmRng::thread_seed(42, t);
            assert!((1..PM_MODULUS).contains(&s));
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = PmRng::new(7);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[(r.next_f64() * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket {b} outside tolerance");
        }
    }
}
