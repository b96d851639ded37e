//! Ant System parameters.
//!
//! Defaults follow Dorigo & Stützle, *Ant Colony Optimization* (2004) — the
//! settings the paper states it uses ("ACO parameters such as the number of
//! ants m, α, β, and so on are set according with the values recommended in
//! \[1\]"), with the paper's own choices for `m = n` and `NN = 30`.

/// Parameters shared by every ACO variant in this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct AcoParams {
    /// Pheromone influence. Book default: 1.
    pub alpha: f32,
    /// Heuristic influence. Book default for AS: 2.
    pub beta: f32,
    /// Evaporation rate in `(0, 1]`. Book default for AS: 0.5.
    pub rho: f32,
    /// Number of ants; `None` means `m = n` (the paper's setting).
    pub num_ants: Option<usize>,
    /// Nearest-neighbour candidate list depth. Paper: 30.
    pub nn_size: usize,
    /// Base RNG seed; every ant/thread derives its own stream from it.
    pub seed: u64,
}

impl Default for AcoParams {
    fn default() -> Self {
        AcoParams {
            alpha: 1.0,
            beta: 2.0,
            rho: 0.5,
            num_ants: None,
            nn_size: 30,
            seed: 0x0AC0_5EED,
        }
    }
}

impl AcoParams {
    /// Resolve the ant count for an instance of `n` cities.
    pub fn ants_for(&self, n: usize) -> usize {
        self.num_ants.unwrap_or(n)
    }

    /// Builder: α.
    pub fn alpha(mut self, a: f32) -> Self {
        self.alpha = a;
        self
    }

    /// Builder: β.
    pub fn beta(mut self, b: f32) -> Self {
        self.beta = b;
        self
    }

    /// Builder: ρ.
    pub fn rho(mut self, r: f32) -> Self {
        assert!(r > 0.0 && r <= 1.0, "rho must be in (0, 1], got {r}");
        self.rho = r;
        self
    }

    /// Builder: explicit ant count.
    pub fn ants(mut self, m: usize) -> Self {
        self.num_ants = Some(m);
        self
    }

    /// Builder: candidate list depth.
    pub fn nn(mut self, nn: usize) -> Self {
        assert!(nn > 0, "candidate list depth must be positive");
        self.nn_size = nn;
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_book() {
        let p = AcoParams::default();
        assert_eq!(p.alpha, 1.0);
        assert_eq!(p.beta, 2.0);
        assert_eq!(p.rho, 0.5);
        assert_eq!(p.nn_size, 30);
        assert_eq!(p.ants_for(442), 442); // m = n
    }

    #[test]
    fn builders_override() {
        let p = AcoParams::default().alpha(2.0).beta(5.0).rho(0.1).ants(25).nn(15).seed(7);
        assert_eq!(p.ants_for(1000), 25);
        assert_eq!(p.nn_size, 15);
        assert_eq!(p.seed, 7);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rho_validated() {
        let _ = AcoParams::default().rho(0.0);
    }
}
