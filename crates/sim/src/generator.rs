//! Random abstract-system generation for the §5 parameter sweeps.

use dps_core::abstract_model::{AbstractProduction, AbstractSystem};
use dps_wm::rng::SmallRng;

/// Parameters of a random abstract production system.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Number of productions (all initially active).
    pub productions: usize,
    /// Probability that production `i` deletes production `j` (`i ≠ j`)
    /// — the *degree of conflict* knob of §5.1.
    pub conflict_density: f64,
    /// Probability that production `i` adds production `j` (`i ≠ j`).
    /// Kept small so systems terminate.
    pub add_density: f64,
    /// Execution times drawn uniformly from this inclusive range —
    /// widening it is the §5.2 execution-time-variation knob.
    pub time_range: (u64, u64),
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            productions: 16,
            conflict_density: 0.1,
            add_density: 0.0,
            time_range: (1, 10),
            seed: 0,
        }
    }
}

/// Generates a random abstract system.
pub fn generate(cfg: &GeneratorConfig) -> AbstractSystem {
    assert!(cfg.productions > 0, "need at least one production");
    assert!(
        cfg.time_range.0 >= 1 && cfg.time_range.0 <= cfg.time_range.1,
        "bad time range"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = cfg.productions;
    let mut prods = Vec::with_capacity(n);
    for i in 0..n {
        let mut dels = Vec::new();
        let mut adds = Vec::new();
        for j in 0..n {
            if i == j {
                continue;
            }
            if rng.random_bool(cfg.conflict_density.clamp(0.0, 1.0)) {
                dels.push(j);
            } else if rng.random_bool(cfg.add_density.clamp(0.0, 1.0)) {
                adds.push(j);
            }
        }
        let t = rng.range_u64(cfg.time_range.0..cfg.time_range.1 + 1);
        prods.push(AbstractProduction::new(adds, dels, t));
    }
    AbstractSystem::new(prods, 0..n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = GeneratorConfig {
            seed: 42,
            ..Default::default()
        };
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = GeneratorConfig {
            seed: 43,
            ..Default::default()
        };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn zero_density_means_no_conflict() {
        let cfg = GeneratorConfig {
            conflict_density: 0.0,
            ..Default::default()
        };
        let sys = generate(&cfg);
        assert!(sys.productions.iter().all(|p| p.dels.is_empty()));
    }

    #[test]
    fn full_density_deletes_everything_else() {
        let cfg = GeneratorConfig {
            conflict_density: 1.0,
            productions: 5,
            ..Default::default()
        };
        let sys = generate(&cfg);
        assert!(sys.productions.iter().all(|p| p.dels.len() == 4));
    }

    #[test]
    fn times_respect_range() {
        let cfg = GeneratorConfig {
            time_range: (3, 7),
            ..Default::default()
        };
        let sys = generate(&cfg);
        assert!(sys
            .productions
            .iter()
            .all(|p| (3..=7).contains(&p.exec_time)));
    }

    #[test]
    fn add_density_produces_add_sets() {
        let cfg = GeneratorConfig {
            conflict_density: 0.0,
            add_density: 0.5,
            ..Default::default()
        };
        let sys = generate(&cfg);
        assert!(sys.productions.iter().any(|p| !p.adds.is_empty()));
        // Such systems may livelock; the capped simulator still handles
        // them (truncation flag set or quiescence reached).
        let m = crate::schedule::simulate_multi_capped(&sys, 4, 200);
        assert!(m.truncated || m.commit_seq.len() <= 200);
    }

    #[test]
    fn all_initially_active() {
        let sys = generate(&GeneratorConfig::default());
        assert_eq!(sys.initial.len(), 16);
    }
}
