//! Deployment-space explorers.

use crate::objective::{evaluate, Assignment, Objectives};
use crate::pareto::ParetoArchive;
use dynplat_common::rng::Rng;
use dynplat_common::rng::{seeded_rng, split_seed};
use dynplat_common::{AppId, EcuId};
use dynplat_model::ir::SystemModel;

/// Search configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct DseConfig {
    /// Candidate evaluations to spend.
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
    /// Initial simulated-annealing temperature (fitness units).
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per iteration.
    pub cooling: f64,
    /// Warm-start the annealing chain from the greedy design (ablation
    /// knob; on by default).
    pub greedy_seed: bool,
    /// Restart the chain from a random point after a stagnation window
    /// (ablation knob; on by default).
    pub restarts: bool,
    /// Independent annealing chains run in parallel by [`explore`]
    /// (`simulated_annealing` always runs exactly one). Chain 0 uses
    /// `seed` unchanged; chain `k > 0` uses `split_seed(seed, k)`.
    pub n_chains: u32,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            iterations: 2000,
            seed: 42,
            initial_temperature: 5e4,
            cooling: 0.995,
            greedy_seed: true,
            restarts: true,
            n_chains: 4,
        }
    }
}

/// Result of one exploration run.
#[derive(Clone, Debug)]
pub struct DseResult {
    /// Best design found (may be infeasible if nothing feasible was seen).
    pub best: Option<(Assignment, Objectives)>,
    /// Candidate evaluations performed.
    pub evaluations: u64,
    /// Feasible non-dominated designs encountered along the way.
    pub archive: ParetoArchive,
}

fn candidates_of(model: &SystemModel, app: AppId) -> Vec<EcuId> {
    model
        .deployment
        .mapping
        .get(&app)
        .map(|c| c.candidates().to_vec())
        .unwrap_or_else(|| model.hardware.ecus().map(|e| e.id()).collect())
}

fn app_ids(model: &SystemModel) -> Vec<AppId> {
    model.applications.iter().map(|a| a.id).collect()
}

/// Greedy first-fit-decreasing baseline: apps sorted by descending memory
/// demand, each placed on the first candidate ECU where the partial design
/// stays violation-free. Cheap and deterministic, but easily trapped.
pub fn greedy_first_fit(model: &SystemModel) -> DseResult {
    let mut apps: Vec<&dynplat_model::ir::AppModel> = model.applications.iter().collect();
    apps.sort_by_key(|a| std::cmp::Reverse((a.memory_kib, a.id.raw())));
    let mut assignment = Assignment::new();
    let mut evaluations = 0u64;
    for app in apps {
        let mut placed = false;
        for ecu in candidates_of(model, app.id) {
            assignment.insert(app.id, ecu);
            evaluations += 1;
            if evaluate(model, &assignment).is_feasible() {
                placed = true;
                break;
            }
            assignment.remove(&app.id);
        }
        if !placed {
            // Leave it unmapped: the final evaluation will show violations
            // (missing mapping counts through resource checks upstream).
            assignment.insert(app.id, candidates_of(model, app.id)[0]);
        }
    }
    let objectives = evaluate(model, &assignment);
    let mut archive = ParetoArchive::new();
    archive.offer(assignment.clone(), objectives.clone());
    DseResult {
        best: Some((assignment, objectives)),
        evaluations,
        archive,
    }
}

fn random_assignment<R: Rng>(model: &SystemModel, rng: &mut R) -> Assignment {
    app_ids(model)
        .into_iter()
        .map(|app| {
            let c = candidates_of(model, app);
            (app, c[rng.gen_range(0..c.len())])
        })
        .collect()
}

/// Uniform random search over the variant space.
pub fn random_search(model: &SystemModel, cfg: &DseConfig) -> DseResult {
    let mut rng = seeded_rng(cfg.seed);
    let mut best: Option<(Assignment, Objectives)> = None;
    let mut archive = ParetoArchive::new();
    for _ in 0..cfg.iterations {
        let a = random_assignment(model, &mut rng);
        let o = evaluate(model, &a);
        archive.offer(a.clone(), o.clone());
        if best.as_ref().is_none_or(|(_, b)| o.fitness() < b.fitness()) {
            best = Some((a, o));
        }
    }
    DseResult {
        best,
        evaluations: u64::from(cfg.iterations),
        archive,
    }
}

/// Simulated annealing with a move-one-app neighborhood.
pub fn simulated_annealing(model: &SystemModel, cfg: &DseConfig) -> DseResult {
    let mut rng = seeded_rng(cfg.seed);
    let apps = app_ids(model);
    if apps.is_empty() {
        return DseResult {
            best: None,
            evaluations: 0,
            archive: ParetoArchive::new(),
        };
    }
    // Hybrid start: seed the chain with the greedy design when it is
    // feasible (a common DSE warm start), otherwise from a random point.
    let greedy_seed = if cfg.greedy_seed {
        greedy_first_fit(model)
            .best
            .filter(|(_, o)| o.is_feasible())
            .map(|(a, _)| a)
    } else {
        None
    };
    let mut current = greedy_seed.unwrap_or_else(|| random_assignment(model, &mut rng));
    let mut current_obj = evaluate(model, &current);
    let mut best = (current.clone(), current_obj.clone());
    let mut archive = ParetoArchive::new();
    archive.offer(current.clone(), current_obj.clone());
    let mut temperature = cfg.initial_temperature;
    let mut evaluations = 1u64;
    let restart_after = (cfg.iterations / 10).max(20);
    let mut since_improvement = 0u32;
    for _ in 0..cfg.iterations {
        // Neighbor: move one random app to another candidate ECU.
        let app = apps[rng.gen_range(0..apps.len())];
        let options = candidates_of(model, app);
        let mut neighbor = current.clone();
        neighbor.insert(app, options[rng.gen_range(0..options.len())]);
        let neighbor_obj = evaluate(model, &neighbor);
        evaluations += 1;
        archive.offer(neighbor.clone(), neighbor_obj.clone());
        if neighbor_obj.fitness() < best.1.fitness() {
            best = (neighbor.clone(), neighbor_obj.clone());
            since_improvement = 0;
        } else {
            since_improvement += 1;
        }
        let delta = neighbor_obj.fitness() - current_obj.fitness();
        let accept =
            delta <= 0.0 || (temperature > 0.0 && rng.gen::<f64>() < (-delta / temperature).exp());
        if accept {
            current = neighbor;
            current_obj = neighbor_obj;
        }
        if cfg.restarts && since_improvement >= restart_after {
            // Plateau escape: restart the chain from a fresh random point
            // (the archive and `best` persist across restarts).
            current = random_assignment(model, &mut rng);
            current_obj = evaluate(model, &current);
            evaluations += 1;
            archive.offer(current.clone(), current_obj.clone());
            if current_obj.fitness() < best.1.fitness() {
                best = (current.clone(), current_obj.clone());
            }
            since_improvement = 0;
            temperature = cfg.initial_temperature;
        }
        temperature *= cfg.cooling;
    }
    DseResult {
        best: Some(best),
        evaluations,
        archive,
    }
}

/// Multi-chain simulated annealing: `cfg.n_chains` independent chains run
/// in parallel on scoped OS threads and their results merge into one
/// [`DseResult`].
///
/// Each chain is a full [`simulated_annealing`] run with its own seed —
/// chain 0 uses `cfg.seed` unchanged (so `n_chains = 1` reproduces the
/// single-chain result bit-for-bit), chain `k > 0` uses
/// `split_seed(cfg.seed, k)`. The merge is deterministic: chains are
/// joined in index order, archives are folded point-by-point through
/// [`ParetoArchive::offer`], evaluations are summed, and the overall best
/// is taken by strict fitness improvement so earlier chains win ties.
/// Repeated invocations with the same model and config therefore produce
/// identical results regardless of thread scheduling.
pub fn explore(model: &SystemModel, cfg: &DseConfig) -> DseResult {
    let n = cfg.n_chains.max(1);
    if n == 1 {
        return simulated_annealing(model, cfg);
    }
    let chain_results: Vec<DseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|k| {
                let chain_cfg = DseConfig {
                    seed: if k == 0 {
                        cfg.seed
                    } else {
                        split_seed(cfg.seed, u64::from(k))
                    },
                    ..cfg.clone()
                };
                scope.spawn(move || simulated_annealing(model, &chain_cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("annealing chain panicked"))
            .collect()
    });
    let mut best: Option<(Assignment, Objectives)> = None;
    let mut evaluations = 0u64;
    let mut archive = ParetoArchive::new();
    for result in chain_results {
        evaluations += result.evaluations;
        for p in result.archive.points() {
            archive.offer(p.assignment.clone(), p.objectives.clone());
        }
        if let Some((a, o)) = result.best {
            if best.as_ref().is_none_or(|(_, b)| o.fitness() < b.fitness()) {
                best = Some((a, o));
            }
        }
    }
    DseResult {
        best,
        evaluations,
        archive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_model::dsl::parse_model;

    /// Four apps on three ECUs; app memory forces a spread and the "hp"
    /// ECU is expensive, so good designs avoid it when possible.
    fn model() -> SystemModel {
        parse_model(
            r#"
system {
  hardware {
    ecu "a"  { id 0 class domain }
    ecu "b"  { id 1 class domain }
    ecu "hp" { id 2 class high }
    bus "eth0" { id 0 ethernet 100000000 attach [0 1 2] }
  }
  application "w" { id 1 deterministic asil B period 10ms work 4 memory 9000 }
  application "x" { id 2 deterministic asil B period 10ms work 4 memory 9000 }
  application "y" { id 3 deterministic asil B period 10ms work 4 memory 9000 }
  application "z" { id 4 non-deterministic asil QM period 50ms work 1 memory 9000 }
  deployment {
    app 1 on any [0 1 2]
    app 2 on any [0 1 2]
    app 3 on any [0 1 2]
    app 4 on any [0 1 2]
  }
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn greedy_finds_a_feasible_design() {
        let result = greedy_first_fit(&model());
        let feasible = result.best.as_ref().is_some_and(|(_, o)| o.is_feasible());
        assert!(feasible, "{:?}", result.best);
    }

    #[test]
    fn random_search_finds_feasible_designs() {
        let cfg = DseConfig {
            iterations: 300,
            ..Default::default()
        };
        let result = random_search(&model(), &cfg);
        let feasible = result.best.as_ref().is_some_and(|(_, o)| o.is_feasible());
        assert!(feasible, "{:?}", result.best);
        assert_eq!(result.evaluations, 300);
        assert!(!result.archive.is_empty());
    }

    #[test]
    fn annealing_matches_or_beats_random_on_cost() {
        let m = model();
        let cfg = DseConfig {
            iterations: 600,
            ..Default::default()
        };
        let rnd = random_search(&m, &cfg);
        let sa = simulated_annealing(&m, &cfg);
        let (_, rnd_obj) = rnd.best.unwrap();
        let (_, sa_obj) = sa.best.unwrap();
        assert!(sa_obj.is_feasible());
        assert!(
            sa_obj.fitness() <= rnd_obj.fitness() + 1e-6,
            "SA {} vs random {}",
            sa_obj.fitness(),
            rnd_obj.fitness()
        );
        // Memory forces 2 KiB-class ECUs: 16 MiB domain RAM fits one 9000
        // KiB app... (9000 KiB < 16 MiB so two fit). Optimal avoids the hp
        // ECU: cost 70 (two domain) is achievable.
        assert!(sa_obj.used_cost <= 70 + 220, "cost {}", sa_obj.used_cost);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let m = model();
        let cfg = DseConfig {
            iterations: 200,
            ..Default::default()
        };
        let a = simulated_annealing(&m, &cfg);
        let b = simulated_annealing(&m, &cfg);
        assert_eq!(a.best.map(|(x, _)| x), b.best.map(|(x, _)| x));
    }

    #[test]
    fn pareto_archive_collects_trade_offs() {
        let m = model();
        let cfg = DseConfig {
            iterations: 800,
            ..Default::default()
        };
        let result = random_search(&m, &cfg);
        // Every archived point is feasible.
        for p in result.archive.points() {
            assert!(p.objectives.is_feasible());
        }
    }

    #[test]
    fn empty_model_yields_empty_result() {
        let m = parse_model("system { hardware { } deployment { } }").unwrap();
        let result = simulated_annealing(&m, &DseConfig::default());
        assert!(result.best.is_none());
    }

    #[test]
    fn explore_single_chain_reproduces_annealing_bit_for_bit() {
        let m = model();
        let cfg = DseConfig {
            iterations: 300,
            n_chains: 1,
            ..Default::default()
        };
        let single = simulated_annealing(&m, &cfg);
        let multi = explore(&m, &cfg);
        assert_eq!(multi.best, single.best);
        assert_eq!(multi.evaluations, single.evaluations);
        assert_eq!(multi.archive.points(), single.archive.points());
    }

    #[test]
    fn explore_is_reproducible_across_invocations() {
        let m = model();
        let cfg = DseConfig {
            iterations: 300,
            n_chains: 3,
            ..Default::default()
        };
        let a = explore(&m, &cfg);
        let b = explore(&m, &cfg);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.archive.points(), b.archive.points());
    }

    #[test]
    fn explore_multi_chain_matches_or_beats_single_chain() {
        let m = model();
        let cfg = DseConfig {
            iterations: 300,
            n_chains: 4,
            ..Default::default()
        };
        let single = simulated_annealing(&m, &cfg);
        let multi = explore(&m, &cfg);
        let (_, s) = single.best.unwrap();
        let (_, p) = multi.best.unwrap();
        assert!(p.fitness() <= s.fitness() + 1e-9);
        // Evaluations sum over chains: each chain spends at least
        // `iterations` evaluations, so the total reflects all four.
        assert!(multi.evaluations >= u64::from(cfg.iterations) * 4);
    }
}
