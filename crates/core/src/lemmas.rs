//! Executable versions of the paper's proof lemmata (Section 4.3).
//!
//! The Theorem 2 proof rests on four lemmata about synchronous executions
//! of SSME from arbitrary configurations. This module turns each into a
//! checkable predicate over recorded traces, so the proof structure itself
//! is regression-tested — if an implementation change broke a lemma, the
//! corresponding checker would find a counterexample.
//!
//! * **Lemma 1** — a vertex privileged in `γ_i` (`i < diam`) executed only
//!   `NA` during the prefix `e_i`;
//! * **Lemma 2** — such a vertex never belonged to a zero-island in `e_i`;
//! * **Lemma 3** — island erosion: a vertex in a non-zero-island of depth
//!   `k` in `γ_i` was in a non-zero-island of depth ≥ `k+1` (or in a
//!   zero-island) in `γ_{i-1}`;
//! * **Lemma 4** — if `γ_0 ∉ Γ1`, by step `diam` every register lies in
//!   `init_X ∪ {(2n−2)(diam+1)+3, .., 0, .., 2·diam−1}`.

use crate::islands::islands;
use crate::ssme::Ssme;
use specstab_kernel::config::Configuration;
use specstab_kernel::protocol::RuleId;
use specstab_topology::{Graph, VertexId};
use specstab_unison::clock::ClockValue;
use specstab_unison::protocol::rules;
use specstab_unison::SpecAu;

/// A recorded synchronous execution: configurations plus per-step
/// activations (as produced by `TraceRecorder`).
pub struct SyncTrace<'a> {
    /// `configs[i]` is `γ_i`.
    pub configs: &'a [Configuration<ClockValue>],
    /// `activations[i]` are the `(vertex, rule)` pairs of `(γ_i, γ_{i+1})`.
    pub activations: &'a [Vec<(VertexId, RuleId)>],
}

/// A counterexample to one of the lemma checks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LemmaViolation {
    /// Which lemma failed (1, 2, 3 or 4).
    pub lemma: u8,
    /// Step index of the violation.
    pub step: usize,
    /// Vertex involved.
    pub vertex: VertexId,
    /// Human-readable detail.
    pub detail: String,
}

/// Lemma 1: every vertex privileged in some `γ_i` with `i < diam(g)`
/// executed only rule `NA` during `e_i`.
#[must_use]
pub fn check_lemma1(ssme: &Ssme, trace: &SyncTrace<'_>) -> Option<LemmaViolation> {
    let diam = usize::try_from(ssme.diam()).expect("diam fits usize");
    for (i, cfg) in trace.configs.iter().enumerate().take(diam.min(trace.configs.len())) {
        for v in (0..ssme.n()).map(VertexId::new) {
            if !ssme.is_privileged(v, cfg) {
                continue;
            }
            for (j, acts) in trace.activations.iter().enumerate().take(i) {
                for &(w, rule) in acts {
                    if w == v && rule != rules::NA {
                        return Some(LemmaViolation {
                            lemma: 1,
                            step: j,
                            vertex: v,
                            detail: format!("privileged at γ_{i} but executed {rule} at step {j}"),
                        });
                    }
                }
            }
        }
    }
    None
}

/// Lemma 2: a vertex privileged in `γ_i` with `i < diam(g)` belonged to no
/// zero-island in any configuration of `e_i`.
#[must_use]
pub fn check_lemma2(ssme: &Ssme, graph: &Graph, trace: &SyncTrace<'_>) -> Option<LemmaViolation> {
    let diam = usize::try_from(ssme.diam()).expect("diam fits usize");
    let clock = ssme.clock();
    let horizon = diam.min(trace.configs.len());
    // Precompute island structures per configuration prefix.
    let island_sets: Vec<_> =
        trace.configs.iter().take(horizon).map(|c| islands(c, graph, clock)).collect();
    for (i, cfg) in trace.configs.iter().enumerate().take(horizon) {
        for v in (0..ssme.n()).map(VertexId::new) {
            if !ssme.is_privileged(v, cfg) {
                continue;
            }
            for (j, isles) in island_sets.iter().enumerate().take(i + 1) {
                if isles.iter().any(|isl| isl.is_zero_island && isl.contains(v)) {
                    return Some(LemmaViolation {
                        lemma: 2,
                        step: j,
                        vertex: v,
                        detail: format!("privileged at γ_{i} but in a zero-island at γ_{j}"),
                    });
                }
            }
        }
    }
    None
}

/// Lemma 3: island erosion. For every vertex in a non-zero-island of depth
/// `k` in `γ_i` (with a nonempty border), its island in `γ_{i-1}` was a
/// zero-island or had depth ≥ `k + 1`.
#[must_use]
pub fn check_lemma3(ssme: &Ssme, graph: &Graph, trace: &SyncTrace<'_>) -> Option<LemmaViolation> {
    let diam = usize::try_from(ssme.diam()).expect("diam fits usize");
    let clock = ssme.clock();
    let horizon = diam.min(trace.configs.len());
    for i in 1..horizon {
        let prev = islands(&trace.configs[i - 1], graph, clock);
        let cur = islands(&trace.configs[i], graph, clock);
        for isl in &cur {
            if isl.is_zero_island || isl.border.is_empty() {
                continue;
            }
            for &v in &isl.vertices {
                let Some(pisl) = prev.iter().find(|p| p.contains(v)) else {
                    continue;
                };
                if pisl.is_zero_island || pisl.border.is_empty() {
                    continue;
                }
                if pisl.depth < isl.depth.saturating_add(1) {
                    return Some(LemmaViolation {
                        lemma: 3,
                        step: i,
                        vertex: v,
                        detail: format!(
                            "island depth {} at γ_{} but {} at γ_{}",
                            isl.depth,
                            i,
                            pisl.depth,
                            i - 1
                        ),
                    });
                }
            }
        }
    }
    None
}

/// Lemma 4: if `γ_0 ∉ Γ1`, every register at `γ_diam` lies in
/// `init_X ∪ {(2n−2)(diam+1)+3, .., K-1} ∪ {0, .., 2·diam − 1}`.
#[must_use]
pub fn check_lemma4(ssme: &Ssme, graph: &Graph, trace: &SyncTrace<'_>) -> Option<LemmaViolation> {
    let au = SpecAu::new(ssme.clock());
    if au.in_gamma_one(&trace.configs[0], graph) {
        return None; // premise not met
    }
    let diam = usize::try_from(ssme.diam()).expect("diam fits usize");
    let cfg = trace.configs.get(diam)?;
    let clock = ssme.clock();
    let n = i64::try_from(ssme.n()).expect("n fits i64");
    let d = ssme.diam();
    let low_wrap = (2 * n - 2) * (d + 1) + 3; // start of the wrapped band
    for (v, &r) in cfg.iter() {
        let raw = r.raw();
        let ok =
            clock.is_init(r) || (0..2 * d).contains(&raw) || (low_wrap..clock.k()).contains(&raw);
        if !ok {
            return Some(LemmaViolation {
                lemma: 4,
                step: diam,
                vertex: v,
                detail: format!("register {raw} outside the Lemma 4 band at γ_diam"),
            });
        }
    }
    None
}

/// Runs all four lemma checks on a trace; returns the first violation.
#[must_use]
pub fn check_all(ssme: &Ssme, graph: &Graph, trace: &SyncTrace<'_>) -> Option<LemmaViolation> {
    check_lemma1(ssme, trace)
        .or_else(|| check_lemma2(ssme, graph, trace))
        .or_else(|| check_lemma3(ssme, graph, trace))
        .or_else(|| check_lemma4(ssme, graph, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::theorem4_witness;
    use rand::SeedableRng;
    use specstab_kernel::daemon::SynchronousDaemon;
    use specstab_kernel::engine::{RunLimits, Simulator};
    use specstab_kernel::observer::TraceRecorder;
    use specstab_kernel::protocol::random_configuration;
    use specstab_topology::generators;
    use specstab_topology::metrics::DistanceMatrix;
    use specstab_unison::analysis;

    fn record(
        g: &Graph,
        ssme: &Ssme,
        init: Configuration<ClockValue>,
        steps: usize,
    ) -> TraceRecorder<ClockValue> {
        let sim = Simulator::new(g, ssme);
        let mut d = SynchronousDaemon::new();
        let mut tr = TraceRecorder::new();
        let _ = sim.run(init, &mut d, RunLimits::with_max_steps(steps), &mut [&mut tr]);
        tr
    }

    #[test]
    fn lemmas_hold_on_random_synchronous_executions() {
        for g in [
            generators::ring(9).unwrap(),
            generators::path(10).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::binary_tree(10).unwrap(),
        ] {
            let dm = DistanceMatrix::new(&g);
            let ssme = Ssme::for_graph(&g).unwrap();
            let horizon = analysis::ssme_sync_gamma1_bound(g.n(), dm.diameter()) as usize + 8;
            for seed in 0..10 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = random_configuration(&g, &ssme, &mut rng);
                let tr = record(&g, &ssme, init, horizon);
                let configs = tr.configs();
                let trace = SyncTrace { configs: &configs, activations: tr.activations() };
                assert_eq!(check_all(&ssme, &g, &trace), None, "{} seed {seed}", g.name());
            }
        }
    }

    #[test]
    fn lemmas_hold_on_the_adversarial_witness() {
        // The witness execution is exactly the scenario the lemmata were
        // designed for: two eroding non-zero-islands.
        for g in [generators::path(11).unwrap(), generators::ring(12).unwrap()] {
            let dm = DistanceMatrix::new(&g);
            let ssme = Ssme::for_graph(&g).unwrap();
            let w = theorem4_witness(&ssme, &g, dm.diameter()).unwrap();
            let horizon = analysis::ssme_sync_gamma1_bound(g.n(), dm.diameter()) as usize + 8;
            let tr = record(&g, &ssme, w.init, horizon);
            let configs = tr.configs();
            let trace = SyncTrace { configs: &configs, activations: tr.activations() };
            assert_eq!(check_all(&ssme, &g, &trace), None, "{}", g.name());
        }
    }

    #[test]
    fn lemma4_premise_skips_gamma1_starts() {
        let g = generators::ring(6).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        let init = Configuration::from_fn(g.n(), |_| ssme.clock().value(0).unwrap());
        let tr = record(&g, &ssme, init, 20);
        let configs = tr.configs();
        let trace = SyncTrace { configs: &configs, activations: tr.activations() };
        assert_eq!(check_lemma4(&ssme, &g, &trace), None);
    }

    #[test]
    fn violation_detail_is_informative() {
        let v =
            LemmaViolation { lemma: 1, step: 3, vertex: VertexId::new(2), detail: "demo".into() };
        assert_eq!(v.lemma, 1);
        assert_eq!(v.vertex.index(), 2);
    }

    use rand::rngs::StdRng;
}
