//! The name-keyed protocol registry: every [`ProtocolHarness`] in the
//! workspace behind a string spec.
//!
//! The registry is the API that lets grid drivers (the campaign engine,
//! CLIs, future multi-process sharding) describe a protocol **purely as a
//! string** while still reaching fully monomorphized code: a caller
//! supplies a [`HarnessVisitor`] and [`resolve`] dispatches it to the
//! harness *type* registered under the name. The visitor's generic
//! `visit::<H>()` is instantiated once per protocol, so the code it
//! returns (e.g. a cell-runner `fn` pointer) contains no `dyn` dispatch.
//!
//! [`PROTOCOLS`] carries the human-facing metadata (state spaces,
//! topology constraints, witness capability) used by `--list-protocols`
//! style frontends and by upfront compatibility filtering.

use crate::harness::{
    BfsHarness, Dijkstra3Harness, Dijkstra4Harness, DijkstraHarness, MatchingHarness, SsmeHarness,
};
use specstab_kernel::harness::{HarnessError, ProtocolHarness};
use specstab_topology::Graph;

/// Registry metadata of one protocol.
#[derive(Copy, Clone, Debug)]
pub struct ProtocolInfo {
    /// Registry name (the string spec, e.g. `"ssme"`).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Human-readable per-vertex state space.
    pub states: &'static str,
    /// Human-readable topology constraint.
    pub topology: &'static str,
    /// Whether the protocol defines an adversarial witness configuration.
    pub has_witness: bool,
    /// Whether the protocol supports lane-packed batched stepping
    /// (see `specstab_kernel::batch`) — routed under the synchronous and
    /// random-distributed (`dist:p`) daemons; central daemons always run
    /// on the scalar engine.
    pub batched: bool,
}

/// All registered protocols, in canonical registry order (the order
/// `--protocols all` expands to).
pub const PROTOCOLS: &[ProtocolInfo] = &[
    ProtocolInfo {
        name: "ssme",
        summary: "SSME (Algorithm 1) under specME, with the Theorem 4 witness",
        states: "clock values {-alpha, .., beta}",
        topology: "any connected graph",
        has_witness: true,
        batched: true,
    },
    ProtocolInfo {
        name: "dijkstra",
        summary: "Dijkstra's K-state token ring (1974), K = n",
        states: "counters {0, .., n-1}",
        topology: "ring (n >= 3)",
        has_witness: false,
        batched: true,
    },
    ProtocolInfo {
        name: "dijkstra3",
        summary: "Dijkstra's three-state mutual exclusion (1974)",
        states: "{0, 1, 2}",
        topology: "ring (n >= 3)",
        has_witness: false,
        batched: true,
    },
    ProtocolInfo {
        name: "dijkstra4",
        summary: "Dijkstra's four-state mutual exclusion (1974)",
        states: "(x, up) boolean pairs",
        topology: "line (n >= 2)",
        has_witness: false,
        batched: true,
    },
    ProtocolInfo {
        name: "bfs",
        summary: "min+1 BFS spanning tree (Huang & Chen 1992), root 0",
        states: "levels {0, .., n}",
        topology: "any connected graph",
        has_witness: false,
        batched: false,
    },
    ProtocolInfo {
        name: "matching",
        summary: "maximal matching (Manne et al. 2009)",
        states: "pointer in neig(v) + {bot}, married flag",
        topology: "any connected graph",
        has_witness: false,
        batched: false,
    },
];

/// Looks up a protocol's metadata by registry name.
#[must_use]
pub fn info(name: &str) -> Option<&'static ProtocolInfo> {
    PROTOCOLS.iter().find(|p| p.name == name)
}

/// The registered protocol names, in canonical order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    PROTOCOLS.iter().map(|p| p.name).collect()
}

/// The "unknown protocol" error, listing what the registry knows.
fn unknown(name: &str) -> String {
    format!("unknown protocol '{name}' (registered: {})", names().join(" | "))
}

/// Generic dispatch target for [`resolve`]: implement this with a generic
/// `visit` and the registry instantiates it for the harness type
/// registered under a name.
pub trait HarnessVisitor {
    /// What the visit produces (e.g. a monomorphized `fn` pointer).
    type Output;

    /// Visits the harness type registered under the resolved name.
    fn visit<H: ProtocolHarness + 'static>(self, info: &'static ProtocolInfo) -> Self::Output;
}

/// Resolves `name` and dispatches `visitor` to the registered harness
/// type. This is the only name `match` in the workspace — every consumer
/// goes through it.
///
/// # Errors
///
/// Returns the unknown-protocol message listing the registered names.
pub fn resolve<V: HarnessVisitor>(name: &str, visitor: V) -> Result<V::Output, String> {
    let info = info(name).ok_or_else(|| unknown(name))?;
    Ok(match name {
        "ssme" => visitor.visit::<SsmeHarness>(info),
        "dijkstra" => visitor.visit::<DijkstraHarness>(info),
        "dijkstra3" => visitor.visit::<Dijkstra3Harness>(info),
        "dijkstra4" => visitor.visit::<Dijkstra4Harness>(info),
        "bfs" => visitor.visit::<BfsHarness>(info),
        "matching" => visitor.visit::<MatchingHarness>(info),
        _ => unreachable!("PROTOCOLS and resolve() must agree on the registered names"),
    })
}

/// Expands a comma-separated protocol list, with `all` expanding to every
/// registered protocol, and validates each name against the registry.
///
/// # Errors
///
/// Returns the first unknown name.
pub fn parse_protocol_list(spec: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for tok in spec.split(',').filter(|t| !t.is_empty()) {
        if tok == "all" {
            out.extend(names().iter().map(|n| (*n).to_string()));
        } else if info(tok).is_some() {
            out.push(tok.to_string());
        } else {
            return Err(unknown(tok));
        }
    }
    if out.is_empty() {
        return Err("empty protocol list".to_string());
    }
    // Order-preserving dedup (duplicate names would enumerate duplicate
    // cells with identical coordinates and seeds, double-counting groups).
    let mut seen = std::collections::HashSet::new();
    out.retain(|n| seen.insert(n.clone()));
    Ok(out)
}

struct GraphCheck<'a>(&'a Graph);

impl HarnessVisitor for GraphCheck<'_> {
    type Output = Result<(), HarnessError>;
    fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> Self::Output {
        H::check_graph(self.0)
    }
}

/// Whether the named protocol can run on `graph` — the registry-driven
/// replacement for ad-hoc per-protocol topology `match`es. Asks the
/// harness's [`ProtocolHarness::check_graph`], which decides from the
/// graph's structure alone: no harness is built and no distance computed.
///
/// # Errors
///
/// The unknown-protocol message (outer) or the harness's typed
/// [`HarnessError`] (inner).
pub fn check_graph(name: &str, graph: &Graph) -> Result<Result<(), HarnessError>, String> {
    resolve(name, GraphCheck(graph))
}

struct DaemonCheck<'a>(&'a str);

impl HarnessVisitor for DaemonCheck<'_> {
    type Output = bool;
    fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> bool {
        H::accepts_daemon(self.0)
    }
}

/// Whether the named protocol resolves the daemon spec `spec`, asked of
/// the harness's [`ProtocolHarness::accepts_daemon`]: no harness is
/// built. Frontends use it to skip the protocol-specific daemons (ssme's
/// greedy adversaries) on the other protocols of a matrix.
///
/// # Errors
///
/// The unknown-protocol message.
pub fn accepts_daemon(name: &str, spec: &str) -> Result<bool, String> {
    resolve(name, DaemonCheck(spec))
}

/// [`check_graph`] under the signature of callers that resolve the
/// diameter first. `diam` is unused: compatibility is structural.
///
/// # Errors
///
/// As [`check_graph`].
pub fn check_topology(
    name: &str,
    graph: &Graph,
    diam: u32,
) -> Result<Result<(), HarnessError>, String> {
    let _ = diam;
    check_graph(name, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_topology::generators;
    use specstab_topology::metrics::DistanceMatrix;

    struct NameOf;
    impl HarnessVisitor for NameOf {
        type Output = &'static str;
        fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> &'static str {
            H::NAME
        }
    }

    #[test]
    fn every_registered_name_resolves_to_a_harness_agreeing_on_the_name() {
        for p in PROTOCOLS {
            assert_eq!(resolve(p.name, NameOf).unwrap(), p.name);
        }
    }

    #[test]
    fn names_are_unique_and_info_roundtrips() {
        let mut ns = names();
        ns.sort_unstable();
        ns.dedup();
        assert_eq!(ns.len(), PROTOCOLS.len());
        assert_eq!(info("bfs").unwrap().topology, "any connected graph");
        assert!(info("warp-drive").is_none());
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let err = resolve("warp-drive", NameOf).unwrap_err();
        assert!(err.contains("unknown protocol 'warp-drive'"), "{err}");
        assert!(err.contains("ssme"), "{err}");
        assert!(err.contains("matching"), "{err}");
    }

    #[test]
    fn protocol_lists_expand_all_and_reject_junk() {
        assert_eq!(parse_protocol_list("ssme,bfs").unwrap(), vec!["ssme", "bfs"]);
        assert_eq!(parse_protocol_list("all").unwrap(), names());
        assert!(parse_protocol_list("ssme,warp").is_err());
        assert!(parse_protocol_list("").is_err());
    }

    #[test]
    fn protocol_lists_dedup_non_adjacent_repeats() {
        assert_eq!(parse_protocol_list("ssme,bfs,ssme").unwrap(), vec!["ssme", "bfs"]);
        assert_eq!(parse_protocol_list("bfs,all").unwrap().len(), PROTOCOLS.len());
        assert_eq!(parse_protocol_list("bfs,all").unwrap()[0], "bfs");
    }

    /// A harness's structural verdict next to its `build` outcome.
    struct CheckAndBuild<'a> {
        graph: &'a Graph,
        diam: u32,
    }

    impl HarnessVisitor for CheckAndBuild<'_> {
        type Output = (Result<(), HarnessError>, Result<(), HarnessError>);
        fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> Self::Output {
            (H::check_graph(self.graph), H::build(self.graph, self.diam).map(drop))
        }
    }

    #[test]
    fn check_graph_agrees_with_build_on_every_protocol() {
        let specs = [
            "ring:3",
            "ring:4",
            "ring:9",
            "path:1",
            "path:2",
            "path:6",
            "star:3",
            "star:6",
            "grid:1x2",
            "grid:1x5",
            "grid:3x4",
            "torus:3x3",
            "torus:4x5",
            "tree:2",
            "tree:9",
            "tree:12:3",
            "bintree:7",
            "complete:1",
            "complete:2",
            "complete:3",
            "complete:5",
            "petersen",
            "er:8:0.3:1",
            "er:12:0.2:2",
            "er:10:0.0:3",
        ];
        let mut rejected = 0;
        for spec in specs {
            let g = specstab_topology::spec::parse_spec(spec).unwrap();
            let diam = DistanceMatrix::new(&g).diameter();
            for p in PROTOCOLS {
                let (check, build) = resolve(p.name, CheckAndBuild { graph: &g, diam }).unwrap();
                assert_eq!(check, build, "{} on {spec}", p.name);
                assert_eq!(check_graph(p.name, &g).unwrap(), check, "{} on {spec}", p.name);
                rejected += usize::from(check.is_err());
            }
        }
        // The Dijkstra harnesses reject most of the spread.
        assert!(rejected > 40, "{rejected}");
    }

    /// A harness's daemon verdict next to what its built `daemon` does.
    struct AcceptAndResolve<'a> {
        graph: &'a Graph,
        spec: &'a str,
    }

    impl HarnessVisitor for AcceptAndResolve<'_> {
        type Output = (bool, bool);
        fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> Self::Output {
            let diam = specstab_topology::metrics::diameter(self.graph);
            let h = H::build(self.graph, diam).expect("a compatible graph");
            (H::accepts_daemon(self.spec), h.daemon(self.spec, 7).is_ok())
        }
    }

    #[test]
    fn accepts_daemon_agrees_with_daemon_on_every_protocol() {
        let graphs = [generators::ring(8).unwrap(), generators::path(8).unwrap()];
        let specs = [
            "sync",
            "central-rr",
            "central-rand",
            "central-min",
            "central-max",
            "central-oldest",
            "dist:0.5",
            "dist:1.5",
            "kbounded:2",
            "kbounded:2:0.3",
            "kbounded:x",
            "adversary-central",
            "adversary-dist",
            "adversary-",
            "warp-drive",
        ];
        for p in PROTOCOLS {
            let graph = graphs.iter().find(|g| check_graph(p.name, g).unwrap().is_ok()).unwrap();
            for spec in specs {
                let (accepts, resolves) =
                    resolve(p.name, AcceptAndResolve { graph, spec }).unwrap();
                assert_eq!(accepts, resolves, "{} with {spec}", p.name);
                assert_eq!(accepts_daemon(p.name, spec), Ok(accepts), "{} with {spec}", p.name);
            }
        }
        assert_eq!(accepts_daemon("ssme", "adversary-dist"), Ok(true));
        assert_eq!(accepts_daemon("bfs", "adversary-dist"), Ok(false));
        assert!(accepts_daemon("warp", "sync").is_err());
    }

    #[test]
    fn topology_compatibility_is_registry_driven() {
        let ring = generators::ring(6).unwrap();
        let path = generators::path(5).unwrap();
        let d_ring = DistanceMatrix::new(&ring).diameter();
        let d_path = DistanceMatrix::new(&path).diameter();
        assert!(check_topology("dijkstra", &ring, d_ring).unwrap().is_ok());
        assert!(check_topology("dijkstra", &path, d_path).unwrap().is_err());
        assert!(check_topology("dijkstra4", &path, d_path).unwrap().is_ok());
        assert!(check_topology("dijkstra4", &ring, d_ring).unwrap().is_err());
        for name in ["ssme", "bfs", "matching"] {
            assert!(check_topology(name, &ring, d_ring).unwrap().is_ok(), "{name} on ring");
            assert!(check_topology(name, &path, d_path).unwrap().is_ok(), "{name} on path");
        }
        assert!(check_topology("warp", &ring, d_ring).is_err());
    }
}
