//! Scenario matrices: the grid of cells a campaign sweeps.
//!
//! A *cell* is one concrete Monte-Carlo run: a topology spec × protocol
//! spec × daemon spec × fault-burst size × seed index. The paper's
//! speculation profile (Definitions 3–4) is precisely a sweep of
//! stabilization time over the daemon axis; the remaining axes supply the
//! adversarial environment diversity of Dolev & Herman's *unsupportive
//! environments* methodology.
//!
//! Every axis is a **string spec**: topologies parse through
//! `specstab_topology::spec`, daemons through the kernel zoo (plus
//! per-protocol extensions) and protocols through the name-keyed
//! [`specstab_protocols::registry`]. A cell is therefore fully
//! describable as text — the substrate for sharding a matrix range
//! across processes and machines.

use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

/// How a cell builds its initial configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum InitMode {
    /// A fault burst: `0` = full burst (arbitrary initial configuration,
    /// the classical worst case), `k > 0` = `k` corrupted vertices of a
    /// legitimate configuration (the speculative scenario).
    Burst(usize),
    /// The deterministic Theorem 4 adversarial witness — attains the
    /// `⌈diam/2⌉` synchronous bound exactly (SSME only).
    Witness,
}

impl InitMode {
    /// Parses `"witness"` or a burst size.
    ///
    /// # Errors
    ///
    /// Returns the malformed token.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "witness" {
            return Ok(Self::Witness);
        }
        s.parse::<usize>()
            .map(Self::Burst)
            .map_err(|_| format!("bad fault burst '{s}' (expected a vertex count or 'witness')"))
    }
}

impl fmt::Display for InitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Burst(k) => write!(f, "{k}"),
            Self::Witness => f.write_str("witness"),
        }
    }
}

/// One cell of the scenario grid.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Cell {
    /// Topology spec (see `specstab_topology::spec`).
    pub topology: String,
    /// Protocol spec: a registry name
    /// (see `specstab_protocols::registry`).
    pub protocol: String,
    /// Daemon spec (see `specstab_kernel::daemon::parse_daemon_spec`).
    pub daemon: String,
    /// Initial-configuration mode (fault burst or adversarial witness).
    pub init: InitMode,
    /// Index along the seed axis.
    pub seed_index: u64,
}

impl Cell {
    /// Canonical `key` identifying the cell's scenario group (everything
    /// but the seed index).
    #[must_use]
    pub fn group_key(&self) -> String {
        format!("{}|{}|{}|f{}", self.topology, self.protocol, self.daemon, self.init)
    }

    /// Whether `other` belongs to this cell's scenario group: the
    /// field-wise form of `group_key` equality, without formatting keys.
    #[must_use]
    pub fn same_group(&self, other: &Cell) -> bool {
        self.topology == other.topology
            && self.protocol == other.protocol
            && self.daemon == other.daemon
            && self.init == other.init
    }

    /// The cell's deterministic base seed: a pure function of the cell
    /// coordinates and the campaign seed, independent of enumeration order
    /// and thread assignment.
    #[must_use]
    pub fn cell_seed(&self, campaign_seed: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.topology.as_bytes());
        eat(b"|");
        eat(self.protocol.as_bytes());
        eat(b"|");
        eat(self.daemon.as_bytes());
        eat(b"|");
        eat(self.init.to_string().as_bytes());
        eat(&self.seed_index.to_le_bytes());
        eat(&campaign_seed.to_le_bytes());
        // Finalize through SplitMix64 so near-identical keys decorrelate.
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Builder-enumerated cartesian grid of scenario cells.
///
/// ```
/// use specstab_campaign::matrix::ScenarioMatrix;
///
/// let m = ScenarioMatrix::builder()
///     .topologies(["ring:12", "torus:4x5"])
///     .protocols(["ssme"])
///     .daemons(["sync", "central-rand", "dist:0.5"])
///     .fault_bursts([0, 2])
///     .seeds(0..10)
///     .build();
/// assert_eq!(m.len(), 2 * 3 * 2 * 10);
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    cells: Vec<Cell>,
}

impl ScenarioMatrix {
    /// An empty builder.
    #[must_use]
    pub fn builder() -> ScenarioMatrixBuilder {
        ScenarioMatrixBuilder::default()
    }

    /// Wraps an explicit cell list (assumed already in the caller's
    /// canonical order). This is how the plan/shard pipeline materializes
    /// a shard's cell range after deserializing a
    /// [`crate::plan::CampaignPlan`] — a filtered matrix is not a cartesian
    /// product, so the explicit list is the only complete representation.
    #[must_use]
    pub fn from_cells(cells: Vec<Cell>) -> Self {
        Self { cells }
    }

    /// The cells in canonical (row-major) enumeration order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Accumulates the axes of a [`ScenarioMatrix`].
#[derive(Clone, Debug, Default)]
pub struct ScenarioMatrixBuilder {
    topologies: Vec<String>,
    protocols: Vec<String>,
    daemons: Vec<String>,
    inits: Vec<InitMode>,
    seeds: Vec<u64>,
}

impl ScenarioMatrixBuilder {
    /// Sets the topology-spec axis.
    #[must_use]
    pub fn topologies<I: IntoIterator<Item = impl Into<String>>>(mut self, specs: I) -> Self {
        self.topologies = specs.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the protocol-spec axis (registry names, e.g. `"ssme"`).
    #[must_use]
    pub fn protocols<I: IntoIterator<Item = impl Into<String>>>(mut self, specs: I) -> Self {
        self.protocols = specs.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the daemon-spec axis.
    #[must_use]
    pub fn daemons<I: IntoIterator<Item = impl Into<String>>>(mut self, specs: I) -> Self {
        self.daemons = specs.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the fault-burst axis (`0` = full burst), replacing any
    /// previously set init modes.
    #[must_use]
    pub fn fault_bursts<I: IntoIterator<Item = usize>>(mut self, sizes: I) -> Self {
        self.inits = sizes.into_iter().map(InitMode::Burst).collect();
        self
    }

    /// Sets the init-mode axis directly (fault bursts and/or the witness).
    #[must_use]
    pub fn init_modes<I: IntoIterator<Item = InitMode>>(mut self, modes: I) -> Self {
        self.inits = modes.into_iter().collect();
        self
    }

    /// Appends the Theorem 4 adversarial-witness mode to the init axis.
    #[must_use]
    pub fn with_witness(mut self) -> Self {
        if !self.inits.contains(&InitMode::Witness) {
            self.inits.push(InitMode::Witness);
        }
        self
    }

    /// Sets the seed axis.
    #[must_use]
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Enumerates the cartesian product in a canonical row-major order
    /// (topology, protocol, daemon, faults, seed) — the artifact's cell
    /// order, independent of execution interleaving.
    ///
    /// Axes left empty default to a single neutral value where that makes
    /// sense (`fault_bursts -> [0]`); empty topology/protocol/daemon axes
    /// yield an empty matrix. A value repeated on an axis counts once: it
    /// would only rerun the same cells, and split their scenario groups
    /// into two runs.
    #[must_use]
    pub fn build(self) -> ScenarioMatrix {
        self.build_where(|_| true)
    }

    /// [`ScenarioMatrixBuilder::build`] keeping only the cells `keep`
    /// accepts, in the same canonical enumeration order. This is how
    /// frontends drop (topology, protocol) combinations a protocol's
    /// topology-compatibility check rejects, or witness cells for
    /// protocols without a witness, while preserving cell coordinates
    /// (and therefore seeds) of the surviving cells.
    #[must_use]
    pub fn build_where(self, keep: impl Fn(&Cell) -> bool) -> ScenarioMatrix {
        let inits = if self.inits.is_empty() { vec![InitMode::Burst(0)] } else { self.inits };
        let seeds = if self.seeds.is_empty() { vec![0] } else { self.seeds };
        let (topologies, protocols) = (distinct(self.topologies), distinct(self.protocols));
        let (daemons, inits, seeds) = (distinct(self.daemons), distinct(inits), distinct(seeds));
        let mut cells = Vec::new();
        for t in &topologies {
            for p in &protocols {
                for d in &daemons {
                    for &init in &inits {
                        for &s in &seeds {
                            let cell = Cell {
                                topology: t.clone(),
                                protocol: p.clone(),
                                daemon: d.clone(),
                                init,
                                seed_index: s,
                            };
                            if keep(&cell) {
                                cells.push(cell);
                            }
                        }
                    }
                }
            }
        }
        ScenarioMatrix { cells }
    }
}

/// `values` without repeats, each kept at its first occurrence.
fn distinct<T: Clone + Eq + Hash>(mut values: Vec<T>) -> Vec<T> {
    let mut seen = HashSet::new();
    values.retain(|v| seen.insert(v.clone()));
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme", "dijkstra"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    #[test]
    fn cartesian_product_size_and_order() {
        let m = small();
        assert_eq!(m.len(), 2 * 2 * 2 * 2 * 3);
        // Row-major: seed varies fastest, topology slowest.
        assert_eq!(m.cells()[0].seed_index, 0);
        assert_eq!(m.cells()[1].seed_index, 1);
        assert_eq!(m.cells()[2].seed_index, 2);
        assert_eq!(m.cells()[3].init, InitMode::Burst(1));
        assert!(m.cells()[..24].iter().all(|c| c.topology == "ring:6"));
        assert!(m.cells()[24..].iter().all(|c| c.topology == "path:5"));
    }

    #[test]
    fn cell_seeds_are_coordinate_determined_and_distinct() {
        let m = small();
        let seeds: Vec<u64> = m.cells().iter().map(|c| c.cell_seed(42)).collect();
        let rebuilt: Vec<u64> = small().cells().iter().map(|c| c.cell_seed(42)).collect();
        assert_eq!(seeds, rebuilt, "same coordinates => same seeds");
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "cells should get distinct seeds");
        let other: Vec<u64> = m.cells().iter().map(|c| c.cell_seed(43)).collect();
        assert_ne!(seeds, other, "campaign seed participates");
    }

    #[test]
    fn group_key_ignores_seed_axis() {
        let m = small();
        assert_eq!(m.cells()[0].group_key(), m.cells()[1].group_key());
        assert_ne!(m.cells()[0].group_key(), m.cells()[3].group_key());
        // `same_group` agrees with key equality on every adjacent pair of
        // a matrix mixing every axis, the witness included.
        let mixed = ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme", "dijkstra"])
            .daemons(["sync", "dist:0.5"])
            .fault_bursts([0, 1])
            .with_witness()
            .seeds(0..2)
            .build();
        let mut changes = 0;
        for pair in mixed.cells().windows(2) {
            let same = pair[0].group_key() == pair[1].group_key();
            assert_eq!(pair[0].same_group(&pair[1]), same, "{:?} vs {:?}", pair[0], pair[1]);
            changes += usize::from(!same);
        }
        assert_eq!(changes, 2 * 2 * 2 * 3 - 1, "every group boundary is a pair");
    }

    #[test]
    fn repeated_axis_values_count_once() {
        let repeated = ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5", "ring:6"])
            .protocols(["ssme", "dijkstra", "ssme"])
            .daemons(["sync", "central-rr", "sync"])
            .fault_bursts([0, 1, 0])
            .seeds([0, 1, 2, 1])
            .build();
        assert_eq!(repeated.cells(), small().cells());
    }

    #[test]
    fn empty_axes_yield_empty_matrix() {
        assert!(ScenarioMatrix::builder().build().is_empty());
    }

    #[test]
    fn init_mode_parsing_and_witness_axis() {
        assert_eq!(InitMode::parse("0"), Ok(InitMode::Burst(0)));
        assert_eq!(InitMode::parse("3"), Ok(InitMode::Burst(3)));
        assert_eq!(InitMode::parse("witness"), Ok(InitMode::Witness));
        assert!(InitMode::parse("junk").is_err());
        let m = ScenarioMatrix::builder()
            .topologies(["ring:6"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0])
            .with_witness()
            .seeds(0..2)
            .build();
        assert_eq!(m.len(), 4);
        assert!(m.cells().iter().any(|c| c.init == InitMode::Witness));
    }
}
