//! Shared equivalence-test support: digest helpers, deterministic
//! world builders and reference-vs-optimized flood runners.
//!
//! Three integration suites pin the simulator's bit-exactness discipline —
//! `flood_equivalence.rs` (optimized kernel vs the naive reference),
//! `world_dynamics.rs` (static worlds vs pre-refactor golden digests) and
//! `sparse_equivalence.rs` (CSR-only worlds vs the dense compiled path).
//! They all need the same ingredients: an FNV-1a digest folding every field
//! bit-exactly, runners that execute the same flood through two
//! implementations and assert byte-equality *including the RNG stream
//! position*, and deterministic random-world builders for property tests.
//! This module is that shared toolbox.

use dimmer_core::{DimmerRoundReport, RoundMode};
use dimmer_glossy::{FloodOutcome, FloodSimulator, GlossyConfig, ReferenceFloodSimulator};
use dimmer_sim::{CompiledTopology, InterferenceModel, NodeId, SimRng, SimTime, Topology};

/// Incremental 64-bit FNV-1a digest, folding values byte-by-byte in
/// little-endian order — the pinning primitive of every golden-digest test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    /// Folds one `u64` into the digest.
    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Folds one `f64` bit-exactly (NaN payloads and signed zeros included).
    pub fn fold_f64(&mut self, v: f64) {
        self.fold(v.to_bits());
    }

    /// Folds a byte slice into the digest.
    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// The digest value so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// FNV-1a over the raw bytes of a serialized report — the pinning primitive
/// of the scheduler-extraction goldens: any byte that changes in a
/// harness JSON report (labels, params, float formatting, ordering)
/// changes the digest.
pub fn json_digest(json: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.fold_bytes(json.as_bytes());
    h.value()
}

/// FNV-1a over every (pre-world) field of every report, bit-exactly — the
/// digest the `world_dynamics` goldens pin. Any change to RNG consumption,
/// float arithmetic or report synthesis shows up as a mismatch.
pub fn report_stream_hash(reports: &[DimmerRoundReport]) -> u64 {
    let mut h = Fnv1a::new();
    for r in reports {
        h.fold(r.round_index);
        h.fold(r.time.as_micros());
        h.fold(match r.mode {
            RoundMode::Adaptivity => 0,
            RoundMode::ForwarderSelection => 1,
        });
        h.fold(r.ntx as u64);
        h.fold_f64(r.reliability);
        h.fold(r.mean_radio_on.as_micros());
        h.fold(r.losses as u64);
        h.fold_f64(r.reward);
        h.fold(r.active_forwarders as u64);
        h.fold_f64(r.energy_joules);
        h.fold(r.packets_generated as u64);
        h.fold(r.packets_delivered as u64);
    }
    h.value()
}

/// A deterministic random topology for property tests: `n` nodes scattered
/// over a 30 m x 30 m area (multi-hop at testbed density).
pub fn random_topology(n: usize, seed: u64) -> Topology {
    Topology::random(n, 30.0, 30.0, seed)
}

/// Runs the same flood on the optimized kernel and the naive dense
/// reference and asserts byte-equality of the complete outcome.
pub fn assert_flood_equivalent(
    topo: &Topology,
    interference: &dyn InterferenceModel,
    cfg: &GlossyConfig,
    initiator: NodeId,
    start: SimTime,
    seed: u64,
) -> FloodOutcome {
    let mut fast = FloodSimulator::new(topo, interference);
    let slow = ReferenceFloodSimulator::new(topo, interference);
    let a = fast.flood(cfg, initiator, start, &mut SimRng::seed_from(seed));
    let b = slow.flood(cfg, initiator, start, &mut SimRng::seed_from(seed));
    assert_eq!(a, b, "optimized kernel diverged (seed {seed})");
    a
}

/// The dense and the forced-sparse (CSR-only) compilation of `topo`.
pub fn dense_and_sparse(topo: &Topology) -> (CompiledTopology, CompiledTopology) {
    (
        CompiledTopology::compile(topo),
        CompiledTopology::compile(topo).into_sparse(),
    )
}

/// A deterministic random world with *one-way* links, as its dense and
/// forced-sparse compilations: the PRR matrix of [`random_topology`] with
/// one direction of roughly 30 % of its links cut. A symmetric world cannot
/// tell `prr(t → r)` from `prr(r → t)`; this one can.
pub fn one_way_twins(n: usize, seed: u64) -> (CompiledTopology, CompiledTopology) {
    let topo = random_topology(n, seed);
    let mut rng = SimRng::seed_from(seed ^ 0x0E_3A11);
    let mut prr = vec![0.0; n * n];
    for i in topo.node_ids() {
        for j in topo.node_ids().filter(|&j| j != i) {
            prr[i.index() * n + j.index()] = topo.link(i, j).prr();
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            if rng.chance(0.3) {
                let (from, to) = if rng.chance(0.5) { (i, j) } else { (j, i) };
                prr[from * n + to] = 0.0;
            }
        }
    }
    let positions: Vec<_> = topo.node_ids().map(|id| topo.position(id)).collect();
    let dense = CompiledTopology::from_prr_matrix(positions, topo.coordinator(), prr);
    (dense.clone(), dense.into_sparse())
}

/// Runs the same flood over a dense and a sparse (CSR-only) compilation of
/// one world and asserts byte-equality of the outcome **and** of the RNG
/// stream position afterwards — the sparse mode's whole contract: no dense
/// miss rows, same bits. `participants: None` floods with every node.
pub fn assert_sparse_equals_dense(
    (dense, sparse): (CompiledTopology, CompiledTopology),
    interference: &dyn InterferenceModel,
    cfg: &GlossyConfig,
    initiator: NodeId,
    start: SimTime,
    seed: u64,
    participants: Option<&[bool]>,
) -> FloodOutcome {
    assert!(
        dense.miss_rows().is_some(),
        "test worlds must stay under DENSE_NODE_LIMIT"
    );
    assert!(
        sparse.miss_rows().is_none(),
        "the sparse twin must skip the miss rows"
    );
    let mut on_dense = FloodSimulator::new(dense, interference);
    let mut on_sparse = FloodSimulator::new(sparse, interference);
    let mut rng_dense = SimRng::seed_from(seed);
    let mut rng_sparse = SimRng::seed_from(seed);
    let (a, b) = match participants {
        None => (
            on_dense.flood(cfg, initiator, start, &mut rng_dense),
            on_sparse.flood(cfg, initiator, start, &mut rng_sparse),
        ),
        Some(mask) => (
            on_dense.flood_with_participants(cfg, initiator, start, &mut rng_dense, mask),
            on_sparse.flood_with_participants(cfg, initiator, start, &mut rng_sparse, mask),
        ),
    };
    assert_eq!(a, b, "sparse flood diverged from dense (seed {seed})");
    assert_eq!(
        rng_dense.gen_probability(),
        rng_sparse.gen_probability(),
        "sparse flood consumed a different amount of RNG (seed {seed})"
    );
    a
}
