//! The dynamic-world layer: timestamped scenario scripts of topology and
//! membership changes, applied between protocol rounds.
//!
//! The paper's whole argument is that the RF world *changes* — jammers come
//! and go, links fade, nodes crash and rejoin — and that an adaptive
//! controller must track it. This module makes those scenarios expressible:
//!
//! * a [`WorldEvent`] is one atomic change (node fail/rejoin, symmetric
//!   per-link PRR drift),
//! * a [`ScenarioScript`] is a time-sorted list of `(SimTime, WorldEvent)`
//!   pairs built with a fluent API,
//! * a [`World`] owns a script plus the network's membership state
//!   (`alive` mask) and replays the script against a simulated clock:
//!   [`World::advance_to`] fires every event whose timestamp has passed,
//!   updates the alive mask itself and hands the fired range back so the
//!   caller can patch its compiled substrate
//!   ([`CompiledTopology::apply_event`](crate::CompiledTopology::apply_event)).
//!
//! The node set is fixed for a world's lifetime: nodes fail and rejoin, but
//! none is ever added or removed, so the alive mask, the compiled world and
//! every per-node buffer keep the size they were built with. (A join wave
//! is scripted as a failure at the start followed by a rejoin.)
//!
//! Events apply **between rounds**: engines advance the world once per round
//! before executing it, so a round always runs against a consistent world.
//! An empty script is the *static world* and is contractually a no-op — the
//! engine layers guarantee (and pin with golden tests) that a static-world
//! run is byte-for-byte identical to the pre-world engine output.
//!
//! A script holds only events a world applies. Interference models are
//! immutable while a simulation runs, so a jammer that moves carries its
//! whole path as the waypoints of a [`MobileJammer`](crate::MobileJammer).
//!
//! # Examples
//!
//! ```
//! use dimmer_sim::{NodeId, ScenarioScript, SimTime, World};
//!
//! let script = ScenarioScript::new()
//!     .fail_node(SimTime::from_secs(8), NodeId(3))
//!     .rejoin_node(SimTime::from_secs(20), NodeId(3));
//! let mut world = World::new(5, NodeId(0), script);
//! assert!(!world.is_static());
//!
//! let update = world.advance_to(SimTime::from_secs(10));
//! assert_eq!(update.failed, 1);
//! assert!(!world.is_alive(NodeId(3)));
//!
//! let update = world.advance_to(SimTime::from_secs(25));
//! assert_eq!(update.rejoined, 1);
//! assert_eq!(world.alive_count(), 5);
//! ```

use crate::time::SimTime;
use crate::topology::NodeId;
use std::ops::Range;

/// One atomic change to the simulated world, applied between rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldEvent {
    /// The node powers down: it stops participating in floods (radio off,
    /// no receptions, no energy) until it rejoins. Its links are kept, so a
    /// rejoin restores the world exactly.
    NodeFail(NodeId),
    /// The node powers back up and participates again from the next round.
    NodeRejoin(NodeId),
    /// Symmetric per-link PRR drift: both `prr(a → b)` and `prr(b → a)` are
    /// set to `prr` (links built by [`Topology`](crate::Topology) are
    /// symmetric; asymmetric drift can be expressed as two events via
    /// [`CompiledTopology::set_prr`](crate::CompiledTopology::set_prr)).
    LinkDrift {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The new packet-reception ratio, in `[0, 1]`.
        prr: f64,
    },
}

impl WorldEvent {
    /// Whether the event patches the topology (as opposed to membership):
    /// exactly the events
    /// [`CompiledTopology::apply_event`](crate::CompiledTopology::apply_event)
    /// acts on.
    pub fn is_topology_event(&self) -> bool {
        matches!(self, WorldEvent::LinkDrift { .. })
    }
}

/// A time-sorted script of [`WorldEvent`]s describing one dynamic scenario.
///
/// Events with equal timestamps keep their insertion order (stable sort),
/// so scripts replay deterministically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioScript {
    events: Vec<(SimTime, WorldEvent)>,
}

impl ScenarioScript {
    /// An empty script: the static world.
    pub fn new() -> Self {
        ScenarioScript::default()
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the script has no events (static world).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, ascending by time (stable for equal times).
    pub fn events(&self) -> &[(SimTime, WorldEvent)] {
        &self.events
    }

    /// Adds an event at `at`, keeping the script sorted (events already
    /// scheduled at the same instant fire first).
    pub fn push(&mut self, at: SimTime, event: WorldEvent) {
        let pos = self.events.partition_point(|(t, _)| *t <= at);
        self.events.insert(pos, (at, event));
    }

    /// Builder form of [`push`](Self::push).
    pub fn at(mut self, at: SimTime, event: WorldEvent) -> Self {
        self.push(at, event);
        self
    }

    /// Schedules a node failure.
    pub fn fail_node(self, at: SimTime, node: NodeId) -> Self {
        self.at(at, WorldEvent::NodeFail(node))
    }

    /// Schedules a node rejoin.
    pub fn rejoin_node(self, at: SimTime, node: NodeId) -> Self {
        self.at(at, WorldEvent::NodeRejoin(node))
    }

    /// Schedules a symmetric link-PRR drift.
    pub fn drift_link(self, at: SimTime, a: NodeId, b: NodeId, prr: f64) -> Self {
        self.at(at, WorldEvent::LinkDrift { a, b, prr })
    }
}

/// What changed during one [`World::advance_to`] call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorldUpdate {
    /// Index range of the fired events within
    /// [`ScenarioScript::events`] — feed it to [`World::events_in`] to
    /// patch the substrate.
    pub fired: Range<usize>,
    /// Number of nodes that went from alive to failed.
    pub failed: usize,
    /// Number of nodes that went from failed to alive.
    pub rejoined: usize,
}

impl WorldUpdate {
    /// Whether the alive mask changed.
    pub fn membership_changed(&self) -> bool {
        self.failed > 0 || self.rejoined > 0
    }
}

/// The simulated world's dynamic state: a scenario script plus the current
/// node membership, replayed against the engine's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    script: ScenarioScript,
    alive: Vec<bool>,
    coordinator: NodeId,
    cursor: usize,
}

impl World {
    /// Creates a world of `num_nodes` nodes (all initially alive) governed
    /// by `script`.
    ///
    /// # Panics
    ///
    /// Panics if the script references a node outside `0..num_nodes`, fails
    /// the coordinator (the LWB host cannot leave — move the coordinator
    /// instead of scripting its death), or drifts a link to a PRR outside
    /// `[0, 1]`.
    pub fn new(num_nodes: usize, coordinator: NodeId, script: ScenarioScript) -> Self {
        assert!(num_nodes >= 1, "a world needs at least one node");
        assert!(
            coordinator.index() < num_nodes,
            "coordinator must be one of the nodes"
        );
        for (t, e) in script.events() {
            match e {
                WorldEvent::NodeFail(n) => {
                    assert!(n.index() < num_nodes, "scripted node {n} out of range");
                    assert!(
                        *n != coordinator,
                        "the coordinator cannot fail (event at {t:?})"
                    );
                }
                WorldEvent::NodeRejoin(n) => {
                    assert!(n.index() < num_nodes, "scripted node {n} out of range");
                }
                WorldEvent::LinkDrift { a, b, prr } => {
                    assert!(
                        a.index() < num_nodes && b.index() < num_nodes,
                        "scripted link endpoint out of range"
                    );
                    assert!(a != b, "a link needs two distinct endpoints");
                    assert!((0.0..=1.0).contains(prr), "PRR must be in [0, 1]");
                }
            }
        }
        World {
            script,
            alive: vec![true; num_nodes],
            coordinator,
            cursor: 0,
        }
    }

    /// A world with an empty script: nothing ever changes.
    pub fn static_world(num_nodes: usize, coordinator: NodeId) -> Self {
        Self::new(num_nodes, coordinator, ScenarioScript::new())
    }

    /// Returns `true` if the script is empty (the world never changes).
    pub fn is_static(&self) -> bool {
        self.script.is_empty()
    }

    /// The governing script.
    pub fn script(&self) -> &ScenarioScript {
        &self.script
    }

    /// The current alive mask, indexed by node id.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether `node` is currently alive.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// The coordinator (always alive).
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// The scripted events in a fired range (see [`WorldUpdate::fired`]).
    pub fn events_in(&self, range: Range<usize>) -> &[(SimTime, WorldEvent)] {
        &self.script.events()[range]
    }

    /// Fires every not-yet-fired event with timestamp `<= now`, applying
    /// membership changes to the alive mask and reporting what happened.
    /// Idempotent for a fixed `now`; the clock never rewinds.
    pub fn advance_to(&mut self, now: SimTime) -> WorldUpdate {
        let start = self.cursor;
        let mut update = WorldUpdate {
            fired: start..start,
            ..WorldUpdate::default()
        };
        while let Some((t, e)) = self.script.events().get(self.cursor) {
            if *t > now {
                break;
            }
            match e {
                WorldEvent::NodeFail(n) if self.alive[n.index()] => {
                    self.alive[n.index()] = false;
                    update.failed += 1;
                }
                WorldEvent::NodeRejoin(n) if !self.alive[n.index()] => {
                    self.alive[n.index()] = true;
                    update.rejoined += 1;
                }
                _ => {}
            }
            self.cursor += 1;
        }
        update.fired = start..self.cursor;
        update
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_script_is_static_and_advances_to_nothing() {
        let mut w = World::static_world(4, NodeId(0));
        assert!(w.is_static());
        let u = w.advance_to(t(1_000));
        assert!(u.fired.is_empty());
        assert!(!u.membership_changed());
        assert_eq!(w.alive_count(), 4);
    }

    #[test]
    fn script_keeps_events_sorted_and_stable() {
        let script = ScenarioScript::new()
            .fail_node(t(10), NodeId(1))
            .fail_node(t(5), NodeId(2))
            .rejoin_node(t(10), NodeId(1))
            .drift_link(t(5), NodeId(0), NodeId(1), 0.5);
        let times: Vec<u64> = script
            .events()
            .iter()
            .map(|(t, _)| t.as_micros() / 1_000_000)
            .collect();
        assert_eq!(times, vec![5, 5, 10, 10]);
        // Equal-time events keep insertion order: fail(2) before drift, and
        // fail(1) before rejoin(1).
        assert_eq!(script.events()[0].1, WorldEvent::NodeFail(NodeId(2)));
        assert_eq!(script.events()[2].1, WorldEvent::NodeFail(NodeId(1)));
        assert_eq!(script.events()[3].1, WorldEvent::NodeRejoin(NodeId(1)));
    }

    #[test]
    fn advance_applies_membership_and_reports_ranges() {
        let script = ScenarioScript::new()
            .fail_node(t(4), NodeId(1))
            .fail_node(t(8), NodeId(2))
            .rejoin_node(t(12), NodeId(1))
            .drift_link(t(12), NodeId(0), NodeId(3), 0.9);
        let mut w = World::new(4, NodeId(0), script);

        let u = w.advance_to(t(4));
        assert_eq!(u.fired, 0..1);
        assert_eq!((u.failed, u.rejoined), (1, 0));
        assert!(!w.is_alive(NodeId(1)));

        // Advancing to the same instant again fires nothing.
        assert!(w.advance_to(t(4)).fired.is_empty());

        let u = w.advance_to(t(20));
        assert_eq!(u.fired, 1..4);
        assert_eq!((u.failed, u.rejoined), (1, 1));
        assert_eq!(w.alive_count(), 3);
        assert_eq!(w.events_in(u.fired).len(), 3);
    }

    #[test]
    fn double_fail_and_rejoin_do_not_double_count() {
        let script = ScenarioScript::new()
            .fail_node(t(1), NodeId(1))
            .fail_node(t(2), NodeId(1))
            .rejoin_node(t(3), NodeId(1))
            .rejoin_node(t(4), NodeId(1));
        let mut w = World::new(3, NodeId(0), script);
        let u = w.advance_to(t(2));
        assert_eq!(u.failed, 1);
        let u = w.advance_to(t(4));
        assert_eq!(u.rejoined, 1);
    }

    #[test]
    fn events_fire_exactly_on_the_boundary() {
        let script = ScenarioScript::new().fail_node(t(8), NodeId(1));
        let mut w = World::new(2, NodeId(0), script);
        // One microsecond early: nothing fires.
        assert!(w
            .advance_to(t(8) - SimDuration::from_micros(1))
            .fired
            .is_empty());
        // Exactly on the timestamp: fires.
        assert_eq!(w.advance_to(t(8)).failed, 1);
    }

    #[test]
    #[should_panic(expected = "coordinator cannot fail")]
    fn scripting_the_coordinators_death_is_rejected() {
        World::new(
            4,
            NodeId(0),
            ScenarioScript::new().fail_node(t(1), NodeId(0)),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_nodes_are_rejected() {
        World::new(
            4,
            NodeId(0),
            ScenarioScript::new().fail_node(t(1), NodeId(9)),
        );
    }

    #[test]
    #[should_panic(expected = "scripted link endpoint out of range")]
    fn link_drift_to_a_node_outside_the_fixed_set_is_rejected() {
        // The node set is fixed for the world's lifetime: node 4 of a
        // 4-node world never exists, however late the drift fires.
        World::new(
            4,
            NodeId(0),
            ScenarioScript::new().drift_link(t(60), NodeId(3), NodeId(4), 0.9),
        );
    }

    #[test]
    #[should_panic(expected = "two distinct endpoints")]
    fn self_link_drift_is_rejected() {
        World::new(
            4,
            NodeId(0),
            ScenarioScript::new().drift_link(t(1), NodeId(2), NodeId(2), 0.5),
        );
    }

    #[test]
    #[should_panic(expected = "PRR must be in [0, 1]")]
    fn drift_prr_outside_the_unit_interval_is_rejected() {
        World::new(
            4,
            NodeId(0),
            ScenarioScript::new().drift_link(t(1), NodeId(1), NodeId(2), 1.5),
        );
    }
}
