//! A deterministic in-memory network simulator.
//!
//! The paper's evaluation ran alice and bob on a physical cluster; this
//! reproduction exchanges the same messages through a simulated network
//! (see the substitution table in DESIGN.md). The simulator is a discrete
//! event queue with configurable latency jitter, loss, duplication,
//! directed partitions (blackholes with an optional heal step), bounded
//! random multi-step delay, and extra reorder jitter — all driven by a
//! seeded RNG so every test and benchmark is reproducible. The fault
//! knobs default to off and draw from the RNG only when enabled, so a
//! fault-free configuration replays byte-for-byte the same schedule it
//! did before the fault plane existed.

use crate::node::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A message in flight: opaque payload bytes between two nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Serialized payload (the trust layer uses the canonical text of
    /// rules and tuples).
    pub payload: Vec<u8>,
}

/// Network behaviour knobs. The default is a perfect network (zero
/// latency spread, no loss) so unit tests are exact; integration tests
/// and benches turn the dials.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Minimum one-way latency in simulated microseconds.
    pub latency_min: u64,
    /// Maximum one-way latency (inclusive). Jitter reorders messages.
    pub latency_max: u64,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is duplicated.
    pub duplicate_prob: f64,
    /// Probability a message is held for a bounded number of steps
    /// (see [`SimNetwork::begin_step`]) before entering the delivery
    /// queue. Zero (the default) draws nothing from the RNG.
    pub delay_prob: f64,
    /// Upper bound (inclusive) on the random hold, in steps. A held
    /// message released at step `s` is delivered with fresh latency.
    pub delay_steps_max: u64,
    /// Probability an enqueued message gets extra reorder jitter on
    /// top of its latency draw. Zero (the default) draws nothing.
    pub reorder_prob: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency_min: 1,
            latency_max: 1,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            delay_steps_max: 0,
            reorder_prob: 0.0,
        }
    }
}

/// Counters the harness reports (message counts drive Figure 2's x-axis).
/// The network's only record of them: a runtime that keeps a metrics
/// registry copies these totals into it when the registry is read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages accepted by `send`.
    pub sent: usize,
    /// Messages handed to receivers.
    pub delivered: usize,
    /// Messages dropped by the loss model.
    pub dropped: usize,
    /// Extra deliveries from duplication.
    pub duplicated: usize,
    /// Messages swallowed by an active partition (never enqueued).
    pub blackholed: usize,
    /// Messages held by the delay model before delivery.
    pub delayed: usize,
    /// Messages given extra reorder jitter.
    pub reordered: usize,
    /// Total payload bytes accepted.
    pub bytes_sent: usize,
}

/// The discrete-event network simulator.
#[derive(Debug)]
pub struct SimNetwork {
    config: NetworkConfig,
    rng: StdRng,
    clock: u64,
    seq: u64,
    /// Min-heap on (delivery time, sequence) for deterministic order.
    queue: BinaryHeap<Reverse<(u64, u64, QueuedEnvelope)>>,
    /// Step counter advanced by [`SimNetwork::begin_step`]; drives
    /// partition healing and delayed-message release.
    step: u64,
    /// Directed blackholes: `(from, to)` → heal at step (`None` =
    /// until healed explicitly).
    partitions: HashMap<(NodeId, NodeId), Option<u64>>,
    /// Messages held by the delay model, min-heap on (release step,
    /// sequence). Released into `queue` by `begin_step`.
    held: BinaryHeap<Reverse<(u64, u64, QueuedEnvelope)>>,
    stats: NetworkStats,
}

/// Envelope wrapper ordered by its position in the tuple above; the
/// derive gives a total order (required by `BinaryHeap`) but delivery
/// order is decided by time and sequence alone because sequence numbers
/// are unique.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedEnvelope {
    from: NodeId,
    to: NodeId,
    payload: Vec<u8>,
}

impl SimNetwork {
    /// Creates a simulator with the given behaviour and RNG seed.
    pub fn new(config: NetworkConfig, seed: u64) -> SimNetwork {
        SimNetwork {
            config,
            rng: StdRng::seed_from_u64(seed),
            clock: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            step: 0,
            partitions: HashMap::new(),
            held: BinaryHeap::new(),
            stats: NetworkStats::default(),
        }
    }

    /// A perfect network (no loss, fixed latency) with a fixed seed.
    pub fn perfect() -> SimNetwork {
        SimNetwork::new(NetworkConfig::default(), 0)
    }

    /// Current simulated time (microseconds).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Whether any message is still in flight (including messages the
    /// delay model is holding for a future step).
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty() || !self.held.is_empty()
    }

    /// Number of messages in flight (held ones included).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.held.len()
    }

    /// The current step (advanced by [`SimNetwork::begin_step`]).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Advances the step counter, heals partitions whose heal step is
    /// due, and releases delay-held messages whose step arrived into
    /// the delivery queue (with a fresh latency draw). The runtime
    /// calls this once per quiescence step; simulations without
    /// partitions or delays are unaffected (no RNG draws).
    pub fn begin_step(&mut self) {
        self.step += 1;
        let step = self.step;
        self.partitions
            .retain(|_, heal_at| heal_at.map(|h| h > step).unwrap_or(true));
        while let Some(Reverse((release, _, _))) = self.held.peek() {
            if *release > step {
                break;
            }
            let Reverse((_, _, queued)) = self.held.pop().expect("peeked entry exists");
            self.enqueue(queued.from, queued.to, queued.payload);
        }
    }

    /// Blackholes every `from` → `to` message until healed (the
    /// reverse direction keeps flowing; partition both ways for a full
    /// cut). `heal_at_step` of `None` means until
    /// [`SimNetwork::heal_link`] / [`SimNetwork::heal_all_partitions`].
    pub fn partition(&mut self, from: NodeId, to: NodeId, heal_at_step: Option<u64>) {
        self.partitions.insert((from, to), heal_at_step);
    }

    /// Removes a directed blackhole (no-op when absent).
    pub fn heal_link(&mut self, from: NodeId, to: NodeId) {
        self.partitions.remove(&(from, to));
    }

    /// Removes every active partition.
    pub fn heal_all_partitions(&mut self) {
        self.partitions.clear();
    }

    /// Whether `from` → `to` is currently blackholed.
    pub fn is_partitioned(&self, from: NodeId, to: NodeId) -> bool {
        self.partitions.contains_key(&(from, to))
    }

    /// Number of directed blackholes currently active.
    pub fn active_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Sends `payload` from `from` to `to`, subject to the loss and
    /// duplication models. Returns `true` when the message was enqueued
    /// at least once.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) -> bool {
        self.stats.sent += 1;
        self.stats.bytes_sent += payload.len();
        if self.partitions.contains_key(&(from, to)) {
            self.stats.blackholed += 1;
            return false;
        }
        if self.config.drop_prob > 0.0 && self.rng.gen_bool(self.config.drop_prob) {
            self.stats.dropped += 1;
            return false;
        }
        if self.config.delay_prob > 0.0 && self.rng.gen_bool(self.config.delay_prob) {
            self.stats.delayed += 1;
            let hold = self.rng.gen_range(1..=self.config.delay_steps_max.max(1));
            self.seq += 1;
            self.held.push(Reverse((
                self.step + hold,
                self.seq,
                QueuedEnvelope { from, to, payload },
            )));
            return true;
        }
        self.enqueue(from, to, payload.clone());
        if self.config.duplicate_prob > 0.0 && self.rng.gen_bool(self.config.duplicate_prob) {
            self.stats.duplicated += 1;
            self.enqueue(from, to, payload);
        }
        true
    }

    fn enqueue(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        let latency = if self.config.latency_max > self.config.latency_min {
            self.rng
                .gen_range(self.config.latency_min..=self.config.latency_max)
        } else {
            self.config.latency_min
        };
        let mut deliver_at = self.clock + latency;
        if self.config.reorder_prob > 0.0 && self.rng.gen_bool(self.config.reorder_prob) {
            self.stats.reordered += 1;
            // Push the message past its cohort: jitter bounded by the
            // configured latency spread (at least 4 µs so a fixed-
            // latency config still reorders).
            let spread = self.config.latency_max.max(4);
            deliver_at += self.rng.gen_range(1..=spread);
        }
        self.seq += 1;
        self.queue.push(Reverse((
            deliver_at,
            self.seq,
            QueuedEnvelope { from, to, payload },
        )));
    }

    /// Delivers the next message in simulated-time order, advancing the
    /// clock to its delivery time.
    pub fn deliver_next(&mut self) -> Option<Envelope> {
        let Reverse((time, _, queued)) = self.queue.pop()?;
        self.clock = self.clock.max(time);
        self.stats.delivered += 1;
        Some(Envelope {
            from: queued.from,
            to: queued.to,
            payload: queued.payload,
        })
    }

    /// Drains every in-flight message in delivery order.
    pub fn deliver_all(&mut self) -> Vec<Envelope> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(env) = self.deliver_next() {
            out.push(env);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(name: &str) -> NodeId {
        NodeId::new(name)
    }

    #[test]
    fn perfect_network_delivers_in_order() {
        let mut net = SimNetwork::perfect();
        net.send(n("a"), n("b"), b"one".to_vec());
        net.send(n("a"), n("b"), b"two".to_vec());
        let msgs = net.deliver_all();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].payload, b"one");
        assert_eq!(msgs[1].payload, b"two");
        assert_eq!(net.stats().delivered, 2);
        assert!(!net.has_pending());
    }

    #[test]
    fn clock_advances_with_latency() {
        let mut net = SimNetwork::new(
            NetworkConfig {
                latency_min: 50,
                latency_max: 50,
                ..NetworkConfig::default()
            },
            7,
        );
        net.send(n("a"), n("b"), b"x".to_vec());
        assert_eq!(net.now(), 0);
        net.deliver_next().unwrap();
        assert_eq!(net.now(), 50);
    }

    #[test]
    fn loss_model_drops() {
        let mut net = SimNetwork::new(
            NetworkConfig {
                drop_prob: 1.0,
                ..NetworkConfig::default()
            },
            1,
        );
        assert!(!net.send(n("a"), n("b"), b"x".to_vec()));
        assert_eq!(net.stats().dropped, 1);
        assert!(!net.has_pending());
    }

    #[test]
    fn duplication_model() {
        let mut net = SimNetwork::new(
            NetworkConfig {
                duplicate_prob: 1.0,
                ..NetworkConfig::default()
            },
            2,
        );
        net.send(n("a"), n("b"), b"x".to_vec());
        assert_eq!(net.deliver_all().len(), 2);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn jitter_reorders_deterministically() {
        let config = NetworkConfig {
            latency_min: 1,
            latency_max: 1000,
            ..NetworkConfig::default()
        };
        let run = |seed: u64| -> Vec<Vec<u8>> {
            let mut net = SimNetwork::new(config, seed);
            for i in 0..20u8 {
                net.send(n("a"), n("b"), vec![i]);
            }
            net.deliver_all().into_iter().map(|e| e.payload).collect()
        };
        // Deterministic per seed.
        assert_eq!(run(42), run(42));
        // Some seed reorders (42 does; if jitter never reordered, the
        // simulation would be pointless).
        let order = run(42);
        let sorted: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i]).collect();
        assert_ne!(order, sorted);
        // All messages still arrive.
        let mut sorted_order = order.clone();
        sorted_order.sort();
        assert_eq!(sorted_order, sorted);
    }

    #[test]
    fn partitions_blackhole_directionally_and_heal_by_step() {
        let mut net = SimNetwork::perfect();
        net.partition(n("a"), n("b"), Some(2));
        assert!(net.is_partitioned(n("a"), n("b")));
        assert!(!net.send(n("a"), n("b"), b"eaten".to_vec()));
        assert!(
            net.send(n("b"), n("a"), b"reverse ok".to_vec()),
            "directed cut"
        );
        net.begin_step(); // step 1: still cut
        assert!(!net.send(n("a"), n("b"), b"still eaten".to_vec()));
        net.begin_step(); // step 2: heal due
        net.begin_step(); // step 3: healed
        assert!(net.send(n("a"), n("b"), b"flows".to_vec()));
        assert_eq!(net.stats().blackholed, 2);
        assert_eq!(net.active_partitions(), 0);
        // sent counts blackholed attempts; delivered excludes them.
        let delivered = net.deliver_all().len();
        let s = net.stats();
        assert_eq!(delivered, s.sent - s.dropped - s.blackholed);
    }

    #[test]
    fn manual_heal_reopens_link() {
        let mut net = SimNetwork::perfect();
        net.partition(n("a"), n("b"), None);
        assert!(!net.send(n("a"), n("b"), b"x".to_vec()));
        net.heal_all_partitions();
        assert!(net.send(n("a"), n("b"), b"x".to_vec()));
    }

    #[test]
    fn delay_model_holds_until_step_then_delivers() {
        let mut net = SimNetwork::new(
            NetworkConfig {
                delay_prob: 1.0,
                delay_steps_max: 3,
                ..NetworkConfig::default()
            },
            9,
        );
        net.send(n("a"), n("b"), b"late".to_vec());
        assert_eq!(net.stats().delayed, 1);
        assert!(net.has_pending(), "held messages are still in flight");
        assert!(net.deliver_all().is_empty(), "nothing deliverable yet");
        for _ in 0..3 {
            net.begin_step();
        }
        let msgs = net.deliver_all();
        assert_eq!(msgs.len(), 1, "released by its step at the latest");
        assert_eq!(net.stats().delivered, 1);
        assert!(!net.has_pending());
    }

    #[test]
    fn reorder_jitter_counts_and_keeps_every_message() {
        let config = NetworkConfig {
            reorder_prob: 1.0,
            ..NetworkConfig::default()
        };
        let mut net = SimNetwork::new(config, 3);
        for i in 0..10u8 {
            net.send(n("a"), n("b"), vec![i]);
        }
        let msgs = net.deliver_all();
        assert_eq!(msgs.len(), 10);
        assert_eq!(net.stats().reordered, 10);
        let mut seen: Vec<Vec<u8>> = msgs.into_iter().map(|e| e.payload).collect();
        seen.sort();
        assert_eq!(seen, (0..10u8).map(|i| vec![i]).collect::<Vec<_>>());
    }

    #[test]
    fn fault_free_config_schedule_is_unchanged_by_begin_step() {
        // begin_step with no partitions/delays must not perturb the
        // RNG stream: the same sends produce the same delivery order
        // whether or not steps are announced.
        let config = NetworkConfig {
            latency_min: 1,
            latency_max: 1000,
            drop_prob: 0.2,
            ..NetworkConfig::default()
        };
        let run = |announce: bool| -> Vec<Vec<u8>> {
            let mut net = SimNetwork::new(config, 11);
            for i in 0..30u8 {
                if announce {
                    net.begin_step();
                }
                net.send(n("a"), n("b"), vec![i]);
            }
            net.deliver_all().into_iter().map(|e| e.payload).collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stats_track_bytes() {
        let mut net = SimNetwork::perfect();
        net.send(n("a"), n("b"), vec![0u8; 100]);
        net.send(n("b"), n("a"), vec![0u8; 50]);
        assert_eq!(net.stats().bytes_sent, 150);
        assert_eq!(net.stats().sent, 2);
    }
}
