//! Fleet-level power-budget arbitration.
//!
//! [`FleetConfig::power_cap_w`](crate::fleet::FleetConfig::power_cap_w)
//! caps each node *locally*; real facility power management caps the
//! *sum* of node draws. This module is the serial heart of the
//! tick-synchronous fleet pass: every node first proposes its 60 s
//! ticks from its own deterministic `(seed, node_id)` stream (in
//! shards, on any thread), then the shard merge runs [`arbitrate`]. It
//! folds the proposals against the remaining per-tick budget in node-id
//! order and writes each node's emitted sample, the admitted proposal
//! or the node's floor, straight into the fleet's sample buffer.
//! Because the fold consumes proposals in a fixed order and touches no
//! RNG, the outcome is bitwise-identical for any shard split or thread
//! count.
//!
//! Idle floors are **unconditional**: a powered-on node draws its idle
//! floor whether or not the arbiter admits its proposal (a facility
//! cannot shed below idle without powering nodes off). The arbiter
//! therefore budgets the *increment* of each proposal over the node's
//! floor; a tick whose floors alone exceed the budget is infeasible and
//! is counted rather than hidden.

/// How the arbiter resolves a proposal that does not fit the tick's
/// remaining budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPolicy {
    /// Drop the node to its idle floor for the tick; the proposal is
    /// consumed (that node-minute of work is lost).
    #[default]
    ShedToFloor,
    /// Emit the idle floor for the tick but keep the proposal queued:
    /// the node retries it next tick, pushing the episode's remaining
    /// ticks later in wall time. Proposals still queued when the node's
    /// horizon ends are dropped and counted as truncated.
    Defer,
}

impl BudgetPolicy {
    /// Human-readable policy name (CLI/report spelling).
    pub fn name(self) -> &'static str {
        match self {
            BudgetPolicy::ShedToFloor => "shed-to-floor",
            BudgetPolicy::Defer => "defer",
        }
    }
}

/// One node's proposed tick stream plus its unconditional floor draw,
/// borrowed from the proposing shard's flat columns. The node emits
/// exactly `watts.len()` samples (its horizon); under
/// [`BudgetPolicy::Defer`] the cursor into the stream can lag behind
/// the tick index.
#[derive(Debug, Clone, Copy)]
pub struct NodeStream<'a> {
    /// The node's idle-floor draw, W (drawn even when shed).
    pub floor_w: f64,
    /// Composed node power per proposed tick if admitted, W (idle
    /// floor plus duty-cycled payload power, already clamped at the
    /// facility cap).
    pub watts: &'a [f64],
    /// Telemetry state index per proposed tick (0 = idle floor, `1..`
    /// = job classes in mix order). Same length as `watts`.
    pub states: &'a [u16],
}

/// The deterministic result of one arbitration pass.
#[derive(Debug, Clone)]
pub struct Arbitration {
    /// Emitted samples in node order: node `n`'s horizon
    /// (`nodes[n].watts.len()` ticks, each the admitted proposal or the
    /// node's floor) follows node `n - 1`'s.
    pub samples: Vec<f64>,
    /// Fleet draw per synchronized tick, W (floors plus admitted
    /// increments; infeasible ticks report their true over-budget sum).
    pub tick_draw_w: Vec<f64>,
    /// Per-state count of proposals shed to the floor
    /// ([`BudgetPolicy::ShedToFloor`] only).
    pub shed_ticks: Vec<u64>,
    /// Per-state count of tick-denials that deferred a proposal; one
    /// proposal can be deferred on several consecutive ticks
    /// ([`BudgetPolicy::Defer`] only).
    pub deferred_ticks: Vec<u64>,
    /// Proposals still queued when their node's horizon ended (defer
    /// pushed them past the end of the run).
    pub truncated_proposals: u64,
    /// Ticks whose unconditional floor draws alone exceeded the budget
    /// (no proposal can be admitted; the budget is infeasible there).
    pub infeasible_floor_ticks: u64,
}

/// Serial, node-id-ordered fold admitting proposals against a per-tick
/// fleet budget. Earlier node ids get first claim on each tick's
/// headroom — a fixed priority that keeps the fold deterministic.
///
/// `n_states` sizes the per-state counters (index 0 = floor, then the
/// job classes); every `NodeStream::states` entry must be below it.
pub fn arbitrate(
    nodes: &[NodeStream<'_>],
    budget_w: f64,
    policy: BudgetPolicy,
    n_states: usize,
) -> Arbitration {
    assert!(
        budget_w.is_finite() && budget_w > 0.0,
        "budget must be a positive wattage, got {budget_w}"
    );
    // Validate the streams once up front; the per-tick fold can then
    // index the counters unchecked (a deferred proposal would
    // otherwise be re-validated on every denial tick).
    for node in nodes {
        assert_eq!(
            node.watts.len(),
            node.states.len(),
            "proposal columns out of sync"
        );
        for (&s, &w) in node.states.iter().zip(node.watts) {
            assert!(
                (s as usize) < n_states,
                "proposal state {s} out of range ({n_states} states)"
            );
            // A proposal below the floor would make tick_draw_w (which
            // books floor_w + max(0, increment)) disagree with the
            // emitted sample; the floor is the minimum draw by
            // definition.
            assert!(
                w >= node.floor_w,
                "proposal {w} W below the node floor {} W",
                node.floor_w
            );
        }
    }
    // Node `i` emits its tick `t` at `offsets[i] + t`.
    let mut offsets = Vec::with_capacity(nodes.len());
    let mut total = 0usize;
    for node in nodes {
        offsets.push(total);
        total += node.watts.len();
    }
    let max_ticks = nodes.iter().map(|n| n.watts.len()).max().unwrap_or(0);
    let mut samples = vec![0.0f64; total];
    let mut cursor = vec![0usize; nodes.len()];
    let mut tick_draw_w = Vec::with_capacity(max_ticks);
    let mut shed_ticks = vec![0u64; n_states];
    let mut deferred_ticks = vec![0u64; n_states];
    let mut infeasible_floor_ticks = 0u64;
    for t in 0..max_ticks {
        // Floors first: they are drawn no matter what gets admitted.
        let base: f64 = nodes
            .iter()
            .filter(|n| t < n.watts.len())
            .map(|n| n.floor_w)
            .sum();
        let mut remaining = budget_w - base;
        if remaining < 0.0 {
            infeasible_floor_ticks += 1;
            remaining = 0.0;
        }
        let mut draw = base;
        for (i, node) in nodes.iter().enumerate() {
            if t >= node.watts.len() {
                continue;
            }
            // Defer may have pushed the whole remaining stream past the
            // cursor; the node then idles out its horizon.
            let mut emitted = node.floor_w;
            if let Some(&w) = node.watts.get(cursor[i]) {
                let inc = (w - node.floor_w).max(0.0);
                if inc <= remaining {
                    remaining -= inc;
                    draw += inc;
                    emitted = w;
                    cursor[i] += 1;
                } else {
                    let state = node.states[cursor[i]] as usize;
                    match policy {
                        BudgetPolicy::ShedToFloor => {
                            shed_ticks[state] += 1;
                            cursor[i] += 1;
                        }
                        BudgetPolicy::Defer => {
                            deferred_ticks[state] += 1;
                        }
                    }
                }
            }
            samples[offsets[i] + t] = emitted;
        }
        tick_draw_w.push(draw);
    }
    let truncated_proposals = nodes
        .iter()
        .zip(&cursor)
        .map(|(n, &c)| (n.watts.len() - c) as u64)
        .sum();
    Arbitration {
        samples,
        tick_draw_w,
        shed_ticks,
        deferred_ticks,
        truncated_proposals,
        infeasible_floor_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned proposal columns for one test node.
    struct Node {
        floor_w: f64,
        watts: Vec<f64>,
        states: Vec<u16>,
    }

    fn node(floor_w: f64, watts: &[f64]) -> Node {
        Node {
            floor_w,
            watts: watts.to_vec(),
            states: vec![1; watts.len()],
        }
    }

    fn run(nodes: &[Node], budget_w: f64, policy: BudgetPolicy) -> Arbitration {
        let streams: Vec<NodeStream<'_>> = nodes
            .iter()
            .map(|n| NodeStream {
                floor_w: n.floor_w,
                watts: &n.watts,
                states: &n.states,
            })
            .collect();
        arbitrate(&streams, budget_w, policy, 2)
    }

    #[test]
    fn earlier_node_ids_claim_headroom_first() {
        let nodes = vec![node(1.0, &[3.0]), node(1.0, &[3.0])];
        let arb = run(&nodes, 4.0, BudgetPolicy::ShedToFloor);
        // Base 2.0, headroom 2.0: node 0's +2.0 fits, node 1's does not.
        assert_eq!(arb.samples, vec![3.0, 1.0]);
        assert_eq!(arb.tick_draw_w, vec![4.0]);
        assert_eq!(arb.shed_ticks, vec![0, 1]);
        assert_eq!(arb.infeasible_floor_ticks, 0);
    }

    #[test]
    fn shed_consumes_the_proposal_defer_retries_it() {
        // Node 0 has a one-tick horizon; node 1 proposes a hot tick
        // that only fits once node 0 has dropped off the fleet.
        let nodes = vec![node(1.0, &[4.0]), node(1.0, &[3.5, 1.5])];
        let shed = run(&nodes, 5.0, BudgetPolicy::ShedToFloor);
        // Tick 0: base 2, node 0 admits +3, node 1's +2.5 is shed.
        // Tick 1: node 0 inactive; node 1's next proposal (+0.5) fits.
        assert_eq!(shed.samples, vec![4.0, 1.0, 1.5]);
        assert_eq!(shed.shed_ticks[1], 1);
        assert_eq!(shed.truncated_proposals, 0);

        let defer = run(&nodes, 5.0, BudgetPolicy::Defer);
        // Same tick 0, but the 3.5 W proposal is retried and admitted
        // on tick 1 (base is 1.0 once node 0's horizon ends).
        assert_eq!(defer.samples, vec![4.0, 1.0, 3.5]);
        assert_eq!(defer.deferred_ticks[1], 1);
        // The 1.5 W proposal never ran: pushed past the horizon.
        assert_eq!(defer.truncated_proposals, 1);
    }

    #[test]
    fn fleet_draw_never_exceeds_a_feasible_budget() {
        let nodes: Vec<Node> = (0..7)
            .map(|i| {
                let w: Vec<f64> = (0..40)
                    .map(|t| 2.0 + ((i * 13 + t * 7) % 17) as f64)
                    .collect();
                node(2.0, &w)
            })
            .collect();
        for policy in [BudgetPolicy::ShedToFloor, BudgetPolicy::Defer] {
            let arb = run(&nodes, 40.0, policy);
            assert_eq!(arb.infeasible_floor_ticks, 0);
            for (t, &draw) in arb.tick_draw_w.iter().enumerate() {
                assert!(draw <= 40.0 + 1e-12, "tick {t}: draw {draw} over budget");
            }
            // The recorded per-tick draw matches the emitted samples
            // (every node here has the same 40-tick horizon).
            assert_eq!(arb.samples.len(), 7 * 40);
            for (t, &draw) in arb.tick_draw_w.iter().enumerate() {
                let sum: f64 = arb.samples.chunks(40).map(|s| s[t]).sum();
                assert!((sum - draw).abs() < 1e-9, "tick {t}: {sum} != {draw}");
            }
        }
    }

    #[test]
    fn floor_only_proposals_are_always_admitted() {
        // A proposal at the floor has zero increment and always fits,
        // even with zero headroom: it is neither shed nor deferred.
        let nodes = vec![node(3.0, &[3.0, 3.0])];
        let shed = run(&nodes, 3.0, BudgetPolicy::ShedToFloor);
        assert_eq!(shed.samples, vec![3.0, 3.0]);
        assert_eq!(shed.shed_ticks, vec![0, 0]);
        let defer = run(&nodes, 3.0, BudgetPolicy::Defer);
        assert_eq!(defer.samples, vec![3.0, 3.0]);
        assert_eq!(defer.deferred_ticks, vec![0, 0]);
        assert_eq!(defer.truncated_proposals, 0);
    }

    #[test]
    fn infeasible_floors_are_counted_not_hidden() {
        let nodes = vec![node(3.0, &[5.0]), node(3.0, &[5.0])];
        let arb = run(&nodes, 5.0, BudgetPolicy::ShedToFloor);
        assert_eq!(arb.infeasible_floor_ticks, 1);
        // Floors alone already bust the budget; the honest sum is kept.
        assert_eq!(arb.tick_draw_w, vec![6.0]);
        assert_eq!(arb.samples, vec![3.0, 3.0]);
    }

    #[test]
    fn heterogeneous_horizons_keep_output_lengths() {
        let nodes = vec![node(1.0, &[2.0]), node(1.0, &[2.0, 2.5, 3.0])];
        let arb = run(&nodes, 100.0, BudgetPolicy::Defer);
        // Node 0 emits one sample, node 1 three, in node order.
        assert_eq!(arb.samples.len(), 4);
        assert_eq!(arb.tick_draw_w.len(), 3);
        // A wide-open budget admits everything in order.
        assert_eq!(arb.samples, vec![2.0, 2.0, 2.5, 3.0]);
        assert_eq!(arb.truncated_proposals, 0);
    }

    #[test]
    fn arbitration_is_deterministic() {
        let nodes: Vec<Node> = (0..5)
            .map(|i| node(1.0, &[2.0 + i as f64, 4.0, 1.0 + i as f64]))
            .collect();
        let a = run(&nodes, 9.0, BudgetPolicy::Defer);
        let b = run(&nodes, 9.0, BudgetPolicy::Defer);
        let bits = |s: &[f64]| s.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.samples), bits(&b.samples));
        assert_eq!(a.tick_draw_w, b.tick_draw_w);
    }
}
