//! Per-(array config, layer shape) memoization of layer simulations.
//!
//! No search path uses this: the cycle model is analytical per fold and
//! costs less than a map lookup, so `DssocEvaluator` calls
//! [`Simulator::simulate_network`] directly. [`LayerMemo`] remains only
//! for the benchmark's `systolic.memo_sim_s` replay, which times a fresh
//! memo against the plain simulator over the same recorded networks.

use autopilot_shard::ShardedMap;

use crate::config::ArrayConfig;
use crate::dataflow::Dataflow;
use crate::layer::Layer;
use crate::report::{LayerStats, NetworkStats};
use crate::sim::Simulator;

/// Everything that determines a layer's cycle/traffic statistics — the
/// array configuration minus the clock (LayerStats is clock-independent,
/// so frequency-scaling sweeps hit the same entries) plus the layer
/// shape. The DRAM bandwidth is keyed by bit pattern; configurations
/// validate it as positive and finite, so `NaN` never reaches the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    rows: usize,
    cols: usize,
    ifmap_sram_bytes: usize,
    filter_sram_bytes: usize,
    ofmap_sram_bytes: usize,
    dataflow: Dataflow,
    dram_bandwidth_bits: u64,
    word_bytes: usize,
    layer: Layer,
}

impl MemoKey {
    fn new(config: &ArrayConfig, layer: &Layer) -> MemoKey {
        MemoKey {
            rows: config.rows(),
            cols: config.cols(),
            ifmap_sram_bytes: config.ifmap_sram_bytes(),
            filter_sram_bytes: config.filter_sram_bytes(),
            ofmap_sram_bytes: config.ofmap_sram_bytes(),
            dataflow: config.dataflow(),
            dram_bandwidth_bits: config.dram_bandwidth_bytes_per_cycle().to_bits(),
            word_bytes: config.word_bytes(),
            layer: *layer,
        }
    }
}

/// Thread-safe, unbounded memo of layer simulations, keyed by the
/// timing-relevant configuration knobs and the layer shape.
///
/// Results are bit-identical to simulating directly: the simulator is
/// deterministic, so a cached [`LayerStats`] is exactly what a re-run
/// would produce, and [`NetworkStats`] still takes its clock from the
/// simulator at hand. A disabled memo delegates every call straight to
/// the simulator.
#[derive(Debug)]
pub struct LayerMemo {
    map: ShardedMap<MemoKey, LayerStats>,
    disabled: bool,
}

/// Shard fan-out of the memo's map.
const MEMO_SHARDS: usize = 8;

impl LayerMemo {
    /// Creates an empty memo, switched on or off explicitly.
    pub fn with_enabled(enabled: bool) -> LayerMemo {
        LayerMemo { map: ShardedMap::new(MEMO_SHARDS, 0), disabled: !enabled }
    }

    /// Simulates `layer` under `sim`'s configuration, serving repeats of
    /// the same (config, layer) pair from the memo.
    fn simulate_layer(&self, sim: &Simulator, layer: &Layer) -> LayerStats {
        if self.disabled {
            return sim.simulate_layer(layer);
        }
        let key = MemoKey::new(sim.config(), layer);
        self.map.get_or_insert_with(key, || sim.simulate_layer(layer)).0
    }

    /// Simulates every layer of `network` in order through the memo. The
    /// clock comes from `sim`, so the same memo serves every point of a
    /// frequency-scaling sweep.
    pub fn simulate_network(&self, sim: &Simulator, network: &[Layer]) -> NetworkStats {
        NetworkStats {
            layers: network.iter().map(|l| self.simulate_layer(sim, l)).collect(),
            clock_mhz: sim.config().clock_mhz(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::dataflow::Dataflow;
    use autopilot_shard::CacheStats;

    fn sim(rows: usize, cols: usize) -> Simulator {
        Simulator::new(ArrayConfig::builder().rows(rows).cols(cols).build().unwrap())
    }

    #[test]
    fn memoized_stats_equal_direct_simulation() {
        let memo = LayerMemo::with_enabled(true);
        let s = sim(16, 16);
        let layers =
            [Layer::conv2d(32, 32, 3, 16, 3, 2, 1), Layer::dense(1024, 25), Layer::dense(1024, 25)];
        for l in &layers {
            let direct = s.simulate_layer(l);
            let memoized = memo.simulate_layer(&s, l);
            assert_eq!(direct, memoized);
            // Second call must hit and return the identical stats.
            assert_eq!(memo.simulate_layer(&s, l), direct);
        }
        let st = memo.map.stats();
        assert_eq!(st.entries, 2, "duplicate dense layer shares one entry");
        assert_eq!(st.misses, 2);
        assert_eq!(st.hits, 4);
    }

    #[test]
    fn network_stats_match_plain_simulator() {
        let memo = LayerMemo::with_enabled(true);
        let s = sim(32, 32);
        let net = [Layer::conv2d(84, 84, 3, 32, 3, 2, 1), Layer::dense(4096, 25)];
        assert_eq!(memo.simulate_network(&s, &net), s.simulate_network(&net));
        assert_eq!(memo.simulate_network(&s, &net), s.simulate_network(&net));
    }

    #[test]
    fn different_configs_do_not_collide() {
        let memo = LayerMemo::with_enabled(true);
        let layer = Layer::conv2d(32, 32, 3, 16, 3, 2, 1);
        let a = memo.simulate_layer(&sim(16, 16), &layer);
        let b = memo.simulate_layer(&sim(64, 64), &layer);
        assert_ne!(a.compute_cycles, b.compute_cycles);
        assert_eq!(memo.map.stats().entries, 2);
        let df = Simulator::new(
            ArrayConfig::builder()
                .rows(16)
                .cols(16)
                .dataflow(Dataflow::WeightStationary)
                .build()
                .unwrap(),
        );
        let c = memo.simulate_layer(&df, &layer);
        assert_eq!(memo.map.stats().entries, 3);
        assert_eq!(c, df.simulate_layer(&layer));
    }

    #[test]
    fn clock_change_hits_the_same_entry() {
        let memo = LayerMemo::with_enabled(true);
        let base = ArrayConfig::builder().rows(16).cols(16).clock_mhz(200.0).build().unwrap();
        let fast = base.with_clock_mhz(800.0).unwrap();
        let net = [Layer::dense(1024, 25)];
        let slow_stats = memo.simulate_network(&Simulator::new(base), &net);
        let fast_stats = memo.simulate_network(&Simulator::new(fast), &net);
        assert_eq!(memo.map.stats().entries, 1, "clock must not be part of the memo key");
        assert_eq!(memo.map.stats().hits, 1);
        assert_eq!(slow_stats.total_cycles(), fast_stats.total_cycles());
        assert!(fast_stats.fps() > slow_stats.fps());
    }

    #[test]
    fn disabled_memo_caches_nothing() {
        let memo = LayerMemo::with_enabled(false);
        let s = sim(16, 16);
        let layer = Layer::dense(512, 25);
        let a = memo.simulate_layer(&s, &layer);
        let b = memo.simulate_layer(&s, &layer);
        assert_eq!(a, b);
        assert_eq!(memo.map.stats(), CacheStats::default());
    }
}
