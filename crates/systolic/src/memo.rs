//! Per-(array config, layer shape) memoization of layer simulations.
//!
//! A [`crate::report::LayerStats`] is a pure function of the array
//! configuration's timing-relevant knobs and the layer shape — the clock
//! only enters at the network level, when cycles are converted to
//! seconds. Joint NN×accelerator design-space exploration therefore
//! re-simulates the same (config, layer) pair many times: candidate
//! networks share conv/FC layer shapes, and Phase-3 frequency scaling
//! sweeps the clock across an otherwise identical configuration. The
//! [`LayerMemo`] caches each pair once and serves every repeat from the
//! map, one level below the per-design-point candidate cache.
//!
//! The memo only builds keys: storage, the get-or-compute race and the
//! counting all live in [`autopilot_shard::ShardedMap`], N-way sharded
//! by key hash with per-shard locks, so a memo promoted to process
//! lifetime (the DSE server shares one across every job) scales with
//! concurrent tenants. Entries are tagged with the inserting job's
//! owner id; a hit served from *another* owner's entry counts as a
//! **cross-run hit** (`systolic.memo.cross_run_hits`), the number that
//! proves tenants are serving each other's simulated layers.

use autopilot_obs as obs;
use autopilot_shard::{CacheStats, ShardedMap};

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

/// Thread-safe memo of layer simulations, keyed by the timing-relevant
/// configuration knobs and the layer shape.
///
/// Results are bit-identical to simulating directly: the simulator is
/// deterministic, so a cached [`LayerStats`] is exactly what a re-run
/// would produce, and [`NetworkStats`] still takes its clock from the
/// simulator at hand (a memo shared across clocks stays correct). The
/// simulation obs counters (`systolic.layers`, cycle and traffic
/// totals) are only recorded on a miss — they keep counting *actual*
/// simulations — while `systolic.memo.hits`/`systolic.memo.misses`
/// record the memo traffic itself.
///
/// A disabled memo ([`LayerMemo::with_enabled`]`(false)`) delegates
/// every call straight to the simulator. Constructors never read the
/// environment; the `AUTOPILOT_LAYER_MEMO` startup gate
/// ([`LayerMemo::env_default_enabled`]) reaches runs only through the
/// core crate's `JobConfig::from_env`.
#[derive(Debug)]
pub struct LayerMemo {
    map: ShardedMap<MemoKey, LayerStats>,
    disabled: bool,
}

/// Shard fan-out for every memo; per-run memos stay tiny, and the
/// process-lifetime server memo wants contention spread across jobs.
const MEMO_SHARDS: usize = 8;

impl Default for LayerMemo {
    fn default() -> LayerMemo {
        LayerMemo::new()
    }
}

impl LayerMemo {
    /// Creates an empty, unbounded, enabled memo.
    pub fn new() -> LayerMemo {
        LayerMemo::with_enabled(true)
    }

    /// The `AUTOPILOT_LAYER_MEMO` startup default: `false` when the
    /// variable was `0`/`off`/`false` at its first read this process.
    /// Only the core crate's `JobConfig::from_env` reads it.
    pub fn env_default_enabled() -> bool {
        static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let raw = obs::env_once("AUTOPILOT_LAYER_MEMO");
        *CACHED.get_or_init(|| !matches!(raw.as_deref(), Some("0") | Some("off") | Some("false")))
    }

    /// Creates an unbounded memo, switched on or off explicitly.
    pub fn with_enabled(enabled: bool) -> LayerMemo {
        LayerMemo {
            map: ShardedMap::new(MEMO_SHARDS, 0).with_obs_prefix("systolic.memo"),
            disabled: !enabled,
        }
    }

    /// True when lookups actually consult the cache.
    pub fn enabled(&self) -> bool {
        !self.disabled
    }

    /// Simulates `layer` under `sim`'s configuration, serving repeats of
    /// the same (config, layer) pair from the memo. Single-tenant entry
    /// point: everything is owner 0, so no cross-run hits are counted.
    pub fn simulate_layer(&self, sim: &Simulator, layer: &Layer) -> LayerStats {
        self.simulate_layer_as(0, sim, layer)
    }

    /// Like [`LayerMemo::simulate_layer`], attributing inserts to
    /// `owner` (a job id). A hit on an entry inserted by a different
    /// owner counts toward `systolic.memo.cross_run_hits`: one tenant's
    /// simulation served another's lookup.
    pub fn simulate_layer_as(&self, owner: u64, sim: &Simulator, layer: &Layer) -> LayerStats {
        if self.disabled {
            return sim.simulate_layer(layer);
        }
        let key = MemoKey::new(sim.config(), layer);
        let simulate = || obs::time("systolic.layer_sim", || sim.simulate_layer(layer));
        self.map.get_or_insert_with(key, owner, simulate).0
    }

    /// Simulates every layer of `network` in order through the memo. The
    /// clock comes from `sim`, so the same memo serves every point of a
    /// frequency-scaling sweep.
    pub fn simulate_network(&self, sim: &Simulator, network: &[Layer]) -> NetworkStats {
        self.simulate_network_as(0, sim, network)
    }

    /// Like [`LayerMemo::simulate_network`], attributing the lookups to
    /// `owner` for cross-run accounting.
    pub fn simulate_network_as(
        &self,
        owner: u64,
        sim: &Simulator,
        network: &[Layer],
    ) -> NetworkStats {
        let _span = obs::span("systolic.network");
        NetworkStats {
            layers: network.iter().map(|l| self.simulate_layer_as(owner, sim, l)).collect(),
            clock_mhz: sim.config().clock_mhz(),
        }
    }

    /// Snapshots hit/miss/entry counters.
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::dataflow::Dataflow;

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
        let st = memo.stats();
        assert_eq!(st.entries, 2, "duplicate dense layer shares one entry");
        assert_eq!(st.misses, 2);
        assert_eq!(st.hits, 4);
        assert!((st.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
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
        assert_eq!(memo.stats().entries, 2);
        let df = Simulator::new(
            ArrayConfig::builder()
                .rows(16)
                .cols(16)
                .dataflow(Dataflow::WeightStationary)
                .build()
                .unwrap(),
        );
        let c = memo.simulate_layer(&df, &layer);
        assert_eq!(memo.stats().entries, 3);
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
        assert_eq!(memo.stats().entries, 1, "clock must not be part of the memo key");
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(slow_stats.total_cycles(), fast_stats.total_cycles());
        assert!(fast_stats.fps() > slow_stats.fps());
    }

    #[test]
    fn disabled_memo_caches_nothing() {
        let memo = LayerMemo::with_enabled(false);
        assert!(!memo.enabled());
        let s = sim(16, 16);
        let layer = Layer::dense(512, 25);
        let a = memo.simulate_layer(&s, &layer);
        let b = memo.simulate_layer(&s, &layer);
        assert_eq!(a, b);
        assert_eq!(memo.stats(), CacheStats::default());
    }

    #[test]
    fn cross_run_hits_attributed_by_owner() {
        let memo = LayerMemo::with_enabled(true);
        let s = sim(16, 16);
        let layer = Layer::dense(512, 25);
        memo.simulate_layer_as(1, &s, &layer); // miss: owner 1 inserts
        memo.simulate_layer_as(1, &s, &layer); // same-owner hit
        memo.simulate_layer_as(2, &s, &layer); // cross-run hit for owner 2
        let st = memo.stats();
        assert_eq!((st.hits, st.misses), (2, 1));
        assert_eq!(st.cross_run_hits, 1, "owner-2 hit on an owner-1 entry");
        // The owner-0 convenience path never counts cross-run traffic
        // against itself.
        let solo = LayerMemo::with_enabled(true);
        solo.simulate_layer(&s, &layer);
        solo.simulate_layer(&s, &layer);
        assert_eq!(solo.stats().cross_run_hits, 0);
    }
}
