//! # systolic-sim
//!
//! A cycle-accurate systolic-array DNN accelerator simulator in the spirit of
//! [SCALE-Sim] (Samajdar et al., ISPASS 2020), used by the AutoPilot
//! reproduction as the Phase-2 performance-estimation substrate.
//!
//! The simulator models:
//!
//! * a rectangular array of multiply-accumulate processing elements (PEs),
//! * three classic dataflows ([`Dataflow::OutputStationary`],
//!   [`Dataflow::WeightStationary`], [`Dataflow::InputStationary`]),
//! * double-buffered scratchpads for input feature maps, filters, and output
//!   feature maps,
//! * a bandwidth-limited DRAM interface with prefetch overlap, and
//! * per-layer SRAM/DRAM access counts suitable for driving a power model.
//!
//! Networks are described as sequences of [`Layer`]s (convolutions are
//! lowered to GEMM via im2col, exactly as SCALE-Sim does) and simulated with
//! [`Simulator::simulate_network`].
//!
//! # Example
//!
//! ```
//! use systolic_sim::{ArrayConfig, Dataflow, Layer, Simulator};
//!
//! # fn main() -> Result<(), systolic_sim::ConfigError> {
//! let config = ArrayConfig::builder()
//!     .rows(32)
//!     .cols(32)
//!     .ifmap_sram_kb(128)
//!     .filter_sram_kb(128)
//!     .ofmap_sram_kb(64)
//!     .dataflow(Dataflow::OutputStationary)
//!     .build()?;
//! let sim = Simulator::new(config);
//! let layer = Layer::conv2d(56, 56, 32, 64, 3, 1, 1);
//! let stats = sim.simulate_layer(&layer);
//! assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! [SCALE-Sim]: https://github.com/ARM-software/SCALE-Sim

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod dataflow;
pub mod engine;
mod error;
pub mod export;
mod layer;
mod memo;
mod memory;
pub mod presets;
mod report;
mod sim;
mod trace;

pub use config::{ArrayConfig, ArrayConfigBuilder};
pub use dataflow::{Dataflow, FoldPlan};
pub use error::ConfigError;
pub use layer::{GemmShape, Layer};
pub use memo::LayerMemo;
pub use memory::{BufferKind, ScratchpadPlan};
pub use report::{LayerStats, NetworkStats};
pub use sim::Simulator;
pub use trace::{TraceEvent, TraceIter};
