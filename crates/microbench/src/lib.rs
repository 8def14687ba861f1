//! # pvc-microbench — the seven microbenchmarks of Table I
//!
//! Each module reproduces one benchmark of the paper's §IV, runnable at
//! the three explicit-scaling levels of Table II ("One Stack", "One PVC",
//! full node):
//!
//! | module       | paper benchmark                      | element |
//! |--------------|--------------------------------------|---------|
//! | [`peakflops`] | chain-of-FMA peak compute (§IV-A1)  | Table II rows 1–2 |
//! | [`membw`]     | STREAM triad HBM bandwidth (§IV-A2) | Table II row 3 |
//! | [`pcie`]      | host↔device transfers (§IV-A3)      | Table II rows 4–6 |
//! | [`p2p`]       | stack-to-stack MPI (§IV-A4)         | Table III |
//! | [`gemmbench`] | oneMKL GEMM, 6 precisions (§IV-A5)  | Table II rows 7–12 |
//! | [`fftbench`]  | oneMKL FFT 1D/2D (§IV-A6)           | Table II rows 13–14 |
//! | [`latsbench`] | `lats` pointer chase (§IV-A7)       | Figure 1 |
//!
//! Each benchmark evaluates the performance model that produces the
//! published numbers. The real kernels the models stand for (FMA chain,
//! triad, GEMM, FFT) live in `pvc-kernels`, whose tests verify them.

pub mod catalog;
pub mod fftbench;
pub mod gemmbench;
pub mod latsbench;
pub mod membw;
pub mod p2p;
pub mod pcie;
pub mod peakflops;

/// A Table II row triplet: per-aggregate values at the three scaling
/// levels ("One Stack", "One PVC", full node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleTriplet {
    /// One explicit-scaling partition busy.
    pub one_stack: f64,
    /// Both stacks of one card busy (aggregate).
    pub one_pvc: f64,
    /// Every partition of the node busy (aggregate).
    pub full_node: f64,
}

impl ScaleTriplet {
    /// Builds the triplet from a per-partition rate function evaluated at
    /// the Table II activity levels of `system`.
    pub fn from_rate(system: pvc_arch::System, rate: impl Fn(u32) -> f64) -> Self {
        let node = system.node();
        let per_card = node.gpu.partitions;
        let all = node.partitions();
        ScaleTriplet {
            one_stack: rate(1),
            one_pvc: rate(per_card) * per_card as f64,
            full_node: rate(all) * all as f64,
        }
    }

    /// Scaling efficiency of the full-node column vs perfect scaling of
    /// the single-partition value (the percentages quoted in §IV-B1).
    pub fn node_efficiency(&self, partitions: u32) -> f64 {
        self.full_node / (self.one_stack * partitions as f64)
    }
}
