//! Device/system query: serialisable summaries of every model constant
//! (a `clinfo`-style JSON dump for external tooling).

use crate::device::GpuModel;
use crate::node::NodeModel;
use crate::precision::Precision;
use crate::systems::System;
use pvc_core::json::Json;

/// Serialisable per-precision peak entry.
#[derive(Debug, Clone)]
pub struct PeakEntry {
    pub precision: String,
    pub vector_flops: f64,
    pub matrix_flops: f64,
}

/// Serialisable cache-level summary.
#[derive(Debug, Clone)]
pub struct CacheSummary {
    pub name: String,
    pub size_bytes: u64,
    pub per_compute_unit: bool,
    pub latency_cycles: f64,
}

/// Serialisable device summary.
#[derive(Debug, Clone)]
pub struct DeviceSummary {
    pub name: String,
    pub partitions: u32,
    pub partition_kind: String,
    pub compute_units: u32,
    pub vector_engines: u32,
    pub matrix_engines: u32,
    pub max_clock_ghz: f64,
    pub fp64_clock_ghz: f64,
    pub peaks_per_partition: Vec<PeakEntry>,
    pub caches: Vec<CacheSummary>,
    pub hbm_capacity_bytes: u64,
    pub hbm_spec_bandwidth: f64,
    pub hbm_stream_bandwidth: f64,
    pub hbm_latency_cycles: f64,
}

/// Serialisable node summary.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    pub system: String,
    pub sockets: u32,
    pub cpu: String,
    pub cores_per_socket: u32,
    pub gpus: u32,
    pub gpu_power_cap_w: f64,
    pub partitions: u32,
    pub device: DeviceSummary,
}

/// Builds the summary of a GPU model.
pub fn summarise_device(gpu: &GpuModel) -> DeviceSummary {
    let peaks = [
        Precision::Fp64,
        Precision::Fp32,
        Precision::Fp16,
        Precision::Bf16,
        Precision::Tf32,
        Precision::Int8,
    ]
    .iter()
    .map(|&p| PeakEntry {
        precision: p.to_string(),
        vector_flops: gpu.vector_peak_per_partition(p, 1),
        matrix_flops: gpu.matrix_peak_per_partition(p, 1),
    })
    .collect();
    DeviceSummary {
        name: gpu.name.to_string(),
        partitions: gpu.partitions,
        partition_kind: gpu.partition.kind.to_string(),
        compute_units: gpu.partition.compute_units,
        vector_engines: gpu.partition.vector_engines(),
        matrix_engines: gpu.partition.matrix_engines(),
        max_clock_ghz: gpu.clock.max_ghz,
        fp64_clock_ghz: gpu.clock.fp64_vector_ghz,
        peaks_per_partition: peaks,
        caches: gpu
            .partition
            .caches
            .iter()
            .map(|c| CacheSummary {
                name: c.name.to_string(),
                size_bytes: c.size_bytes,
                per_compute_unit: c.per_compute_unit,
                latency_cycles: c.latency_cycles,
            })
            .collect(),
        hbm_capacity_bytes: gpu.partition.memory.capacity_bytes,
        hbm_spec_bandwidth: gpu.partition.memory.spec_bandwidth,
        hbm_stream_bandwidth: gpu.partition.memory.stream_bandwidth(),
        hbm_latency_cycles: gpu.partition.memory.latency_cycles,
    }
}

/// Builds the summary of a node.
pub fn summarise_node(node: &NodeModel) -> NodeSummary {
    NodeSummary {
        system: node.name.to_string(),
        sockets: node.sockets,
        cpu: node.cpu.name.to_string(),
        cores_per_socket: node.cpu.cores,
        gpus: node.gpus,
        gpu_power_cap_w: node.gpu_power_cap_w,
        partitions: node.partitions(),
        device: summarise_device(&node.gpu),
    }
}

impl PeakEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("precision", Json::str(&self.precision)),
            ("vector_flops", Json::Num(self.vector_flops)),
            ("matrix_flops", Json::Num(self.matrix_flops)),
        ])
    }
}

impl CacheSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("size_bytes", Json::Int(self.size_bytes as i64)),
            ("per_compute_unit", Json::Bool(self.per_compute_unit)),
            ("latency_cycles", Json::Num(self.latency_cycles)),
        ])
    }
}

impl DeviceSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("partitions", Json::Int(self.partitions as i64)),
            ("partition_kind", Json::str(&self.partition_kind)),
            ("compute_units", Json::Int(self.compute_units as i64)),
            ("vector_engines", Json::Int(self.vector_engines as i64)),
            ("matrix_engines", Json::Int(self.matrix_engines as i64)),
            ("max_clock_ghz", Json::Num(self.max_clock_ghz)),
            ("fp64_clock_ghz", Json::Num(self.fp64_clock_ghz)),
            (
                "peaks_per_partition",
                Json::Arr(self.peaks_per_partition.iter().map(PeakEntry::to_json).collect()),
            ),
            (
                "caches",
                Json::Arr(self.caches.iter().map(CacheSummary::to_json).collect()),
            ),
            ("hbm_capacity_bytes", Json::Int(self.hbm_capacity_bytes as i64)),
            ("hbm_spec_bandwidth", Json::Num(self.hbm_spec_bandwidth)),
            ("hbm_stream_bandwidth", Json::Num(self.hbm_stream_bandwidth)),
            ("hbm_latency_cycles", Json::Num(self.hbm_latency_cycles)),
        ])
    }
}

impl NodeSummary {
    /// JSON tree of this summary.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("system", Json::str(&self.system)),
            ("sockets", Json::Int(self.sockets as i64)),
            ("cpu", Json::str(&self.cpu)),
            ("cores_per_socket", Json::Int(self.cores_per_socket as i64)),
            ("gpus", Json::Int(self.gpus as i64)),
            ("gpu_power_cap_w", Json::Num(self.gpu_power_cap_w)),
            ("partitions", Json::Int(self.partitions as i64)),
            ("device", self.device.to_json()),
        ])
    }
}

/// The summaries of all four systems, as one JSON array.
pub fn systems() -> Json {
    Json::Arr(System::ALL.iter().map(|s| summarise_node(&s.node()).to_json()).collect())
}

/// [`systems`], pretty-printed.
pub fn systems_json() -> String {
    systems().pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_capture_the_key_numbers() {
        let s = summarise_node(&System::Aurora.node());
        assert_eq!(s.partitions, 12);
        assert_eq!(s.device.vector_engines, 448);
        let fp64 = s
            .device
            .peaks_per_partition
            .iter()
            .find(|p| p.precision == "FP64")
            .unwrap();
        assert!((fp64.vector_flops / 1e12 - 17.2).abs() < 0.1);
    }

    #[test]
    fn json_dump_contains_all_four_systems() {
        let j = systems_json();
        for label in ["Aurora", "Dawn", "H100", "MI250"] {
            assert!(j.contains(label), "{label} missing");
        }
        assert!(j.contains("\"vector_engines\": 448"));
    }
}
