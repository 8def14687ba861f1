//! Device query: a clinfo/nvidia-smi-style dump of every modelled GPU —
//! the §II architecture walk, in table form.
//!
//! ```text
//! cargo run --release --example device_query
//! ```

use pvc_repro::arch::power;
use pvc_repro::prelude::*;

fn dump(gpu: &pvc_repro::arch::GpuModel) {
    let p = &gpu.partition;
    println!("{}", gpu.name);
    println!("  partitions/device      : {} x {}", gpu.partitions, p.kind);
    println!("  compute units/partition: {}", p.compute_units);
    println!(
        "  vector engines         : {} ({} per CU)",
        p.vector_engines(),
        p.vector_engines_per_cu
    );
    println!(
        "  matrix engines         : {} ({} per CU)",
        p.matrix_engines(),
        p.matrix_engines_per_cu
    );
    println!(
        "  clocks                 : max {:.2} GHz, FP64 sustained {:.2} GHz",
        gpu.clock.max_ghz, gpu.clock.fp64_vector_ghz
    );
    for prec in [Precision::Fp64, Precision::Fp32, Precision::Bf16, Precision::Int8] {
        let v = gpu.vector_peak_per_partition(prec, 1);
        let m = gpu.matrix_peak_per_partition(prec, 1);
        println!(
            "  {prec:<5} peak/partition   : vector {:>7.1} {}  matrix {:>7.1} {}",
            v / 1e12,
            prec.throughput_unit(),
            m / 1e12,
            prec.throughput_unit(),
        );
    }
    for (i, c) in p.caches.iter().enumerate() {
        println!(
            "  {} ({})               : {:>8.0} KiB {} , {}-way, {} B lines, {:.0} cycles",
            c.name,
            if c.per_compute_unit { "per-CU" } else { "shared" },
            c.size_bytes as f64 / 1024.0,
            if i == 0 { "" } else { " " },
            c.associativity,
            c.line_bytes,
            c.latency_cycles
        );
    }
    let mem = &p.memory;
    println!(
        "  HBM/partition          : {:.0} GiB, spec {:.2} TB/s, stream {:.2} TB/s, {:.0} cycles, MLP {:.0}",
        mem.capacity_bytes as f64 / (1u64 << 30) as f64,
        mem.spec_bandwidth / 1e12,
        mem.stream_bandwidth() / 1e12,
        mem.latency_cycles,
        mem.random_concurrency
    );
    println!();
}

fn main() {
    println!("== Modelled devices (§II / §III / Table IV) ==\n");
    for sys in System::ALL {
        dump(&sys.node().gpu);
    }

    println!("== Node power & efficiency (extension) ==");
    println!(
        "{:<14} {:>8} {:>14} {:>14}",
        "", "cap W", "FP64 GF/W", "FP32 GF/W"
    );
    for sys in System::ALL {
        let node = sys.node();
        println!(
            "{:<14} {:>8.0} {:>14.1} {:>14.1}",
            sys.label(),
            node.gpu_power_cap_w,
            power::flops_per_watt(&node, Precision::Fp64) / 1e9,
            power::flops_per_watt(&node, Precision::Fp32) / 1e9,
        );
    }
}
