//! The paper's printed values, verbatim — the baseline every simulated
//! cell is compared against in EXPERIMENTS.md.

/// A Table II row as printed: label, the six columns (Aurora
/// one-stack/one-PVC/six-PVC, Dawn one-stack/one-PVC/four-PVC), their
/// unit and its SI scale.
#[derive(Debug, Clone, Copy)]
pub struct TableIiRow {
    pub label: &'static str,
    pub aurora: [f64; 3],
    pub dawn: [f64; 3],
    /// Multiplier turning a value of the row into SI (1e12 for
    /// TFlop/s and TB/s, 1e9 for GB/s).
    pub scale: f64,
    /// The unit the row's values are in.
    pub unit: &'static str,
}

/// Table II exactly as printed (values in the table's units; `scale`
/// converts to SI).
pub const TABLE_II: [TableIiRow; 14] = [
    TableIiRow { label: "Double Precision Peak Flops", aurora: [17.0, 33.0, 195.0], dawn: [20.0, 37.0, 140.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "Single Precision Peak Flops", aurora: [23.0, 45.0, 268.0], dawn: [26.0, 52.0, 207.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "Memory Bandwidth (triad)", aurora: [1.0, 2.0, 12.0], dawn: [1.0, 2.0, 8.0], scale: 1e12, unit: "TB/s" },
    TableIiRow { label: "PCIe Unidirectional Bandwidth (H2D)", aurora: [54.0, 55.0, 329.0], dawn: [53.0, 54.0, 218.0], scale: 1e9, unit: "GB/s" },
    TableIiRow { label: "PCIe Unidirectional Bandwidth (D2H)", aurora: [53.0, 56.0, 264.0], dawn: [51.0, 53.0, 212.0], scale: 1e9, unit: "GB/s" },
    TableIiRow { label: "PCIe Bidirectional Bandwidth", aurora: [76.0, 77.0, 350.0], dawn: [72.0, 72.0, 285.0], scale: 1e9, unit: "GB/s" },
    TableIiRow { label: "DGEMM", aurora: [13.0, 26.0, 151.0], dawn: [17.0, 30.0, 120.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "SGEMM", aurora: [21.0, 42.0, 242.0], dawn: [25.0, 48.0, 188.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "HGEMM", aurora: [207.0, 411.0, 2300.0], dawn: [246.0, 509.0, 1900.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "BF16GEMM", aurora: [216.0, 434.0, 2400.0], dawn: [254.0, 501.0, 2000.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "TF32GEMM", aurora: [107.0, 208.0, 1200.0], dawn: [118.0, 200.0, 850.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "I8GEMM", aurora: [448.0, 864.0, 5000.0], dawn: [525.0, 1100.0, 4100.0], scale: 1e12, unit: "TIop/s" },
    TableIiRow { label: "Single-precision FFT C2C 1D", aurora: [3.1, 5.9, 33.0], dawn: [3.6, 6.6, 26.0], scale: 1e12, unit: "TFlop/s" },
    TableIiRow { label: "Single-precision FFT C2C 2D", aurora: [3.4, 6.0, 34.0], dawn: [3.6, 6.5, 25.0], scale: 1e12, unit: "TFlop/s" },
];

/// A Table III row: label + Aurora (one pair, six pairs) + Dawn
/// (one pair, four pairs; `None` = printed dash). Values in GB/s.
#[derive(Debug, Clone, Copy)]
pub struct TableIiiRow {
    pub label: &'static str,
    pub aurora: [Option<f64>; 2],
    pub dawn: [Option<f64>; 2],
}

/// Table III exactly as printed.
pub const TABLE_III: [TableIiiRow; 4] = [
    TableIiiRow { label: "Local Stack Unidirectional Bandwidth", aurora: [Some(197.0), Some(1129.0)], dawn: [Some(196.0), Some(786.0)] },
    TableIiiRow { label: "Local Stack Bidirectional Bandwidth", aurora: [Some(284.0), Some(1661.0)], dawn: [Some(287.0), Some(1145.0)] },
    TableIiiRow { label: "Remote Stack Unidirectional Bandwidth", aurora: [Some(15.0), Some(95.0)], dawn: [None, None] },
    TableIiiRow { label: "Remote Stack Bidirectional Bandwidth", aurora: [Some(23.0), Some(142.0)], dawn: [None, None] },
];

/// A Table VI row: FOMs per system per level (`None` = printed dash).
/// Column order per system: One Stack / One GPU / node, except H100 and
/// MI250 which print two columns (their first is One GPU / One GCD).
#[derive(Debug, Clone, Copy)]
pub struct TableViRow {
    pub label: &'static str,
    pub aurora: [Option<f64>; 3],
    pub dawn: [Option<f64>; 3],
    /// (One GPU, Four GPU).
    pub h100: [Option<f64>; 2],
    /// (One GCD, Four GPU).
    pub mi250: [Option<f64>; 2],
}

/// Table VI exactly as printed.
pub const TABLE_VI: [TableViRow; 6] = [
    TableViRow {
        label: "miniBUDE",
        aurora: [Some(293.02), None, None],
        dawn: [Some(366.17), None, None],
        h100: [Some(638.40), None],
        mi250: [Some(193.66), None],
    },
    TableViRow {
        label: "CloverLeaf",
        aurora: [Some(20.82), Some(40.41), Some(240.89)],
        dawn: [Some(22.46), Some(41.92), Some(167.15)],
        h100: [Some(65.87), Some(261.37)],
        mi250: [Some(25.71), Some(192.68)],
    },
    TableViRow {
        label: "miniQMC",
        aurora: [Some(3.16), Some(5.39), Some(15.64)],
        dawn: [Some(3.72), Some(6.85), Some(16.28)],
        h100: [Some(3.89), Some(12.32)],
        mi250: [Some(0.50), Some(0.90)],
    },
    TableViRow {
        label: "mini-GAMESS",
        aurora: [Some(19.44), Some(38.50), Some(197.08)],
        dawn: [Some(24.57), Some(43.88), Some(164.71)],
        h100: [Some(49.30), Some(168.97)],
        mi250: [None, None],
    },
    TableViRow {
        label: "OpenMC",
        aurora: [None, None, Some(2039.0)],
        dawn: [None, None, None],
        h100: [None, Some(1191.0)],
        mi250: [None, Some(720.0)],
    },
    TableViRow {
        label: "HACC",
        aurora: [None, None, Some(13.81)],
        dawn: [None, None, Some(12.26)],
        h100: [None, Some(12.46)],
        mi250: [None, Some(10.70)],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_fourteen_rows() {
        assert_eq!(TABLE_II.len(), 14);
        assert_eq!(TABLE_II[0].aurora[2], 195.0);
        assert_eq!(TABLE_II[13].dawn[2], 25.0);
    }

    #[test]
    fn table_iii_dawn_remote_is_dash() {
        assert!(TABLE_III[2].dawn[0].is_none());
        assert!(TABLE_III[3].dawn[1].is_none());
    }

    #[test]
    fn table_vi_dashes_match_print() {
        // mini-GAMESS on MI250 and OpenMC on Dawn are dashes.
        assert!(TABLE_VI[3].mi250[0].is_none());
        assert!(TABLE_VI[4].dawn[2].is_none());
        assert_eq!(TABLE_VI[5].aurora[2], Some(13.81));
    }
}
