//! The three compared designs and their full PPA reports (paper Table III).
//!
//! All designs hold *iso-capacity* computing resources — eight 256×256 MVM
//! subarrays (four similarity + four projection), a 64 kb buffer, XNOR
//! unbinding, control — and differ only in substrate, node assignment, and
//! 2D-vs-3D integration:
//!
//! | design | MVM substrate | RRAM node | periphery | digital | stacking |
//! |---|---|---|---|---|---|
//! | `Sram2d` | digital SRAM CIM | — | — | 16 nm | single die |
//! | `Hybrid2d` | analog RRAM | 40 nm | 40 nm | 40 nm | single die |
//! | `H3dThreeTier` | analog RRAM | 40 nm | 16 nm | 16 nm | 3 tiers |

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::neurosim::{ComponentKind, ComponentLibrary};
use crate::ppa::{
    h3d_tsv_switches_per_iter, iteration_energy, ArchParams, EnergyInputs, MvmSubstrate,
};
use crate::schedule::{IterationSchedule, ScheduleConfig};
use crate::tier::{ComponentUse, Tier};
use crate::tsv::TsvSpec;
use cim::energy::EnergyLedger;
use cim::tech::TechNode;

/// Base clock of the 2D designs, MHz (Table III).
pub const BASE_FREQUENCY_MHZ: f64 = 200.0;
/// Native path loading used for the TSV frequency derate, farads.
pub const NATIVE_PATH_LOAD_F: f64 = 280e-15;

/// One of the three compared designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignVariant {
    /// Fully digital SRAM-CIM design, everything at 16 nm, one die.
    Sram2d,
    /// Monolithic RRAM + SRAM design, everything at 40 nm, one die.
    Hybrid2d,
    /// H3DFact: two 40 nm RRAM tiers over a 16 nm digital tier.
    H3dThreeTier,
}

impl fmt::Display for DesignVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignVariant::Sram2d => write!(f, "SRAM 2D"),
            DesignVariant::Hybrid2d => write!(f, "Hybrid 2D"),
            DesignVariant::H3dThreeTier => write!(f, "3-Tier H3D"),
        }
    }
}

impl DesignVariant {
    /// Design clock, MHz: the base clock, derated by the TSV load on the
    /// native path for the 3D stack.
    pub fn frequency_mhz(self) -> f64 {
        match self {
            DesignVariant::H3dThreeTier => {
                BASE_FREQUENCY_MHZ * TsvSpec::paper().frequency_derate(NATIVE_PATH_LOAD_F)
            }
            _ => BASE_FREQUENCY_MHZ,
        }
    }

    /// Component library appropriate for this design's integration style.
    pub fn library(self) -> ComponentLibrary {
        match self {
            DesignVariant::Hybrid2d => ComponentLibrary::monolithic_with_rram(),
            _ => ComponentLibrary::heterogeneous(),
        }
    }

    /// Dies of the design with their component populations.
    ///
    /// Counts are *reference-equivalent* (256×256 macros): a `d × M`
    /// subarray contributes `d·M / 256²` reference macros, and per-array
    /// periphery scales with its row count.
    pub fn tiers(self, arch: &ArchParams) -> Vec<Tier> {
        let f = arch.factors as f64;
        // Size of one factor's array relative to the 256×256 reference.
        let macro_scale = (arch.rows * arch.cols) as f64 / (256.0 * 256.0);
        let periph_scale = arch.rows as f64 / 256.0;
        let use_ = |kind, count| ComponentUse { kind, count };
        let adc_kind = if arch.adc_bits <= 4 {
            ComponentKind::SarAdc4
        } else {
            ComponentKind::SarAdc8
        };
        match self {
            DesignVariant::Sram2d => vec![Tier::new(
                "die (16 nm digital CIM)",
                TechNode::N16,
                vec![
                    use_(ComponentKind::SramCimSubarray, 2.0 * f * macro_scale),
                    use_(ComponentKind::SramBuffer64kb, 1.0),
                    use_(ComponentKind::XnorBank, 1.0),
                    use_(ComponentKind::Control, 1.0),
                ],
            )],
            DesignVariant::Hybrid2d => vec![Tier::new(
                "die (40 nm monolithic RRAM+SRAM)",
                TechNode::N40,
                vec![
                    use_(ComponentKind::RramSubarray, 2.0 * f * macro_scale),
                    use_(ComponentKind::RramTierOverhead, 2.0),
                    use_(ComponentKind::RramPeripheral, 2.0 * f * periph_scale),
                    use_(adc_kind, arch.adc_count() as f64),
                    use_(ComponentKind::SramBuffer64kb, 1.0),
                    use_(ComponentKind::XnorBank, 1.0),
                    use_(ComponentKind::Control, 1.0),
                ],
            )],
            DesignVariant::H3dThreeTier => vec![
                Tier::new(
                    "tier-3 (40 nm RRAM, similarity)",
                    TechNode::N40,
                    vec![
                        use_(ComponentKind::RramSubarray, f * macro_scale),
                        use_(ComponentKind::RramTierOverhead, 1.0),
                    ],
                ),
                Tier::new(
                    "tier-2 (40 nm RRAM, projection)",
                    TechNode::N40,
                    vec![
                        use_(ComponentKind::RramSubarray, f * macro_scale),
                        use_(ComponentKind::RramTierOverhead, 1.0),
                    ],
                ),
                Tier::new(
                    "tier-1 (16 nm digital + periphery)",
                    TechNode::N16,
                    vec![
                        use_(ComponentKind::RramPeripheral, 2.0 * f * periph_scale),
                        use_(adc_kind, arch.adc_count() as f64),
                        use_(ComponentKind::SramBuffer64kb, 1.0),
                        use_(ComponentKind::XnorBank, 1.0),
                        use_(ComponentKind::Control, 1.0),
                    ],
                ),
            ],
        }
    }

    /// MVM substrate of this design.
    pub fn substrate(self) -> MvmSubstrate {
        match self {
            DesignVariant::Sram2d => MvmSubstrate::DigitalSram,
            _ => MvmSubstrate::AnalogRram,
        }
    }

    /// Node of RRAM peripherals and ADCs.
    pub fn periphery_node(self) -> TechNode {
        match self {
            DesignVariant::Hybrid2d => TechNode::N40,
            _ => TechNode::N16,
        }
    }

    /// Node of the digital blocks.
    pub fn digital_node(self) -> TechNode {
        match self {
            DesignVariant::Hybrid2d => TechNode::N40,
            _ => TechNode::N16,
        }
    }

    /// The paper's Table III reference accuracy for this design, percent
    /// (deterministic designs lack the stochastic escape mechanism).
    pub fn paper_reference_accuracy_pct(self) -> f64 {
        match self {
            DesignVariant::Sram2d => 95.8,
            _ => 99.3,
        }
    }
}

/// Full PPA report of one design (one row of Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// Which design.
    pub variant: DesignVariant,
    /// Architecture shape used.
    pub arch: ArchParams,
    /// Per-tier `(name, mm²)`.
    pub tier_areas: Vec<(String, f64)>,
    /// Total silicon across tiers, mm².
    pub total_area_mm2: f64,
    /// Package footprint (largest tier), mm².
    pub footprint_mm2: f64,
    /// Clock frequency, MHz.
    pub frequency_mhz: f64,
    /// Cycles per resonator iteration (batch 1).
    pub cycles_per_iter: u64,
    /// Operations per iteration.
    pub ops_per_iter: u64,
    /// Throughput, TOPS.
    pub throughput_tops: f64,
    /// Compute density, TOPS/mm² (on total silicon).
    pub compute_density_tops_mm2: f64,
    /// Energy of one iteration, joules.
    pub energy_per_iter_j: f64,
    /// Energy efficiency, TOPS/W.
    pub energy_eff_tops_w: f64,
    /// Energy ledger of one iteration.
    pub energy_ledger: EnergyLedger,
    /// Column-parallel ADC instances.
    pub adc_count: usize,
    /// TSV count (0 for 2D).
    pub tsv_count: usize,
    /// Factorization accuracy in percent, filled by the benchmark harness
    /// from actual engine runs (`None` until measured).
    pub accuracy_pct: Option<f64>,
}

impl DesignReport {
    /// Compute-density ratio `self / other`.
    pub fn density_ratio(&self, other: &DesignReport) -> f64 {
        self.compute_density_tops_mm2 / other.compute_density_tops_mm2
    }

    /// Energy-efficiency ratio `self / other`.
    pub fn efficiency_ratio(&self, other: &DesignReport) -> f64 {
        self.energy_eff_tops_w / other.energy_eff_tops_w
    }

    /// Silicon-area ratio `other / self` (how much *less* silicon `self`
    /// uses).
    pub fn area_saving_vs(&self, other: &DesignReport) -> f64 {
        other.total_area_mm2 / self.total_area_mm2
    }
}

/// Builds the PPA report for `variant` at the paper's design point.
pub fn build_report(variant: DesignVariant) -> DesignReport {
    build_report_with(variant, ArchParams::paper())
}

/// Builds the PPA report for `variant` with an explicit architecture shape.
pub fn build_report_with(variant: DesignVariant, arch: ArchParams) -> DesignReport {
    let lib = variant.library();
    let tiers = variant.tiers(&arch);
    let tier_areas: Vec<(String, f64)> = tiers
        .iter()
        .map(|t| (t.name.clone(), t.area_mm2(&lib)))
        .collect();
    let total_area_mm2: f64 = tier_areas.iter().map(|(_, a)| a).sum();
    let footprint_mm2 = tier_areas.iter().map(|&(_, a)| a).fold(0.0f64, f64::max);

    // One shared cycle model: in 2D the shared-peripheral MUX
    // reconfiguration between array groups costs what the tier switch
    // costs in 3D (paper Sec. III-B notes the 2D MUX sharing), so all
    // variants run the same schedule; only the clock differs. Analog
    // latencies scale with the subarray row count.
    let schedule = IterationSchedule::compute(&ScheduleConfig::for_shape(
        arch.factors,
        1,
        arch.rows,
        arch.cols,
        arch.adc_bits,
    ));
    let cycles_per_iter = schedule.cycles;

    let tsv_count = match variant {
        DesignVariant::H3dThreeTier => {
            TsvSpec::paper().count_for_array(arch.rows, arch.cols) * arch.factors * 2
        }
        _ => 0,
    };
    let frequency_mhz = variant.frequency_mhz();

    let ops_per_iter = arch.ops_per_iteration();
    let iter_latency_s = cycles_per_iter as f64 / (frequency_mhz * 1e6);
    let throughput_tops = ops_per_iter as f64 / iter_latency_s / 1e12;

    let tsv_switches = match variant {
        DesignVariant::H3dThreeTier => h3d_tsv_switches_per_iter(&arch),
        _ => 0,
    };
    let energy_ledger = iteration_energy(
        &lib,
        &EnergyInputs {
            arch,
            substrate: variant.substrate(),
            periphery_node: variant.periphery_node(),
            digital_node: variant.digital_node(),
            cycles_per_iter,
            tsv_switches_per_iter: tsv_switches,
        },
    );
    let energy_per_iter_j = energy_ledger.total();
    let energy_eff_tops_w = ops_per_iter as f64 / energy_per_iter_j / 1e12;

    DesignReport {
        variant,
        arch,
        tier_areas,
        total_area_mm2,
        footprint_mm2,
        frequency_mhz,
        cycles_per_iter,
        ops_per_iter,
        throughput_tops,
        compute_density_tops_mm2: throughput_tops / total_area_mm2,
        energy_per_iter_j,
        energy_eff_tops_w,
        energy_ledger,
        adc_count: match variant {
            DesignVariant::Sram2d => 0,
            _ => arch.adc_count(),
        },
        tsv_count,
        accuracy_pct: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_land_near_table3() {
        let sram = build_report(DesignVariant::Sram2d);
        let hybrid = build_report(DesignVariant::Hybrid2d);
        let h3d = build_report(DesignVariant::H3dThreeTier);
        // Paper: 0.114 / 0.544 / 0.091 mm² — calibration within 10 %.
        assert!(
            (sram.total_area_mm2 - 0.114).abs() / 0.114 < 0.10,
            "{}",
            sram.total_area_mm2
        );
        assert!(
            (hybrid.total_area_mm2 - 0.544).abs() / 0.544 < 0.10,
            "{}",
            hybrid.total_area_mm2
        );
        assert!(
            (h3d.total_area_mm2 - 0.091).abs() / 0.091 < 0.10,
            "{}",
            h3d.total_area_mm2
        );
    }

    #[test]
    fn headline_ratios_hold() {
        let sram = build_report(DesignVariant::Sram2d);
        let hybrid = build_report(DesignVariant::Hybrid2d);
        let h3d = build_report(DesignVariant::H3dThreeTier);
        // Abstract: 5.9× less silicon than hybrid 2D, 5.5× compute density,
        // ~1.2× energy efficiency vs SRAM 2D.
        let area_saving = h3d.area_saving_vs(&hybrid);
        assert!(
            area_saving > 5.0 && area_saving < 7.0,
            "area saving {area_saving}"
        );
        let density = h3d.density_ratio(&hybrid);
        assert!(density > 4.5 && density < 6.5, "density ratio {density}");
        let eff = h3d.efficiency_ratio(&sram);
        assert!(eff > 1.05 && eff < 1.45, "efficiency ratio {eff}");
        // H3D and hybrid share the RRAM substrate → similar TOPS/W.
        let eff_h = h3d.efficiency_ratio(&hybrid);
        assert!(eff_h > 0.95 && eff_h < 1.25, "vs hybrid {eff_h}");
    }

    #[test]
    fn frequency_penalty_only_for_3d() {
        let hybrid = build_report(DesignVariant::Hybrid2d);
        let h3d = build_report(DesignVariant::H3dThreeTier);
        assert_eq!(hybrid.frequency_mhz, 200.0);
        assert!(h3d.frequency_mhz < 190.0 && h3d.frequency_mhz > 180.0);
        // Throughput scales with frequency (same cycle model).
        let ratio = h3d.throughput_tops / hybrid.throughput_tops;
        assert!((ratio - h3d.frequency_mhz / 200.0).abs() < 1e-9);
    }

    #[test]
    fn counts_match_table3() {
        let h3d = build_report(DesignVariant::H3dThreeTier);
        assert_eq!(h3d.adc_count, 1024);
        assert_eq!(h3d.tsv_count, 5120);
        let hybrid = build_report(DesignVariant::Hybrid2d);
        assert_eq!(hybrid.adc_count, 1024);
        assert_eq!(hybrid.tsv_count, 0);
        assert_eq!(build_report(DesignVariant::Sram2d).adc_count, 0);
    }

    #[test]
    fn footprint_is_largest_tier() {
        let h3d = build_report(DesignVariant::H3dThreeTier);
        assert_eq!(h3d.tier_areas.len(), 3);
        let max = h3d.tier_areas.iter().map(|&(_, a)| a).fold(0.0, f64::max);
        assert_eq!(h3d.footprint_mm2, max);
        assert!(h3d.footprint_mm2 < h3d.total_area_mm2 / 2.0);
    }

    #[test]
    fn throughput_in_plausible_range() {
        // Same order as the paper's 1.4–1.5 TOPS.
        for v in [
            DesignVariant::Sram2d,
            DesignVariant::Hybrid2d,
            DesignVariant::H3dThreeTier,
        ] {
            let r = build_report(v);
            assert!(
                r.throughput_tops > 0.3 && r.throughput_tops < 5.0,
                "{v}: {} TOPS",
                r.throughput_tops
            );
            assert!(
                r.energy_eff_tops_w > 20.0 && r.energy_eff_tops_w < 120.0,
                "{v}: {} TOPS/W",
                r.energy_eff_tops_w
            );
        }
    }

    #[test]
    fn adc8_variant_costs_area() {
        let mut arch = ArchParams::paper();
        arch.adc_bits = 8;
        let r8 = build_report_with(DesignVariant::H3dThreeTier, arch);
        let r4 = build_report(DesignVariant::H3dThreeTier);
        assert!(r8.total_area_mm2 > r4.total_area_mm2);
        assert!(r8.energy_per_iter_j > r4.energy_per_iter_j);
    }
}
