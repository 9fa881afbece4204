//! CACTI-lite: analytic area / power estimation for on-chip macros.
//!
//! The paper evaluates area and power with Synopsys DC + PrimeTime and
//! CACTI, scaled to TSMC 12 nm. This module substitutes an analytic
//! per-byte / per-gate model whose 12 nm constants are calibrated so the
//! component-level totals land near the published figures (0.50 mm² and
//! 55.6 mW for GDR-HGNN; Fig. 10's breakdown structure). Constants are
//! documented below.

/// Technology node with scaling relative to the 12 nm calibration point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechNode {
    /// Feature size in nanometres.
    pub nm: u32,
    /// Area scale factor relative to 12 nm (1.0 at 12 nm).
    pub area_scale: f64,
    /// Power scale factor relative to 12 nm (1.0 at 12 nm).
    pub power_scale: f64,
}

impl TechNode {
    /// TSMC 12 nm — the paper's synthesis node (calibration point).
    pub fn tsmc12() -> Self {
        Self {
            nm: 12,
            area_scale: 1.0,
            power_scale: 1.0,
        }
    }

    /// A generic 28 nm node (the classic CACTI output node), for the
    /// scaling-factor tests.
    pub fn generic28() -> Self {
        Self {
            nm: 28,
            area_scale: 4.0,
            power_scale: 2.6,
        }
    }
}

impl Default for TechNode {
    fn default() -> Self {
        Self::tsmc12()
    }
}

/// Area / power estimate of one hardware macro.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MacroEstimate {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Static (leakage + clock tree) power in mW.
    pub static_mw: f64,
    /// Dynamic energy per byte accessed, in pJ.
    pub pj_per_byte: f64,
}

impl MacroEstimate {
    /// Total power in mW given an access rate (bytes per second).
    pub fn power_mw(&self, bytes_per_second: f64) -> f64 {
        self.static_mw + self.pj_per_byte * bytes_per_second * 1e-9
    }

    /// Component-wise sum of two estimates.
    pub fn combined(self, other: MacroEstimate) -> MacroEstimate {
        MacroEstimate {
            area_mm2: self.area_mm2 + other.area_mm2,
            static_mw: self.static_mw + other.static_mw,
            // energy adds per-access only if accessed together; keep max as
            // a conservative per-byte figure for combined macros
            pj_per_byte: self.pj_per_byte.max(other.pj_per_byte),
        }
    }
}

/// 12 nm calibration constants (see module docs).
mod calib {
    /// SRAM macro density including periphery: mm² per MiB.
    pub const SRAM_MM2_PER_MIB: f64 = 0.734;
    /// SRAM leakage + clock power: mW per MiB.
    pub const SRAM_STATIC_MW_PER_MIB: f64 = 32.0;
    /// SRAM dynamic read/write energy per byte (small arrays): pJ.
    pub const SRAM_PJ_PER_BYTE: f64 = 0.45;
    /// Register-file FIFO density penalty over SRAM.
    pub const FIFO_AREA_FACTOR: f64 = 1.4;
    /// FIFO static power penalty over SRAM.
    pub const FIFO_STATIC_FACTOR: f64 = 2.2;
    /// FIFO dynamic energy penalty over SRAM.
    pub const FIFO_PJ_FACTOR: f64 = 1.6;
    /// Standard-cell logic density: mm² per kilo-gate (NAND2 equivalent).
    pub const LOGIC_MM2_PER_KGATE: f64 = 0.000_125;
    /// Logic static power: mW per kilo-gate.
    pub const LOGIC_STATIC_MW_PER_KGATE: f64 = 0.003;
    /// Fused MAC unit (fp32) area in mm² (datapath + pipeline registers).
    pub const MAC_MM2: f64 = 0.000_52;
    /// Fused MAC static power in mW.
    pub const MAC_STATIC_MW: f64 = 0.011;
    /// Fused MAC dynamic energy per operation in pJ.
    pub const MAC_PJ_PER_OP: f64 = 1.1;
}

/// Analytic macro estimator for a technology node.
///
/// # Examples
///
/// ```
/// use gdr_memsim::cacti_lite::{CactiLite, TechNode};
/// let c = CactiLite::new(TechNode::tsmc12());
/// let buf = c.sram(640 * 1024); // GDR-HGNN's buffer complement
/// assert!(buf.area_mm2 > 0.3 && buf.area_mm2 < 0.7);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CactiLite {
    node: TechNode,
}

impl CactiLite {
    /// Creates an estimator for `node`.
    pub fn new(node: TechNode) -> Self {
        Self { node }
    }

    /// The technology node in use.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// SRAM macro of `bytes` capacity.
    pub fn sram(&self, bytes: u64) -> MacroEstimate {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        MacroEstimate {
            area_mm2: calib::SRAM_MM2_PER_MIB * mib * self.node.area_scale,
            static_mw: calib::SRAM_STATIC_MW_PER_MIB * mib * self.node.power_scale,
            pj_per_byte: calib::SRAM_PJ_PER_BYTE * self.node.power_scale,
        }
    }

    /// Register-based FIFO of `bytes` capacity.
    pub fn fifo(&self, bytes: u64) -> MacroEstimate {
        let s = self.sram(bytes);
        MacroEstimate {
            area_mm2: s.area_mm2 * calib::FIFO_AREA_FACTOR,
            static_mw: s.static_mw * calib::FIFO_STATIC_FACTOR,
            pj_per_byte: s.pj_per_byte * calib::FIFO_PJ_FACTOR,
        }
    }

    /// Random logic of `kgates` kilo-gates (controllers, comparators,
    /// bitmap logic — Fig. 10's "Others").
    pub fn logic(&self, kgates: f64) -> MacroEstimate {
        MacroEstimate {
            area_mm2: calib::LOGIC_MM2_PER_KGATE * kgates * self.node.area_scale,
            static_mw: calib::LOGIC_STATIC_MW_PER_KGATE * kgates * self.node.power_scale,
            pj_per_byte: 0.05 * self.node.power_scale,
        }
    }

    /// An array of `macs` fused multiply-accumulate units (the systolic
    /// array / SIMD datapath).
    pub fn mac_array(&self, macs: usize) -> MacroEstimate {
        MacroEstimate {
            area_mm2: calib::MAC_MM2 * macs as f64 * self.node.area_scale,
            static_mw: calib::MAC_STATIC_MW * macs as f64 * self.node.power_scale,
            pj_per_byte: 0.0,
        }
    }

    /// Dynamic energy of `ops` MAC operations, in pJ.
    pub fn mac_energy_pj(&self, ops: u64) -> f64 {
        calib::MAC_PJ_PER_OP * ops as f64 * self.node.power_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gdr_buffer_complement_lands_near_paper() {
        // 160 KiB Matching + 160 KiB Candidate + 320 KiB Adj = 640 KiB SRAM
        // plus 8 KiB of FIFOs should land near the paper's 0.50 mm².
        let c = CactiLite::new(TechNode::tsmc12());
        let total = c.sram(640 * 1024).combined(c.fifo(8 * 1024));
        assert!(
            total.area_mm2 > 0.35 && total.area_mm2 < 0.65,
            "area {} mm2 not near 0.50",
            total.area_mm2
        );
    }

    #[test]
    fn area_scales_with_node() {
        let c12 = CactiLite::new(TechNode::tsmc12());
        let c28 = CactiLite::new(TechNode::generic28());
        let a12 = c12.sram(1 << 20).area_mm2;
        let a28 = c28.sram(1 << 20).area_mm2;
        assert!((a28 / a12 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_costs_more_per_byte() {
        let c = CactiLite::default();
        let s = c.sram(8 * 1024);
        let f = c.fifo(8 * 1024);
        assert!(f.area_mm2 > s.area_mm2);
        assert!(f.static_mw > s.static_mw);
        assert!(f.pj_per_byte > s.pj_per_byte);
    }

    #[test]
    fn power_includes_dynamic_component() {
        let c = CactiLite::default();
        let m = c.sram(1 << 20);
        let idle = m.power_mw(0.0);
        let busy = m.power_mw(64e9); // 64 GB/s of accesses
        assert!(busy > idle);
        assert_eq!(idle, m.static_mw);
    }

    #[test]
    fn combined_adds_area_and_static() {
        let c = CactiLite::default();
        let a = c.sram(1024);
        let b = c.logic(10.0);
        let s = a.combined(b);
        assert!((s.area_mm2 - (a.area_mm2 + b.area_mm2)).abs() < 1e-12);
        assert!((s.static_mw - (a.static_mw + b.static_mw)).abs() < 1e-12);
    }

    #[test]
    fn mac_array_scales_linearly() {
        let c = CactiLite::default();
        let one = c.mac_array(1).area_mm2;
        let many = c.mac_array(8192).area_mm2;
        assert!((many / one - 8192.0).abs() < 1e-6);
        assert!(c.mac_energy_pj(100) > 0.0);
    }
}
