//! Radio power model — the Monsoon-monitor substitute.
//!
//! The paper computes network energy from RRC state residency times against
//! a per-state power table measured with a Monsoon power monitor, following
//! the methodology of its citation \[22\] (§5.3). We do the identical
//! computation against the same kind of table; default values follow the
//! published measurements for 3G (\[22\]) and LTE (\[34\]).

use crate::rrc::RrcState;
use simcore::SimDuration;

/// Per-RRC-state radio power draw in milliwatts.
#[derive(Debug, Clone)]
pub struct PowerModel {
    /// 3G DCH.
    pub dch_mw: f64,
    /// 3G FACH.
    pub fach_mw: f64,
    /// 3G PCH.
    pub pch_mw: f64,
    /// LTE connected, continuous reception.
    pub lte_continuous_mw: f64,
    /// LTE short DRX.
    pub lte_short_drx_mw: f64,
    /// LTE long DRX.
    pub lte_long_drx_mw: f64,
    /// LTE idle.
    pub lte_idle_mw: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            dch_mw: 800.0,
            fach_mw: 460.0,
            pch_mw: 30.0,
            lte_continuous_mw: 1210.0,
            lte_short_drx_mw: 900.0,
            lte_long_drx_mw: 600.0,
            lte_idle_mw: 11.0,
        }
    }
}

impl PowerModel {
    /// Power draw in the given state, in milliwatts.
    pub fn power_mw(&self, state: RrcState) -> f64 {
        match state {
            RrcState::Dch => self.dch_mw,
            RrcState::Fach => self.fach_mw,
            RrcState::Pch => self.pch_mw,
            RrcState::LteContinuous => self.lte_continuous_mw,
            RrcState::LteShortDrx => self.lte_short_drx_mw,
            RrcState::LteLongDrx => self.lte_long_drx_mw,
            RrcState::LteIdle => self.lte_idle_mw,
        }
    }

    /// Energy in joules for a residency of `dur` in `state`.
    pub fn energy_j(&self, state: RrcState, dur: SimDuration) -> f64 {
        self.power_mw(state) / 1000.0 * dur.as_secs_f64()
    }
}

/// Energy split into tail and non-tail, as defined in the paper's citation
/// \[34\]: *tail* energy is spent in high-power states after the last data
/// transfer while waiting for demotion timers; everything else in
/// high-power states is non-tail. Low-power residency is baseline and is
/// excluded (matching "network energy" accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Energy spent in high-power states while data was flowing, in joules.
    pub non_tail_j: f64,
    /// Energy spent in high-power states waiting for demotion, in joules.
    pub tail_j: f64,
}

impl EnergyBreakdown {
    /// Total network energy in joules.
    pub fn total_j(&self) -> f64 {
        self.non_tail_j + self.tail_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_power_states_cost_more() {
        let m = PowerModel::default();
        assert!(m.power_mw(RrcState::Dch) > m.power_mw(RrcState::Fach));
        assert!(m.power_mw(RrcState::Fach) > m.power_mw(RrcState::Pch));
        assert!(m.power_mw(RrcState::LteContinuous) > m.power_mw(RrcState::LteIdle));
    }

    #[test]
    fn energy_scales_with_duration() {
        let m = PowerModel::default();
        let one = m.energy_j(RrcState::Dch, SimDuration::from_secs(1));
        let ten = m.energy_j(RrcState::Dch, SimDuration::from_secs(10));
        assert!((ten - one * 10.0).abs() < 1e-9);
        // 800 mW for 1 s = 0.8 J.
        assert!((one - 0.8).abs() < 1e-9);
    }

    #[test]
    fn breakdown_totals() {
        let b = EnergyBreakdown {
            non_tail_j: 2.0,
            tail_j: 3.0,
        };
        assert!((b.total_j() - 5.0).abs() < 1e-12);
    }
}
