//! Dye-injection boundary conditions — the study's six varying parameters
//! (paper Section 5.2):
//!
//! 1. dye concentration on the upper inlet,
//! 2. dye concentration on the lower inlet,
//! 3. width of the injection on the upper inlet,
//! 4. width of the injection on the lower inlet,
//! 5. duration of the injection on the upper inlet,
//! 6. duration of the injection on the lower inlet.

use melissa_sobol::{Parameter, ParameterSpace};

/// Canonical order of the six parameters in a study row.
pub const PARAM_NAMES: [&str; 6] = [
    "concentration_upper",
    "concentration_lower",
    "width_upper",
    "width_lower",
    "duration_upper",
    "duration_lower",
];

/// The six injection parameters of one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionParams {
    /// Dye concentration injected by the upper injector.
    pub conc_upper: f64,
    /// Dye concentration injected by the lower injector.
    pub conc_lower: f64,
    /// Injection width of the upper injector (fraction of channel height).
    pub width_upper: f64,
    /// Injection width of the lower injector (fraction of channel height).
    pub width_lower: f64,
    /// Injection duration of the upper injector (fraction of simulated time).
    pub dur_upper: f64,
    /// Injection duration of the lower injector (fraction of simulated time).
    pub dur_lower: f64,
}

impl InjectionParams {
    /// Builds from a design row in [`PARAM_NAMES`] order.
    ///
    /// # Panics
    /// Panics if the row does not have six entries.
    pub fn from_row(row: &[f64]) -> Self {
        assert_eq!(row.len(), 6, "use case has six parameters");
        Self {
            conc_upper: row[0],
            conc_lower: row[1],
            width_upper: row[2],
            width_lower: row[3],
            dur_upper: row[4],
            dur_lower: row[5],
        }
    }

    /// The study's parameter space (marginal laws of the six parameters).
    pub fn parameter_space() -> ParameterSpace {
        ParameterSpace::new(vec![
            Parameter::uniform(PARAM_NAMES[0], 0.5, 2.0),
            Parameter::uniform(PARAM_NAMES[1], 0.5, 2.0),
            Parameter::uniform(PARAM_NAMES[2], 0.05, 0.40),
            Parameter::uniform(PARAM_NAMES[3], 0.05, 0.40),
            Parameter::uniform(PARAM_NAMES[4], 0.2, 1.0),
            Parameter::uniform(PARAM_NAMES[5], 0.2, 1.0),
        ])
    }
}

/// Time-dependent inlet concentration profile produced by the two
/// injectors.
///
/// The upper injector is centred at `y = 0.75·ly`, the lower at
/// `y = 0.25·ly`; each spans `width · ly` vertically and injects its
/// concentration until its duration (a fraction of total simulated time)
/// elapses.
#[derive(Debug, Clone, PartialEq)]
pub struct InletProfile {
    params: InjectionParams,
    ly: f64,
    total_time: f64,
}

impl InletProfile {
    /// Creates the profile for a channel of height `ly` and a simulation
    /// horizon of `total_time`.
    pub fn new(params: InjectionParams, ly: f64, total_time: f64) -> Self {
        // Unreachable from a study: `UseCaseConfig::validate` holds `ly` and `total_time` positive.
        assert!(ly > 0.0 && total_time > 0.0);
        Self {
            params,
            ly,
            total_time,
        }
    }

    /// Inlet dye concentration at height `y` and time `t`.
    pub fn concentration(&self, y: f64, t: f64) -> f64 {
        let p = &self.params;
        let mut c = 0.0;
        let upper_centre = 0.75 * self.ly;
        let lower_centre = 0.25 * self.ly;
        if t <= p.dur_upper * self.total_time
            && (y - upper_centre).abs() <= 0.5 * p.width_upper * self.ly
        {
            c += p.conc_upper;
        }
        if t <= p.dur_lower * self.total_time
            && (y - lower_centre).abs() <= 0.5 * p.width_lower * self.ly
        {
            c += p.conc_lower;
        }
        c
    }

    /// The underlying parameters.
    pub fn params(&self) -> &InjectionParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> InjectionParams {
        InjectionParams {
            conc_upper: 1.5,
            conc_lower: 0.8,
            width_upper: 0.2,
            width_lower: 0.1,
            dur_upper: 0.5,
            dur_lower: 1.0,
        }
    }

    #[test]
    fn injectors_cover_their_bands() {
        let prof = InletProfile::new(params(), 1.0, 10.0);
        // Upper band: 0.75 ± 0.1.
        assert_eq!(prof.concentration(0.75, 0.0), 1.5);
        assert_eq!(prof.concentration(0.84, 0.0), 1.5);
        assert_eq!(prof.concentration(0.87, 0.0), 0.0);
        // Lower band: 0.25 ± 0.05.
        assert_eq!(prof.concentration(0.25, 0.0), 0.8);
        assert_eq!(prof.concentration(0.31, 0.0), 0.0);
        // Middle of channel: nothing.
        assert_eq!(prof.concentration(0.5, 0.0), 0.0);
    }

    #[test]
    fn durations_cut_off_injection() {
        let prof = InletProfile::new(params(), 1.0, 10.0);
        // Upper stops at t = 5; lower runs the whole horizon.
        assert_eq!(prof.concentration(0.75, 4.9), 1.5);
        assert_eq!(prof.concentration(0.75, 5.1), 0.0);
        assert_eq!(prof.concentration(0.25, 9.9), 0.8);
    }

    #[test]
    fn row_roundtrip_matches_field_order() {
        let row = [1.0, 2.0, 0.3, 0.4, 0.5, 0.6];
        let p = InjectionParams::from_row(&row);
        assert_eq!(p.conc_upper, 1.0);
        assert_eq!(p.conc_lower, 2.0);
        assert_eq!(p.width_upper, 0.3);
        assert_eq!(p.width_lower, 0.4);
        assert_eq!(p.dur_upper, 0.5);
        assert_eq!(p.dur_lower, 0.6);
    }

    #[test]
    fn parameter_space_has_six_dimensions_with_names() {
        let space = InjectionParams::parameter_space();
        assert_eq!(space.dim(), 6);
        for (k, name) in PARAM_NAMES.iter().enumerate() {
            assert_eq!(space.name(k), *name);
        }
    }

    #[test]
    fn wide_injectors_may_overlap_and_sum() {
        let p = InjectionParams {
            conc_upper: 1.0,
            conc_lower: 1.0,
            width_upper: 1.0,
            width_lower: 1.0,
            dur_upper: 1.0,
            dur_lower: 1.0,
        };
        let prof = InletProfile::new(p, 1.0, 1.0);
        assert_eq!(prof.concentration(0.5, 0.0), 2.0);
    }
}
