//! Which model backend a scenario runs under.
//!
//! The engine in [`sim`](crate::Simulator) is one *fidelity* — per-frame
//! IEEE 802.11 DCF over a sampled radio channel. The `cavenet-fluid`
//! crate is the other: a flow-level model that reads the same
//! [`ScenarioConfig`](crate::ScenarioConfig) through the same
//! [`PhyParams`](crate::PhyParams)/[`MacParams`](crate::MacParams)
//! functions and closes the DCF analytically with [`dcf`](crate::dcf).
//!
//! [`Fidelity`] selects the backend per scenario. It is a *behaviour* knob
//! (results differ between fidelities), so it participates in
//! checkpoint/run identity.

/// Which model backend a scenario runs under.
///
/// `Exact` is the per-frame DCF engine ([`Simulator`](crate::Simulator));
/// `Fluid` is the analytic flow-level backend (the `cavenet-fluid` crate).
/// Fidelity changes results, so it is part of a run's identity — a
/// snapshot taken under one fidelity refuses to resume under the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Fidelity {
    /// Per-frame 802.11 DCF discrete-event engine (bit-exact reference).
    #[default]
    Exact,
    /// Flow-level shared-bandwidth fluid model with analytic DCF collision
    /// probability — deterministic, 100–1000x faster, approximate.
    Fluid,
}

impl Fidelity {
    /// Stable lower-case name ("exact" / "fluid"), used in manifests and
    /// bench artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Fluid => "fluid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_names_are_stable() {
        assert_eq!(Fidelity::Exact.name(), "exact");
        assert_eq!(Fidelity::Fluid.name(), "fluid");
        assert_eq!(Fidelity::default(), Fidelity::Exact);
    }
}
