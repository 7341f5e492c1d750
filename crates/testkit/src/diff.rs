//! Differential equivalence: two configurations, one behaviour.

use cavenet_core::net::Simulator;
use cavenet_core::{scenario_identity, Experiment, ExperimentResult, Fidelity, Scenario};

use crate::GoldenDigest;

/// Outcome of digesting one scenario run.
#[derive(Debug, Clone)]
pub struct RunDigest {
    /// Digest of the full event stream plus final statistics.
    pub digest: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// The experiment's metrics, for additional assertions.
    pub result: ExperimentResult,
}

/// Run `scenario` with a [`GoldenDigest`] attached and fold the final
/// global and per-node statistics into it.
///
/// # Panics
///
/// Panics if the scenario fails validation or cannot build its mobility.
pub fn digest_scenario(scenario: &Scenario) -> RunDigest {
    let (result, sim) = Experiment::new(scenario.clone())
        .run_with_observer(GoldenDigest::new())
        .expect("scenario must run");
    let (digest, events) = finish_digest(&sim);
    RunDigest {
        digest,
        events,
        result,
    }
}

/// Fold the final global and per-node statistics of a finished `sim`
/// into its [`GoldenDigest`], exactly as [`digest_scenario`] does, and
/// return `(digest, events)`.
pub fn finish_digest(sim: &Simulator<GoldenDigest>) -> (u64, u64) {
    let mut digest = sim.observer().clone();
    digest.absorb_final(sim);
    (digest.value(), digest.events())
}

/// Assert that one scenario behaves **bit-identically** under two
/// configurations that are supposed to be equivalent (e.g. neighbor grid
/// on vs. off). Each closure receives a copy of `base` to reconfigure; the
/// two runs must then produce the same event-stream digest.
///
/// # Panics
///
/// Panics with both digests when the runs diverge, and if the base
/// scenario carried no traffic (a vacuous comparison).
pub fn assert_equiv(
    base: &Scenario,
    label_a: &str,
    cfg_a: impl FnOnce(&mut Scenario),
    label_b: &str,
    cfg_b: impl FnOnce(&mut Scenario),
) {
    let mut sa = base.clone();
    cfg_a(&mut sa);
    let mut sb = base.clone();
    cfg_b(&mut sb);
    let a = digest_scenario(&sa);
    let b = digest_scenario(&sb);
    assert!(
        a.result.total_sent() > 0,
        "equivalence check is vacuous: no traffic was sent"
    );
    assert!(
        a.digest == b.digest && a.events == b.events,
        "configurations are not equivalent:\n  {label_a}: digest 0x{:016x}, {} events\n  \
         {label_b}: digest 0x{:016x}, {} events",
        a.digest,
        a.events,
        b.digest,
        b.events,
    );
}

/// Assert the identity semantics of [`scenario_identity`]: the `fidelity`
/// backend knob is digest-relevant (the exact and fluid engines produce
/// different results, so their snapshots must never cross-resume).
///
/// # Panics
///
/// Panics if exact and fluid variants of `base` share a scenario hash.
pub fn assert_identity_semantics(base: &Scenario) {
    let identity_of = |fidelity: Fidelity| {
        let mut s = base.clone();
        s.fidelity = fidelity;
        scenario_identity(&s).scenario_hash
    };
    let exact = identity_of(Fidelity::Exact);
    let fluid = identity_of(Fidelity::Fluid);
    assert_ne!(
        exact, fluid,
        "fidelity must be digest-relevant: exact and fluid variants of one \
         scenario share identity 0x{exact:016x}"
    );
}
