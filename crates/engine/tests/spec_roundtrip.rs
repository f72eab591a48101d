//! The campaign-spec wire contract, property-tested:
//!
//! * JSON serialize → deserialize is the **identity** for arbitrary
//!   valid specs — field for field (`PartialEq`) and byte for byte
//!   (re-serialization), named-set and inline selections alike;
//! * a round-tripped spec validates to a campaign **equal** to the
//!   original's (same fingerprint, same resolved fields);
//! * running a round-tripped spec produces a **byte-identical fleet
//!   digest** — cell count and FNV cell checksum included — to running
//!   the original, which is the property the `fleetd --spec` path and
//!   the legacy-flag path both lean on.

use proptest::prelude::*;
use replica_engine::obs::Obs;
use replica_engine::{
    extended_families, CampaignSpec, Fleet, OutputFormat, Registry, Scenario, ScenarioSet,
};

/// Deterministically derives an arbitrary valid spec from drawn
/// integers. `selection`: 0/1/2 = named standard/churn/extended,
/// 3 = inline scenarios sampled from the extended pool.
#[allow(clippy::too_many_arguments)]
fn spec_from(
    selection: usize,
    nodes: usize,
    offset: usize,
    count: usize,
    solver_mask: usize,
    knob_mask: usize,
    seed: u64,
    batch: usize,
) -> CampaignSpec {
    let mut builder = CampaignSpec::builder();
    builder = match selection {
        0 => builder.scenario_set(ScenarioSet::Standard, nodes),
        1 => builder.scenario_set(ScenarioSet::Churn, nodes),
        2 => builder.scenario_set(ScenarioSet::Extended, nodes),
        _ => {
            let pool = extended_families(nodes);
            let picks: Vec<Scenario> = (0..1 + offset % 3)
                .map(|i| pool[(offset + i * 11) % pool.len()].clone())
                .collect();
            builder.scenarios(picks)
        }
    };
    // A non-empty, duplicate-free lineup drawn from the full registry.
    let pool = [
        "dp_power",
        "greedy_power",
        "heur_power_greedy",
        "greedy",
        "dp_mincost_nopre",
    ];
    let mut solvers: Vec<&str> = pool
        .iter()
        .enumerate()
        .filter(|(i, _)| solver_mask >> i & 1 == 1)
        .map(|(_, s)| *s)
        .collect();
    if solvers.is_empty() {
        solvers.push(pool[solver_mask % pool.len()]);
    }
    if knob_mask & 1 == 1 {
        builder = builder.reference(solvers[0]);
    }
    if knob_mask & 2 == 2 {
        builder = builder.cost_bound((seed % 100) as f64);
    }
    if knob_mask & 4 == 4 {
        builder = builder.budget_grid((1..=3).map(|i| (i * (1 + seed % 20)) as f64));
    }
    if knob_mask & 8 == 8 {
        builder = builder.threads(1 + knob_mask % 4);
    }
    builder = builder.output(OutputFormat::ALL[knob_mask % OutputFormat::ALL.len()]);
    builder
        .solvers(solvers)
        .instances_per_scenario(count)
        .seed(seed)
        .batch_jobs(batch)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// serialize → deserialize is the identity, and the round-tripped
    /// spec resolves to an equal campaign.
    #[test]
    fn json_round_trip_is_identity(
        selection in 0usize..4,
        nodes in 8usize..14,
        offset in 0usize..35,
        count in 1usize..4,
        solver_mask in 0usize..32,
        knob_mask in 0usize..16,
        seed in 0u64..1_000_000,
        batch in 1usize..80,
    ) {
        let spec = spec_from(selection, nodes, offset, count, solver_mask, knob_mask, seed, batch);
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        prop_assert_eq!(&back, &spec, "deserialization must reproduce every field");
        prop_assert_eq!(back.to_json(), json, "re-serialization must reproduce the bytes");

        let registry = Registry::with_all();
        let campaign = spec.validate(&registry).unwrap();
        let again = back.validate(&registry).unwrap();
        prop_assert_eq!(&again, &campaign, "round-tripped specs resolve identically");
        prop_assert_eq!(again.fingerprint(), campaign.fingerprint());

        // And the resolved campaign's own spec() is a fixed point.
        let reresolved = campaign.spec().validate(&registry).unwrap();
        prop_assert_eq!(&reresolved, &campaign);
    }
}

proptest! {
    // Each case runs two small fleets; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A round-tripped spec produces a byte-identical fleet digest
    /// (aggregates + cell_count + FNV cell checksum) to the original.
    #[test]
    fn round_tripped_spec_runs_to_an_identical_digest(
        offset in 0usize..35,
        count in 1usize..3,
        seed in 0u64..10_000,
        batch in 1usize..8,
        solver_mask in 1usize..4,
    ) {
        // Inline selection keeps the job space small (1–2 scenarios at
        // 8 nodes): the digest comparison is about the wire format, not
        // fleet scale.
        let spec = spec_from(3, 8, offset, count, solver_mask, 1, seed, batch);
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();

        let registry = Registry::with_all();
        let original = spec.validate(&registry).unwrap();
        let round_tripped = back.validate(&registry).unwrap();

        let run = |campaign: &replica_engine::Campaign| {
            let fleet = Fleet::try_new(&registry, campaign.fleet_config()).unwrap();
            fleet.run(&campaign.space(), &Obs::noop())
        };
        let a = run(&original);
        let b = run(&round_tripped);
        prop_assert_eq!(a.cell_count, b.cell_count);
        prop_assert_eq!(a.cell_checksum, b.cell_checksum, "FNV checksum must survive the wire");
        prop_assert_eq!(a.digest(), b.digest(), "full digest must be byte-identical");
        prop_assert_eq!(a.table_deterministic(), b.table_deterministic());
    }
}
