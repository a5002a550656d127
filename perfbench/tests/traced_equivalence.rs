//! The traced driver reproduces `FederatedEngine::run` byte for byte on
//! every `guided-mix` and `flood-chain` query, for the default seed and one
//! other seed, and the layer calls' self times account for the traced wall
//! time up to the run loop's own share.
//!
//! Run with `cargo test --release`: bank-negative alone takes seconds per
//! strategy in a release build.

use std::time::Instant;

use accrel_perfbench::sequential::{
    first_difference, flood_chain_inputs, guided_mix_inputs, Input, LayerCounts, Outcome,
};
use accrel_perfbench::trace::Tracer;
use accrel_perfbench::workloads::UNATTRIBUTED_TOLERANCE;

/// The seed the benchmark uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const OTHER_SEED: u64 = 2;

fn assert_traced_matches<'a>(inputs: impl IntoIterator<Item = &'a Input>) {
    let mut tracer = Tracer::new();
    let mut traced_ms = 0.0;
    let mut runs = 0;
    for input in inputs {
        for &strategy in &input.strategies {
            let untraced = Outcome::from(input.run(strategy));
            let start = Instant::now();
            let traced = input.run_traced(strategy, &mut tracer, &mut LayerCounts::default());
            traced_ms += start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                first_difference(&traced, &untraced),
                None,
                "traced driver diverged on {} {}",
                input.label,
                strategy.name()
            );
            runs += 1;
        }
    }
    assert!(runs > 0, "no query was checked");
    let unattributed = 1.0 - tracer.self_times().layer_ms() / traced_ms;
    assert!(
        unattributed <= UNATTRIBUTED_TOLERANCE,
        "layer self times leave {unattributed} of traced wall unattributed"
    );
}

#[test]
fn guided_mix_default_seed() {
    let inputs = guided_mix_inputs(DEFAULT_SEED);
    assert_traced_matches(
        inputs
            .timed
            .iter()
            .chain(&inputs.traced_only)
            .chain(&inputs.sweep),
    );
}

#[test]
fn guided_mix_other_seed() {
    // The timed scenarios do not depend on the seed (the default-seed test
    // covers them); the swept random cases do.
    let inputs = guided_mix_inputs(OTHER_SEED);
    assert_traced_matches(&inputs.sweep);
}

#[test]
fn flood_chain_default_seed() {
    assert_traced_matches(&flood_chain_inputs(DEFAULT_SEED).timed);
}

#[test]
fn flood_chain_other_seed() {
    assert_traced_matches(&flood_chain_inputs(OTHER_SEED).timed);
}
