//! Stratified draws for the workload generators.

use rand::Rng;

/// `n` draws from the inclusive range `lo..=hi`, one from the middle quarter
/// of each of `n` equal strata of the range, in stratum order: every run
/// covers the whole range evenly, and the exact values vary with the seed
/// while each stays within an eighth of a stratum of its stratum's centre,
/// so that the k-th smallest draw (and so the time quantiles over the
/// inputs) moves little from seed to seed.
pub fn stratified(rng: &mut impl Rng, (lo, hi): (u64, u64), n: usize) -> Vec<u64> {
    let width = hi - lo + 1;
    (0..n as u64)
        .map(|i| {
            let from = lo + width * i / n as u64;
            let to = lo + width * (i + 1) / n as u64;
            let margin = (to - from) * 3 / 8;
            let (from, to) = (from + margin, to - margin);
            rng.gen_range(from..to.max(from + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stratified_draws_cover_every_stratum() {
        let draws = stratified(&mut StdRng::seed_from_u64(7), (32, 256), 12);
        for (i, d) in draws.iter().enumerate() {
            let from = 32 + 225 * i as u64 / 12;
            let to = 32 + 225 * (i as u64 + 1) / 12;
            let margin = (to - from) * 3 / 8;
            assert!(
                (from + margin..to - margin).contains(d),
                "{d} outside the middle quarter of stratum {i}"
            );
        }
    }
}
