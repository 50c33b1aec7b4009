//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the workspace's one
//! seedable generator and integer hash. It drives the runtime's latency
//! jitter, the Wang–Landau spin proposals and the race-corpus generator,
//! all of which must reproduce bit for bit.

/// SplitMix64's output finalizer: a bijective avalanche mix of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: the state advances by [`SplitMix64::GAMMA`] and
/// each output is [`mix64`] of the new state.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The state increment (2⁶⁴ over the golden ratio, made odd).
    pub const GAMMA: u64 = 0x9E3779B97F4A7C15;

    /// The next output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(Self::GAMMA);
        mix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn matches_the_reference_sequence() {
        // First outputs of the reference C implementation for seed 1234567.
        let mut rng = super::SplitMix64(1234567);
        let first = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(
            first,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }
}
