//! Seed handling: every generator seed is derived from the one `--seed`
//! argument, so the same seed gives the same inputs.

use scope_common::hash::sip64;

/// A seed no tuning run uses. A change that claims a gain must also show
/// it on this seed (see the README).
pub const HELD_OUT_SEED: u64 = 0x5EED_0B5E_2018;

/// The generator seed for the input named `label`, derived from `seed`.
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(label.as_bytes());
    sip64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable_and_separates_labels() {
        assert_eq!(derive(7, "recurring"), derive(7, "recurring"));
        assert_ne!(derive(7, "recurring"), derive(8, "recurring"));
        assert_ne!(derive(7, "recurring"), derive(7, "tpcds"));
    }
}
