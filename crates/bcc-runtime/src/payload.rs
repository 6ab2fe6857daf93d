//! Encoded bit widths of broadcast values.
//!
//! The round complexity of every algorithm in the paper is expressed in terms
//! of `B = Θ(log n)`-bit messages, and wider values (edge weights bounded by
//! `W`, fixed-point reals with `O(log(nU/ε))` bits) are charged
//! `⌈bits / B⌉` rounds. To keep that accounting honest, a broadcast value is
//! charged at its *encoded* width under the paper's conventions, computed
//! here, never at the width of its in-memory `f64`/`i64` representation.

use crate::model::ceil_log2;

/// Number of bits needed to encode a non-negative integer in `0..=max_value`.
pub fn bits_for_range(max_value: u64) -> u32 {
    ceil_log2(max_value.saturating_add(1).max(2))
}

/// Number of bits used to encode a real value with the paper's fixed-point
/// convention: values of magnitude at most `max_abs` with additive resolution
/// `resolution` need `⌈log2(2·max_abs/resolution + 1)⌉` bits (one sign bit is
/// folded into the range).
pub fn bits_for_real(max_abs: f64, resolution: f64) -> u32 {
    assert!(
        max_abs.is_finite() && resolution.is_finite() && resolution > 0.0,
        "bits_for_real requires finite max_abs and positive resolution"
    );
    let levels = (2.0 * max_abs.abs() / resolution)
        .max(1.0)
        .min(u64::MAX as f64 / 4.0);
    bits_for_range((levels.ceil() as u64).saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_range_matches_hand_counts() {
        assert_eq!(bits_for_range(0), 1);
        assert_eq!(bits_for_range(1), 1);
        assert_eq!(bits_for_range(2), 2);
        assert_eq!(bits_for_range(3), 2);
        assert_eq!(bits_for_range(255), 8);
        assert_eq!(bits_for_range(256), 9);
    }

    #[test]
    fn bits_for_real_scales_with_precision() {
        let coarse = bits_for_real(1.0, 0.5);
        let fine = bits_for_real(1.0, 1.0 / 1024.0);
        assert!(fine > coarse);
        // 2 * 1.0 / (1/1024) = 2048 levels -> 11-12 bits.
        assert!((11..=13).contains(&fine), "fine = {fine}");
    }

    #[test]
    #[should_panic]
    fn bits_for_real_rejects_zero_resolution() {
        let _ = bits_for_real(1.0, 0.0);
    }
}
