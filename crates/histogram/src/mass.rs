//! Exact fixed-point accumulator for fractional histogram masses.
//!
//! The revised-GH and PH statistics are per-cell sums of fractional
//! contributions (clipped areas, clipped edge lengths). Accumulating them
//! in `f64` makes the sum depend on the order of addition, so two shard
//! builds merged together would differ from the serial build in the last
//! bits — breaking the byte-identical shard-and-merge contract. [`Mass`]
//! instead quantizes every contribution once to a fixed-point grid of
//! 2⁻⁷⁵ and accumulates in `i128`, where addition is associative and
//! commutative: *any* partition of the input produces the identical sum.
//!
//! Capacity and precision: with 75 fractional bits, |sum| < 2⁵² in
//! contribution units is representable; the quantization error is at most
//! 2⁻⁷⁶ per contribution — about 10⁻²³, far below both `f64` round-off on
//! the contributions themselves and every tolerance in the estimator
//! stack. Pathological magnitudes saturate instead of wrapping.

#![warn(clippy::indexing_slicing)]

use bytes::{Buf, BufMut};

/// Number of fractional bits in the fixed-point representation.
const FRAC_BITS: i32 = 75;

/// An exactly-mergeable sum of fractional contributions, stored as a
/// fixed-point `i128` in units of 2⁻⁷⁵.
///
/// Every fractional histogram statistic (clipped coverage, clipped edge
/// length) accumulates through this type, which is what makes shard
/// builds merge bit-identically to a serial build: each contribution is
/// quantized *once* by [`Mass::from_f64`] and summation is then exact
/// integer addition — associative and commutative, so the partition of
/// the input into shards cannot change the total.
///
/// # Examples
/// ```
/// use sj_histogram::Mass;
///
/// // Summing in any order or grouping produces the identical value —
/// // unlike f64, where (a + b) + c can differ from a + (b + c).
/// let xs = [0.1, 0.7, 1e-9, 3.17159];
/// let mut forward = Mass::ZERO;
/// for &x in &xs {
///     forward += Mass::from_f64(x);
/// }
/// let mut reverse = Mass::ZERO;
/// for &x in xs.iter().rev() {
///     reverse += Mass::from_f64(x);
/// }
/// assert_eq!(forward, reverse);
/// assert!((forward.to_f64() - xs.iter().sum::<f64>()).abs() < 1e-12);
/// assert!(!forward.is_zero());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mass(i128);

impl Mass {
    /// The zero mass.
    pub const ZERO: Mass = Mass(0);

    /// Quantizes one `f64` contribution. Multiplying by a power of two is
    /// exact in `f64` (an exponent shift), so the only inexact step is the
    /// final round to the 2⁻⁷⁵ grid; `as` saturates out-of-range values
    /// and maps NaN to zero.
    #[must_use]
    pub fn from_f64(x: f64) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`as` saturates out-of-range values and maps NaN to zero"
        )]
        Self((x * 2f64.powi(FRAC_BITS)).round() as i128)
    }

    /// The closest `f64` to the exact stored sum.
    #[allow(clippy::cast_precision_loss)]
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 * 2f64.powi(-FRAC_BITS)
    }

    /// Whether any mass has been accumulated.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The raw fixed-point value in units of 2⁻⁷⁵ — exact, used by the
    /// divergence reporter to render masses without rounding.
    #[must_use]
    pub fn raw_units(self) -> i128 {
        self.0
    }

    /// Exact negation, or `None` for the one unrepresentable case
    /// (`i128::MIN`). Delta application subtracts masses; the checked
    /// form keeps that path free of silent wrapping.
    ///
    /// # Examples
    /// ```
    /// use sj_histogram::Mass;
    /// let m = Mass::from_f64(0.5);
    /// assert_eq!(m.checked_neg().unwrap().to_f64(), -0.5);
    /// ```
    #[must_use]
    pub fn checked_neg(self) -> Option<Mass> {
        self.0.checked_neg().map(Self)
    }

    /// Subtracts `rhs`, saturating at the `i128` extremes instead of
    /// wrapping — the subtractive mirror of the saturating `+=` used by
    /// merges, so pathological magnitudes clamp explicitly.
    #[must_use]
    pub fn saturating_sub(self, rhs: Mass) -> Mass {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Serializes as 16 little-endian bytes.
    pub(crate) fn put_le(self, buf: &mut impl BufMut) {
        buf.put_slice(&self.to_le_bytes());
    }

    /// The 16 little-endian bytes [`Self::put_le`] writes.
    pub(crate) fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Reads 16 little-endian bytes written by [`Self::put_le`].
    ///
    /// # Panics
    /// Panics when fewer than 16 bytes remain (callers size-check first).
    pub(crate) fn get_le(data: &mut &[u8]) -> Self {
        let lo = data.get_u64_le();
        let hi = i64::from_le_bytes(data.get_u64_le().to_le_bytes());
        Self((i128::from(hi) << 64) | i128::from(lo))
    }
}

#[warn(clippy::float_arithmetic)]
impl std::ops::AddAssign for Mass {
    fn add_assign(&mut self, rhs: Self) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl std::ops::SubAssign for Mass {
    fn sub_assign(&mut self, rhs: Self) {
        *self = self.saturating_sub(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadic_ratios_are_exact() {
        for x in [0.0, 0.25, 0.5, 1.0, 123.0625, -0.125] {
            assert_eq!(Mass::from_f64(x).to_f64(), x);
        }
    }

    #[test]
    fn addition_is_associative_and_commutative() {
        let xs = [0.1, 0.7, 1e-9, 3.17159, 0.333_333_333];
        let mut left = Mass::ZERO;
        for &x in &xs {
            left += Mass::from_f64(x);
        }
        let mut right = Mass::ZERO;
        for &x in xs.iter().rev() {
            right += Mass::from_f64(x);
        }
        let mut pairs = Mass::ZERO;
        for chunk in xs.chunks(2) {
            let mut partial = Mass::ZERO;
            for &x in chunk {
                partial += Mass::from_f64(x);
            }
            pairs += partial;
        }
        assert_eq!(left, right);
        assert_eq!(left, pairs);
    }

    #[test]
    fn quantization_error_is_negligible() {
        let x = 0.123_456_789_012_345_6;
        let err = (Mass::from_f64(x).to_f64() - x).abs();
        assert!(err < 1e-20, "quantization error {err:e}");
    }

    #[test]
    fn pathological_inputs_saturate_or_zero() {
        assert_eq!(Mass::from_f64(f64::NAN), Mass::ZERO);
        let huge = Mass::from_f64(f64::INFINITY);
        let mut sum = huge;
        sum += huge;
        assert_eq!(sum.0, i128::MAX, "saturates instead of wrapping");
        assert_eq!(Mass::from_f64(f64::NEG_INFINITY).0, i128::MIN);
    }

    /// Mirrors `pathological_inputs_saturate_or_zero` for the subtractive
    /// helpers: saturation stays explicit, never wrapping.
    #[test]
    fn subtraction_saturates_and_negation_is_checked() {
        let a = Mass::from_f64(1.5);
        let b = Mass::from_f64(0.25);
        assert_eq!(a.saturating_sub(b).to_f64(), 1.25);
        let mut sub = a;
        sub -= b;
        assert_eq!(sub, a.saturating_sub(b));

        // Saturation at both extremes instead of wrapping.
        assert_eq!(Mass(i128::MIN).saturating_sub(Mass(1)).0, i128::MIN);
        assert_eq!(Mass(i128::MAX).saturating_sub(Mass(-1)).0, i128::MAX);

        // Checked negation: exact everywhere except the asymmetric MIN.
        assert_eq!(
            Mass::from_f64(0.75).checked_neg(),
            Some(Mass::from_f64(-0.75))
        );
        assert_eq!(Mass(i128::MAX).checked_neg(), Some(Mass(-i128::MAX)));
        assert_eq!(Mass(i128::MIN).checked_neg(), None);
        assert_eq!(Mass::ZERO.checked_neg(), Some(Mass::ZERO));
    }

    /// Subtracting what was added restores the exact original value —
    /// the inverse property delta application relies on.
    #[test]
    fn subtraction_inverts_addition_exactly() {
        let xs = [0.1, 0.7, 1e-9, 3.17159, -2.5];
        let mut acc = Mass::from_f64(12.375);
        let original = acc;
        for &x in &xs {
            acc += Mass::from_f64(x);
        }
        for &x in &xs {
            acc -= Mass::from_f64(x);
        }
        assert_eq!(acc, original);
    }

    #[test]
    fn bytes_roundtrip() {
        for v in [
            Mass::ZERO,
            Mass::from_f64(0.625),
            Mass::from_f64(-1234.5),
            Mass(i128::MAX),
            Mass(i128::MIN),
            Mass(-1),
        ] {
            let mut buf = bytes::BytesMut::new();
            v.put_le(&mut buf);
            let frozen = buf.freeze();
            assert_eq!(frozen.len(), 16);
            let mut cursor: &[u8] = &frozen;
            assert_eq!(Mass::get_le(&mut cursor), v);
        }
    }
}
