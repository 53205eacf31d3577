//! Typed physical units used throughout the simulator.
//!
//! Time is tracked in integer picoseconds ([`Picos`]) so that command-level
//! accounting is exact and deterministic; energy is tracked in picojoules
//! ([`PicoJoules`]) as a non-negative floating point accumulator.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or timestamp in integer picoseconds.
///
/// All DRAM timing parameters (tRCD, tRP, …) are expressed in `Picos` so
/// that the simulated clock never accumulates floating-point drift.
///
/// ```
/// use pluto_dram::Picos;
/// let trcd = Picos::from_ns(14.16);
/// assert_eq!(trcd.as_ps(), 14_160);
/// assert!((trcd.as_ns() - 14.16).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(pub u64);

impl Picos {
    /// The zero duration.
    pub const ZERO: Picos = Picos(0);

    /// Creates a duration from a (non-negative) nanosecond value.
    ///
    /// # Panics
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "invalid nanosecond value: {ns}"
        );
        Picos((ns * 1e3).round() as u64)
    }

    /// Creates a duration from an integer picosecond count.
    pub const fn from_ps(ps: u64) -> Self {
        Picos(ps)
    }

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the duration in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by an integer count.
    pub const fn times(self, n: u64) -> Picos {
        Picos(self.0 * n)
    }

    /// Returns the larger of two durations.
    pub fn max(self, rhs: Picos) -> Picos {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// picosecond. Used e.g. for the tFAW sensitivity sweep (paper Fig. 13).
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Picos {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        Picos((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// An energy quantity in picojoules.
///
/// ```
/// use pluto_dram::PicoJoules;
/// let act = PicoJoules::from_nj(18.0);
/// assert!((act.as_nj() - 18.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PicoJoules(pub f64);

impl PicoJoules {
    /// The zero energy.
    pub const ZERO: PicoJoules = PicoJoules(0.0);

    /// Creates an energy from a (non-negative) nanojoule value.
    ///
    /// # Panics
    /// Panics if `nj` is negative or not finite.
    pub fn from_nj(nj: f64) -> Self {
        assert!(nj.is_finite() && nj >= 0.0, "invalid nanojoule value: {nj}");
        PicoJoules(nj * 1e3)
    }

    /// Creates an energy from a raw picojoule value.
    ///
    /// # Panics
    /// Panics if `pj` is negative or not finite.
    pub fn from_pj(pj: f64) -> Self {
        assert!(pj.is_finite() && pj >= 0.0, "invalid picojoule value: {pj}");
        PicoJoules(pj)
    }

    /// Returns the energy in picojoules.
    pub const fn as_pj(self) -> f64 {
        self.0
    }

    /// Returns the energy in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the energy in millijoules.
    pub fn as_mj(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the energy in joules.
    pub fn as_joules(self) -> f64 {
        self.0 / 1e12
    }

    /// Multiplies the energy by an integer count.
    pub fn times(self, n: u64) -> PicoJoules {
        PicoJoules(self.0 * n as f64)
    }

    /// Returns, bit for bit, what `n` sequential `self += e` give, in
    /// O(binades crossed) additions rather than `n` (cost-tape replay of
    /// a run of identical spends, [`crate::Engine::apply_replayed`]).
    ///
    /// Why a jump is exact: inside one binade `[2^k, 2^(k+1))` every
    /// `f64` is an integer multiple of the binade's ulp `u`. Write
    /// `e = (q + f)·u` with integer `q` and `0 ≤ f < 1`. While the sum
    /// stays in the binade, round-to-nearest-even gives
    /// `fl(acc + e) = acc + (q + [f > ½])·u` whatever `acc` is; only an
    /// exact tie (`f = ½`) looks at `acc`, rounding to the even
    /// significand. A tie's result is even, and from an even significand
    /// a tie always rounds the same way. So after one step inside the
    /// binade, every further step there adds the same
    /// `d = fl(acc + e) − acc` (exact, as in Fast2Sum). The helper takes
    /// two plain steps in a binade, reads `d` in ulps as the difference
    /// of their bit patterns, and adds `m·d` to the bits for as many steps
    /// `m` as keep the significand inside the binade. Binade crossings
    /// (including `e ≥ acc`), zero, subnormal, negative and non-finite
    /// accumulators, and negative or non-finite addends take plain
    /// steps; so do runs shorter than eight.
    #[inline]
    pub fn add_repeated(self, e: PicoJoules, n: u64) -> PicoJoules {
        /// Runs this short cost less summed one addition at a time.
        const SHORT_RUN: u64 = 8;
        const MANTISSA: u64 = (1 << 52) - 1;
        let (mut acc, e, mut n) = (self.0, e.0, n);
        if n < SHORT_RUN || !(e >= 0.0 && e.is_finite()) {
            for _ in 0..n {
                acc += e;
            }
            return PicoJoules(acc);
        }
        // Consecutive plain steps taken inside the current binade.
        let mut in_binade = 0u32;
        while n > 0 {
            let (a, b) = (acc.to_bits(), (acc + e).to_bits());
            n -= 1;
            // The sign bit is part of `exp`, so a negative accumulator
            // never matches a normal positive binade.
            let exp = a >> 52;
            if (1..0x7ff).contains(&exp) && b >> 52 == exp {
                in_binade += 1;
                if in_binade >= 2 {
                    let d = b - a;
                    // `d == 0`: the spend no longer moves the sum at all.
                    let jump = (MANTISSA - (b & MANTISSA))
                        .checked_div(d)
                        .map_or(n, |room| n.min(room));
                    acc = f64::from_bits(b + jump * d);
                    n -= jump;
                    in_binade = 0;
                    continue;
                }
            } else {
                in_binade = 0;
            }
            acc = f64::from_bits(b);
        }
        PicoJoules(acc)
    }
}

impl Add for PicoJoules {
    type Output = PicoJoules;
    fn add(self, rhs: PicoJoules) -> PicoJoules {
        PicoJoules(self.0 + rhs.0)
    }
}

impl AddAssign for PicoJoules {
    fn add_assign(&mut self, rhs: PicoJoules) {
        self.0 += rhs.0;
    }
}

impl Sub for PicoJoules {
    type Output = PicoJoules;
    fn sub(self, rhs: PicoJoules) -> PicoJoules {
        PicoJoules(self.0 - rhs.0)
    }
}

impl Mul<f64> for PicoJoules {
    type Output = PicoJoules;
    fn mul(self, rhs: f64) -> PicoJoules {
        PicoJoules(self.0 * rhs)
    }
}

impl Sum for PicoJoules {
    fn sum<I: Iterator<Item = PicoJoules>>(iter: I) -> PicoJoules {
        iter.fold(PicoJoules::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for PicoJoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} mJ", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} uJ", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} nJ", self.0 / 1e3)
        } else {
            write!(f, "{:.3} pJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picos_roundtrip_ns() {
        let t = Picos::from_ns(14.16);
        assert_eq!(t.as_ps(), 14_160);
        assert!((t.as_ns() - 14.16).abs() < 1e-9);
    }

    #[test]
    fn picos_arithmetic() {
        let a = Picos::from_ps(100);
        let b = Picos::from_ps(50);
        assert_eq!((a + b).as_ps(), 150);
        assert_eq!((a - b).as_ps(), 50);
        assert_eq!((a * 3).as_ps(), 300);
        assert_eq!((a / 4).as_ps(), 25);
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
    }

    #[test]
    fn picos_scale_rounds() {
        assert_eq!(Picos::from_ps(100).scale(0.5).as_ps(), 50);
        assert_eq!(Picos::from_ps(3).scale(0.5).as_ps(), 2); // rounds .5 away
        assert_eq!(Picos::from_ps(100).scale(0.0), Picos::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid scale factor")]
    fn picos_scale_rejects_negative() {
        let _ = Picos::from_ps(1).scale(-1.0);
    }

    #[test]
    fn picos_sum() {
        let total: Picos = (1..=4).map(Picos::from_ps).sum();
        assert_eq!(total.as_ps(), 10);
    }

    #[test]
    fn picos_display_units() {
        assert_eq!(format!("{}", Picos::from_ps(5)), "5 ps");
        assert_eq!(format!("{}", Picos::from_ps(5_000)), "5.000 ns");
        assert_eq!(format!("{}", Picos::from_ps(5_000_000)), "5.000 us");
        assert_eq!(format!("{}", Picos::from_ps(5_000_000_000)), "5.000 ms");
    }

    #[test]
    fn energy_roundtrip() {
        let e = PicoJoules::from_nj(18.0);
        assert!((e.as_nj() - 18.0).abs() < 1e-12);
        assert!((e.as_joules() - 18.0e-9).abs() < 1e-20);
    }

    #[test]
    fn energy_accumulates() {
        let mut e = PicoJoules::ZERO;
        for _ in 0..10 {
            e += PicoJoules::from_pj(1.5);
        }
        assert!((e.as_pj() - 15.0).abs() < 1e-12);
        assert!((e.times(2).as_pj() - 30.0).abs() < 1e-12);
    }

    /// The reference `add_repeated` must reproduce: `n` plain additions.
    fn add_naive(acc: f64, e: f64, n: u64) -> f64 {
        let mut acc = acc;
        for _ in 0..n {
            acc += e;
        }
        acc
    }

    fn assert_add_repeated_exact(acc: f64, e: f64, n: u64) {
        let got = PicoJoules(acc).add_repeated(PicoJoules(e), n).0;
        let want = add_naive(acc, e, n);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "acc {acc:e} e {e:e} n {n}: {got:e} != {want:e}"
        );
    }

    /// An addend that is an exact half-ulp tie against `acc`'s binade:
    /// `(k + ½)·ulp(acc)` for a positive normal `acc`.
    fn half_ulp_tie(acc: f64, k: u64) -> f64 {
        let ulp = f64::from_bits(acc.to_bits() + 1) - acc;
        ulp * (k as f64 + 0.5)
    }

    #[test]
    fn add_repeated_matches_sequential_additions_bit_for_bit() {
        use sim_support::prop::{self, Gen};
        fn accumulator(g: &mut Gen) -> f64 {
            match g.range(0u32..6) {
                0 => 0.0,
                1 => f64::from_bits(g.range(1u64..1 << 52)), // subnormal
                2 => -g.range(1.0f64..1e6),
                // Normal, anywhere from 2^-1000 to 2^1000.
                _ => f64::from_bits(g.range(24u64..2024) << 52 | g.any::<u64>() >> 12),
            }
        }
        fn addend(g: &mut Gen, acc: f64) -> f64 {
            let normal = acc.is_normal() && acc > 0.0;
            match g.range(0u32..7) {
                0 => 0.0,
                1 if normal => half_ulp_tie(acc, g.range(0u64..1 << 20)),
                2 if normal => acc * g.range(1.0f64..4.0), // e >= acc
                3 => [0.1, 13.37, 4.2e-3, 1.0, 18_000.0][g.range(0usize..5)],
                4 => f64::from_bits(g.range(1u64..1 << 52)), // subnormal
                // Anywhere from ~2^-60 to ~2 times `acc` (or tiny).
                _ => {
                    let scale = if normal { acc } else { 1.0 };
                    scale * g.range(0.0f64..2.0) * f64::powi(2.0, -g.range(0i32..60))
                }
            }
        }
        prop::check("add_repeated_vs_naive", 2000, |g| {
            let acc = accumulator(g);
            let e = addend(g, acc);
            let n = g.range(0u64..10_000);
            let got = PicoJoules(acc).add_repeated(PicoJoules(e), n).0;
            let want = add_naive(acc, e, n);
            sim_support::prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "acc {acc:e} e {e:e} n {n}"
            );
            Ok(())
        });
    }

    #[test]
    fn add_repeated_is_exact_on_long_runs_ties_and_edges() {
        let long = (1 << 20) + 3;
        // Non-dyadic spends from zero cross ~20 binades.
        for e in [0.1, 13.37, 4.2e-3] {
            assert_add_repeated_exact(0.0, e, long);
        }
        // A tie in every binade it visits, both significand parities.
        assert_add_repeated_exact(1.0, half_ulp_tie(1.0, 3), long);
        assert_add_repeated_exact(1.0 + f64::EPSILON, half_ulp_tie(1.0, 2), long);
        // Pure half-ulp ties: from an even significand they never move
        // the accumulator; from an odd one they move it once.
        assert_add_repeated_exact(1.0, f64::EPSILON / 2.0, long);
        assert_add_repeated_exact(1.0 + f64::EPSILON, f64::EPSILON / 2.0, long);
        // Spends too small to register, zero, subnormal and edge inputs.
        assert_add_repeated_exact(1e6, 1e-12, long);
        assert_add_repeated_exact(1e6, 0.0, long);
        assert_add_repeated_exact(0.0, 0.0, 100);
        assert_add_repeated_exact(0.0, f64::from_bits(1), 100);
        assert_add_repeated_exact(f64::MAX / 2.0, f64::MAX / 8.0, 100);
        for n in 0..20 {
            assert_add_repeated_exact(2.0 - f64::EPSILON, 0.3, n);
            assert_add_repeated_exact(18_000.0, 18_000.0, n);
        }
    }

    #[test]
    fn energy_display_units() {
        assert_eq!(format!("{}", PicoJoules::from_pj(2.0)), "2.000 pJ");
        assert_eq!(format!("{}", PicoJoules::from_nj(2.0)), "2.000 nJ");
    }
}
