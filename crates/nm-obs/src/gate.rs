//! The noise-aware regression rule shared by both perf gates:
//! `nmcdr bench --compare` and the timing half of
//! `nmcdr obs profile --compare`.
//!
//! A measured quantity regresses only when its change in the bad
//! direction exceeds *both* a relative tolerance (a fraction of the
//! baseline) and an absolute floor (in the quantity's own unit). The
//! tolerance ignores small moves of big numbers; the floor ignores big
//! percentages of near-zero ones. Any bad change from a zero baseline
//! is an infinite relative change, so there the floor alone decides.

/// Direction and noise thresholds of one gated quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// `true` for costs such as latencies (a rise regresses), `false`
    /// for throughputs (a drop regresses).
    pub lower_is_better: bool,
    /// Bad-direction change, as a fraction of the baseline, that fails
    /// when the floor is passed too.
    pub rel_tol: f64,
    /// Bad-direction change, in the quantity's unit, that fails when
    /// the tolerance is passed too.
    pub abs_floor: f64,
}

/// One baseline/current pair judged under a [`Gate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub baseline: f64,
    pub current: f64,
    /// Signed bad-direction change as a fraction of the baseline
    /// (positive = worse, `+inf` for a bad change from zero).
    pub worse_frac: f64,
    pub regressed: bool,
}

impl Gate {
    /// Judges `current` against `baseline`.
    pub fn judge(&self, baseline: f64, current: f64) -> Verdict {
        let bad = if self.lower_is_better {
            current - baseline
        } else {
            baseline - current
        };
        let worse_frac = if baseline != 0.0 {
            bad / baseline.abs()
        } else if bad > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        Verdict {
            baseline,
            current,
            worse_frac,
            regressed: worse_frac > self.rel_tol && bad > self.abs_floor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regresses_only_past_both_thresholds_in_the_bad_direction() {
        let cost = Gate {
            lower_is_better: true,
            rel_tol: 0.50,
            abs_floor: 200.0,
        };
        let rate = Gate {
            lower_is_better: false,
            ..cost
        };
        // (gate, baseline, current, regressed, worse_frac)
        let inf = f64::INFINITY;
        let cases = [
            // a cost that rises past both thresholds
            (cost, 1_000.0, 2_500.0, true, 1.5),
            // past the tolerance alone: +100%, but only +100 units
            (cost, 100.0, 200.0, false, 1.0),
            // past the floor alone: +300 units, but only +30%
            (cost, 1_000.0, 1_300.0, false, 0.3),
            // a falling cost is an improvement
            (cost, 1_000.0, 10.0, false, -0.99),
            // a rate that drops past both thresholds
            (rate, 1_000.0, 250.0, true, 0.75),
            // past the tolerance alone: -60%, but only -60 units
            (rate, 100.0, 40.0, false, 0.6),
            // past the floor alone: -300 units, but only -30%
            (rate, 1_000.0, 700.0, false, 0.3),
            // a rising rate is an improvement
            (rate, 1_000.0, 1_800.0, false, -0.8),
            // a zero baseline: any bad change is infinite, so the floor
            // alone decides
            (cost, 0.0, 500.0, true, inf),
            (cost, 0.0, 150.0, false, inf),
            (cost, 0.0, 0.0, false, 0.0),
            (rate, 0.0, 40.0, false, 0.0),
        ];
        for (gate, baseline, current, regressed, worse_frac) in cases {
            let v = gate.judge(baseline, current);
            assert_eq!(v.regressed, regressed, "{gate:?} {baseline} -> {current}");
            assert!(
                (v.worse_frac - worse_frac).abs() < 1e-12 || v.worse_frac == worse_frac,
                "{gate:?} {baseline} -> {current}: worse_frac {}",
                v.worse_frac
            );
        }
    }
}
