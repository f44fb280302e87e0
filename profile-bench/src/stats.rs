//! Order statistics and the regression verdict `compare` applies.

use crate::json::Value;

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method), because
/// that is what the spread check of the benchmark contract uses. With fewer
/// than two values both quartiles are the value itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    if xs.len() < 2 {
        let only = xs.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending slice; `pct` in `(0, 100]`.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles this benchmark reports, highest last, each with the
/// share of samples beyond it written as "one in".
const TAIL_PERCENTILES: [(f64, usize); 4] = [(50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000)];

/// The highest of the reported percentiles that still has at least ten
/// samples beyond it — a tail read off fewer samples does not repeat. `None`
/// when even the median has fewer than ten samples above it.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rfind(|(_, one_in)| samples / one_in >= 10)
        .map(|(pct, _)| *pct)
}

/// Median, quartiles and the raw per-repetition values of one metric.
#[derive(Debug, Clone)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            median: median(samples),
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }

    /// Interquartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("median", self.median)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("n", self.samples.len())
            .with("samples", self.samples.as_slice())
    }

    pub fn from_json(v: &Value) -> Summary {
        Summary {
            median: v.num("median", f64::NAN),
            q1: v.num("q1", f64::NAN),
            q3: v.num("q3", f64::NAN),
            samples: v.nums("samples"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Better {
        if s == "higher" {
            Better::Higher
        } else {
            Better::Lower
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs interleave: the data cannot say "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new`'s median is than `base`'s, as a share of the base
/// (negative = better). A zero base only counts as worse when `new` moved
/// in the bad direction at all.
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base != 0.0 {
        delta / base.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// The verdict for one (workload, metric) pair: `regressed` when the new
/// median is worse than the base median by more than `bound`; but where
/// either side's interquartile spread exceeds the bound, the medians alone
/// decide nothing — then only "every new run beats every base run" is `ok`
/// and only "every new run loses to every base run" can be `regressed`.
///
/// A bound of zero is a hard limit (`failed_share`): there the worst run of
/// each side decides, so a single failing repetition is a regression.
pub fn judge(base: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    if bound == 0.0 {
        let worst = |s: &Summary| {
            let pick = match better {
                Better::Lower => f64::max,
                Better::Higher => f64::min,
            };
            s.samples.iter().copied().reduce(pick).unwrap_or(s.median)
        };
        return if worse_by(worst(base), worst(new), better) > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let worse = worse_by(base.median, new.median, better) > bound;
    if base.spread().max(new.spread()) <= bound {
        return if worse {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let all = |f: &dyn Fn(f64, f64) -> bool| {
        new.samples
            .iter()
            .all(|&n| base.samples.iter().all(|&b| f(n, b)))
    };
    if all(&|n, b| beats(n, b)) {
        Verdict::Ok
    } else if worse && all(&|n, b| beats(b, n)) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
        assert_eq!(percentile_sorted(&xs, 99.9), 100.0);
        assert_eq!(percentile_sorted(&[4.0], 50.0), 4.0);
    }

    #[test]
    fn verdicts() {
        let tight = |c: f64| Summary::of(&[c * 0.99, c, c, c, c * 1.01]);
        // Steady data: the medians decide.
        assert_eq!(
            judge(&tight(100.0), &tight(105.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight(100.0), &tight(115.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight(100.0), &tight(85.0), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight(100.0), &tight(85.0), Better::Lower, 0.10),
            Verdict::Ok
        );

        // Spread wider than the bound, runs interleave: unresolved either way.
        let wide_a = Summary::of(&[80.0, 90.0, 100.0, 120.0, 140.0]);
        let wide_b = Summary::of(&[85.0, 95.0, 125.0, 130.0, 150.0]);
        assert_eq!(
            judge(&wide_a, &wide_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&wide_a, &wide_a, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide, but every new run is worse than every base run.
        let far = Summary::of(&[200.0, 220.0, 260.0, 300.0, 320.0]);
        assert_eq!(
            judge(&wide_a, &far, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Wide, but every new run is better than every base run.
        assert_eq!(judge(&far, &wide_a, Better::Lower, 0.10), Verdict::Ok);

        // A bound of zero (failed_share): one failing run is a regression.
        let zero = Summary::of(&[0.0; 5]);
        let one_bad = Summary::of(&[0.0, 0.0, 0.0, 0.0, 0.1]);
        assert_eq!(judge(&zero, &zero, Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(
            judge(&zero, &one_bad, Better::Lower, 0.0),
            Verdict::Regressed
        );
        assert_eq!(judge(&one_bad, &zero, Better::Lower, 0.0), Verdict::Ok);
    }
}
