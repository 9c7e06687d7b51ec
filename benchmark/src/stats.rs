//! Median and quartiles of a handful of repetitions.

/// Order statistics of one metric's repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles by the exclusive method (Python's
    /// `statistics.quantiles(values, n=4)`), so the spread printed here is
    /// the spread the acceptance rule computes.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let at = |p: f64| -> f64 {
            if n == 1 {
                return v[0];
            }
            let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(n);
            v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
        };
        Summary {
            n,
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: v[n - 1],
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3., 1., 2.]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[7.0]).q3, 7.0);
    }
}
