//! Sample statistics and outcome accounting.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median by nearest rank (rank `ceil(n/2)` of the sorted samples).
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// The nearest-rank `p`-quantile: rank `ceil(p·n)` (1-based, at least 1)
/// of the sorted samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// A tail percentile with its provenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at `rank`.
    pub value: f64,
    /// 1-based rank in the sorted sample.
    pub rank: usize,
    /// Sample count.
    pub samples: usize,
    /// Samples strictly beyond `rank` (`samples − rank`).
    pub beyond: usize,
}

impl Tail {
    /// The nearest-rank percentile this rank represents, in percent.
    pub fn percentile(&self) -> f64 {
        100.0 * self.rank as f64 / self.samples as f64
    }

    /// Whether the sample was large enough for a real tail (at least
    /// [`TAIL_MIN_BEYOND`] samples beyond the reported rank).
    pub fn supported(&self) -> bool {
        self.beyond >= TAIL_MIN_BEYOND
    }
}

/// The highest nearest-rank percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it: rank `n − 10`. With ten or fewer
/// samples no percentile qualifies, and the median stands in
/// ([`Tail::supported`] is then false). `None` for an empty sample.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = if n > TAIL_MIN_BEYOND {
        n - TAIL_MIN_BEYOND
    } else {
        n.div_ceil(2)
    };
    Some(Tail {
        value: sorted(samples)[rank - 1],
        rank,
        samples: n,
        beyond: n - rank,
    })
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Outcome accounting: every attempt is either ok or failed, and every
/// failure is printed with its reason.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    ok: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    /// Records one successful attempt.
    pub fn ok(&mut self) {
        self.ok += 1;
    }

    /// Records one failed attempt and prints why.
    pub fn fail(&mut self, why: String) {
        eprintln!("VIOLATION: {why}");
        self.failed += 1;
        self.violations.push(why);
    }

    /// Records an attempt from a check result.
    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(why) => self.fail(why),
        }
    }

    /// Folds another tally (e.g. one caller thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    /// Attempts recorded (`ok + failed`).
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    /// Successful attempts.
    pub fn succeeded(&self) -> u64 {
        self.ok
    }

    /// Failed attempts.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed as f64 / n as f64,
        }
    }

    /// Every failure reason, in the order recorded.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}
