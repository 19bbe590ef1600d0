//! Host-speed calibration.
//!
//! On a shared host the same code runs up to a third faster or slower
//! from one minute, or one second, to the next. The swings follow the
//! cost of heap allocation and map updates, which the sessions do on
//! every delivery. A fixed reference kernel of that kind, built from
//! the standard library only so that no change to the program's code
//! can speed it up, is timed after every round. The kernel times just
//! before and just after a round say how fast the host ran during it,
//! and the end-to-end timings are scaled to a host on which the kernel
//! takes [`NOMINAL_MS`].
//!
//! A change of global allocator speeds the kernel up too, so its gain
//! shows in the raw figures the benchmark prints, not the scaled ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time the scaled figures refer to.
pub const NOMINAL_MS: f64 = 1.0;

/// Insertions per kernel pass.
const INSERTS: u64 = 6_000;
/// Distinct keys: later insertions replace, and free, earlier values.
const KEYS: u64 = 5_000;

/// One pass of the reference kernel: small vectors of varying length
/// allocated, summed and inserted into an ordered map that frees the
/// values they replace.
pub fn kernel(inserts: u64) -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..inserts {
        let v: Vec<u64> = (0..i % 13 + 1).collect();
        acc = acc.wrapping_add(v.iter().sum::<u64>());
        map.insert(i.wrapping_mul(0x9E37_79B9) % KEYS, v);
    }
    acc ^ map.len() as u64
}

/// Reference-kernel timings taken during a run.
#[derive(Default)]
pub struct Calibrator {
    pub samples_ms: Vec<f64>,
}

impl Calibrator {
    /// Time one kernel pass.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(INSERTS)));
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// One factor per sample, scaling the round that sample followed
    /// to the nominal host: nominal kernel time over the mean of the
    /// samples taken just before and just after the round.
    pub fn round_factors(&self) -> Vec<f64> {
        let s = &self.samples_ms;
        (0..s.len())
            .map(|i| {
                let local = match i.checked_sub(1) {
                    Some(before) => (s[before] + s[i]) / 2.0,
                    None => s[i],
                };
                NOMINAL_MS / local
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(500), kernel(500));
        assert_ne!(kernel(500), kernel(501));
    }

    #[test]
    fn round_factor_brackets_each_round() {
        let mut c = Calibrator::default();
        assert!(c.round_factors().is_empty());
        c.samples_ms = vec![2.0, 4.0, 1.0];
        let want = [NOMINAL_MS / 2.0, NOMINAL_MS / 3.0, NOMINAL_MS / 2.5];
        assert_eq!(c.round_factors(), want);
    }
}
