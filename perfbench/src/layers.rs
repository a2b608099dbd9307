//! Per-layer measurements of the traced run: span arithmetic over a
//! drained telemetry snapshot, and kernel micro-measurements at the
//! shapes the campaign uses.

use crate::stats::median;
use fault_sneaking::telemetry::Snapshot;
use fault_sneaking::tensor::{linalg, parallel, quant, Prng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows of the scenario working set the kernel measurements use
/// (`R = S + K` of a mid-grid scenario).
const ROWS: usize = 16;

/// Summed duration (ns) of every span whose last path segment is `name`.
pub fn total_ns(snap: &Snapshot, name: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|(path, _)| last_segment(path) == name)
        .map(|(_, s)| s.total_ns)
        .sum()
}

/// Self time (ns) of every span named `name`: its duration minus the
/// part its direct child spans cover.
pub fn self_ns(snap: &Snapshot, name: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|(path, _)| last_segment(path) == name)
        .map(|(path, s)| {
            let prefix = format!("{path}/");
            let children: u64 = snap
                .spans
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix(&prefix)
                        .is_some_and(|rest| !rest.contains('/'))
                })
                .map(|(_, c)| c.total_ns)
                .sum();
            s.total_ns.saturating_sub(children)
        })
        .sum()
}

/// A counter's value (0 when it never fired).
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn last_segment(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Median seconds of one call of `f`, over at least `min_reps` calls and
/// at least `budget` of wall time.
pub fn time_median(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// GFLOP/s of the two gemm products of one head-backward step at
/// [`ROWS`] rows on one thread, the budget each campaign worker's
/// kernels get: `dW₁ = dZᵀ·X` (`gemm_tn`, 200×16×1024) and
/// `dX₂ = dZ·W₂` (`gemm`, 16×200×200).
pub fn gemm_gflops(seed: u64) -> f64 {
    let (hidden, input) = (200, 1024);
    let mut rng = Prng::new(seed);
    let mut randn = |n: usize| {
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v, 1.0);
        v
    };
    let (dz, x, w) = (
        randn(ROWS * hidden),
        randn(ROWS * input),
        randn(hidden * hidden),
    );
    let mut dw = vec![0.0f32; hidden * input];
    let mut dx = vec![0.0f32; ROWS * hidden];
    let secs = parallel::with_budget(1, || {
        time_median(20, Duration::from_millis(300), || {
            linalg::gemm_tn(hidden, ROWS, input, &dz, &x, &mut dw, 1.0, 0.0);
            linalg::gemm(ROWS, hidden, hidden, &dz, &w, &mut dx, 1.0, 0.0);
            black_box((&dw, &dx));
        })
    });
    let flops = 2.0 * (hidden * ROWS * input + ROWS * hidden * hidden) as f64;
    flops / secs / 1e9
}

/// Giga-ops/s of `gemm_i8_nt` at the int8 head's first-layer shape
/// (64 rows × 1024 inputs × 200 outputs) on one thread.
pub fn gemm_i8_gops(seed: u64) -> f64 {
    let (m, k, n) = (64, 1024, 200);
    let mut rng = Prng::new(seed);
    let mut bytes = |len: usize| -> Vec<i8> {
        (0..len)
            .map(|_| (rng.below(255) as i16 - 127) as i8)
            .collect()
    };
    let (a, b) = (bytes(m * k), bytes(n * k));
    let mut c = vec![0i32; m * n];
    let secs = parallel::with_budget(1, || {
        time_median(20, Duration::from_millis(300), || {
            quant::gemm_i8_nt(m, k, n, &a, &b, &mut c);
            black_box(&c);
        })
    });
    2.0 * (m * k * n) as f64 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_sneaking::telemetry::SpanStat;

    fn stat(total_ns: u64) -> SpanStat {
        SpanStat::one(total_ns)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let snap = Snapshot {
            spans: vec![
                ("campaign/attack".to_string(), stat(100)),
                ("campaign/attack/admm".to_string(), stat(70)),
                ("campaign/attack/admm/inner".to_string(), stat(30)),
                ("campaign/attack/refine".to_string(), stat(20)),
                ("other/admm".to_string(), stat(5)),
            ],
            ..Snapshot::default()
        };
        assert_eq!(self_ns(&snap, "attack"), 10);
        assert_eq!(self_ns(&snap, "admm"), 40 + 5);
        assert_eq!(total_ns(&snap, "admm"), 75);
        assert_eq!(counter(&snap, "missing"), 0);
    }
}
