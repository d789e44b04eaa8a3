//! Small numeric and `/proc` helpers shared by the measured window and
//! the traced walk.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Per-class samples of one quantity. Statements of one class cost the
/// same, so a class's median is its cost and the mean over classes is the
/// cost of the statement mix (every class is issued equally often).
#[derive(Default)]
pub struct ClassSamples(BTreeMap<usize, Vec<f64>>);

impl ClassSamples {
    pub fn push(&mut self, class: usize, v: f64) {
        self.0.entry(class).or_default().push(v);
    }

    /// Within-class medians, by class.
    pub fn medians(&self) -> Vec<f64> {
        self.0.values().map(|v| median(v)).collect()
    }

    /// Mean over classes of the within-class median (0 when empty).
    pub fn mix_median(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.values().map(|v| median(v)).sum::<f64>() / self.0.len() as f64
    }

    /// Every sample, ascending.
    pub fn all_sorted(&self) -> Vec<f64> {
        sorted(self.0.values().flatten().copied().collect())
    }
}

/// An integer field of `/proc/self/status` in kB (`VmHWM:`, `VmRSS:`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Process CPU time (user + system, every thread, live or joined) in
/// milliseconds, from `/proc/self/stat`. Linux reports it in USER_HZ
/// ticks, which is 100 on every supported ABI.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
}

/// Live threads whose name starts with `prefix` (`up-net-`, `up-worker-`).
pub fn threads_named(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .map(|c| c.trim().starts_with(prefix))
                .unwrap_or(false)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn mix_median_weights_classes_equally() {
        let mut s = ClassSamples::default();
        for v in [1.0, 1.0, 1.0, 100.0] {
            s.push(0, v);
        }
        s.push(1, 3.0);
        assert_eq!(s.mix_median(), 2.0);
    }

    #[test]
    fn cpu_time_advances() {
        let a = process_cpu_ms().expect("/proc/self/stat");
        let mut x = 0u64;
        while process_cpu_ms().unwrap() - a < 20.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
    }
}
