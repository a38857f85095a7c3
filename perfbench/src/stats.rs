//! Latency samples, order statistics, and host normalisation.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calib;

/// Median of `v` (sorts it). `NaN` when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (sorts it). `NaN` when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

/// Samples a [`Class`] keeps; older ones are thinned beyond this.
const CAP: usize = 1 << 16;

/// Latencies of one operation class, kept per request shape with the
/// time each operation ended.
///
/// A class mixes shapes of very different cost (a two-atom join and a
/// six-atom join; an insert and a delete), so the median over the whole
/// class jumps whenever the seed moves the shape mix across a cost gap.
/// The class figure is instead the geometric mean of the per-shape
/// medians: each shape's median is steady, and a change that speeds up
/// any shape moves the figure by its share.
///
/// Storage is allocated and touched up front and never grows, so the
/// benchmark's own bookkeeping does not move `peak_rss_mb` with the
/// number of operations a run completes. When it is full, every other
/// sample is dropped and from then on only every other operation is kept:
/// the samples stay spread evenly over the run.
pub struct Class {
    /// `(shape, end time in s since the run's origin, latency in ms)`.
    samples: Vec<(u16, f32, f32)>,
    origin: Instant,
    stride: usize,
    skipped: usize,
    count: usize,
}

impl Class {
    /// An empty class whose sample times count from `origin`.
    pub fn new(origin: Instant) -> Class {
        // A non-zero fill, so the pages are written now (a zeroed
        // allocation may be left untouched until the first samples).
        let mut samples = vec![(u16::MAX, 0f32, 0f32); CAP];
        samples.clear();
        Class {
            samples,
            origin,
            stride: 1,
            skipped: 0,
            count: 0,
        }
    }

    /// Record one operation of `shape` that took `d` and ended now.
    pub fn push(&mut self, shape: usize, d: Duration) {
        self.count += 1;
        self.skipped += 1;
        if self.skipped < self.stride {
            return;
        }
        self.skipped = 0;
        if self.samples.len() == CAP {
            for i in 0..CAP / 2 {
                self.samples[i] = self.samples[2 * i];
            }
            self.samples.truncate(CAP / 2);
            self.stride *= 2;
        }
        let t = self.origin.elapsed().as_secs_f32();
        self.samples
            .push((shape as u16, t, (d.as_secs_f64() * 1e3) as f32));
    }

    /// Number of operations recorded (kept or thinned).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Kept samples in ms per shape: raw, or normalised by the
    /// calibration samples taken nearest each one.
    fn values(&self, cal: Option<&Calibration>) -> BTreeMap<u16, Vec<f64>> {
        let mut by_shape: BTreeMap<u16, Vec<f64>> = BTreeMap::new();
        for &(shape, t, ms) in &self.samples {
            let f = cal.map_or(1.0, |c| {
                c.factor_at(self.origin + Duration::from_secs_f32(t))
            });
            by_shape.entry(shape).or_default().push(ms as f64 * f);
        }
        by_shape
    }

    /// Geometric mean over shapes of each shape's median, in ms.
    pub fn p50_ms(&self, cal: Option<&Calibration>) -> f64 {
        let logs: Vec<f64> = self
            .values(cal)
            .into_values()
            .map(|mut v| median(&mut v).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// 99th percentile over all kept samples, in ms.
    pub fn p99_ms(&self, cal: Option<&Calibration>) -> f64 {
        let mut all: Vec<f64> = self.values(cal).into_values().flatten().collect();
        quantile(&mut all, 0.99)
    }
}

/// Busy time of a run: durations summed into buckets of about 50 ms, each
/// stamped with its end time so it can be normalised like a sample.
pub struct Busy {
    buckets: Vec<(Instant, f64)>,
    current: f64,
    opened: Instant,
}

impl Busy {
    /// No busy time yet.
    pub fn new() -> Busy {
        Busy {
            buckets: Vec::new(),
            current: 0.0,
            opened: Instant::now(),
        }
    }

    /// Add `d` of busy time, ending now.
    pub fn add(&mut self, d: Duration) {
        self.current += d.as_secs_f64();
        if self.opened.elapsed() >= Duration::from_millis(50) {
            self.buckets.push((Instant::now(), self.current));
            self.current = 0.0;
            self.opened = Instant::now();
        }
    }

    /// Total busy seconds: raw, or normalised bucket by bucket.
    pub fn total_s(&self, cal: Option<&Calibration>) -> f64 {
        let f = |t: Instant| cal.map_or(1.0, |c| c.factor_at(t));
        let open = self.current * f(self.opened);
        open + self.buckets.iter().map(|&(t, s)| s * f(t)).sum::<f64>()
    }
}

/// The calibration samples of one run.
pub struct Calibration {
    mem: calib::Memory,
    samples: Vec<(Instant, f64)>,
}

impl Calibration {
    /// Calibration samples a timing is normalised by: the ones taken
    /// nearest to it in time.
    const WINDOW: usize = 5;

    /// Build the kernel's memory and warm it up (two untimed passes).
    pub fn new() -> Result<Calibration, String> {
        let mut c = Calibration {
            mem: calib::Memory::new(),
            samples: Vec::new(),
        };
        for _ in 0..2 {
            c.sample()?;
        }
        c.samples.clear();
        Ok(c)
    }

    /// Run the kernel once and keep its time.
    pub fn sample(&mut self) -> Result<(), String> {
        let (ms, sum) = calib::run_kernel(&mut self.mem);
        if sum != calib::CHECKSUM {
            return Err(format!(
                "calibration kernel checksum {sum:#x} != pinned {:#x}: the kernel was edited",
                calib::CHECKSUM
            ));
        }
        self.samples.push((Instant::now(), ms));
        Ok(())
    }

    /// Median kernel time of this run, in ms.
    pub fn run_ms(&self) -> f64 {
        median(&mut self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Multiply a raw time by this to express it on the reference host,
    /// using the whole run's calibration.
    pub fn factor(&self) -> f64 {
        calib::CALIB_REF_MS / self.run_ms()
    }

    /// Multiply a raw time taken at `t` by this to express it on the
    /// reference host, using the `WINDOW` calibration samples nearest `t`.
    pub fn factor_at(&self, t: Instant) -> f64 {
        let n = self.samples.len();
        if n <= Self::WINDOW {
            return self.factor();
        }
        let i = self.samples.partition_point(|s| s.0 <= t);
        let lo = i.saturating_sub(Self::WINDOW / 2).min(n - Self::WINDOW);
        let mut near: Vec<f64> = self.samples[lo..lo + Self::WINDOW]
            .iter()
            .map(|s| s.1)
            .collect();
        calib::CALIB_REF_MS / median(&mut near)
    }
}
