//! The host-speed probe that end-to-end timings are scaled by.
//!
//! The 2-vCPU reference VM shares its physical cores with other tenants.
//! When one of them loads the core behind one of our vCPUs, every timing on
//! that vCPU, a plain single-threaded loop included, slows by up to 50%, for
//! minutes at a time: longer than a run. CPU time slows with wall time, so
//! it is contention, not preemption, and no statistic within one run escapes
//! it. A run's medians therefore moved by up to 35% between runs of the same
//! code (IQR over ten seeds on `serve_mix`).
//!
//! The probe is a fixed piece of work owned by the benchmark, so no change
//! to the certifier can move it: on each certifier thread at once, a chain
//! of data-dependent loads, stores and branches over a 256 KiB table. It is
//! read between timed operations, outside every timed region. Each
//! end-to-end timing is the measured value scaled by
//! [`REFERENCE_S`] / (the run's median probe reading), which is the time it
//! would have taken at the probe speed the reference VM typically shows.

use crate::stats::median;
use crate::stream::Stream;
use crate::THREADS;
use std::time::Instant;

/// The probe reading the scaled timings are expressed at: the reference
/// VM's typical median reading. Fixed once; changing it rescales every
/// end-to-end timing.
pub const REFERENCE_S: f64 = 0.015;

const TABLE: usize = 1 << 15;
const STEPS: usize = 2_000_000;

/// The probe readings of one run.
pub struct HostProbe {
    readings: Vec<f64>,
}

impl HostProbe {
    /// Starts a run's probe with one discarded reading, which pays for the
    /// first touch of the table's pages.
    pub fn start() -> Self {
        read();
        HostProbe {
            readings: Vec::new(),
        }
    }

    /// Takes one reading.
    pub fn sample(&mut self) {
        self.readings.push(read());
    }

    /// `REFERENCE_S` over the median reading: the factor that turns a
    /// measured time into one at the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / median(&self.readings)
    }

    /// A one-line summary for stderr.
    pub fn describe(&self) -> String {
        format!(
            "host probe: median {:.2} ms over {} readings (reference {:.2} ms), timings scaled by {:.4}",
            1e3 * median(&self.readings),
            self.readings.len(),
            1e3 * REFERENCE_S,
            self.scale()
        )
    }
}

/// Seconds the probe's work takes per thread, averaged over [`THREADS`]
/// threads running it at once.
fn read() -> f64 {
    let secs: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|k| s.spawn(move || walk(k as u64)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe thread panicked"))
            .collect()
    });
    secs.iter().sum::<f64>() / secs.len() as f64
}

fn walk(seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut draws = Stream::new(seed, "host probe");
    let mut table: Vec<u64> = (0..TABLE).map(|_| draws.next_u64()).collect();
    let (mut at, mut acc) = (0usize, 0u64);
    for _ in 0..STEPS {
        let x = table[at];
        acc = acc.wrapping_add(x);
        table[at] = x.rotate_left(7) ^ acc;
        at = (x ^ acc) as usize & (TABLE - 1);
        if x & 1 == 0 {
            acc ^= x >> 3;
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}
