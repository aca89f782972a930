//! The certifier's benchmark: three workloads, end-to-end metrics with
//! tracing off, and a traced run that times each layer's public entry point
//! from this package's own code.
//!
//! ```text
//! cargo run --release --offline --manifest-path certbench/Cargo.toml -- \
//!     --workload <oneshot_fc|oneshot_conv|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable detail goes to stderr; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Any setup error (unknown workload, stale pinned weights, …) exits with
//! code 2 and prints no result.

mod nets;
mod oneshot;
mod probe;
mod replay;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Certifier worker threads in every workload (the reference machine has 2
/// vCPUs).
pub const THREADS: usize = 2;

/// Setups timed per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// Seconds of setups timed per run, at least: a sub-millisecond setup is
/// repeated over a window long enough that one burst of host noise cannot
/// move the median.
pub const SETUP_MIN_S: f64 = 0.5;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace,
    })
}

/// End-to-end metrics (`--trace 0`), identical for every workload; each
/// must be set by the run. Mirrored in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cert_s_p50", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p95", "ms"),
    ("queries_per_s", "1/s"),
    ("update_query_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), identical for every workload; a layer
/// the workload does not load reports 0. Mirrored in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("milp.solves", "count"),
    ("milp.pivots", "count"),
    ("milp.bb_nodes", "count"),
    ("milp.pivots_per_solve", "count"),
    ("milp.us_per_pivot", "us"),
    ("milp.ftran_btran_s", "s"),
    ("milp.refactor_s", "s"),
    ("milp.refactorizations", "count"),
    ("milp.lu_fill_nnz", "count"),
    ("milp.max_nnz", "count"),
    ("milp.warm_hit_ratio", "ratio"),
    ("milp.fallbacks", "count"),
    ("query.lp_relax_y.calls", "count"),
    ("query.lp_relax_y.busy_s", "s"),
    ("query.lp_relax_x.calls", "count"),
    ("query.lp_relax_x.busy_s", "s"),
    ("query.closed_form_hits", "count"),
    ("encode.calls", "count"),
    ("encode.busy_s", "s"),
    ("encode.rows", "count"),
    ("decompose.busy_s", "s"),
    ("refine.select_s", "s"),
    ("ibp.seed_s", "s"),
    ("certcheck.certs_checked", "count"),
    ("certcheck.cert_failures", "count"),
    ("certcheck.busy_s", "s"),
    ("certcheck.share", "ratio"),
    ("schedule.serial_busy_s", "s"),
    ("schedule.efficiency", "ratio"),
    ("schedule.critical_path_s", "s"),
    ("layer.0.busy_s", "s"),
    ("layer.0.max_task_s", "s"),
    ("layer.1.busy_s", "s"),
    ("layer.1.max_task_s", "s"),
    ("layer.2.busy_s", "s"),
    ("layer.2.max_task_s", "s"),
    ("serve.register_s", "s"),
    ("serve.miss_query_ms", "ms"),
    ("serve.pivots_per_query", "count"),
    ("serve.sessions", "count"),
    ("serve.delta_seeded_sessions", "count"),
    ("serve.cold_bit_mismatches", "count"),
    ("resident.enc_hit_ratio", "ratio"),
    ("resident.cross_query_warm_ratio", "ratio"),
    ("nn.lower_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("failed_frac", "ratio"),
];

/// The outcome of one run: operation counts and the named metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    trace: bool,
    values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Outcome {
            trace,
            ..Default::default()
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one operation; `ok == false` marks it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: every metric of the run's list, in list order.
    fn json(&self) -> Result<String, String> {
        let list: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !list.iter().any(|(n, _)| n == k))
        {
            return Err(format!("metric {stray} is not in the run's metric list"));
        }
        let mut metrics = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if self.trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            eprintln!("   {name:<34} {value:>16.6} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The bit patterns of a result's ε̄ values.
pub fn bits(eps: &[f64]) -> Vec<u64> {
    eps.iter().map(|e| e.to_bits()).collect()
}

/// `num / den`, with 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run() -> Result<Outcome, String> {
    // The certifier's defaults read these; the benchmark pins its own
    // settings so the caller's environment cannot change what is measured.
    for var in ["ITNE_TEST_THREADS", "ITNE_TEST_ENGINE", "ITNE_CHECK_CERTS"] {
        std::env::remove_var(var);
    }
    let args = parse_args()?;
    match args.workload.as_str() {
        "oneshot_fc" => oneshot::FC.run(&args),
        "oneshot_conv" => oneshot::CONV.run(&args),
        "serve_mix" => serve::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (oneshot_fc, oneshot_conv, serve_mix)"
        )),
    }
}

fn main() -> ExitCode {
    match run().and_then(|out| {
        eprintln!(
            "-- ops attempted {} failed {} (failed_frac {})",
            out.attempted,
            out.failed,
            out.failed_frac()
        );
        out.json()
    }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("certbench: {e}");
            ExitCode::from(2)
        }
    }
}
