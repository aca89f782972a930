//! The benchmark's networks, built from Table I's recipes into the
//! benchmark's own cache and pinned by weight hash.
//!
//! Each net is trained deterministically (fixed data, init and shuffle
//! seeds) the first time a checkout needs it and cached as JSON under
//! `certbench/.netcache/`. Every run then checks the loaded weights against
//! the pinned [`itne_nn::AffineNetwork::weight_hash`] and refuses to run on a
//! mismatch, so stale or drifted weights can never produce a number.

use crate::{SETUP_MIN_S, SETUP_REPS};
use itne_data::{auto_mpg, digits};
use itne_nn::train::{train, Adam, Loss, TrainConfig};
use itne_nn::{initialize, AffineNetwork, Network, NetworkBuilder};
use std::path::PathBuf;
use std::time::Instant;

/// The nets the workloads certify.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NetId {
    /// Table I row 3: Auto-MPG, two ReLU layers of width 8.
    AutoMpgW8,
    /// The resident workload's net: Auto-MPG, two ReLU layers of width 48.
    AutoMpgW48,
    /// Table I row 6: digits, one conv layer + one FC hidden layer.
    DigitsC1,
}

impl NetId {
    pub fn name(self) -> &'static str {
        match self {
            NetId::AutoMpgW8 => "auto_mpg_w8",
            NetId::AutoMpgW48 => "auto_mpg_w48",
            NetId::DigitsC1 => "digits_c1",
        }
    }

    /// The weight hash the recipe produces. A recipe or trainer change that
    /// moves it must update this pin in the same change.
    pub fn pinned_hash(self) -> u64 {
        match self {
            NetId::AutoMpgW8 => 0x0f0a_954d_1904_a599,
            NetId::AutoMpgW48 => 0xee42_73ab_1143_30e8,
            NetId::DigitsC1 => 0xaa11_43c9_457f_1c71,
        }
    }

    /// The input domain `X`.
    pub fn domain(self) -> Vec<(f64, f64)> {
        match self {
            NetId::AutoMpgW8 | NetId::AutoMpgW48 => vec![(0.0, 1.0); 7],
            NetId::DigitsC1 => vec![(0.0, 1.0); DIGIT_SIZE * DIGIT_SIZE],
        }
    }

    fn train(self) -> Network {
        match self {
            NetId::AutoMpgW8 => auto_mpg_net(8),
            NetId::AutoMpgW48 => auto_mpg_net(48),
            NetId::DigitsC1 => digits_net(),
        }
    }
}

const DIGIT_SIZE: usize = 14;

/// Table I's Auto-MPG recipe: 7 features → width → width → 1.
fn auto_mpg_net(width: usize) -> Network {
    let data = auto_mpg(400, 17);
    let mut net = NetworkBuilder::input(7)
        .dense_zeros(width, true)
        .expect("static shape")
        .dense_zeros(width, true)
        .expect("static shape")
        .dense_zeros(1, false)
        .expect("static shape")
        .build();
    initialize(&mut net, 1000 + width as u64);
    train(
        &mut net,
        &data,
        &mut Adam::new(4e-3),
        &TrainConfig {
            epochs: 150,
            batch_size: 32,
            loss: Loss::Mse,
            seed: 3,
            verbose: false,
        },
    );
    net
}

/// Table I's digit recipe with one conv layer: conv(4, 3×3, stride 2) →
/// FC 32 → 10 over 14×14 images (196 + 32 hidden + 10 output neurons).
fn digits_net() -> Network {
    let data = digits(1200, DIGIT_SIZE, 23);
    let mut net = NetworkBuilder::input_image(1, DIGIT_SIZE, DIGIT_SIZE)
        .conv2d(4, 3, 2, 1, true)
        .expect("conv1")
        .flatten()
        .expect("flatten")
        .dense_zeros(32, true)
        .expect("fc hidden")
        .dense_zeros(10, false)
        .expect("fc out")
        .build();
    initialize(&mut net, 2001);
    train(
        &mut net,
        &data,
        &mut Adam::new(2e-3),
        &TrainConfig {
            epochs: 30,
            batch_size: 32,
            loss: Loss::SoftmaxCrossEntropy,
            seed: 9,
            verbose: false,
        },
    );
    net
}

fn cache_path(id: NetId) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".netcache")
        .join(format!("{}.json", id.name()))
}

/// Makes sure the cache holds `id`, training it when absent. Returns the
/// seconds spent training (zero on a cache hit); this one-time build is
/// not part of any metric.
pub fn ensure_cached(id: NetId) -> Result<f64, String> {
    let path = cache_path(id);
    if path.exists() {
        return Ok(0.0);
    }
    let t0 = Instant::now();
    let net = id.train();
    let secs = t0.elapsed().as_secs_f64();
    let dir = path.parent().expect("cache path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Write-then-rename keeps a concurrent reader from seeing partial JSON.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    net.save(&tmp)
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    Ok(secs)
}

/// A net ready to certify, with the timing of the setup that produced it.
pub struct Setup<T> {
    pub aff: AffineNetwork,
    /// What `finish` built on top of the lowered net (e.g. an engine).
    pub extra: T,
    /// Median seconds of one full setup: load, lower, verify, `finish`.
    pub setup_s: f64,
    /// Median seconds of the lowering step alone.
    pub lower_s: f64,
}

/// Builds `id` into the cache if needed, then sets it up at least
/// [`SETUP_REPS`] times and for at least [`SETUP_MIN_S`] seconds — load,
/// lower, verify the pin, and `finish` — and keeps the last result.
pub fn setup<T>(
    id: NetId,
    mut finish: impl FnMut(&AffineNetwork) -> Result<T, String>,
) -> Result<Setup<T>, String> {
    let built_s = ensure_cached(id)?;
    if built_s > 0.0 {
        eprintln!("-- built {} into the cache in {built_s:.2} s", id.name());
    }
    let (mut setup, mut lower) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while setup.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t0 = Instant::now();
        let loaded = load(id)?;
        let extra = finish(&loaded.aff)?;
        setup.push(t0.elapsed().as_secs_f64());
        lower.push(loaded.lower_s);
        last = Some((loaded.aff, extra));
    }
    let (aff, extra) = last.expect("at least one setup ran");
    Ok(Setup {
        aff,
        extra,
        setup_s: crate::stats::median(&setup),
        lower_s: crate::stats::median(&lower),
    })
}

/// A loaded, lowered and verified net.
pub struct Loaded {
    pub aff: AffineNetwork,
    /// Seconds spent in `AffineNetwork::from_network`.
    pub lower_s: f64,
}

/// Loads `id` from the cache, lowers it, and checks its weight hash against
/// the pin.
pub fn load(id: NetId) -> Result<Loaded, String> {
    let path = cache_path(id);
    let net = Network::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let t0 = Instant::now();
    let aff = AffineNetwork::from_network(&net).map_err(|e| format!("lower {}: {e}", id.name()))?;
    let lower_s = t0.elapsed().as_secs_f64();
    let hash = aff.weight_hash();
    if hash != id.pinned_hash() {
        return Err(format!(
            "{} has weight hash {hash:#018x}, pinned {:#018x}: refusing to measure other \
             weights (delete {} to rebuild it from the recipe)",
            id.name(),
            id.pinned_hash(),
            path.display()
        ));
    }
    Ok(Loaded { aff, lower_s })
}
