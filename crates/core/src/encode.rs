//! LP/MILP encoders for sub-networks under three encodings:
//!
//! * [`EncodingKind::Single`] — one network copy (plain output-range
//!   analysis; the local-robustness baseline of Fig. 4's upper half);
//! * [`EncodingKind::Btne`] — the basic twin-network encoding of Eq. 1: two
//!   independent copies, coupled only at the network input (and compared at
//!   the output);
//! * [`EncodingKind::Itne`] — the paper's interleaving twin-network encoding:
//!   distance variables `Δy⁽ⁱ⁾_j`, `Δx⁽ⁱ⁾_j` for every hidden neuron, the hat
//!   copy represented implicitly as `x + Δx`, and the ReLU *distance*
//!   relation relaxed by Eq. 6 instead of relaxing the hat copy's ReLU.
//!
//! Each unstable ReLU is encoded exactly (big-M with a binary indicator) when
//! the mode is [`Relaxation::Exact`] or the neuron is *selectively refined*;
//! otherwise it is relaxed (triangle for value relations, Eq. 6 for distance
//! relations). Stable neurons (sign of the pre-activation provably fixed)
//! always use exact linear equalities — the "degenerate" ReLU cases of §II-C.
//!
//! # One body, two sinks
//!
//! The encoder body is generic over a `ModelSink`: a `FreshSink` appends
//! variables and rows to a new [`Model`], while a `ReuseSink` replays the
//! identical sequence of emissions *onto an existing model*, overwriting
//! bounds, coefficients and right-hand sides in place and verifying at every
//! step that the stored structure (variable types, row supports, comparison
//! operators) matches what the replay produces. Because both sinks receive
//! the same values from the same code, a successful replay leaves the model
//! bit-identical to a fresh build — that is what lets the resident engine
//! cache encodings across queries and re-parameterize them for a new δ
//! instead of rebuilding. Every row is assembled in one reusable scratch
//! [`LinExpr`], so neither path allocates per constraint.

use crate::bounds::TwinBounds;
use crate::interval::{distance_relaxation_bounds, Interval};
use crate::refine::{select_refined, RefinedSet};
use crate::subnet::SubNetwork;
use itne_milp::{Cmp, LinExpr, Model, VarId, VarType};

/// Slack added to variable bounds and big-M constants so that LP tolerances
/// never cut off true optima.
const BOUND_EPS: f64 = 1e-9;

/// Degenerate-width threshold below which a distance relaxation collapses to
/// `Δx = 0`.
const DEGENERATE_TOL: f64 = 1e-12;

/// Which network copies are encoded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EncodingKind {
    /// One copy only.
    Single,
    /// Two copies, coupled at the input layer only (the paper's baseline).
    Btne,
    /// Two copies with interleaved distance variables (the contribution).
    Itne,
}

/// How unstable ReLU relations are treated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Relaxation {
    /// Every unstable ReLU gets an exact big-M encoding (MILP).
    Exact,
    /// LP relaxation, with the top-`refine` scored neurons kept exact.
    Lpr,
}

/// Encoder configuration.
#[derive(Clone, Debug)]
pub struct EncodeOptions {
    /// Copies encoded.
    pub kind: EncodingKind,
    /// Exact vs. relaxed unstable ReLUs.
    pub relax: Relaxation,
    /// Number of selectively-refined neurons under [`Relaxation::Lpr`]
    /// (ignored under `Exact`).
    pub refine: usize,
    /// Extension (off = paper-faithful): bound distance variables with the
    /// y-aware corner range and add the hat-copy inequalities
    /// `x̂ ≥ 0`, `x̂ ≥ ŷ` alongside Eq. 6.
    pub y_aware_distance: bool,
    /// Input perturbation bound δ (twin coupling at the input level).
    pub delta: f64,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            kind: EncodingKind::Itne,
            relax: Relaxation::Lpr,
            refine: 0,
            y_aware_distance: false,
            delta: 0.0,
        }
    }
}

/// Whether the target neuron is queried before or after its activation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// `F_w(y⁽ⁱ⁾_j)` — the `LpRelaxY` sub-problem (no ReLU on the target).
    PreActivation,
    /// `F_w(x⁽ⁱ⁾_j)` — the `LpRelaxX` sub-problem.
    PostActivation,
}

/// LP variables attached to one neuron of the encoding. Unused slots stay
/// `None` (e.g. `dy` under `Single`, `xh` under `Itne`).
#[derive(Copy, Clone, Debug, Default)]
pub struct NeuronVars {
    /// Pre-activation of the original copy.
    pub y: Option<VarId>,
    /// `ŷ − y` (ITNE only).
    pub dy: Option<VarId>,
    /// Post-activation of the original copy.
    pub x: Option<VarId>,
    /// `x̂ − x` (ITNE only).
    pub dx: Option<VarId>,
    /// Pre-activation of the hat copy (BTNE only).
    pub yh: Option<VarId>,
    /// Post-activation of the hat copy (BTNE only).
    pub xh: Option<VarId>,
}

/// An encoded sub-network: the optimization model plus the variable map.
#[derive(Clone, Debug)]
pub struct EncodedSubNet {
    /// The LP/MILP model (objective unset; queries set it).
    pub model: Model,
    /// `vars[k][pos]` = variables of `cone.levels[k][pos]`.
    pub vars: Vec<Vec<NeuronVars>>,
    /// Number of binary indicator variables introduced.
    pub binaries: usize,
    /// Number of neurons selectively refined.
    pub refined: usize,
    /// Number of ReLU relations relaxed (triangle or Eq. 6).
    pub relaxed: usize,
}

impl EncodedSubNet {
    /// Variables of the target neuron (last cone level).
    pub fn target_vars(&self) -> NeuronVars {
        self.vars[self.vars.len() - 1][0]
    }
}

/// Fresh `(y, Δy, x, Δx)` ranges for the target neuron, overriding the
/// stored bounds (Algorithm 1 feeds `LpRelaxY` results into `LpRelaxX`
/// without mutating the shared bound store).
#[derive(Copy, Clone, Debug)]
pub struct TargetOverride {
    /// Fresh pre-activation range.
    pub y: Interval,
    /// Fresh distance range.
    pub dy: Interval,
    /// Fresh post-activation range.
    pub x: Interval,
    /// Fresh post-activation distance range.
    pub dx: Interval,
}

/// The refined-neuron set the encoder would use for this sub-problem: empty
/// under [`Relaxation::Exact`] (everything is exact anyway), the selective-
/// refinement pick under [`Relaxation::Lpr`]. Hoisted out of the encoder so
/// callers keying encoding caches on the refined set compute it exactly once.
pub(crate) fn refined_for(
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    target: TargetKind,
    opts: &EncodeOptions,
) -> RefinedSet {
    match opts.relax {
        Relaxation::Exact => RefinedSet::new(),
        Relaxation::Lpr => select_refined(sub, bounds, target, opts),
    }
}

/// Encodes a sub-network against known `bounds`.
///
/// All variable bounds, big-M constants and relaxation ranges come from
/// `bounds`, which must hold sound ranges for every layer the cone touches
/// (the IBP pass guarantees this; Algorithm 1 tightens them as it walks).
pub fn encode_subnet(
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    target: TargetKind,
    opts: &EncodeOptions,
) -> EncodedSubNet {
    encode_subnet_with(sub, bounds, target, opts, None)
}

/// [`encode_subnet`] with fresh target ranges (see [`TargetOverride`]).
pub fn encode_subnet_with(
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    target: TargetKind,
    opts: &EncodeOptions,
    target_override: Option<TargetOverride>,
) -> EncodedSubNet {
    let refined = refined_for(sub, bounds, target, opts);
    encode_subnet_refined(sub, bounds, target, opts, target_override, &refined)
}

/// [`encode_subnet_with`] against a refined set the caller already computed
/// (cache-key reuse; see [`refined_for`]).
pub(crate) fn encode_subnet_refined(
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    target: TargetKind,
    opts: &EncodeOptions,
    target_override: Option<TargetOverride>,
    refined: &RefinedSet,
) -> EncodedSubNet {
    let mut sink = FreshSink {
        model: Model::new(),
    };
    let (vars, enc) = encode_into(
        &mut sink,
        sub,
        bounds,
        target,
        opts,
        target_override,
        refined,
    );
    EncodedSubNet {
        model: sink.model,
        vars,
        binaries: enc.binaries,
        refined: if opts.relax == Relaxation::Lpr {
            enc.refined
        } else {
            0
        },
        relaxed: enc.relaxed,
    }
}

/// Replays the encoding onto `prev`'s existing model, overwriting variable
/// bounds, row coefficients and right-hand sides in place. Returns `true` on
/// a structural match — the model is then bit-identical to a fresh
/// [`encode_subnet_refined`] build for the same inputs, without a single row
/// allocation. Returns `false` when the stored structure no longer matches
/// (a ReLU phase flipped, the refined set changed shape, a degenerate
/// relaxation appeared); **the model is garbage in that case** and the
/// caller must discard `prev` and encode fresh.
pub(crate) fn reencode_subnet(
    prev: &mut EncodedSubNet,
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    target: TargetKind,
    opts: &EncodeOptions,
    target_override: Option<TargetOverride>,
    refined: &RefinedSet,
) -> bool {
    let stored_vars = prev.model.num_vars();
    let stored_rows = prev.model.num_constraints();
    let mut sink = ReuseSink {
        model: &mut prev.model,
        vcur: 0,
        rcur: 0,
        ok: true,
    };
    let (vars, enc) = encode_into(
        &mut sink,
        sub,
        bounds,
        target,
        opts,
        target_override,
        refined,
    );
    if !(sink.ok && sink.vcur == stored_vars && sink.rcur == stored_rows) {
        return false;
    }
    prev.vars = vars;
    prev.binaries = enc.binaries;
    prev.refined = if opts.relax == Relaxation::Lpr {
        enc.refined
    } else {
        0
    };
    prev.relaxed = enc.relaxed;
    true
}

/// Destination of encoder emissions. Implementations must hand back variable
/// ids consistent with [`Model`] creation order; the encoder itself never
/// looks at the model.
trait ModelSink {
    /// Emits a continuous variable with the given bounds.
    fn var(&mut self, lo: f64, hi: f64) -> VarId;
    /// Emits a binary indicator variable.
    fn binary(&mut self) -> VarId;
    /// Overwrites the bounds of a variable emitted earlier this pass.
    fn bounds(&mut self, v: VarId, lo: f64, hi: f64);
    /// Emits the constraint `expr cmp rhs`, consuming the scratch buffer's
    /// contents (the buffer comes back cleared for the next row).
    fn row(&mut self, expr: &mut LinExpr, cmp: Cmp, rhs: f64);
}

/// Appends to a fresh model.
struct FreshSink {
    model: Model,
}

impl ModelSink for FreshSink {
    fn var(&mut self, lo: f64, hi: f64) -> VarId {
        self.model.add_var(lo, hi)
    }
    fn binary(&mut self) -> VarId {
        self.model.add_binary()
    }
    fn bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        self.model.set_bounds(v, lo, hi);
    }
    fn row(&mut self, expr: &mut LinExpr, cmp: Cmp, rhs: f64) {
        self.model.add_constraint_buf(expr, cmp, rhs);
        expr.clear();
    }
}

/// Overwrites an existing model in creation order, verifying structure as it
/// goes. Any mismatch flips `ok` and degrades to appending (the model is
/// discarded on failure, so the appends only keep the replay's variable ids
/// coherent until it finishes).
struct ReuseSink<'m> {
    model: &'m mut Model,
    vcur: usize,
    rcur: usize,
    ok: bool,
}

impl ModelSink for ReuseSink<'_> {
    fn var(&mut self, lo: f64, hi: f64) -> VarId {
        let j = self.vcur;
        self.vcur += 1;
        match self.model.reparam_var(j, lo, hi, VarType::Continuous) {
            Some(v) => v,
            None => {
                self.ok = false;
                self.model.add_var(lo, hi)
            }
        }
    }
    fn binary(&mut self) -> VarId {
        let j = self.vcur;
        self.vcur += 1;
        match self.model.reparam_var(j, 0.0, 1.0, VarType::Integer) {
            Some(v) => v,
            None => {
                self.ok = false;
                self.model.add_binary()
            }
        }
    }
    fn bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        self.model.set_bounds(v, lo, hi);
    }
    fn row(&mut self, expr: &mut LinExpr, cmp: Cmp, rhs: f64) {
        let r = self.rcur;
        self.rcur += 1;
        if !self.model.reparam_row_buf(r, expr, cmp, rhs) {
            self.ok = false;
            self.model.add_constraint_buf(expr, cmp, rhs);
        }
        expr.clear();
    }
}

/// The encoder body shared by both sinks. Emission order is the contract:
/// a [`ReuseSink`] replay matches a [`FreshSink`] build variable-for-
/// variable and row-for-row, or reports failure.
fn encode_into<S: ModelSink>(
    sink: &mut S,
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    target: TargetKind,
    opts: &EncodeOptions,
    target_override: Option<TargetOverride>,
    refined: &RefinedSet,
) -> (Vec<Vec<NeuronVars>>, Counters) {
    let w = sub.window();
    let mut vars: Vec<Vec<NeuronVars>> = Vec::with_capacity(w + 1);
    let mut enc = Counters::default();
    let mut buf = LinExpr::new();

    // --- Level 0: sub-network inputs. ---
    let in_layer = sub.layer_at(1); // affine layer consuming level 0
    let x_in = bounds.x_in(in_layer);
    let dx_in = bounds.dx_in(in_layer);
    let mut level0 = Vec::with_capacity(sub.cone.levels[0].len());
    for &idx in &sub.cone.levels[0] {
        let xr = x_in[idx].inflate(BOUND_EPS);
        let mut nv = NeuronVars::default();
        let x = sink.var(xr.lo, xr.hi);
        nv.x = Some(x);
        match opts.kind {
            EncodingKind::Single => {}
            EncodingKind::Itne => {
                let dr = dx_in[idx].inflate(BOUND_EPS);
                let dx = sink.var(dr.lo, dr.hi);
                nv.dx = Some(dx);
                if sub.starts_at_input() {
                    // x̂ = x + Δx must stay inside the input domain X.
                    let dom = bounds.input[idx];
                    buf.add_term(x, 1.0).add_term(dx, 1.0);
                    sink.row(&mut buf, Cmp::Le, dom.hi + BOUND_EPS);
                    buf.add_term(x, 1.0).add_term(dx, 1.0);
                    sink.row(&mut buf, Cmp::Ge, dom.lo - BOUND_EPS);
                }
            }
            EncodingKind::Btne => {
                let xh = sink.var(xr.lo, xr.hi);
                nv.xh = Some(xh);
                if sub.starts_at_input() {
                    // ‖x̂ − x‖∞ ≤ δ, elementwise.
                    buf.add_term(xh, 1.0).add_term(x, -1.0);
                    sink.row(&mut buf, Cmp::Le, opts.delta);
                    buf.add_term(xh, 1.0).add_term(x, -1.0);
                    sink.row(&mut buf, Cmp::Ge, -opts.delta);
                }
                // Mid-network BTNE windows get no coupling: the distance
                // information is lost, exactly as §II-D describes.
            }
        }
        level0.push(nv);
    }
    vars.push(level0);

    // --- Levels 1..=w: affine + ReLU relations. ---
    for k in 1..=w {
        let layer = sub.layer_at(k);
        let l = &sub.net.layers[layer];
        let prev_ids = &sub.cone.levels[k - 1];
        let mut level = Vec::with_capacity(sub.cone.levels[k].len());
        for &j in &sub.cone.levels[k] {
            let row = &l.rows[j];
            let is_target = k == w;
            let (yr0, dyr0, xr0, dxr0) = match (is_target, target_override) {
                (true, Some(o)) => (o.y, o.dy, o.x, o.dx),
                _ => (
                    bounds.y[layer][j],
                    bounds.dy[layer][j],
                    bounds.x[layer][j],
                    bounds.dx[layer][j],
                ),
            };
            let yr = yr0.inflate(BOUND_EPS);
            let dyr = dyr0.inflate(BOUND_EPS);
            let mut nv = NeuronVars::default();

            // y = Σ c·x_prev + b
            let y = sink.var(yr.lo, yr.hi);
            nv.y = Some(y);
            buf.add_term(y, 1.0);
            for &(pidx, c) in &row.terms {
                let pos = prev_ids.binary_search(&pidx).expect("term inside cone");
                buf.add_term(vars[k - 1][pos].x.expect("x always present"), -c);
            }
            sink.row(&mut buf, Cmp::Eq, row.bias);

            match opts.kind {
                EncodingKind::Itne => {
                    // Δy = Σ c·Δx_prev
                    let dy = sink.var(dyr.lo, dyr.hi);
                    nv.dy = Some(dy);
                    buf.add_term(dy, 1.0);
                    for &(pidx, c) in &row.terms {
                        let pos = prev_ids.binary_search(&pidx).expect("term inside cone");
                        buf.add_term(vars[k - 1][pos].dx.expect("dx present under ITNE"), -c);
                    }
                    sink.row(&mut buf, Cmp::Eq, 0.0);
                }
                EncodingKind::Btne => {
                    // ŷ = Σ c·x̂_prev + b. The hat copy ranges over the same
                    // domain X, so its marginal range equals the original
                    // copy's — BTNE knows nothing tighter (no Δ variables).
                    let yhr = yr;
                    let yh = sink.var(yhr.lo, yhr.hi);
                    nv.yh = Some(yh);
                    buf.add_term(yh, 1.0);
                    for &(pidx, c) in &row.terms {
                        let pos = prev_ids.binary_search(&pidx).expect("term inside cone");
                        buf.add_term(vars[k - 1][pos].xh.expect("xh present under BTNE"), -c);
                    }
                    sink.row(&mut buf, Cmp::Eq, row.bias);
                }
                EncodingKind::Single => {}
            }

            let needs_post = k < w || target == TargetKind::PostActivation;
            if needs_post {
                if !l.relu {
                    // Identity activation: alias the variables.
                    nv.x = nv.y;
                    nv.dx = nv.dy;
                    nv.xh = nv.yh;
                } else {
                    let exact = opts.relax == Relaxation::Exact || refined.contains(&(layer, j));
                    if exact {
                        enc.refined += 1;
                    }
                    encode_relu(
                        sink,
                        &mut buf,
                        &mut nv,
                        Ranges {
                            y: yr0,
                            dy: dyr0,
                            x: xr0,
                            dx: dxr0,
                        },
                        exact,
                        opts,
                        &mut enc,
                    );
                }
            }
            level.push(nv);
        }
        vars.push(level);
    }

    (vars, enc)
}

#[derive(Default)]
struct Counters {
    binaries: usize,
    refined: usize,
    relaxed: usize,
}

/// Phase of a ReLU given its pre-activation range.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase {
    Active,
    Inactive,
    Unstable,
}

fn phase(r: Interval) -> Phase {
    if r.stable_active() {
        Phase::Active
    } else if r.stable_inactive() {
        Phase::Inactive
    } else {
        Phase::Unstable
    }
}

/// Sound ranges of one neuron's twin quantities, as known at encode time.
#[derive(Copy, Clone, Debug)]
struct Ranges {
    y: Interval,
    dy: Interval,
    x: Interval,
    dx: Interval,
}

/// Encodes the activation of one neuron: `x = relu(y)` for the original copy
/// and — depending on the encoding — either `x̂ = relu(ŷ)` (BTNE) or the
/// distance relation `Δx = relu(y + Δy) − relu(y)` (ITNE).
#[allow(clippy::too_many_arguments)]
fn encode_relu<S: ModelSink>(
    sink: &mut S,
    buf: &mut LinExpr,
    nv: &mut NeuronVars,
    ranges: Ranges,
    exact: bool,
    opts: &EncodeOptions,
    enc: &mut Counters,
) {
    let yr = ranges.y;
    let dyr = ranges.dy;
    let xr = ranges.x.inflate(BOUND_EPS);
    let y = nv.y.expect("y exists");

    // --- Original copy: x = relu(y). ---
    let x = sink.var(xr.lo.max(0.0).min(xr.hi), xr.hi.max(0.0));
    nv.x = Some(x);
    encode_relu_value(sink, buf, x, y, yr, exact, enc);

    match opts.kind {
        EncodingKind::Single => {}
        EncodingKind::Btne => {
            // --- Hat copy: x̂ = relu(ŷ), fully independent relaxation over
            // the marginal range (see above). ---
            let yhr = yr;
            let xhr = yhr.relu().inflate(BOUND_EPS);
            let yh = nv.yh.expect("yh exists under BTNE");
            let xh = sink.var(xhr.lo.max(0.0).min(xhr.hi), xhr.hi.max(0.0));
            nv.xh = Some(xh);
            encode_relu_value(sink, buf, xh, yh, yhr, exact, enc);
        }
        EncodingKind::Itne => {
            // --- Distance relation: Δx = relu(y + Δy) − relu(y). ---
            let dy = nv.dy.expect("dy exists under ITNE");
            let yhr = yr.add(dyr);
            let dxr = if opts.y_aware_distance {
                crate::interval::relu_distance_range(yr, dyr)
            } else {
                let (l, u) = distance_relaxation_bounds(dyr);
                Interval::new(l, u)
            }
            .intersect(ranges.dx, 1e-9)
            .unwrap_or(ranges.dx)
            .inflate(BOUND_EPS);
            let dx = sink.var(dxr.lo, dxr.hi);
            nv.dx = Some(dx);

            match phase(yhr) {
                // Hat copy provably active: x̂ = ŷ, i.e. x + Δx = y + Δy.
                Phase::Active => {
                    buf.add_term(x, 1.0)
                        .add_term(dx, 1.0)
                        .add_term(y, -1.0)
                        .add_term(dy, -1.0);
                    sink.row(buf, Cmp::Eq, 0.0);
                }
                // Hat copy provably inactive: x̂ = 0, i.e. x + Δx = 0.
                Phase::Inactive => {
                    buf.add_term(x, 1.0).add_term(dx, 1.0);
                    sink.row(buf, Cmp::Eq, 0.0);
                }
                Phase::Unstable => {
                    if exact {
                        // Exact big-M ReLU on the implicit x̂ = x + Δx.
                        let zh = sink.binary();
                        enc.binaries += 1;
                        buf.add_term(x, 1.0).add_term(dx, 1.0);
                        sink.row(buf, Cmp::Ge, 0.0);
                        buf.add_term(x, 1.0)
                            .add_term(dx, 1.0)
                            .add_term(y, -1.0)
                            .add_term(dy, -1.0);
                        sink.row(buf, Cmp::Ge, 0.0);
                        // x̂ ≤ ŷ + M(1 − z) with M = −ŷ.lo, i.e.
                        // x̂ − ŷ + M·z ≤ M.
                        let m_lo = -yhr.lo + BOUND_EPS;
                        buf.add_term(x, 1.0)
                            .add_term(dx, 1.0)
                            .add_term(y, -1.0)
                            .add_term(dy, -1.0)
                            .add_term(zh, m_lo);
                        sink.row(buf, Cmp::Le, m_lo);
                        // x̂ ≤ ŷ.hi·z
                        buf.add_term(x, 1.0)
                            .add_term(dx, 1.0)
                            .add_term(zh, -(yhr.hi + BOUND_EPS));
                        sink.row(buf, Cmp::Le, 0.0);
                    } else {
                        // Paper Eq. 6: l(u−Δy)/(u−l) ≤ Δx ≤ u(Δy−l)/(u−l),
                        // written in the fraction-free scaled form.
                        enc.relaxed += 1;
                        let (l, u) = distance_relaxation_bounds(dyr);
                        if u - l < DEGENERATE_TOL {
                            sink.bounds(dx, -BOUND_EPS, BOUND_EPS);
                        } else {
                            let s = u - l;
                            buf.add_term(dx, s).add_term(dy, l);
                            sink.row(buf, Cmp::Ge, l * u);
                            buf.add_term(dx, s).add_term(dy, -u);
                            sink.row(buf, Cmp::Le, -u * l);
                        }
                        if opts.y_aware_distance {
                            // Hat-copy halves x̂ ≥ 0, x̂ ≥ ŷ (sound, tighter).
                            buf.add_term(x, 1.0).add_term(dx, 1.0);
                            sink.row(buf, Cmp::Ge, 0.0);
                            buf.add_term(x, 1.0)
                                .add_term(dx, 1.0)
                                .add_term(y, -1.0)
                                .add_term(dy, -1.0);
                            sink.row(buf, Cmp::Ge, 0.0);
                        }
                    }
                }
            }
        }
    }
}

/// Encodes `x = relu(y)` for one copy, given the pre-activation range:
/// stable phases become equalities, unstable ones big-M (exact) or triangle
/// (relaxed, paper Eq. 4).
fn encode_relu_value<S: ModelSink>(
    sink: &mut S,
    buf: &mut LinExpr,
    x: VarId,
    y: VarId,
    yr: Interval,
    exact: bool,
    enc: &mut Counters,
) {
    match phase(yr) {
        Phase::Active => {
            buf.add_term(x, 1.0).add_term(y, -1.0);
            sink.row(buf, Cmp::Eq, 0.0);
        }
        Phase::Inactive => {
            sink.bounds(x, 0.0, 0.0);
        }
        Phase::Unstable => {
            // x ≥ y and x ≥ 0 (the latter via the variable bound).
            buf.add_term(x, 1.0).add_term(y, -1.0);
            sink.row(buf, Cmp::Ge, 0.0);
            if exact {
                let z = sink.binary();
                enc.binaries += 1;
                // x ≤ y + M(1 − z) with M = −y.lo, i.e. x − y + M·z ≤ M.
                let m_lo = -yr.lo + BOUND_EPS;
                buf.add_term(x, 1.0).add_term(y, -1.0).add_term(z, m_lo);
                sink.row(buf, Cmp::Le, m_lo);
                // x ≤ y.hi·z
                buf.add_term(x, 1.0).add_term(z, -(yr.hi + BOUND_EPS));
                sink.row(buf, Cmp::Le, 0.0);
            } else {
                // Triangle chord: (hi−lo)·x − hi·y ≤ −hi·lo.
                enc.relaxed += 1;
                let s = yr.hi - yr.lo;
                buf.add_term(x, s).add_term(y, -yr.hi);
                sink.row(buf, Cmp::Le, -yr.hi * yr.lo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::fig1_affine;
    use crate::ibp::ibp_twin;
    use itne_milp::{Sense, SolveOptions};

    fn fig1_setup() -> (itne_nn::AffineNetwork, TwinBounds) {
        let net = fig1_affine();
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let b = ibp_twin(&net, &domain, 0.1);
        (net, b)
    }

    /// Exact ITNE on the whole Fig. 1 net reproduces the exact global range
    /// Δx⁽²⁾ ∈ [-0.2, 0.2] from Fig. 4.
    #[test]
    fn exact_itne_whole_network_matches_paper() {
        let (net, bounds) = fig1_setup();
        let sub = SubNetwork::decompose(&net, 1, 0, 2);
        let opts = EncodeOptions {
            kind: EncodingKind::Itne,
            relax: Relaxation::Exact,
            delta: 0.1,
            ..Default::default()
        };
        let enc = encode_subnet(&sub, &bounds, TargetKind::PostActivation, &opts);
        let t = enc.target_vars();
        let mut m = enc.model;
        m.set_objective(Sense::Maximize, 1.0 * t.dx.unwrap());
        let hi = m.solve().unwrap().objective;
        m.set_objective(Sense::Minimize, 1.0 * t.dx.unwrap());
        let lo = m.solve().unwrap().objective;
        assert!((hi - 0.2).abs() < 1e-6, "max Δx = {hi}, paper says 0.2");
        assert!((lo + 0.2).abs() < 1e-6, "min Δx = {lo}, paper says -0.2");
    }

    /// Relaxed ITNE (LPR) on the whole net reproduces Fig. 4's
    /// Δx⁽²⁾ ∈ [-0.275, 0.275].
    #[test]
    fn itne_lpr_whole_network_matches_paper() {
        let (net, bounds) = fig1_setup();
        let sub = SubNetwork::decompose(&net, 1, 0, 2);
        let opts = EncodeOptions {
            kind: EncodingKind::Itne,
            relax: Relaxation::Lpr,
            refine: 0,
            delta: 0.1,
            ..Default::default()
        };
        let enc = encode_subnet(&sub, &bounds, TargetKind::PostActivation, &opts);
        assert_eq!(enc.binaries, 0, "pure LPR must be a plain LP");
        let t = enc.target_vars();
        let mut m = enc.model;
        m.set_objective(Sense::Maximize, 1.0 * t.dx.unwrap());
        let hi = m.solve().unwrap().objective;
        m.set_objective(Sense::Minimize, 1.0 * t.dx.unwrap());
        let lo = m.solve().unwrap().objective;
        assert!((hi - 0.275).abs() < 1e-6, "max Δx = {hi}, paper says 0.275");
        assert!(
            (lo + 0.275).abs() < 1e-6,
            "min Δx = {lo}, paper says -0.275"
        );
    }

    /// Relaxed BTNE on the whole net: the paper's Fig. 4 reports
    /// Δx⁽²⁾ ∈ [-2.85, 1.5] (10.9×) from one-sided bound composition; our
    /// fully-coupled LP over the same BTNE relaxation is tighter,
    /// [-1.34375, 1.34375] (6.7×). Either way BTNE is several times looser
    /// than ITNE-LPR's [-0.275, 0.275] (1.38×) — the paper's point. The
    /// exact values here are a regression lock; see EXPERIMENTS.md.
    #[test]
    fn btne_lpr_whole_network_matches_paper() {
        let (net, bounds) = fig1_setup();
        let sub = SubNetwork::decompose(&net, 1, 0, 2);
        let opts = EncodeOptions {
            kind: EncodingKind::Btne,
            relax: Relaxation::Lpr,
            refine: 0,
            delta: 0.1,
            ..Default::default()
        };
        let enc = encode_subnet(&sub, &bounds, TargetKind::PostActivation, &opts);
        let t = enc.target_vars();
        let mut m = enc.model;
        let dxe = || 1.0 * t.xh.unwrap() - 1.0 * t.x.unwrap();
        m.set_objective(Sense::Maximize, dxe());
        let hi = m.solve().unwrap().objective;
        m.set_objective(Sense::Minimize, dxe());
        let lo = m.solve().unwrap().objective;
        // Sound: must contain the exact [-0.2, 0.2].
        assert!(
            lo <= -0.2 + 1e-6 && hi >= 0.2 - 1e-6,
            "[{lo}, {hi}] not sound"
        );
        // Much looser than ITNE-LPR's ±0.275 — the encoding gap.
        assert!(
            hi > 1.0 && lo < -1.0,
            "BTNE unexpectedly tight: [{lo}, {hi}]"
        );
        // Regression lock on the coupled-LP value.
        assert!((hi - 1.34375).abs() < 1e-6, "max Δx = {hi}");
        assert!((lo + 1.34375).abs() < 1e-6, "min Δx = {lo}");
    }

    /// Exact BTNE equals exact ITNE (same feasible set, different encodings).
    #[test]
    fn exact_btne_agrees_with_exact_itne() {
        let (net, bounds) = fig1_setup();
        let sub = SubNetwork::decompose(&net, 1, 0, 2);
        let opts = EncodeOptions {
            kind: EncodingKind::Btne,
            relax: Relaxation::Exact,
            delta: 0.1,
            ..Default::default()
        };
        let enc = encode_subnet(&sub, &bounds, TargetKind::PostActivation, &opts);
        let t = enc.target_vars();
        let mut m = enc.model;
        m.set_objective(Sense::Maximize, 1.0 * t.xh.unwrap() - 1.0 * t.x.unwrap());
        let hi = m.solve().unwrap().objective;
        assert!((hi - 0.2).abs() < 1e-6, "exact BTNE max {hi} ≠ 0.2");
    }

    /// Single-copy exact range analysis over X reproduces x⁽²⁾ ∈ [0, 1.25]
    /// (Fig. 4 "Exact" x-range row).
    #[test]
    fn single_copy_exact_output_range() {
        let (net, bounds) = fig1_setup();
        let sub = SubNetwork::decompose(&net, 1, 0, 2);
        let opts = EncodeOptions {
            kind: EncodingKind::Single,
            relax: Relaxation::Exact,
            ..Default::default()
        };
        let enc = encode_subnet(&sub, &bounds, TargetKind::PostActivation, &opts);
        let t = enc.target_vars();
        let mut m = enc.model;
        m.set_objective(Sense::Maximize, 1.0 * t.x.unwrap());
        let hi = m.solve_with(&SolveOptions::default()).unwrap().objective;
        assert!((hi - 1.25).abs() < 1e-6, "max x⁽²⁾ = {hi}, paper says 1.25");
    }

    /// The reuse sink replay is bit-identical to a fresh build: encode under
    /// one δ, re-parameterize under another, and compare against the fresh
    /// encoding at the second δ, model datum by model datum.
    #[test]
    fn reencode_matches_fresh_encode_bitwise() {
        let net = fig1_affine();
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let sub = SubNetwork::decompose(&net, 1, 0, 2);
        for kind in [EncodingKind::Itne, EncodingKind::Btne, EncodingKind::Single] {
            let mut opts = EncodeOptions {
                kind,
                relax: Relaxation::Lpr,
                refine: 1,
                delta: 0.1,
                ..Default::default()
            };
            let b1 = ibp_twin(&net, &domain, 0.1);
            let refined = refined_for(&sub, &b1, TargetKind::PostActivation, &opts);
            let mut enc =
                encode_subnet_refined(&sub, &b1, TargetKind::PostActivation, &opts, None, &refined);

            // Same structure, new δ: replay must succeed and match fresh.
            opts.delta = 0.05;
            let b2 = ibp_twin(&net, &domain, 0.05);
            let refined2 = refined_for(&sub, &b2, TargetKind::PostActivation, &opts);
            if refined2 != refined {
                // Refinement pick changed — a cache layer above would miss;
                // nothing to assert here.
                continue;
            }
            assert!(
                reencode_subnet(
                    &mut enc,
                    &sub,
                    &b2,
                    TargetKind::PostActivation,
                    &opts,
                    None,
                    &refined2,
                ),
                "replay must succeed when the skeleton is unchanged ({kind:?})"
            );
            let fresh = encode_subnet_refined(
                &sub,
                &b2,
                TargetKind::PostActivation,
                &opts,
                None,
                &refined2,
            );
            assert_models_identical(&enc.model, &fresh.model);
            assert_eq!(enc.binaries, fresh.binaries);
            assert_eq!(enc.refined, fresh.refined);
            assert_eq!(enc.relaxed, fresh.relaxed);
        }
    }

    fn assert_models_identical(a: &Model, b: &Model) {
        assert_eq!(a.num_vars(), b.num_vars());
        assert_eq!(a.num_constraints(), b.num_constraints());
        for j in 0..a.num_vars() {
            let (alo, ahi) = a.bounds_at(j);
            let (blo, bhi) = b.bounds_at(j);
            assert_eq!(alo.to_bits(), blo.to_bits(), "var {j} lo");
            assert_eq!(ahi.to_bits(), bhi.to_bits(), "var {j} hi");
        }
        for r in 0..a.num_constraints() {
            assert_eq!(a.row_cmp(r), b.row_cmp(r), "row {r} cmp");
            assert_eq!(
                a.row_rhs(r).to_bits(),
                b.row_rhs(r).to_bits(),
                "row {r} rhs"
            );
            let (ta, tb) = (a.row_terms(r), b.row_terms(r));
            assert_eq!(ta.len(), tb.len(), "row {r} support");
            for (&(va, ca), &(vb, cb)) in ta.iter().zip(tb) {
                assert_eq!(va, vb, "row {r} var");
                assert_eq!(ca.to_bits(), cb.to_bits(), "row {r} coef");
            }
        }
    }
}
