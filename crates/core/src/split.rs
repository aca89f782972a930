//! A Reluplex-style exact global robustness solver.
//!
//! The paper's `tR` baseline is Reluplex/Marabou: a simplex core extended
//! with lazy ReLU case splitting. This module reproduces that algorithmic
//! family: solve an LP relaxation of the twin network, and while the LP
//! optimum violates some ReLU's exact semantics, split that ReLU's phase
//! (pre-activation sign) and recurse — pruning branches whose relaxation
//! bound cannot beat the incumbent. Leaves have phase-fixed (hence linear)
//! activations, so their LP optima are exact.
//!
//! Independent from the MILP baseline (`exact_global`), which makes it a
//! genuine cross-check: both must agree to solver tolerance.

use crate::algorithm::{validate_delta, validate_network};
use crate::error::CertifyError;
use crate::ibp::ibp_twin;
use crate::interval::Interval;
use itne_milp::{Cmp, Model, Sense, SolveOptions, StopWhen, VarId};
use itne_nn::{AffineNetwork, Network};

/// Result of a [`split_global`] run.
#[derive(Clone, Debug)]
pub struct SplitReport {
    /// Per-output `ε`. Exact when [`SplitReport::exact`], otherwise a sound
    /// upper bound from the unexplored frontier.
    pub epsilons: Vec<f64>,
    /// Whether the search ran to completion.
    pub exact: bool,
    /// Total splitting nodes explored.
    pub nodes: u64,
    /// Total LP solves.
    pub lps: u64,
}

/// Limits for the splitting search.
#[derive(Clone, Debug)]
pub struct SplitOptions {
    /// LP solver settings. Its stop signal ([`SolveOptions::stop`]) is
    /// polled between splitting nodes, so a wall-clock budget is
    /// [`crate::deadline::solver_with_budget`]; once it fires, the
    /// unexplored frontier's bounds become the (sound) answer.
    pub solver: SolveOptions,
    /// Node budget across all objectives.
    pub max_nodes: u64,
}

impl Default for SplitOptions {
    fn default() -> Self {
        SplitOptions {
            solver: SolveOptions::default(),
            max_nodes: 2_000_000,
        }
    }
}

/// Computes the exact global robustness `ε` per output by lazy ReLU
/// splitting over the twin network.
///
/// # Errors
///
/// [`CertifyError::Lower`] if the network cannot be lowered;
/// [`CertifyError::InvalidInput`] when the network or domain fails
/// [`crate::validate_network`] or `delta` is NaN or negative.
pub fn split_global(
    net: &Network,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &SplitOptions,
) -> Result<SplitReport, CertifyError> {
    let aff = AffineNetwork::from_network(net)?;
    split_global_affine(&aff, domain, delta, opts)
}

/// [`split_global`] on an already-lowered network.
///
/// # Errors
///
/// See [`split_global`].
pub fn split_global_affine(
    aff: &AffineNetwork,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &SplitOptions,
) -> Result<SplitReport, CertifyError> {
    validate_network(aff, domain)?;
    validate_delta(delta)?;
    let dom: Vec<Interval> = domain.iter().map(|&(l, h)| Interval::new(l, h)).collect();
    let seed = ibp_twin(aff, &dom, delta);
    // Marginal pre-activation ranges; both copies share them initially.
    let base: Vec<Vec<Interval>> = seed.y.clone();

    let mut report = SplitReport {
        epsilons: vec![0.0; aff.output_dim()],
        exact: true,
        nodes: 0,
        lps: 0,
    };
    let out_dx = seed.dx.last().expect("network has layers");
    for (j, odx) in out_dx.iter().enumerate().take(aff.output_dim()) {
        for sense in [Sense::Maximize, Sense::Minimize] {
            // Root optimism: the IBP distance bound keeps frontier bounds
            // finite even under a zero budget.
            let root_bound = match sense {
                Sense::Maximize => odx.hi,
                Sense::Minimize => -odx.lo,
            };
            let (bound, complete) = split_search(
                aff,
                &dom,
                delta,
                &base,
                j,
                sense,
                root_bound,
                opts,
                &mut report,
            )?;
            let magnitude = match sense {
                Sense::Maximize => bound,
                Sense::Minimize => -bound,
            };
            report.epsilons[j] = report.epsilons[j].max(magnitude.max(0.0));
            report.exact &= complete;
        }
    }
    Ok(report)
}

struct Node {
    ya: Vec<Vec<Interval>>,
    yb: Vec<Vec<Interval>>,
    /// Parent's LP bound (optimistic for this node).
    bound: f64,
}

/// Branch-and-bound search for one directed objective. Returns
/// `(sound bound, ran to completion)`.
#[allow(clippy::too_many_arguments)]
fn split_search(
    aff: &AffineNetwork,
    dom: &[Interval],
    delta: f64,
    base: &[Vec<Interval>],
    out_j: usize,
    sense: Sense,
    root_bound: f64,
    opts: &SplitOptions,
    report: &mut SplitReport,
) -> Result<(f64, bool), CertifyError> {
    let sign = match sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    // Work in "maximize sign·Δ" form throughout.
    let mut incumbent = f64::NEG_INFINITY;
    let mut stack = vec![Node {
        ya: base.to_vec(),
        yb: base.to_vec(),
        bound: root_bound,
    }];
    let mut complete = true;

    while let Some(node) = stack.pop() {
        if node.bound <= incumbent + 1e-9 {
            continue;
        }
        if report.nodes >= opts.max_nodes
            || opts.solver.stop.as_ref().is_some_and(StopWhen::should_stop)
        {
            // Unexplored frontier: its bounds stay valid upper bounds.
            incumbent = incumbent.max(node.bound);
            for n in &stack {
                incumbent = incumbent.max(n.bound);
            }
            complete = false;
            break;
        }
        report.nodes += 1;

        let (mut model, vars) = encode_node(aff, dom, delta, &node);
        let t = &vars[vars.len() - 1][out_j];
        let obj = sign * t.xb - sign * t.xa;
        model.set_objective(Sense::Maximize, obj);
        report.lps += 1;
        let sol = match model.solve_with(&opts.solver) {
            Ok(s) => s,
            Err(itne_milp::SolveError::Infeasible) => continue,
            Err(_) => {
                // Numerical trouble: keep soundness by treating this branch
                // as unresolved at its parent bound.
                incumbent = incumbent.max(node.bound);
                complete = false;
                continue;
            }
        };
        if sol.objective <= incumbent + 1e-9 {
            continue;
        }

        // Find the worst ReLU violation in either copy at the LP optimum.
        let mut worst: Option<(usize, usize, bool, f64)> = None; // (layer, j, is_b, gap)
        for (li, layer) in aff.layers.iter().enumerate() {
            if !layer.relu {
                continue;
            }
            for (jj, v) in vars[li + 1].iter().enumerate().take(layer.width()) {
                for (is_b, yv, xv) in [
                    (false, sol.value(v.ya), sol.value(v.xa)),
                    (true, sol.value(v.yb), sol.value(v.xb)),
                ] {
                    let gap = (xv - yv.max(0.0)).abs();
                    if gap > 1e-7 && worst.is_none_or(|(_, _, _, g)| gap > g) {
                        worst = Some((li, jj, is_b, gap));
                    }
                }
            }
        }

        match worst {
            None => {
                // LP optimum satisfies every exact ReLU: a feasible pair.
                incumbent = incumbent.max(sol.objective);
            }
            Some((li, jj, is_b, _)) => {
                let r = if is_b {
                    node.yb[li][jj]
                } else {
                    node.ya[li][jj]
                };
                // Two children: phase fixed non-negative / non-positive.
                for half in [Interval::new(r.lo, 0.0), Interval::new(0.0, r.hi)] {
                    let mut child = Node {
                        ya: node.ya.clone(),
                        yb: node.yb.clone(),
                        bound: sol.objective,
                    };
                    if is_b {
                        child.yb[li][jj] = half;
                    } else {
                        child.ya[li][jj] = half;
                    }
                    stack.push(child);
                }
            }
        }
    }
    Ok((incumbent, complete))
}

#[derive(Copy, Clone)]
struct TwinVars {
    ya: VarId,
    yb: VarId,
    xa: VarId,
    xb: VarId,
}

/// Encodes a node: the twin network with per-copy phase ranges; unstable
/// ReLUs triangle-relaxed, phase-fixed ones linear.
fn encode_node(
    aff: &AffineNetwork,
    dom: &[Interval],
    delta: f64,
    node: &Node,
) -> (Model, Vec<Vec<TwinVars>>) {
    let mut m = Model::new();
    let mut vars: Vec<Vec<TwinVars>> = Vec::with_capacity(aff.layers.len() + 1);

    // Inputs: x ∈ X, x̂ ∈ X, ‖x̂ − x‖∞ ≤ δ.
    let mut level = Vec::with_capacity(aff.input_dim);
    for d in dom {
        let xa = m.add_var(d.lo, d.hi);
        let xb = m.add_var(d.lo, d.hi);
        m.add_constraint(xb - xa, Cmp::Le, delta);
        m.add_constraint(xb - xa, Cmp::Ge, -delta);
        // Inputs are their own "activations".
        level.push(TwinVars {
            ya: xa,
            yb: xb,
            xa,
            xb,
        });
    }
    vars.push(level);

    for (li, layer) in aff.layers.iter().enumerate() {
        let mut level = Vec::with_capacity(layer.width());
        for (jj, row) in layer.rows.iter().enumerate() {
            let ra = node.ya[li][jj];
            let rb = node.yb[li][jj];
            let ya = m.add_var(ra.lo - 1e-9, ra.hi + 1e-9);
            let yb = m.add_var(rb.lo - 1e-9, rb.hi + 1e-9);
            let mut ea = (1.0 * ya).compact();
            let mut eb = (1.0 * yb).compact();
            for &(p, c) in &row.terms {
                ea.add_term(vars[li][p].xa, -c);
                eb.add_term(vars[li][p].xb, -c);
            }
            m.add_constraint(ea, Cmp::Eq, row.bias);
            m.add_constraint(eb, Cmp::Eq, row.bias);

            let (xa, xb) = if layer.relu {
                let xa = m.add_var(0.0, ra.hi.max(0.0) + 1e-9);
                let xb = m.add_var(0.0, rb.hi.max(0.0) + 1e-9);
                encode_phase_relu(&mut m, xa, ya, ra);
                encode_phase_relu(&mut m, xb, yb, rb);
                (xa, xb)
            } else {
                (ya, yb)
            };
            level.push(TwinVars { ya, yb, xa, xb });
        }
        vars.push(level);
    }
    (m, vars)
}

fn encode_phase_relu(m: &mut Model, x: VarId, y: VarId, r: Interval) {
    if r.lo >= 0.0 {
        m.add_constraint(x - y, Cmp::Eq, 0.0);
    } else if r.hi <= 0.0 {
        m.set_bounds(x, 0.0, 0.0);
    } else {
        m.add_constraint(x - y, Cmp::Ge, 0.0);
        // Triangle chord over the node's phase range.
        let s = r.hi - r.lo;
        m.add_constraint(s * x - r.hi * y, Cmp::Le, -r.hi * r.lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::fig1_network;

    /// The splitting solver reproduces the exact Fig. 4 value ε = 0.2 and
    /// agrees with the MILP baseline.
    #[test]
    fn fig1_split_matches_exact() {
        let net = fig1_network();
        let r = split_global(
            &net,
            &[(-1.0, 1.0), (-1.0, 1.0)],
            0.1,
            &SplitOptions::default(),
        )
        .unwrap();
        assert!(r.exact);
        assert!((r.epsilons[0] - 0.2).abs() < 1e-5, "ε = {}", r.epsilons[0]);
        let milp = crate::exact_global(
            &net,
            &[(-1.0, 1.0), (-1.0, 1.0)],
            0.1,
            SolveOptions::default(),
        )
        .unwrap();
        assert!((r.epsilons[0] - milp.epsilon(0)).abs() < 1e-5);
    }

    /// With a zero node budget the result degrades to a sound over-bound.
    #[test]
    fn budget_exhaustion_stays_sound() {
        let net = fig1_network();
        let r = split_global(
            &net,
            &[(-1.0, 1.0), (-1.0, 1.0)],
            0.1,
            &SplitOptions {
                max_nodes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.exact);
        assert!(
            r.epsilons[0] >= 0.2 - 1e-9,
            "bound {} not sound",
            r.epsilons[0]
        );
    }
}
