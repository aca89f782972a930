//! Branch-and-bound over integer variables, bounding with LP relaxations.
//!
//! Depth-first search branching on the most fractional integer variable,
//! exploring the child nearer the LP value first and pruning a node on its
//! parent's relaxation bound before paying for its LP. A node carries the
//! bound overrides along its path, its parent's relaxation bound, and the
//! parent's optimal simplex [`Basis`], one snapshot shared by both siblings.
//! Supports cooperative cancellation ([`crate::StopWhen`], typically a
//! caller-built wall-clock deadline, returning the incumbent with
//! [`Status::TimedOut`]) — the mechanism behind the paper's "exact methods
//! cannot certify within 24h" rows of Table I. The solver never reads the
//! clock itself (determinism lint rule `wall-clock`).
//!
//! **Warm nodes.** On the sparse engine the tree compiles its constraint
//! skeleton once and keeps one live simplex core ([`sparse::NodeLp`]). A
//! child only tightens one variable bound of its parent, so the parent's
//! optimal basis stays dual feasible: the child popped right after its
//! parent re-solves *in place* in the live core, and its sibling restores
//! the shared snapshot with one refactorization. Either way the branched
//! bound is applied and a bounded dual simplex pivots primal feasibility
//! back in, followed by a primal phase-2 clean-up pass — a handful of
//! pivots where a cold solve from the slack basis takes dozens.
//!
//! **Farkas pruning.** When the dual ratio test finds no entering column,
//! the leaving row of `B⁻¹`, signed toward the violated bound, is a Farkas
//! ray. The node is pruned as infeasible only when that ray passes
//! [`itne_certcheck::verify_infeasibility`] in exact arithmetic against the
//! node's bounds; a ray that does not prove infeasibility, a rejected
//! restore, the pivot cap, or a failed residual check re-solves the node
//! cold from the slack basis, exactly as with warm starts off. So no node
//! is ever discarded on the solver's word alone.
//!
//! **Cutoff pruning.** Once the tree has an incumbent, a warm node's dual
//! simplex also gets the objective the node must strictly beat (the
//! incumbent ∓ 1e-9, the bound prune the loop applies after a solve), in
//! its own minimization sense. The dual objective of a dual feasible basis
//! bounds the node's LP optimum and only rises, so at the top of each dual
//! iteration it is compared with that cutoff. Once it gets there, fresh
//! duals `c_B·B⁻¹`, expanded to model rows, go to
//! [`itne_certcheck::verify_bound`] against the node's bounds. The node is
//! pruned, skipping the rest of the dual simplex, the primal clean-up and
//! the residual check, only when they prove that its LP optimum cannot beat
//! the incumbent. A check that fails drops the cutoff and the dual simplex
//! goes on as if it had none, so a failed check never costs a cold
//! re-solve. Every node cut off is one the loop would have pruned on its
//! bound or found infeasible, so the tree is the same (short of an optimum
//! within round-off of the cutoff) and only pivots drop.
//!
//! Only the cost of a node changes, never the search rule. Where a child's
//! LP has alternative optima the warm and cold paths may return different
//! optimal vertices, so the trees can differ in shape while proving the
//! same optimum. [`SolveOptions::warm_start`] off re-solves every node
//! cold, and [`Engine::Dense`], the oracle, solves every node cold in a
//! fresh tableau; neither has a cutoff.
//! [`Stats`] counts the work of every node — infeasible and cut off ones
//! included — and how each warm attempt ended (`warm_nodes`,
//! `farkas_pruned`, `cutoff_pruned`, `cold_fallbacks`).

use std::rc::Rc;

use itne_certcheck::{verify_bound, verify_infeasibility, RowRef};

use crate::error::SolveError;
use crate::model::{Model, Sense, VarType};
use crate::options::{Engine, SolveOptions, StopWhen, INT_TOL, MAX_NODES};
use crate::simplex::{self, Basis, EngineCounters};
use crate::sparse::{Cutoff, NodeLp, WarmNode};
use crate::{Solution, Stats, Status};

struct Node {
    /// `(column, lo, hi)` overrides accumulated along the path from the root.
    overrides: Vec<(usize, f64, f64)>,
    /// Objective of the parent's LP relaxation — an optimistic bound for this
    /// node, used to prune before re-solving.
    parent_bound: f64,
    /// The parent's optimal basis, shared with the sibling. `None` at the
    /// root, with warm starts off, and when the parent's basis still held
    /// an artificial column.
    basis: Option<Rc<Basis>>,
    /// Sequence number of the parent's solve: when the live core's last
    /// optimum is this node's parent, the node re-solves in place.
    parent: u64,
}

/// How the warm attempts of a tree ended (see [`Stats`]).
#[derive(Default)]
struct WarmCounts {
    warm_nodes: u64,
    farkas_pruned: u64,
    cutoff_pruned: u64,
    cold_fallbacks: u64,
}

pub(crate) fn solve_milp(model: &Model, opts: &SolveOptions) -> Result<Solution, SolveError> {
    let sense = model.sense.unwrap_or(Sense::Minimize);
    // `bar(b)`: the objective a node must strictly beat to improve on b.
    let bar = |b: f64| match sense {
        Sense::Maximize => b + 1e-9,
        Sense::Minimize => b - 1e-9,
    };
    // `better(a, b)`: objective a strictly improves on b.
    let better = |a: f64, b: f64| match sense {
        Sense::Maximize => a > bar(b),
        Sense::Minimize => a < bar(b),
    };

    let int_vars: Vec<usize> = model
        .cols
        .iter()
        .enumerate()
        .filter(|(_, c)| c.ty == VarType::Integer)
        .map(|(i, _)| i)
        .collect();

    let base_bounds: Vec<(f64, f64)> = model.cols.iter().map(|c| (c.lo, c.hi)).collect();
    let worst = match sense {
        Sense::Maximize => f64::NEG_INFINITY,
        Sense::Minimize => f64::INFINITY,
    };

    let mut incumbent: Option<Solution> = None;
    let mut best_obj = worst;
    let mut best_bound = worst; // tightest relaxation bound seen at the frontier
    let mut stack = vec![Node {
        overrides: Vec::new(),
        parent_bound: -worst,
        basis: None,
        parent: 0,
    }];
    let mut nodes = 0u64;
    let mut dense_pivots = 0u64;
    let mut counts = WarmCounts::default();
    let mut timed_out = false;
    let mut node_limited = false;
    let mut scratch = base_bounds.clone();
    // Node relaxations don't need dual certificates — nobody consumes a
    // node's duals, and the tree's bound is not witnessed by any single one.
    let opts = &SolveOptions {
        emit_certificates: false,
        ..opts.clone()
    };
    // The sparse engine compiles the skeleton once for the whole tree
    // (nodes only override variable bounds, never rows) and re-solves every
    // node in one live core.
    let mut lp = (opts.engine != Engine::Dense).then(|| NodeLp::new(model));
    let warm = opts.warm_start && lp.is_some();
    // The exact checker's view of the rows, built once per tree.
    let rows: Vec<RowRef<'_>> = if warm { model.row_view() } else { Vec::new() };
    // Sequence number of the node whose optimum the live core holds (0:
    // none), and spent snapshots whose buffers the next ones reuse.
    let mut live = 0u64;
    let mut spare: Vec<Basis> = Vec::new();

    while let Some(node) = stack.pop() {
        if opts.stop.as_ref().is_some_and(StopWhen::should_stop) {
            timed_out = true;
            break;
        }
        if nodes >= MAX_NODES {
            node_limited = true;
            break;
        }
        // Prune on the parent's relaxation before paying for an LP solve.
        if incumbent.is_some() && !better(node.parent_bound, best_obj) {
            recycle(node.basis, &mut spare);
            continue;
        }
        nodes += 1;

        scratch.copy_from_slice(&base_bounds);
        for &(c, lo, hi) in &node.overrides {
            let cur = scratch[c];
            scratch[c] = (cur.0.max(lo), cur.1.min(hi));
        }

        let relaxed = match lp.as_mut() {
            None => simplex::solve_dense_counted(model, &scratch, opts, &mut dense_pivots),
            Some(lp) => {
                let settled = match node.basis.as_deref() {
                    Some(basis) => {
                        let restore = (node.parent != live).then_some(basis);
                        let cutoff = incumbent.is_some().then(|| bar(best_obj));
                        settle_warm(
                            lp,
                            model,
                            &rows,
                            &scratch,
                            restore,
                            cutoff,
                            opts,
                            &mut counts,
                        )
                    }
                    None => None,
                };
                settled.unwrap_or_else(|| lp.solve_cold(model, &scratch, opts))
            }
        };
        recycle(node.basis, &mut spare);
        let relax = match relaxed {
            Ok(s) => s,
            // Infeasible, or cut off: nothing here beats the incumbent.
            Err(SolveError::Infeasible) => {
                live = 0;
                continue;
            }
            Err(e) => return Err(e),
        };
        live = nodes;
        if incumbent.is_some() && !better(relax.objective, best_obj) {
            continue; // relaxation can't beat incumbent
        }

        // Find the most fractional integer variable.
        let mut branch: Option<(usize, f64, f64)> = None; // (col, value, frac dist)
        for &c in &int_vars {
            let v = relax.values()[c];
            let frac = (v - v.round()).abs();
            if frac > INT_TOL {
                let dist = (v - v.floor() - 0.5).abs(); // 0 = perfectly fractional
                if branch.is_none_or(|(_, _, d)| dist < d) {
                    branch = Some((c, v, dist));
                }
            }
        }

        match branch {
            None => {
                // Integral: candidate incumbent. Snap integer values exactly.
                let mut vals = relax.values().to_vec();
                for &c in &int_vars {
                    vals[c] = vals[c].round();
                }
                if incumbent.is_none() || better(relax.objective, best_obj) {
                    best_obj = relax.objective;
                    incumbent = Some(Solution {
                        objective: relax.objective,
                        status: Status::Optimal,
                        stats: Stats::default(),
                        values: vals,
                        certificate: None,
                    });
                }
            }
            Some((c, v, _)) => {
                let floor = v.floor();
                let basis = lp.as_ref().filter(|_| warm).and_then(|lp| {
                    let mut b = spare.pop().unwrap_or_else(Basis::empty);
                    lp.snapshot_into(&mut b).then(|| Rc::new(b))
                });
                let up = Node {
                    overrides: with_override(&node.overrides, (c, floor + 1.0, f64::INFINITY)),
                    parent_bound: relax.objective,
                    basis: basis.clone(),
                    parent: nodes,
                };
                let down = Node {
                    overrides: with_override(&node.overrides, (c, f64::NEG_INFINITY, floor)),
                    parent_bound: relax.objective,
                    basis,
                    parent: nodes,
                };
                // Explore the child nearer the LP value first (DFS: push last).
                if v - floor > 0.5 {
                    stack.push(down);
                    stack.push(up);
                } else {
                    stack.push(up);
                    stack.push(down);
                }
                if incumbent.is_none() || better(relax.objective, best_bound) {
                    best_bound = relax.objective;
                }
            }
        }
    }

    let status = if timed_out {
        Status::TimedOut
    } else if node_limited {
        Status::NodeLimit
    } else {
        Status::Optimal
    };
    match incumbent {
        Some(mut sol) => {
            sol.status = status;
            let frontier: f64 = stack
                .iter()
                .map(|n| n.parent_bound)
                .fold(best_obj, |acc, b| match sense {
                    Sense::Maximize => acc.max(b),
                    Sense::Minimize => acc.min(b),
                });
            let work = lp.as_ref().map_or(
                EngineCounters {
                    pivots: dense_pivots,
                    ..EngineCounters::default()
                },
                NodeLp::work,
            );
            sol.stats = Stats {
                pivots: work.pivots,
                nodes,
                best_bound: if status == Status::Optimal {
                    sol.objective
                } else {
                    frontier
                },
                max_residual: model.violation(sol.values()),
                nnz: model.rows.iter().map(|r| r.terms.len() as u64).sum(),
                refactorizations: work.refactorizations,
                eta_len: work.eta_len,
                refactor_time_ns: work.refactor_time_ns,
                ftran_btran_time_ns: work.ftran_btran_time_ns,
                lu_fill_nnz: work.lu_fill_nnz,
                warm_nodes: counts.warm_nodes,
                farkas_pruned: counts.farkas_pruned,
                cutoff_pruned: counts.cutoff_pruned,
                cold_fallbacks: counts.cold_fallbacks,
            };
            sol.objective = {
                // Recompute from the snapped integer point for exactness.
                let mut obj = model.obj_constant;
                for &(v, c) in &model.objective {
                    obj += c * sol.values()[v];
                }
                obj
            };
            Ok(sol)
        }
        None if timed_out => Err(SolveError::Timeout),
        None if node_limited => Err(SolveError::IterationLimit),
        None => Err(SolveError::Infeasible),
    }
}

/// One warm attempt at a node: `Some` when it settles the node, `None` when
/// the node must be re-solved cold. A settled node has an optimum or is
/// pruned on an exact proof: infeasibility from the Farkas ray, or, given
/// the incumbent's `cutoff` (the objective the node must strictly beat), an
/// LP bound from fresh duals that does not beat it. Both prunes read as
/// [`SolveError::Infeasible`]: the node holds nothing that beats the
/// incumbent. A cutoff the duals do not prove is dropped and the dual
/// simplex goes on, so it never costs a cold re-solve.
#[allow(clippy::too_many_arguments)]
fn settle_warm(
    lp: &mut NodeLp,
    model: &Model,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    restore: Option<&Basis>,
    cutoff: Option<f64>,
    opts: &SolveOptions,
    counts: &mut WarmCounts,
) -> Option<Result<Solution, SolveError>> {
    let maximize = model.sense == Some(Sense::Maximize);
    let mut proves = |duals: &[f64]| {
        cutoff.is_some_and(|bar| {
            verify_bound(
                bounds.len(),
                rows,
                bounds,
                &model.objective,
                model.obj_constant,
                maximize,
                duals,
                bar,
            )
            .is_valid()
        })
    };
    let cutoff = cutoff.map(|bar| Cutoff {
        // The dual simplex minimizes c′·x with c′ = ∓c and no constant.
        at: if maximize {
            model.obj_constant - bar
        } else {
            bar - model.obj_constant
        },
        proves: &mut proves,
    });
    #[cfg(test)]
    let cutoff = cutoff.map(|c| Cutoff {
        at: tests::CUTOFF_AT.get().unwrap_or(c.at),
        ..c
    });
    match lp.solve_warm(model, bounds, restore, opts, cutoff) {
        WarmNode::Solved(sol) => {
            counts.warm_nodes += 1;
            return Some(Ok(sol));
        }
        WarmNode::Infeasible => {
            let ray = lp.farkas_ray();
            if verify_infeasibility(bounds.len(), rows, bounds, ray).is_valid() {
                counts.farkas_pruned += 1;
                return Some(Err(SolveError::Infeasible));
            }
        }
        WarmNode::CutOff => {
            counts.cutoff_pruned += 1;
            return Some(Err(SolveError::Infeasible));
        }
        WarmNode::Abandoned => {}
    }
    counts.cold_fallbacks += 1;
    None
}

/// Returns a spent node's snapshot buffers to the pool once its sibling no
/// longer shares them.
fn recycle(basis: Option<Rc<Basis>>, spare: &mut Vec<Basis>) {
    if let Some(b) = basis.and_then(|b| Rc::try_unwrap(b).ok()) {
        spare.push(b);
    }
}

fn with_override(base: &[(usize, f64, f64)], extra: (usize, f64, f64)) -> Vec<(usize, f64, f64)> {
    let mut v = Vec::with_capacity(base.len() + 1);
    v.extend_from_slice(base);
    v.push(extra);
    v
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use crate::{Cmp, Engine, LinExpr, Model, Sense, SolveError, SolveOptions, Status};

    thread_local! {
        /// Overrides the dual objective at which [`super::settle_warm`]'s
        /// cutoff fires for the trees this thread solves; the exact check
        /// still asks the duals to prove the real cutoff.
        pub(super) static CUTOFF_AT: Cell<Option<f64>> = const { Cell::new(None) };
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c  s.t. 3a + 4b + 2c ≤ 6, binary → a + c (17)? check:
        // a+b: weight 7 no. b+c: 6 → 20. Optimal is b + c = 20.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(3.0 * a + 4.0 * b + 2.0 * c, Cmp::Le, 6.0);
        m.set_objective(Sense::Maximize, 10.0 * a + 13.0 * b + 7.0 * c);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert!((s.value(b) - 1.0).abs() < 1e-9);
        assert!((s.value(c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x ≤ 5, x integer in [0, 10] → 2 (LP gives 2.5).
        let mut m = Model::new();
        let x = m.add_integer(0.0, 10.0);
        m.add_constraint(2.0 * x, Cmp::Le, 5.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        let s = m.solve().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_continuous_integer() {
        // max 2z + y  s.t. y ≤ 1.5 + 10(1-z), y ≤ 3, z binary, y ≥ 0.
        // z=1 → y ≤ 1.5 → obj 3.5; z=0 → y ≤ 3 → obj 3. Optimal 3.5.
        let mut m = Model::new();
        let z = m.add_binary();
        let y = m.add_var(0.0, 3.0);
        m.add_constraint(y + 10.0 * z, Cmp::Le, 11.5);
        m.set_objective(Sense::Maximize, 2.0 * z + y);
        let s = m.solve().unwrap();
        assert!((s.objective - 3.5).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x = 1 with x binary is infeasible.
        let mut m = Model::new();
        let x = m.add_binary();
        m.add_constraint(2.0 * x, Cmp::Eq, 1.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn equality_partition() {
        // Choose exactly 2 of 4 items minimizing cost.
        let mut m = Model::new();
        let xs: Vec<_> = (0..4).map(|_| m.add_binary()).collect();
        let sum = xs.iter().fold(LinExpr::new(), |acc, &x| acc + x);
        m.add_constraint(sum, Cmp::Eq, 2.0);
        let costs = [5.0, 1.0, 3.0, 2.0];
        let obj = xs
            .iter()
            .zip(costs)
            .fold(LinExpr::new(), |acc, (&x, c)| acc + c * x);
        m.set_objective(Sense::Minimize, obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6); // items 1 and 3
    }

    #[test]
    fn fired_stop_signal_yields_timeout_error_or_incumbent() {
        // A deliberately hard little MILP with an already-firing stop signal
        // (the deterministic equivalent of an expired deadline): we either
        // get TimedOut with an incumbent or a Timeout error — never a panic.
        let mut m = Model::new();
        let xs: Vec<_> = (0..18).map(|_| m.add_binary()).collect();
        let mut w = LinExpr::new();
        for (i, &x) in xs.iter().enumerate() {
            w = w + ((i % 7 + 1) as f64) * x;
        }
        m.add_constraint(w.clone(), Cmp::Le, 31.0);
        m.set_objective(Sense::Maximize, w);
        let opts = crate::SolveOptions {
            stop: Some(crate::StopWhen::immediately()),
            ..Default::default()
        };
        match m.solve_with(&opts) {
            Ok(s) => assert_eq!(s.status, Status::TimedOut),
            Err(e) => assert_eq!(e, SolveError::Timeout),
        }
    }

    /// `max 3x + y  s.t.  2x + y ≤ 1.5`, `x` binary, `y ∈ [0, 1]`: the
    /// root LP sits at `x = 0.75`, the `x = 1` child is infeasible and the
    /// `x = 0` child is optimal at 1.
    fn capacity_model() -> Model {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 1.5);
        m.set_objective(Sense::Maximize, 3.0 * x + y);
        m
    }

    /// The `x = 1` child is explored first, in place on the root's basis:
    /// the dual ratio test finds no entering column and its Farkas ray
    /// passes the exact check, so the child is pruned without a cold solve.
    #[test]
    fn infeasible_child_is_pruned_on_a_proved_farkas_ray() {
        let s = capacity_model().solve().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-9, "{}", s.objective);
        assert_eq!(s.stats.nodes, 3, "{:?}", s.stats);
        assert_eq!(s.stats.farkas_pruned, 1, "{:?}", s.stats);
        assert_eq!(s.stats.warm_nodes, 1, "{:?}", s.stats);
        assert_eq!(s.stats.cold_fallbacks, 0, "{:?}", s.stats);

        // With warm starts off nothing is pruned on a ray.
        let cold = capacity_model()
            .solve_with(&crate::SolveOptions {
                warm_start: false,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(cold.objective.to_bits(), s.objective.to_bits());
        assert_eq!(
            (cold.stats.warm_nodes, cold.stats.farkas_pruned),
            (0, 0),
            "{:?}",
            cold.stats
        );
    }

    /// A warm re-solve that hits the pivot cap is abandoned and the node
    /// re-solved cold, reaching the all-cold optimum. The `x = 0` child
    /// needs two dual pivots from the root basis (`y` enters, then leaves at
    /// its upper bound) but none cold, so a two-pivot cap rejects only the
    /// warm attempt.
    #[test]
    fn warm_resolve_over_the_pivot_cap_falls_back_cold() {
        let opts = crate::SolveOptions {
            max_pivots: 2,
            ..Default::default()
        };
        let s = capacity_model().solve_with(&opts).unwrap();
        assert_eq!(s.stats.cold_fallbacks, 1, "{:?}", s.stats);
        assert_eq!(s.stats.warm_nodes, 0, "{:?}", s.stats);
        let cold = capacity_model()
            .solve_with(&crate::SolveOptions {
                warm_start: false,
                ..opts
            })
            .unwrap();
        assert_eq!(s.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(s.values(), cold.values());
    }

    /// `count` random 0/1 knapsacks over `n` items from one fixed xorshift
    /// stream, each with capacity 40% of its total weight: `(model,
    /// values, weights, capacity)`, maximizing the packed value.
    fn random_knapsacks(count: usize, n: usize) -> Vec<(Model, Vec<f64>, Vec<f64>, f64)> {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..count)
            .map(|_| {
                let values: Vec<f64> = (0..n).map(|_| 1.0 + 9.0 * next()).collect();
                let weights: Vec<f64> = (0..n).map(|_| 1.0 + 4.0 * next()).collect();
                let cap = 0.4 * weights.iter().sum::<f64>();

                let mut m = Model::new();
                let xs: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
                let w = xs
                    .iter()
                    .zip(&weights)
                    .fold(LinExpr::new(), |acc, (&x, &wi)| acc + wi * x);
                m.add_constraint(w, Cmp::Le, cap);
                let v = xs
                    .iter()
                    .zip(&values)
                    .fold(LinExpr::new(), |acc, (&x, &vi)| acc + vi * x);
                m.set_objective(Sense::Maximize, v);
                (m, values, weights, cap)
            })
            .collect()
    }

    #[test]
    fn brute_force_agreement_random_knapsacks() {
        // Cross-check B&B against exhaustive enumeration on random instances.
        for (m, values, weights, cap) in random_knapsacks(25, 8) {
            let n = values.len();
            let got = m.solve().unwrap().objective;

            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let (mut wv, mut vv) = (0.0, 0.0);
                for i in 0..n {
                    if mask & (1 << i) != 0 {
                        wv += weights[i];
                        vv += values[i];
                    }
                }
                if wv <= cap + 1e-9 {
                    best = best.max(vv);
                }
            }
            assert!((got - best).abs() < 1e-6, "B&B {got} vs brute force {best}");
        }
    }

    /// The 16-item knapsack the cutoff tests share. Its tree finds an
    /// incumbent early; without the cutoff it takes 179 nodes: the cold
    /// root, 159 warm optima and 19 Farkas prunes, in 184 pivots.
    fn cutoff_knapsack() -> Model {
        random_knapsacks(2, 16).remove(1).0
    }

    /// Nodes that cannot beat the incumbent stop in the dual simplex on a
    /// proved bound. The tree is the one it was without the cutoff, and the
    /// answer is the dense oracle's to the bit.
    #[test]
    fn nodes_that_cannot_beat_the_incumbent_are_cut_off() {
        let s = cutoff_knapsack().solve().unwrap();
        assert!(s.stats.cutoff_pruned > 0, "{:?}", s.stats);
        assert_eq!(s.stats.nodes, 179, "{:?}", s.stats);
        assert!(s.stats.pivots < 184, "{:?}", s.stats);
        assert_eq!(s.stats.cold_fallbacks, 0, "{:?}", s.stats);
        let dense = cutoff_knapsack()
            .solve_with(&SolveOptions {
                engine: Engine::Dense,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(s.objective.to_bits(), dense.objective.to_bits());
        assert_eq!(s.values(), dense.values());
        assert_eq!(dense.stats.cutoff_pruned, 0, "{:?}", dense.stats);
    }

    /// A cutoff its duals cannot prove: the hook makes every warm node's
    /// dual simplex reach its cutoff at once, where the parent's duals
    /// still prove a bound that beats the incumbent. Every check fails, so
    /// every node resumes, is solved as it was without the cutoff (the
    /// same nodes and the same pivots) and is never pruned on the cutoff.
    #[test]
    fn a_cutoff_the_duals_cannot_prove_resumes_the_node() {
        CUTOFF_AT.set(Some(f64::NEG_INFINITY));
        let s = cutoff_knapsack().solve();
        CUTOFF_AT.set(None);
        let s = s.unwrap();
        assert_eq!(s.stats.cutoff_pruned, 0, "{:?}", s.stats);
        assert_eq!(
            (
                s.stats.nodes,
                s.stats.warm_nodes,
                s.stats.farkas_pruned,
                s.stats.pivots,
                s.stats.cold_fallbacks
            ),
            (179, 159, 19, 184, 0),
            "{:?}",
            s.stats
        );
        let cut = cutoff_knapsack().solve().unwrap();
        assert_eq!(s.objective.to_bits(), cut.objective.to_bits());
        assert_eq!(s.values(), cut.values());
    }
}
