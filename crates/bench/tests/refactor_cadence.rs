//! Regression lock for the LU engine's refactorization cadence: on the
//! Table I smoke net the basis must be refactorized orders of magnitude
//! less often than it pivots. A pure product-form eta file would have to
//! rebuild its inverse every `O(m)` pivots (the file is its only
//! representation); the LU engine refactorizes only on warm restores and
//! measured fill growth, which is the whole point of carrying real factors.

use itne_bench::nets::auto_mpg_net;
use itne_core::{certify_global, CertifyOptions};
use itne_milp::Engine;

#[test]
fn lu_refactorizations_stay_far_below_pivots_on_the_smoke_net() {
    let bench = auto_mpg_net(1, 4);
    let mut opts = CertifyOptions {
        window: 2,
        refine: 0,
        ..Default::default()
    };
    opts.solver.engine = Engine::Lu;
    let report =
        certify_global(&bench.net, &bench.domain, bench.delta, &opts).expect("smoke net certifies");
    let q = report.stats.query;
    assert!(q.pivots > 0, "smoke net should exercise the simplex");
    assert!(
        q.refactorizations * 500 < q.pivots,
        "LU engine refactorizes too eagerly: {} refactorizations for {} pivots",
        q.refactorizations,
        q.pivots
    );
}
