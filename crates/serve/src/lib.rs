//! The resident certification engine: certification-as-a-service over the
//! ITNE certifier, for workloads that issue many near-identical queries
//! against the same network (δ-sweeps, window ablations, per-epoch
//! re-certification during certified training).
//!
//! A [`CertEngine`] holds four cache layers, each invalidated by its own
//! key. A query tries layer 1 first; a hit there skips the other three:
//!
//! 1. an **answer cache**: each session keeps the ε̄ of its last successful
//!    query together with that query's δ bit pattern and certificate-checking
//!    flag. A query whose session (see layer 3) holds an answer for the same
//!    δ bits and flag is an exact repeat: it returns that answer without
//!    running the certifier, with [`QueryResponse::answer_cached`] set and
//!    all work counters zero, and [`ServeStats::answer_hits`] counts it.
//!    A session holds one answer; every other query replaces it. Delta
//!    seeding (below) never copies it, since it belongs to the old weights;
//! 2. a **model registry** keyed by everything that shapes an answer — the
//!    weights ([`itne_nn::AffineNetwork::weight_hash`]) *and* the input
//!    domain — holding the lowered network, the domain, and the
//!    δ-independent interval pre-bounds ([`itne_core::ibp_values`]),
//!    computed once at registration. The key is a hash, so a key hit is
//!    confirmed by comparing the full content bit for bit before an entry
//!    is shared;
//! 3. per-session **encoding caches** inside [`ResidentState`], keyed by
//!    `(net_key, window, refine)`: repeated δ-values over the same window
//!    re-parameterize the cached constraint skeletons in place instead of
//!    re-encoding (δ only perturbs bounds/RHS);
//! 4. a **basis store** in the same state: every directed solve's final
//!    simplex basis persists per `(encoding, objective)` across requests,
//!    extending within-sweep warm starts to cross-query warm starts. A
//!    basis a new δ or a weight update left primal infeasible is repaired
//!    by the bounded dual simplex rather than re-solved cold.
//!
//! Re-registering an id with updated weights (or a new domain) produces a
//! new key whose entry links to its predecessor; the first query against
//! the new entry clones the predecessor's session state, so **delta
//! re-certification** after a fine-tuning step rebuilds only bounds/RHS and
//! warm-starts every sweep from the previous model's bases.
//!
//! Every answer is the certifier's ε̄ for the exact inputs of its query, and
//! an answer hit returns exactly the bits its session returned before.
//! Layers 2–4 change at most the pivot path, so a computed answer equals a
//! cold [`itne_core::certify_global`] run to solver tolerance and, after
//! the 2⁻³⁰ snap, usually bit for bit: this crate's tests assert it on
//! their nets, serially and under concurrency. It is not guaranteed. A
//! warm-started solve can end on a vertex that is optimal only to
//! tolerance, and certbench's `serve_mix` stream finds resident answers one
//! 2⁻³⁰ step from cold on its fifth fine-tuning window.
//!
//! Queries run on the certifier's deterministic work-stealing pool; a
//! bounded in-flight gate keeps concurrent clients from oversubscribing it.
//! A query that panics leaves its session's lock poisoned; the next query on
//! that session restarts it empty ([`ServeStats::poisoned_sessions`]).

#![forbid(unsafe_code)]

use itne_core::query::QueryStats;
use itne_core::{
    certify_global_resident, ibp_values, validate_network, validate_query, CertifyError,
    CertifyOptions, CertifyStats, Interval, ResidentState, ValuePreBounds,
};
use itne_nn::{AffineNetwork, Network};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Errors returned by [`CertEngine`] operations.
#[derive(Debug)]
pub enum ServeError {
    /// The query named a net id that was never registered.
    UnknownNet(String),
    /// The underlying certifier rejected the inputs.
    Certify(CertifyError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownNet(id) => write!(f, "unknown net id {id:?}"),
            ServeError::Certify(e) => write!(f, "certification failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CertifyError> for ServeError {
    fn from(e: CertifyError) -> Self {
        ServeError::Certify(e)
    }
}

/// One certification query against a registered net.
#[derive(Copy, Clone, Debug)]
pub struct QueryRequest {
    /// Input perturbation bound δ.
    pub delta: f64,
    /// Decomposition window `W`.
    pub window: usize,
    /// Selectively-refined neurons per sub-problem.
    pub refine: usize,
    /// Validate every certified LP bound against its dual certificate in
    /// exact rational arithmetic.
    pub check_certs: bool,
}

impl QueryRequest {
    /// A query at the paper's default configuration (`W = 2`, no
    /// refinement, checking off).
    pub fn new(delta: f64) -> Self {
        QueryRequest {
            delta,
            window: 2,
            refine: 0,
            check_certs: false,
        }
    }
}

/// The result of one engine query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Registry key of the entry that answered (weights and domain; see
    /// [`CertEngine::register_affine`]).
    pub net_hash: u64,
    /// Certified `ε̄` per network output.
    pub epsilons: Vec<f64>,
    /// The run's work counters, including the cache telemetry
    /// (`encoding_cache_hits/misses`, `cross_query_warm_hits`).
    pub stats: CertifyStats,
    /// Whether this query's session was seeded by cloning a predecessor
    /// net's session (the delta re-certification path).
    pub delta_seeded: bool,
    /// Whether the answer came from the session's answer cache: the query
    /// repeated the session's last successful query exactly, so the
    /// certifier did not run and every work counter in `stats` is zero.
    pub answer_cached: bool,
}

/// Engine-lifetime counters, aggregated over every query.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Distinct (weights, domain) entries registered.
    pub registered_nets: u64,
    /// Re-registrations of an existing id with new weights or a new domain
    /// (each links a predecessor for the delta path).
    pub delta_registrations: u64,
    /// Queries answered, answer hits included.
    pub queries: u64,
    /// Sessions seeded by cloning a predecessor net's session state.
    pub delta_seeded_sessions: u64,
    /// Queries answered from their session's last answer (cache layer 1).
    pub answer_hits: u64,
    /// Sessions restarted empty because a query panicked while holding
    /// their lock.
    pub poisoned_sessions: u64,
    /// The certifier's work counters, merged over every query that ran it.
    pub query: QueryStats,
}

/// One registered network: everything the registry computes once per
/// distinct (weights, domain) pair (cache layer 2).
struct NetEntry {
    aff: AffineNetwork,
    domain: Vec<(f64, f64)>,
    key: u64,
    /// δ-independent interval pre-bounds over `domain`.
    pre: ValuePreBounds,
    /// The key this id previously resolved to, when re-registered with
    /// updated weights or a new domain — the delta re-certification link.
    predecessor: Option<u64>,
}

impl NetEntry {
    /// Whether this entry holds exactly `aff` over `domain`, compared bit
    /// for bit — the same view the key hash takes, so `±0.0` differ.
    fn holds(&self, aff: &AffineNetwork, domain: &[(f64, f64)]) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        self.domain.len() == domain.len()
            && self
                .domain
                .iter()
                .zip(domain)
                .all(|(&(a, b), &(c, d))| same(a, c) && same(b, d))
            && self.aff.input_dim == aff.input_dim
            && self.aff.layers.len() == aff.layers.len()
            && self.aff.layers.iter().zip(&aff.layers).all(|(x, y)| {
                x.relu == y.relu
                    && x.rows.len() == y.rows.len()
                    && x.rows.iter().zip(&y.rows).all(|(r, t)| {
                        same(r.bias, t.bias)
                            && r.terms.len() == t.terms.len()
                            && r.terms
                                .iter()
                                .zip(&t.terms)
                                .all(|(&(i, a), &(j, b))| i == j && same(a, b))
                    })
            })
    }
}

/// The registry key hash of `aff` over `domain`: FNV-1a over the weight
/// hash and the domain's bit patterns. Not collision-resistant, so a hit is
/// only ever trusted after [`NetEntry::holds`] confirms it.
fn entry_hash(aff: &AffineNetwork, domain: &[(f64, f64)]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = std::iter::once(aff.weight_hash()).chain(
        domain
            .iter()
            .flat_map(|&(lo, hi)| [lo.to_bits(), hi.to_bits()]),
    );
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

#[derive(Default)]
struct Registry {
    by_id: BTreeMap<String, u64>,
    by_key: BTreeMap<u64, Arc<NetEntry>>,
}

impl Registry {
    /// The key `aff` over `domain` lives under, and whether an entry already
    /// holds it. Starts at [`entry_hash`] and, on a hash collision with
    /// different content, probes the following keys in order, so distinct
    /// content always gets a distinct key.
    fn locate(&self, aff: &AffineNetwork, domain: &[(f64, f64)]) -> (u64, bool) {
        let mut key = entry_hash(aff, domain);
        loop {
            match self.by_key.get(&key) {
                Some(e) if e.holds(aff, domain) => return (key, true),
                Some(_) => key = key.wrapping_add(1),
                None => return (key, false),
            }
        }
    }
}

/// Sessions are keyed by everything that shapes cached encodings:
/// `(net_key, window, refine)`, where the registry key covers weights and
/// domain. δ and certificate checking deliberately stay out of the key —
/// they never change the constraint skeleton.
type SessionKey = (u64, usize, usize);

/// The ε̄ of a session's last successful query, stored under what the
/// session key leaves out: δ's bit pattern and the certificate-checking
/// flag (a failed check falls back to the IBP range, so the flag can change
/// the answer).
struct Answer {
    delta_bits: u64,
    check_certs: bool,
    epsilons: Vec<f64>,
}

/// One session: the resident state its queries reuse (cache layers 3 and
/// 4) and its last answer (layer 1). The answer sits beside the state,
/// never inside it, so seeding a successor session copies only the state.
#[derive(Default)]
struct Session {
    state: ResidentState,
    answer: Option<Answer>,
}

impl Session {
    /// The stored ε̄ when `q` repeats the session's last successful query.
    fn answer_for(&self, q: &QueryRequest) -> Option<&[f64]> {
        self.answer
            .as_ref()
            .filter(|a| a.delta_bits == q.delta.to_bits() && a.check_certs == q.check_certs)
            .map(|a| a.epsilons.as_slice())
    }
}

/// Bounded in-flight gate: at most `cap` queries execute concurrently; the
/// rest block (in arrival order of lock acquisition) until a slot frees.
struct Gate {
    n: Mutex<usize>,
    cv: Condvar,
    cap: usize,
}

struct GateGuard<'a>(&'a Gate);

impl Gate {
    fn acquire(&self) -> GateGuard<'_> {
        let mut n = lock(&self.n);
        while *n >= self.cap {
            n = self.cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
        GateGuard(self)
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        *lock(&self.0.n) -= 1;
        self.0.cv.notify_one();
    }
}

/// Poison-tolerant lock for the registry, the session map, the gate and the
/// telemetry: no panic can leave any of them half-updated, so they keep
/// serving after a panicking client thread. Sessions can be left
/// half-updated and go through [`CertEngine::lock_session`] instead.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The resident certification engine. See the crate docs for the cache
/// architecture; all methods take `&self`, so one engine can be shared
/// across client threads (`&CertEngine` is `Send + Sync`).
pub struct CertEngine {
    threads: usize,
    registry: Mutex<Registry>,
    sessions: Mutex<BTreeMap<SessionKey, Arc<Mutex<Session>>>>,
    gate: Gate,
    stats: Mutex<ServeStats>,
}

impl CertEngine {
    /// An engine whose queries run on `threads` certifier workers, with at
    /// most `max_in_flight` queries executing concurrently (further callers
    /// block). Both are clamped to at least 1.
    pub fn new(threads: usize, max_in_flight: usize) -> Self {
        CertEngine {
            threads: threads.max(1),
            registry: Mutex::new(Registry::default()),
            sessions: Mutex::new(BTreeMap::new()),
            gate: Gate {
                n: Mutex::new(0),
                cv: Condvar::new(),
                cap: max_in_flight.max(1),
            },
            stats: Mutex::new(ServeStats::default()),
        }
    }

    /// Registers (or re-registers) `net` over `domain` under `id` and
    /// returns the entry's registry key. Lowering, validation, and the
    /// δ-independent interval pre-bounds happen here, once per distinct
    /// (weights, domain) pair: a second id with the same weights over a
    /// different domain gets an entry of its own. Re-registering an id with
    /// changed weights or a changed domain links the new entry to its
    /// predecessor so the first query against it can clone the old session
    /// (delta path); re-registering identical content is a no-op.
    ///
    /// # Errors
    ///
    /// [`ServeError::Certify`] when the network cannot be lowered, has a
    /// non-finite weight or bias, or the domain is malformed or does not
    /// match its input dimension ([`itne_core::validate_network`]).
    pub fn register(
        &self,
        id: &str,
        net: &Network,
        domain: &[(f64, f64)],
    ) -> Result<u64, ServeError> {
        let aff = AffineNetwork::from_network(net).map_err(CertifyError::Lower)?;
        self.register_affine(id, aff, domain)
    }

    /// [`CertEngine::register`] for an already-lowered network.
    ///
    /// # Errors
    ///
    /// See [`CertEngine::register`].
    pub fn register_affine(
        &self,
        id: &str,
        aff: AffineNetwork,
        domain: &[(f64, f64)],
    ) -> Result<u64, ServeError> {
        validate_network(&aff, domain)?;
        let mut reg = lock(&self.registry);
        let (key, known) = reg.locate(&aff, domain);
        let predecessor = match reg.by_id.get(id) {
            Some(&old) if old == key => return Ok(key), // identical content: no-op
            Some(&old) => Some(old),
            None => None,
        };
        if !known {
            let dom_iv: Vec<Interval> = domain
                .iter()
                .map(|&(lo, hi)| Interval::new(lo, hi))
                .collect();
            let pre = ibp_values(&aff, &dom_iv);
            reg.by_key.insert(
                key,
                Arc::new(NetEntry {
                    aff,
                    domain: domain.to_vec(),
                    key,
                    pre,
                    predecessor,
                }),
            );
            lock(&self.stats).registered_nets += 1;
        }
        reg.by_id.insert(id.to_string(), key);
        if predecessor.is_some() {
            lock(&self.stats).delta_registrations += 1;
        }
        Ok(key)
    }

    /// The registry key `id` currently resolves to.
    pub fn net_hash(&self, id: &str) -> Option<u64> {
        lock(&self.registry).by_id.get(id).copied()
    }

    /// Certifies `(δ, ε̄)`-global robustness of the net registered under
    /// `net_id`, reusing every applicable cache layer. Queries against the
    /// same `(net, window, refine)` session serialize on its state;
    /// different nets (and different windows of one net) run concurrently
    /// up to the engine's in-flight bound. An exact repeat of the session's
    /// last successful query returns that query's ε̄ bits unchanged. Any
    /// other query runs the certifier: its ε̄ is certified for its inputs
    /// and equals a cold [`itne_core::certify_global`] run with the same
    /// options to solver tolerance, usually bit for bit (see the crate
    /// docs for when it is one 2⁻³⁰ step away).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownNet`] for an unregistered id;
    /// [`ServeError::Certify`] for invalid query parameters. A rejected
    /// query creates, seeds and changes no session.
    pub fn certify(&self, net_id: &str, q: &QueryRequest) -> Result<QueryResponse, ServeError> {
        let _slot = self.gate.acquire();
        let entry = {
            let reg = lock(&self.registry);
            let key = *reg
                .by_id
                .get(net_id)
                .ok_or_else(|| ServeError::UnknownNet(net_id.to_string()))?;
            Arc::clone(reg.by_key.get(&key).expect("registry id without entry"))
        };
        // The network and domain passed validation at registration; the
        // query's own parameters are checked before it touches any session.
        validate_query(q.delta, q.window)?;
        let key: SessionKey = (entry.key, q.window, q.refine);
        let mut delta_seeded = false;
        let session = {
            let mut sessions = lock(&self.sessions);
            if let Some(s) = sessions.get(&key) {
                Arc::clone(s)
            } else {
                // First query for this (net, window, refine): seed from the
                // predecessor net's same-shaped session when one exists —
                // its encodings re-parameterize and its bases warm-start
                // against the updated weights (delta re-certification). Its
                // answer stays behind: it belongs to the old weights.
                let seed = entry
                    .predecessor
                    .and_then(|p| sessions.get(&(p, q.window, q.refine)))
                    .map(|s| self.lock_session(s).state.clone());
                delta_seeded = seed.is_some();
                let s = Arc::new(Mutex::new(Session {
                    state: seed.unwrap_or_default(),
                    answer: None,
                }));
                sessions.insert(key, Arc::clone(&s));
                s
            }
        };
        let mut session = self.lock_session(&session);
        let (epsilons, stats, answer_cached) = match session.answer_for(q) {
            Some(eps) => (eps.to_vec(), CertifyStats::default(), true),
            None => {
                let mut opts = CertifyOptions {
                    window: q.window,
                    refine: q.refine,
                    threads: self.threads,
                    check_certificates: q.check_certs,
                    ..Default::default()
                };
                // Timing telemetry (refactorization / FTRAN-BTRAN
                // nanoseconds in the stats): audit-only clock reads inside
                // the solver that never feed certified bounds.
                opts.solver.telemetry = Some(itne_core::deadline::telemetry_clock());
                let report = certify_global_resident(
                    &entry.aff,
                    &entry.domain,
                    q.delta,
                    &opts,
                    Some(&entry.pre),
                    &mut session.state,
                )?;
                session.answer = Some(Answer {
                    delta_bits: q.delta.to_bits(),
                    check_certs: q.check_certs,
                    epsilons: report.epsilons.clone(),
                });
                (report.epsilons, report.stats, false)
            }
        };
        drop(session);
        {
            let mut totals = lock(&self.stats);
            totals.queries += 1;
            totals.answer_hits += u64::from(answer_cached);
            totals.delta_seeded_sessions += u64::from(delta_seeded);
            totals.query.absorb(stats.query);
        }
        Ok(QueryResponse {
            net_hash: entry.key,
            epsilons,
            stats,
            delta_seeded,
            answer_cached,
        })
    }

    /// Locks a session. A poisoned lock means a query panicked while
    /// holding it and may have left the state partly taken, so the session
    /// restarts empty, with no answer, and the event is counted.
    fn lock_session<'a>(&self, session: &'a Mutex<Session>) -> MutexGuard<'a, Session> {
        session.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            *guard = Session::default();
            session.clear_poison();
            lock(&self.stats).poisoned_sessions += 1;
            guard
        })
    }

    /// A snapshot of the engine-lifetime counters.
    pub fn stats(&self) -> ServeStats {
        *lock(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itne_core::certify_global_affine;
    use itne_nn::{AffineLayer, SparseRow};

    /// A deterministic dense ReLU net whose LPs take real pivots.
    fn dense_net(seed: u64, inputs: usize, hidden: usize, outputs: usize) -> AffineNetwork {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut layer = |ins: usize, width: usize, relu: bool| AffineLayer {
            rows: (0..width)
                .map(|_| SparseRow {
                    terms: (0..ins).map(|k| (k, next())).collect(),
                    bias: 0.25 * next(),
                })
                .collect(),
            relu,
        };
        AffineNetwork {
            input_dim: inputs,
            layers: vec![
                layer(inputs, hidden, true),
                layer(hidden, hidden, true),
                layer(hidden, outputs, false),
            ],
        }
    }

    fn perturbed(net: &AffineNetwork, magnitude: f64) -> AffineNetwork {
        let mut out = net.clone();
        let mut sign = 1.0;
        for l in &mut out.layers {
            for r in &mut l.rows {
                for t in &mut r.terms {
                    t.1 += sign * magnitude;
                    sign = -sign;
                }
                r.bias += sign * magnitude;
            }
        }
        out
    }

    fn cold_opts(q: &QueryRequest, threads: usize) -> CertifyOptions {
        CertifyOptions {
            window: q.window,
            refine: q.refine,
            threads,
            check_certificates: q.check_certs,
            ..Default::default()
        }
    }

    fn bits(eps: &[f64]) -> Vec<u64> {
        eps.iter().map(|e| e.to_bits()).collect()
    }

    #[test]
    fn unknown_net_and_bad_domain_are_rejected() {
        let engine = CertEngine::new(1, 1);
        assert!(matches!(
            engine.certify("nope", &QueryRequest::new(0.01)),
            Err(ServeError::UnknownNet(_))
        ));
        let net = dense_net(7, 3, 4, 1);
        assert!(engine
            .register_affine("bad", net.clone(), &[(-1.0, 1.0); 2])
            .is_err());
        assert!(engine
            .register_affine("bad", net, &[(1.0, -1.0), (0.0, 1.0), (0.0, 1.0)])
            .is_err());
    }

    #[test]
    fn reregistering_identical_weights_is_a_noop() {
        let engine = CertEngine::new(1, 1);
        let net = dense_net(11, 3, 4, 1);
        let dom = [(-1.0, 1.0); 3];
        let h1 = engine.register_affine("m", net.clone(), &dom).unwrap();
        let h2 = engine.register_affine("m", net, &dom).unwrap();
        assert_eq!(h1, h2);
        let s = engine.stats();
        assert_eq!(s.registered_nets, 1);
        assert_eq!(s.delta_registrations, 0);
    }

    /// Registers the Fig. 1 net under `small` over `[−0.01, 0.01]²` and then
    /// `big` over `[−10, 10]²` (identical weights); `big`'s answer must be
    /// its own domain's, not the first registrant's pre-bounds.
    #[test]
    fn same_weights_under_a_second_id_keep_their_own_domain() {
        let engine = CertEngine::new(1, 1);
        let net = itne_core::example::fig1_affine();
        let small = [(-0.01, 0.01); 2];
        let big = [(-10.0, 10.0); 2];
        let ks = engine
            .register_affine("small", net.clone(), &small)
            .unwrap();
        let kb = engine.register_affine("big", net.clone(), &big).unwrap();
        assert_ne!(ks, kb);
        assert_eq!(engine.stats().registered_nets, 2);
        let q = QueryRequest::new(5.0);
        engine.certify("small", &q).unwrap();
        let got = engine.certify("big", &q).unwrap().epsilons;
        let cold = certify_global_affine(&net, &big, q.delta, &cold_opts(&q, 1))
            .unwrap()
            .epsilons;
        assert_eq!(bits(&got), bits(&cold), "served {got:?}, cold {cold:?}");
    }

    /// Re-registering one id with the same weights over a new domain is not
    /// a no-op: later queries answer over the new domain.
    #[test]
    fn reregistering_an_id_with_a_new_domain_takes_effect() {
        let engine = CertEngine::new(1, 1);
        let net = itne_core::example::fig1_affine();
        let big = [(-10.0, 10.0); 2];
        let k1 = engine
            .register_affine("m", net.clone(), &[(-0.01, 0.01); 2])
            .unwrap();
        let q = QueryRequest::new(5.0);
        engine.certify("m", &q).unwrap();
        let k2 = engine.register_affine("m", net.clone(), &big).unwrap();
        assert_ne!(k1, k2);
        assert_eq!(engine.net_hash("m"), Some(k2));
        assert_eq!(engine.stats().delta_registrations, 1);
        let got = engine.certify("m", &q).unwrap().epsilons;
        let cold = certify_global_affine(&net, &big, q.delta, &cold_opts(&q, 1))
            .unwrap()
            .epsilons;
        assert_eq!(bits(&got), bits(&cold), "served {got:?}, cold {cold:?}");
    }

    /// A key-hash hit with different content is a collision, never a
    /// match: the newcomer probes on to a key of its own.
    #[test]
    fn colliding_key_hash_is_confirmed_by_content() {
        let a = dense_net(3, 2, 3, 1);
        let b = dense_net(5, 2, 3, 1);
        let dom = [(0.0, 1.0); 2];
        let mut reg = Registry::default();
        // Plant `a` under the key `b` hashes to, as a collision would.
        let forged = entry_hash(&b, &dom);
        reg.by_key.insert(
            forged,
            Arc::new(NetEntry {
                aff: a.clone(),
                domain: dom.to_vec(),
                key: forged,
                pre: ibp_values(&a, &[Interval::new(0.0, 1.0); 2]),
                predecessor: None,
            }),
        );
        assert_eq!(reg.locate(&b, &dom), (forged.wrapping_add(1), false));
        assert_eq!(reg.locate(&a, &dom), (entry_hash(&a, &dom), false));
        // Identical content does match, including the planted entry.
        let planted = reg.by_key.get(&forged).expect("planted");
        assert!(planted.holds(&a, &dom));
        assert!(!planted.holds(&a, &[(0.0, 1.0), (0.0, 2.0)]));
    }

    /// A NaN or infinite weight or bias is refused at registration.
    #[test]
    fn non_finite_weights_are_rejected_at_registration() {
        let engine = CertEngine::new(1, 1);
        let dom = [(-1.0, 1.0); 2];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut weight = itne_core::example::fig1_affine();
            weight.layers[0].rows[1].terms[0].1 = bad;
            let mut bias = itne_core::example::fig1_affine();
            bias.layers[0].rows[0].bias = bad;
            for aff in [weight, bias] {
                assert!(
                    matches!(
                        engine.register_affine("bad", aff, &dom),
                        Err(ServeError::Certify(CertifyError::InvalidInput(_)))
                    ),
                    "{bad} accepted"
                );
            }
        }
        assert_eq!(engine.stats().registered_nets, 0);
    }

    /// The CI smoke workload: 8 concurrent queries across 2 registered
    /// nets, golden against the cold path, `cert_failures == 0` with
    /// certificate checking forced on.
    #[test]
    fn serve_smoke_concurrent_golden() {
        let net_a = dense_net(0xA, 4, 6, 2);
        let net_b = dense_net(0xB, 3, 5, 1);
        let dom_a = [(-1.0, 1.0); 4];
        let dom_b = [(0.0, 1.0); 3];
        let engine = CertEngine::new(1, 4);
        engine.register_affine("a", net_a.clone(), &dom_a).unwrap();
        engine.register_affine("b", net_b.clone(), &dom_b).unwrap();

        let queries: Vec<(&str, QueryRequest)> = (0..8)
            .map(|i| {
                let q = QueryRequest {
                    delta: 0.001 * (1 + i % 3) as f64,
                    window: if i % 4 == 3 { 1 } else { 2 },
                    refine: 0,
                    check_certs: true,
                };
                (if i % 2 == 0 { "a" } else { "b" }, q)
            })
            .collect();
        // Golden bits from the cold one-shot path.
        let golden: Vec<Vec<u64>> = queries
            .iter()
            .map(|(id, q)| {
                let (net, dom): (&AffineNetwork, &[(f64, f64)]) = if *id == "a" {
                    (&net_a, &dom_a)
                } else {
                    (&net_b, &dom_b)
                };
                let r = certify_global_affine(net, dom, q.delta, &cold_opts(q, 1)).unwrap();
                bits(&r.epsilons)
            })
            .collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|(id, q)| scope.spawn(|| engine.certify(id, q).unwrap()))
                .collect();
            for (h, want) in handles.into_iter().zip(&golden) {
                let resp = h.join().unwrap();
                assert_eq!(&bits(&resp.epsilons), want, "concurrent bits diverged");
                assert_eq!(resp.stats.query.cert_failures, 0);
            }
        });
        let s = engine.stats();
        assert_eq!(s.queries, 8);
        assert_eq!(s.query.cert_failures, 0);
        assert!(s.query.certs_checked > 0);
        // Repeated (net, window) pairs with different δ exist in the
        // workload, so some query must have hit the encoding cache.
        assert!(s.query.encoding_cache_hits > 0, "{s:?}");
    }

    #[test]
    fn delta_registration_seeds_the_new_session() {
        let net = dense_net(0xD317A, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 2);
        engine.register_affine("m", net.clone(), &dom).unwrap();
        let q = QueryRequest::new(0.001);
        assert!(!engine.certify("m", &q).unwrap().answer_cached);
        assert!(engine.certify("m", &q).unwrap().answer_cached);

        let tuned = perturbed(&net, 1e-4);
        let h2 = engine.register_affine("m", tuned.clone(), &dom).unwrap();
        assert_ne!(engine.stats().delta_registrations, 0);
        let resp = engine.certify("m", &q).unwrap();
        assert_eq!(resp.net_hash, h2);
        assert!(
            resp.delta_seeded,
            "delta path did not clone the old session"
        );
        assert!(!resp.answer_cached, "the old weights' answer was reused");
        assert!(resp.stats.query.cross_query_warm_hits > 0);
        // Bits still golden against the cold path on the tuned net.
        let cold = certify_global_affine(&tuned, &dom, q.delta, &cold_opts(&q, 1)).unwrap();
        assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
        assert!(
            resp.stats.query.pivots < cold.stats.query.pivots,
            "delta query did not save pivots: {} vs {}",
            resp.stats.query.pivots,
            cold.stats.query.pivots
        );
        let repeat = engine.certify("m", &q).unwrap();
        assert!(repeat.answer_cached && !repeat.delta_seeded);
        assert_eq!(bits(&repeat.epsilons), bits(&resp.epsilons));

        // A second, larger step moves the encodings' RHS far enough that
        // some stored bases restore primal infeasible: the dual simplex
        // repairs them, so no restore falls back cold.
        let retuned = perturbed(&tuned, 1e-3);
        engine.register_affine("m", retuned.clone(), &dom).unwrap();
        let resp = engine.certify("m", &q).unwrap();
        assert!(resp.delta_seeded);
        assert!(!resp.answer_cached, "the old weights' answer was reused");
        assert_eq!(resp.stats.query.warm_misses, 0, "{:?}", resp.stats.query);
        let cold = certify_global_affine(&retuned, &dom, q.delta, &cold_opts(&q, 1)).unwrap();
        assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
        assert!(engine.certify("m", &q).unwrap().answer_cached);

        // Re-registering identical content is a no-op: the session and its
        // answer survive.
        engine.register_affine("m", retuned, &dom).unwrap();
        let repeat = engine.certify("m", &q).unwrap();
        assert!(repeat.answer_cached);
        assert_eq!(bits(&repeat.epsilons), bits(&cold.epsilons));
        let s = engine.stats();
        assert_eq!(
            (s.queries, s.answer_hits, s.delta_seeded_sessions),
            (7, 4, 2)
        );
    }

    /// Cache layer 1: an exact repeat is answered from the session's last
    /// answer with no certifier work. The same δ with the check flag
    /// flipped, or a δ one ulp away, is not a repeat, and each computed
    /// answer replaces the stored one.
    #[test]
    fn exact_repeats_are_answered_from_the_session() {
        let net = dense_net(0xA5, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        engine.register_affine("m", net.clone(), &dom).unwrap();
        let q = QueryRequest {
            check_certs: true,
            ..QueryRequest::new(0.002)
        };
        let first = engine.certify("m", &q).unwrap();
        assert!(!first.answer_cached);
        // A rejected query in between touches neither session nor answer.
        assert!(engine
            .certify("m", &QueryRequest { delta: -1.0, ..q })
            .is_err());
        let hit = engine.certify("m", &q).unwrap();
        assert!(hit.answer_cached && !hit.delta_seeded);
        assert_eq!(bits(&hit.epsilons), bits(&first.epsilons));
        assert_eq!(hit.stats.query.solves, 0);
        assert_eq!(hit.stats.query.certs_checked, 0);

        let unchecked = QueryRequest {
            check_certs: false,
            ..q
        };
        let next_ulp = QueryRequest {
            delta: f64::from_bits(q.delta.to_bits() + 1),
            ..unchecked
        };
        for other in [unchecked, next_ulp] {
            let resp = engine.certify("m", &other).unwrap();
            assert!(!resp.answer_cached, "{other:?} reused another answer");
            assert!(resp.stats.query.solves > 0);
        }
        // The session now holds `next_ulp`'s answer, so `q` is recomputed.
        let again = engine.certify("m", &q).unwrap();
        assert!(!again.answer_cached);
        let cold = certify_global_affine(&net, &dom, q.delta, &cold_opts(&q, 1)).unwrap();
        assert_eq!(bits(&again.epsilons), bits(&cold.epsilons));
        let s = engine.stats();
        assert_eq!((s.queries, s.answer_hits), (5, 1));
    }

    /// A rejected query touches no session: after a weight update, a query
    /// with an invalid δ or window must not create the new weights' session,
    /// so the first valid query still seeds it from the predecessor's.
    #[test]
    fn rejected_queries_leave_sessions_untouched() {
        let net = dense_net(0xBAD, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        engine.register_affine("m", net.clone(), &dom).unwrap();
        let q = QueryRequest::new(0.001);
        engine.certify("m", &q).unwrap();
        engine
            .register_affine("m", perturbed(&net, 1e-4), &dom)
            .unwrap();
        for bad in [
            QueryRequest { delta: -1.0, ..q },
            QueryRequest {
                delta: f64::NAN,
                ..q
            },
            QueryRequest { window: 0, ..q },
        ] {
            assert!(matches!(
                engine.certify("m", &bad),
                Err(ServeError::Certify(CertifyError::InvalidInput(_)))
            ));
        }
        assert_eq!(
            lock(&engine.sessions).len(),
            1,
            "a rejected query made a session"
        );
        let resp = engine.certify("m", &q).unwrap();
        assert!(resp.delta_seeded, "a rejected query took the seeding");
        assert_eq!(engine.stats().delta_seeded_sessions, 1);
    }

    /// A query that panics while holding its session's lock poisons it; the
    /// next query on that session restarts it empty, with no answer.
    #[test]
    fn a_poisoned_session_restarts_empty() {
        let net = dense_net(0x9015, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        let key = engine.register_affine("m", net.clone(), &dom).unwrap();
        let q = QueryRequest::new(0.001);
        engine.certify("m", &q).unwrap();
        let session = Arc::clone(&lock(&engine.sessions)[&(key, q.window, q.refine)]);
        // Leave a wrong answer behind and die holding the lock, as a query
        // that panicked mid-update would.
        let died = std::thread::spawn(move || {
            let mut s = session.lock().unwrap();
            s.answer.as_mut().expect("stored answer").epsilons = vec![0.0; 2];
            panic!("query died holding its session");
        })
        .join();
        assert!(died.is_err());

        let resp = engine.certify("m", &q).unwrap();
        assert!(!resp.answer_cached, "served the poisoned session's answer");
        let cold = certify_global_affine(&net, &dom, q.delta, &cold_opts(&q, 1)).unwrap();
        assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
        assert_eq!(engine.stats().poisoned_sessions, 1);
        // The poison is cleared: the repeat is an ordinary hit.
        assert!(engine.certify("m", &q).unwrap().answer_cached);
        assert_eq!(engine.stats().poisoned_sessions, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(6))]
        /// Satellite: cache-hit certification — registry + encoding + basis
        /// reuse, including the delta path after a weight perturbation and
        /// hash change — reproduces the cold-path ε̄ bits byte-for-byte,
        /// serially and at 4 threads.
        #[test]
        fn cached_paths_reproduce_cold_bits(
            seed in 1u64..u64::MAX,
            delta_a in 1.0e-4f64..5.0e-3,
            delta_b in 1.0e-4f64..5.0e-3,
            nudge in 1.0e-5f64..1.0e-3,
        ) {
            let net = dense_net(seed, 4, 5, 2);
            let dom = [(-1.0, 1.0); 4];
            let tuned = perturbed(&net, nudge);
            for threads in [1usize, 4] {
                let engine = CertEngine::new(threads, 2);
                engine.register_affine("m", net.clone(), &dom).unwrap();
                // δa cold-fills the caches, δb re-parameterizes, δa again
                // hits every encoding and basis, and its exact repeat is an
                // answer hit; then the delta path on the tuned net.
                for (i, d) in [delta_a, delta_b, delta_a, delta_a].into_iter().enumerate() {
                    let q = QueryRequest { check_certs: true, ..QueryRequest::new(d) };
                    let resp = engine.certify("m", &q).unwrap();
                    let cold =
                        certify_global_affine(&net, &dom, d, &cold_opts(&q, threads)).unwrap();
                    proptest::prop_assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
                    proptest::prop_assert_eq!(resp.stats.query.cert_failures, 0);
                    proptest::prop_assert_eq!(resp.answer_cached, i == 3);
                }
                engine.register_affine("m", tuned.clone(), &dom).unwrap();
                let q = QueryRequest { check_certs: true, ..QueryRequest::new(delta_b) };
                let resp = engine.certify("m", &q).unwrap();
                let cold =
                    certify_global_affine(&tuned, &dom, delta_b, &cold_opts(&q, threads)).unwrap();
                proptest::prop_assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
                proptest::prop_assert_eq!(resp.stats.query.cert_failures, 0);
                proptest::prop_assert!(resp.delta_seeded);
                proptest::prop_assert!(!resp.answer_cached);
                let s = engine.stats();
                proptest::prop_assert_eq!(s.answer_hits, 1);
                proptest::prop_assert!(s.query.encoding_cache_hits > 0);
                proptest::prop_assert!(s.query.cross_query_warm_hits > 0);
            }
        }
    }
}
