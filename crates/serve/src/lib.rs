//! The resident certification engine: certification-as-a-service over the
//! ITNE certifier, for workloads that issue many near-identical queries
//! against the same network (δ-sweeps, window ablations, per-epoch
//! re-certification during certified training).
//!
//! A [`CertEngine`] holds four cache layers, each invalidated by its own
//! key. A query tries layer 1 first; a hit there skips the other three:
//!
//! 1. an **answer store shared across windows**: each session (see layer 3)
//!    keeps the full bounds of its last successful query together with that
//!    query's δ bit pattern, its certificate-checking flag and the serial of
//!    the entry it ran on (layer 2). A query whose session holds an answer
//!    for its entry, δ bits and flag is an exact repeat: it returns that
//!    answer without running the certifier, with
//!    [`QueryResponse::answer_cached`] set and all work counters zero, and
//!    [`ServeStats::answer_hits`] counts it. Any other query starts from the
//!    answer of another window of its id on the same entry and refine at the
//!    same δ bits and flag that shares the most layers with it: Algorithm 1
//!    decomposes layer `i` over `min(W, i + 1)` layers, so two windows
//!    certify the same ranges on their first `min(W, W′)` layers
//!    ([`itne_core::shared_layers`]). The query copies those layers and
//!    certifies only the rest ([`QueryResponse::shared_layers`],
//!    [`ServeStats::shared_starts`]); reading another window's answer locks
//!    no other session. A session holds one answer; every other query on it
//!    replaces it;
//! 2. a **registry** of ids, each holding its current entry: the lowered
//!    network, the domain and the δ-independent interval pre-bounds
//!    ([`itne_core::ibp_values`]), computed once per registration of new
//!    content, under a serial number unique within the engine;
//! 3. per-session **encoding caches** inside [`ResidentState`]. An id keys
//!    its sessions by `(min(window, depth), refine)` (every window at or past
//!    the network's depth asks the same query): repeated δ-values over the
//!    same window re-parameterize the cached constraint skeletons in place
//!    instead of re-encoding (δ only perturbs bounds/RHS);
//! 4. a **basis store** in the same state: every directed solve's final
//!    simplex basis persists per `(encoding, objective)` across requests,
//!    extending within-sweep warm starts to cross-query warm starts. A
//!    basis a new δ or a weight update left primal infeasible is repaired
//!    by the bounded dual simplex rather than re-solved cold.
//!
//! Resident state belongs to the id it serves. Re-registering an id with
//! new weights or a new domain swaps in a new entry and keeps the id's
//! sessions, so the next query of each shape is the **delta
//! re-certification** path: it re-parameterizes the encodings the previous
//! content left and warm-starts every sweep from their bases
//! ([`QueryResponse::delta_seeded`]). A session whose window exceeds the
//! new network's depth serves a shape no query can reach any more, so it
//! is dropped, and the kept sessions' stored answers are cleared. Answers
//! belong to their entry and are never read for another, including one a
//! query stores late for the entry it resolved before the re-registration.
//! So a rollback, a version registered and never queried, and each of two
//! ids that forked from one content stay warm, and an id keeps one entry
//! and at most one session per reachable shape resident
//! ([`ServeStats::live_entries`], [`ServeStats::live_sessions`]). Two ids
//! never share state, even on identical content. Re-registering the content
//! an id holds is a no-op.
//!
//! Every answer is the certifier's ε̄ for the exact inputs of its query, and
//! an answer hit returns exactly the bits its session returned before.
//! Shared layers are the ranges the same query would certify on them, and
//! layers 2–4 change at most the pivot path, so a computed answer equals a
//! cold [`itne_core::certify_global`] run to solver tolerance and, after
//! the 2⁻³⁰ snap, usually bit for bit: this crate's tests assert it on
//! their nets, serially and under concurrency. It is not guaranteed. A
//! warm-started solve can end on a vertex that is optimal only to
//! tolerance. certbench's `serve_mix` stream finds resident answers one
//! 2⁻³⁰ step from cold on its fifth fine-tuning window, and a 200-version
//! stream in this crate's tests on 21 of its 400 answers.
//!
//! A serial request sequence always returns the same bits. Concurrent
//! clients need not: which other-window answers are stored when a query
//! starts, and so which layers it copies, depends on which queries finish
//! first, and a copied layer can sit one 2⁻³⁰ step from the one the query
//! would certify itself. The same concurrent requests can then return ε̄
//! one step apart from run to run; each answer is sound.
//!
//! Queries run on the certifier's deterministic work-stealing pool; a
//! bounded in-flight gate keeps concurrent clients from oversubscribing it.
//! Locks are taken in one order: the gate, then the registry, which no
//! query holds while it waits for a session; then a session's lock, then
//! the registry again, briefly, to read or store answers. A query that
//! panics leaves its session's lock poisoned. From then on no query reads
//! that session's stored answer, and the next query on the session restarts
//! it empty and drops the answer ([`ServeStats::poisoned_sessions`]).

#![forbid(unsafe_code)]

use itne_core::query::QueryStats;
use itne_core::{
    certify_global_resident, ibp_values, shared_layers, validate_network, validate_query,
    CertifyError, CertifyOptions, CertifyStats, Interval, ResidentState, TwinBounds,
    ValuePreBounds,
};
use itne_nn::{AffineNetwork, Network};
use std::cmp::Reverse;
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
    /// Content hash of the entry that answered, over its weights and domain
    /// ([`CertEngine::net_hash`]).
    pub net_hash: u64,
    /// Certified `ε̄` per network output.
    pub epsilons: Vec<f64>,
    /// The run's work counters, including the cache telemetry
    /// (`encoding_cache_hits/misses`, `cross_query_warm_hits`). They cover
    /// only the layers the query certified itself, not its
    /// [`QueryResponse::shared_layers`].
    pub stats: CertifyStats,
    /// Whether the query ran its session's resident state on this entry for
    /// the first time, after it last ran on another entry of the id: the
    /// delta re-certification path after a re-registration.
    pub delta_seeded: bool,
    /// Whether the answer came from the answer store: the query repeated
    /// its session's last successful query exactly, so the certifier did not
    /// run and every work counter in `stats` is zero.
    pub answer_cached: bool,
    /// How many leading layers the query copied from another window's
    /// stored answer at the same δ bits and checking flag instead of
    /// certifying them ([`itne_core::shared_layers`]); the counters in
    /// `stats` cover only the layers it ran. 0 when it started from no
    /// answer, and for an answer hit.
    pub shared_layers: usize,
}

/// Engine-lifetime counters, aggregated over every query.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Entries built: one per registration that gave an id new content
    /// (weights or domain).
    pub registered_nets: u64,
    /// Re-registrations of an existing id with new weights or a new domain.
    pub delta_registrations: u64,
    /// Queries answered, answer hits included.
    pub queries: u64,
    /// Queries that continued a session whose state last ran on another
    /// entry of its id: those with [`QueryResponse::delta_seeded`].
    pub delta_seeded_sessions: u64,
    /// Queries answered from their session's stored answer: exact repeats
    /// (cache layer 1).
    pub answer_hits: u64,
    /// Queries that started from the layers another window's stored answer
    /// had already certified (cache layer 1): those with a nonzero
    /// [`QueryResponse::shared_layers`].
    pub shared_starts: u64,
    /// Sessions restarted empty because a query panicked while holding
    /// their lock.
    pub poisoned_sessions: u64,
    /// The certifier's work counters, merged over every query that ran it.
    pub query: QueryStats,
    /// Entries resident when the snapshot was taken: one per registered id
    /// (a gauge, not a lifetime count).
    pub live_entries: u64,
    /// Sessions resident when the snapshot was taken: at most one per id
    /// and shape (a gauge).
    pub live_sessions: u64,
}

/// What one registration of new content computes (cache layer 2).
struct NetEntry {
    aff: AffineNetwork,
    domain: Vec<(f64, f64)>,
    /// The content hash the engine reports ([`entry_hash`]).
    hash: u64,
    /// Unique within the engine: an answer records the serial it ran on.
    serial: u64,
    /// δ-independent interval pre-bounds over `domain`.
    pre: ValuePreBounds,
}

impl NetEntry {
    /// Whether this entry holds exactly `aff` over `domain`, compared bit
    /// for bit — the same view the content hash takes, so `±0.0` differ.
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

/// The content hash of `aff` over `domain`: FNV-1a over the weight hash
/// and the domain's bit patterns. Not collision-resistant, so the engine
/// only reports it and tells content apart with [`NetEntry::holds`].
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

/// A session's key within its id, everything that shapes cached encodings:
/// `(window, refine)`, with the window clamped to the network's depth
/// (every window at or past the depth asks the same query). δ and
/// certificate checking deliberately stay out of the key — they never
/// change the constraint skeleton.
type Shape = (usize, usize);

/// One session's resident state (cache layers 3 and 4) and the serial of
/// the entry it last ran on.
#[derive(Default)]
struct State {
    ran_on: Option<u64>,
    resident: ResidentState,
}

type Session = Arc<Mutex<State>>;

/// The answer of a session's last successful query: its full bounds,
/// stored under what the session key leaves out, the entry's serial, δ's
/// bit pattern and the certificate-checking flag (a failed check falls back
/// to the IBP range, so the flag can change the answer).
struct Answer {
    serial: u64,
    delta_bits: u64,
    check_certs: bool,
    bounds: TwinBounds,
}

impl Answer {
    /// Whether this answer was computed on `entry` at `q`'s δ bits and
    /// checking flag.
    fn answers(&self, entry: &NetEntry, q: &QueryRequest) -> bool {
        self.serial == entry.serial
            && self.delta_bits == q.delta.to_bits()
            && self.check_certs == q.check_certs
    }
}

/// An open session with its entry in the answer store (cache layer 1). The
/// answer sits outside the session's lock, so reading it never waits on a
/// running query.
#[derive(Default)]
struct Open {
    state: Session,
    answer: Option<Arc<Answer>>,
}

impl Open {
    /// The stored answer, unless a query died holding the session: the
    /// restart of a poisoned session drops it ([`CertEngine::lock_session`]).
    fn answer(&self) -> Option<&Arc<Answer>> {
        self.answer.as_ref().filter(|_| !self.state.is_poisoned())
    }
}

type Sessions = BTreeMap<Shape, Open>;

/// A registered id: its current entry, and its sessions, which outlive
/// re-registrations that can still reach their shape.
struct Served {
    entry: Arc<NetEntry>,
    sessions: Sessions,
}

#[derive(Default)]
struct Registry {
    ids: BTreeMap<String, Served>,
    /// Entries built so far, which is also the next entry's serial.
    built: u64,
}

impl Registry {
    /// `id`'s session of `shape`. Ids are never removed, and sessions only
    /// by a re-registration that makes their shape unreachable, so it is
    /// there once a query has resolved them unless such a re-registration
    /// came in between.
    fn open(&mut self, id: &str, shape: Shape) -> Option<&mut Open> {
        self.ids.get_mut(id)?.sessions.get_mut(&shape)
    }
}

/// The stored answer `q` on `entry` can start from, with the window that
/// computed it: among the answers in `sessions` on `entry` at `q`'s refine,
/// δ bits and checking flag, the one that shares the most layers with
/// `shape`'s window ([`shared_layers`]; the smaller window on a tie). Its
/// window equals `shape`'s exactly when `q` repeats that session's last
/// answer.
fn start_for(
    sessions: &Sessions,
    shape: Shape,
    q: &QueryRequest,
    entry: &NetEntry,
) -> Option<(usize, Arc<Answer>)> {
    let depth = entry.aff.layers.len();
    sessions
        .iter()
        .filter_map(|(&(w, r), open)| Some((w, r, open.answer()?)))
        .filter(|&(_, r, a)| r == shape.1 && a.answers(entry, q))
        .max_by_key(|&(w, _, _)| (shared_layers(depth, shape.0, w), Reverse(w)))
        .map(|(w, _, a)| (w, Arc::clone(a)))
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

/// Poison-tolerant lock for the registry, the gate and the telemetry: no
/// panic can leave any of them half-updated, so they keep serving after a
/// panicking client thread. Sessions can be left half-updated and go
/// through [`CertEngine::lock_session`] instead.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The resident certification engine. See the crate docs for the cache
/// architecture and the lock order; all methods take `&self`, so one engine
/// can be shared across client threads (`&CertEngine` is `Send + Sync`).
pub struct CertEngine {
    threads: usize,
    registry: Mutex<Registry>,
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
            gate: Gate {
                n: Mutex::new(0),
                cv: Condvar::new(),
                cap: max_in_flight.max(1),
            },
            stats: Mutex::new(ServeStats::default()),
        }
    }

    /// Registers (or re-registers) `net` over `domain` under `id` and
    /// returns the entry's content hash ([`CertEngine::net_hash`]).
    /// Lowering, validation, and the δ-independent interval pre-bounds
    /// happen here, once per registration of new content; every id gets an
    /// entry of its own, even on content another id holds. Re-registering an
    /// id with changed weights or a changed domain swaps in a new entry and
    /// keeps the id's sessions: the first query of each `(window, refine)`
    /// after it continues from the state the previous content left (delta
    /// path). It drops the sessions whose window exceeds the new depth and
    /// clears the stored answers of the rest. Re-registering the content the
    /// id holds is a no-op.
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
        if let Some(served) = reg.ids.get(id).filter(|s| s.entry.holds(&aff, domain)) {
            return Ok(served.entry.hash);
        }
        let dom_iv: Vec<Interval> = domain
            .iter()
            .map(|&(lo, hi)| Interval::new(lo, hi))
            .collect();
        let entry = Arc::new(NetEntry {
            hash: entry_hash(&aff, domain),
            serial: reg.built,
            pre: ibp_values(&aff, &dom_iv),
            aff,
            domain: domain.to_vec(),
        });
        reg.built += 1;
        let hash = entry.hash;
        // The new entry takes over the id's sessions of the shapes it can
        // reach. Their answers carry the old serial and can never match, so
        // they go too.
        let old = reg.ids.remove(id);
        let update = old.is_some();
        let mut sessions = old.map(|s| s.sessions).unwrap_or_default();
        let depth = entry.aff.layers.len();
        sessions.retain(|&(window, _), _| window <= depth);
        for open in sessions.values_mut() {
            open.answer = None;
        }
        reg.ids.insert(id.to_string(), Served { entry, sessions });
        drop(reg);
        lock(&self.stats).delta_registrations += u64::from(update);
        Ok(hash)
    }

    /// The content hash of the entry `id` currently holds: FNV-1a over the
    /// weight hash ([`itne_nn::AffineNetwork::weight_hash`]) and the
    /// domain's bit patterns, so identical content hashes alike under any
    /// id. It is not collision-resistant and only reported: the engine
    /// compares content bit for bit.
    pub fn net_hash(&self, id: &str) -> Option<u64> {
        lock(&self.registry).ids.get(id).map(|s| s.entry.hash)
    }

    /// Certifies `(δ, ε̄)`-global robustness of the net registered under
    /// `net_id`, reusing every applicable cache layer. Queries against the
    /// same `(id, min(window, depth), refine)` session serialize on its
    /// state; different ids (and different windows of one id) run
    /// concurrently up to the engine's in-flight bound. An exact repeat of
    /// the session's last successful query on the same entry returns that
    /// query's ε̄ bits unchanged, without waiting for the session. Any other
    /// query runs the certifier on the entry the id held when it arrived,
    /// starting from the layers another window's stored answer on that
    /// entry at the same δ bits and checking flag already certified, when
    /// one does: its ε̄ is certified for its inputs and equals a cold
    /// [`itne_core::certify_global`] run with the same options to solver
    /// tolerance, usually bit for bit (see the crate docs for when it is one
    /// 2⁻³⁰ step away). Which answers are stored when a query starts depends
    /// on the order concurrent queries finish, so with concurrent clients
    /// the same requests can return ε̄ one such step apart from run to run;
    /// a serial request sequence always returns the same bits.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownNet`] for an unregistered id;
    /// [`ServeError::Certify`] for invalid query parameters. A rejected
    /// query creates and changes no session.
    pub fn certify(&self, net_id: &str, q: &QueryRequest) -> Result<QueryResponse, ServeError> {
        let _slot = self.gate.acquire();
        let mut reg = lock(&self.registry);
        let served = reg
            .ids
            .get_mut(net_id)
            .ok_or_else(|| ServeError::UnknownNet(net_id.to_string()))?;
        // The network and domain passed validation at registration; the
        // query's own parameters are checked before it touches any session.
        validate_query(q.delta, q.window)?;
        let entry = Arc::clone(&served.entry);
        let shape = (q.window.min(entry.aff.layers.len()), q.refine);
        let open = served.sessions.entry(shape).or_default();
        // An exact repeat is answered on the spot, without its session's
        // lock: a stored answer is immutable and belongs to its inputs.
        if let Some(answer) = open.answer().filter(|a| a.answers(&entry, q)) {
            return Ok(self.repeat(&entry, answer));
        }
        let session = Arc::clone(&open.state);
        drop(reg);
        let mut state = self.lock_session(net_id, shape, &session);
        // The store is read again under this session's lock, so a repeat of
        // a query that was still running on the session takes its answer.
        let start = lock(&self.registry)
            .ids
            .get(net_id)
            .and_then(|s| start_for(&s.sessions, shape, q, &entry));
        if let Some((_, answer)) = start.as_ref().filter(|(w, _)| *w == shape.0) {
            return Ok(self.repeat(&entry, answer));
        }
        let delta_seeded = state.ran_on.is_some_and(|s| s != entry.serial);
        state.ran_on = Some(entry.serial);
        let mut opts = CertifyOptions {
            window: q.window,
            refine: q.refine,
            threads: self.threads,
            check_certificates: q.check_certs,
            ..Default::default()
        };
        // Timing telemetry (refactorization / FTRAN-BTRAN nanoseconds in the
        // stats): audit-only clock reads inside the solver that never feed
        // certified bounds.
        opts.solver.telemetry = Some(itne_core::deadline::telemetry_clock());
        let earlier = start.as_ref().map(|(w, a)| (&a.bounds, *w));
        let report = certify_global_resident(
            &entry.aff,
            &entry.domain,
            q.delta,
            &opts,
            Some(&entry.pre),
            &mut state.resident,
            earlier,
        )?;
        let shared = earlier.map_or(0, |(_, w)| {
            shared_layers(entry.aff.layers.len(), shape.0, w)
        });
        let answer = Answer {
            serial: entry.serial,
            delta_bits: q.delta.to_bits(),
            check_certs: q.check_certs,
            bounds: report.bounds,
        };
        // Stored before the session's lock is released, so a repeat queued
        // behind this query takes it.
        if let Some(open) = lock(&self.registry).open(net_id, shape) {
            open.answer = Some(Arc::new(answer));
        }
        drop(state);
        Ok(self.counted(QueryResponse {
            net_hash: entry.hash,
            epsilons: report.epsilons,
            stats: report.stats,
            delta_seeded,
            answer_cached: false,
            shared_layers: shared,
        }))
    }

    /// The response to an exact repeat of `answer`'s query on `entry`.
    fn repeat(&self, entry: &NetEntry, answer: &Answer) -> QueryResponse {
        self.counted(QueryResponse {
            net_hash: entry.hash,
            epsilons: answer.bounds.epsilons(),
            stats: CertifyStats::default(),
            delta_seeded: false,
            answer_cached: true,
            shared_layers: 0,
        })
    }

    /// Adds a finished query to the engine totals and hands its response on.
    fn counted(&self, resp: QueryResponse) -> QueryResponse {
        let mut totals = lock(&self.stats);
        totals.queries += 1;
        totals.answer_hits += u64::from(resp.answer_cached);
        totals.delta_seeded_sessions += u64::from(resp.delta_seeded);
        totals.shared_starts += u64::from(resp.shared_layers > 0);
        totals.query.absorb(resp.stats.query);
        drop(totals);
        resp
    }

    /// Locks `id`'s session of `shape`. A poisoned lock means a query
    /// panicked while holding it and may have left the state partly
    /// updated, so the session restarts empty, its stored answer is dropped,
    /// and the event is counted. The answer goes before the poison is
    /// cleared, so no reader sees it in between. Never called while the
    /// registry is held.
    fn lock_session<'a>(
        &self,
        id: &str,
        shape: Shape,
        session: &'a Session,
    ) -> MutexGuard<'a, State> {
        session.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            *guard = State::default();
            if let Some(open) = lock(&self.registry).open(id, shape) {
                open.answer = None;
            }
            session.clear_poison();
            lock(&self.stats).poisoned_sessions += 1;
            guard
        })
    }

    /// A snapshot of the engine-lifetime counters and the live gauges.
    pub fn stats(&self) -> ServeStats {
        let reg = lock(&self.registry);
        ServeStats {
            registered_nets: reg.built,
            live_entries: reg.ids.len() as u64,
            live_sessions: reg.ids.values().map(|s| s.sessions.len() as u64).sum(),
            ..*lock(&self.stats)
        }
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

    /// Whether queries run on the LU engine, the only one that warm-starts
    /// (`ITNE_TEST_ENGINE=dense` selects the cold oracle).
    fn lu_engine() -> bool {
        CertifyOptions::default().solver.engine == itne_milp::Engine::Lu
    }

    /// A query at `delta` and `window` that checks certificates when
    /// `ITNE_CHECK_CERTS` says so.
    fn env_query(delta: f64, window: usize) -> QueryRequest {
        QueryRequest {
            window,
            check_certs: itne_core::query::default_check_certificates(),
            ..QueryRequest::new(delta)
        }
    }

    /// `engine`'s answer to `q` on `id`, asserted equal to a cold run on
    /// `net` over `dom` bit for bit and free of certificate failures.
    fn certify_as_cold(
        engine: &CertEngine,
        id: &str,
        q: &QueryRequest,
        net: &AffineNetwork,
        dom: &[(f64, f64)],
    ) -> QueryResponse {
        let resp = engine.certify(id, q).unwrap();
        let cold = certify_global_affine(net, dom, q.delta, &cold_opts(q, 1)).unwrap();
        assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons), "{q:?}");
        assert_eq!(resp.stats.query.cert_failures, 0);
        resp
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

    /// A content-hash hit with different content is a collision, never a
    /// match: only [`NetEntry::holds`] decides that an id already holds
    /// what it is registered with.
    #[test]
    fn colliding_key_hash_is_confirmed_by_content() {
        let a = dense_net(3, 2, 3, 1);
        let b = dense_net(5, 2, 3, 1);
        let dom = [(0.0, 1.0); 2];
        // `a` under the hash `b` has, as a collision would give it.
        let planted = NetEntry {
            aff: a.clone(),
            domain: dom.to_vec(),
            hash: entry_hash(&b, &dom),
            serial: 0,
            pre: ibp_values(&a, &[Interval::new(0.0, 1.0); 2]),
        };
        assert!(!planted.holds(&b, &dom));
        // Identical content does match, including the planted entry.
        assert!(planted.holds(&a, &dom));
        assert!(!planted.holds(&a, &[(0.0, 1.0), (0.0, 2.0)]));
        // Registering `b` under an id that holds the planted entry is no
        // no-op: the id answers for `b`.
        let engine = CertEngine::new(1, 1);
        engine.register_affine("m", a, &dom).unwrap();
        lock(&engine.registry).ids.get_mut("m").expect("id").entry = Arc::new(planted);
        engine.register_affine("m", b.clone(), &dom).unwrap();
        assert_eq!(engine.stats().delta_registrations, 1);
        certify_as_cold(&engine, "m", &env_query(1e-3, 2), &b, &dom);
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
    /// certificate checking forced on. Net `a` gets an exact repeat that
    /// races its twin on one session (queries 0 and 6); net `b` gets a
    /// W = 2 and a W = 1 query at the same δ (queries 1 and 7), so whichever
    /// answers first can give the other its first layer.
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
            "delta path did not continue the id's session"
        );
        assert!(!resp.answer_cached, "the old weights' answer was reused");
        // Bits still golden against the cold path on the tuned net.
        let cold = certify_global_affine(&tuned, &dom, q.delta, &cold_opts(&q, 1)).unwrap();
        assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
        if lu_engine() {
            assert!(resp.stats.query.cross_query_warm_hits > 0);
            assert!(
                resp.stats.query.pivots < cold.stats.query.pivots,
                "delta query did not save pivots: {} vs {}",
                resp.stats.query.pivots,
                cold.stats.query.pivots
            );
        }
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

    /// Cache layer 1 across windows: on a 3-layer net, W = 1, 2, 3 at one δ
    /// each start from the layers the smaller windows' answers certified and
    /// still equal cold. W = 5 asks W = 3's query: an answer hit that opens
    /// no session.
    #[test]
    fn windows_start_from_the_layers_they_share() {
        let net = dense_net(0x5A4ED, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        engine.register_affine("m", net.clone(), &dom).unwrap();
        for window in 1..=3 {
            let resp = certify_as_cold(&engine, "m", &env_query(1e-3, window), &net, &dom);
            assert!(!resp.answer_cached);
            assert_eq!(resp.shared_layers, window - 1, "W = {window}");
        }
        let s = engine.stats();
        assert_eq!((s.shared_starts, s.live_sessions), (2, 3));
        let deep = certify_as_cold(&engine, "m", &env_query(1e-3, 5), &net, &dom);
        assert!(deep.answer_cached && deep.shared_layers == 0);
        assert_eq!(deep.stats.query.solves, 0);
        let s = engine.stats();
        assert_eq!((s.answer_hits, s.live_sessions), (1, 3));
    }

    /// A query starts only from an answer to the same inputs: a different
    /// δ, a flipped checking flag, a different refine or a re-registered
    /// version shares nothing, and each of those answers equals cold.
    #[test]
    fn nothing_is_shared_across_inputs() {
        let net = dense_net(0x5BA7E, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        engine.register_affine("m", net.clone(), &dom).unwrap();
        let q = QueryRequest {
            check_certs: true,
            ..QueryRequest::new(1e-3)
        };
        certify_as_cold(&engine, "m", &q, &net, &dom);
        let deep = QueryRequest { window: 3, ..q };
        let others = [
            QueryRequest {
                delta: 2e-3,
                ..deep
            },
            QueryRequest {
                check_certs: false,
                ..deep
            },
            QueryRequest { refine: 1, ..deep },
        ];
        for other in others {
            let resp = certify_as_cold(&engine, "m", &other, &net, &dom);
            assert_eq!(resp.shared_layers, 0, "{other:?}");
        }
        let tuned = perturbed(&net, 1e-4);
        engine.register_affine("m", tuned.clone(), &dom).unwrap();
        let resp = certify_as_cold(&engine, "m", &deep, &tuned, &dom);
        assert!(resp.delta_seeded && !resp.answer_cached);
        assert_eq!(resp.shared_layers, 0, "shared the old version's layers");
        assert_eq!(engine.stats().shared_starts, 0);
        // The same inputs on the new version do share.
        let resp = certify_as_cold(&engine, "m", &q, &tuned, &dom);
        assert_eq!(resp.shared_layers, 2);
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
    /// with an invalid δ or window must neither create a session nor run
    /// one on the new weights, so the first valid query is still the delta
    /// path.
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
            lock(&engine.registry).ids["m"].sessions.len(),
            1,
            "a rejected query made a session"
        );
        let resp = engine.certify("m", &q).unwrap();
        assert!(resp.delta_seeded, "a rejected query ran the session");
        assert_eq!(engine.stats().delta_seeded_sessions, 1);
    }

    /// A query that panics while holding its session's lock poisons it; the
    /// next query on that session restarts it empty, with no answer, and no
    /// other window starts from that answer in the meantime.
    #[test]
    fn a_poisoned_session_restarts_empty() {
        let net = dense_net(0x9015, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        engine.register_affine("m", net.clone(), &dom).unwrap();
        let q = QueryRequest::new(0.001);
        engine.certify("m", &q).unwrap();
        let shape = (q.window, q.refine);
        let session = Arc::clone(&lock(&engine.registry).ids["m"].sessions[&shape].state);
        // Leave a wrong answer behind and die holding the lock, as a query
        // that panicked mid-update would.
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = session.lock().unwrap();
                    let mut reg = lock(&engine.registry);
                    let open = reg.open("m", shape).expect("open session");
                    let stored = Arc::clone(open.answer.as_ref().expect("stored answer"));
                    let mut bounds = stored.bounds.clone();
                    for layer in &mut bounds.dx {
                        layer.fill(Interval::point(0.0));
                    }
                    open.answer = Some(Arc::new(Answer { bounds, ..*stored }));
                    drop(reg);
                    panic!("query died holding its session");
                })
                .join()
        });
        assert!(died.is_err());

        let deep = QueryRequest { window: 3, ..q };
        let resp = certify_as_cold(&engine, "m", &deep, &net, &dom);
        assert_eq!(resp.shared_layers, 0, "started from the poisoned answer");
        let resp = engine.certify("m", &q).unwrap();
        assert!(!resp.answer_cached, "served the poisoned session's answer");
        let cold = certify_global_affine(&net, &dom, q.delta, &cold_opts(&q, 1)).unwrap();
        assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
        assert_eq!(engine.stats().poisoned_sessions, 1);
        // The poison is cleared: the repeat is an ordinary hit.
        assert!(engine.certify("m", &q).unwrap().answer_cached);
        assert_eq!(engine.stats().poisoned_sessions, 1);
    }

    /// A fine-tuning stream of 200 weight versions under one id: each
    /// version's first query per window continues the id's session of that
    /// window, so the id keeps one entry and one session per window
    /// resident. Every answer equals that of one `ResidentState` carried
    /// through the stream, bit for bit (the W = 2 run starting, as the
    /// engine's does, from the W = 1 answer's first layer).
    /// Against cold runs the stream shows the known gap of the crate docs:
    /// some answers sit one 2⁻³⁰ grid step from cold, none further.
    #[test]
    fn a_weight_version_stream_keeps_two_versions_resident() {
        const GRID: f64 = 1.0 / (1u64 << 30) as f64;
        let dom = [(-1.0, 1.0); 3];
        let engine = CertEngine::new(1, 1);
        let mut net = dense_net(0x11FE, 3, 4, 1);
        let mut carried = [ResidentState::new(), ResidentState::new()];
        let bounded = |engine: &CertEngine| {
            let s = engine.stats();
            assert!(s.live_entries == 1 && s.live_sessions <= 2, "{s:?}");
        };
        for version in 0..200 {
            if version > 0 {
                net = perturbed(&net, 1e-3);
            }
            engine.register_affine("m", net.clone(), &dom).unwrap();
            bounded(&engine);
            let pre = ibp_values(&net, &[Interval::new(-1.0, 1.0); 3]);
            let mut earlier: Option<TwinBounds> = None;
            for (window, state) in [1, 2].into_iter().zip(&mut carried) {
                let q = env_query(1e-3, window);
                let resp = engine.certify("m", &q).unwrap();
                assert_eq!(resp.delta_seeded, version > 0, "version {version}, {q:?}");
                assert_eq!(resp.shared_layers, window - 1, "version {version}, {q:?}");
                assert_eq!(resp.stats.query.cert_failures, 0);
                let opts = cold_opts(&q, 1);
                let start = earlier.as_ref().map(|b| (b, 1));
                let carried =
                    certify_global_resident(&net, &dom, q.delta, &opts, Some(&pre), state, start)
                        .unwrap();
                assert_eq!(
                    bits(&resp.epsilons),
                    bits(&carried.epsilons),
                    "version {version}, {q:?}"
                );
                earlier = Some(carried.bounds);
                let cold = certify_global_affine(&net, &dom, q.delta, &opts).unwrap();
                for (r, c) in resp.epsilons.iter().zip(&cold.epsilons) {
                    assert!(
                        (r - c).abs() <= GRID,
                        "version {version}, {q:?}: {r} vs {c}"
                    );
                }
                bounded(&engine);
            }
        }
        let s = engine.stats();
        assert_eq!((s.delta_registrations, s.delta_seeded_sessions), (199, 398));
        assert_eq!((s.live_entries, s.live_sessions), (1, 2));
    }

    /// Two ids never share state, even on one content: `b`'s first query is
    /// computed, not served from `a`'s answer, and after `a` moves on, `b`
    /// keeps its bases and its answer.
    #[test]
    fn ids_keep_their_own_sessions() {
        let net = dense_net(0xC10E, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        let k = engine.register_affine("a", net.clone(), &dom).unwrap();
        assert_eq!(engine.register_affine("b", net.clone(), &dom).unwrap(), k);
        let q = env_query(1e-3, 2);
        certify_as_cold(&engine, "a", &q, &net, &dom);
        let first = certify_as_cold(&engine, "b", &q, &net, &dom);
        assert!(!first.answer_cached && !first.delta_seeded);
        assert!(first.stats.query.solves > 0);
        let tuned = perturbed(&net, 1e-4);
        engine.register_affine("a", tuned.clone(), &dom).unwrap();
        assert!(certify_as_cold(&engine, "a", &q, &tuned, &dom).delta_seeded);
        let s = engine.stats();
        assert_eq!(
            (s.registered_nets, s.live_entries, s.live_sessions),
            (3, 2, 2)
        );

        // `b` still holds the answer it computed, and its bases.
        let hit = engine.certify("b", &q).unwrap();
        assert!(hit.answer_cached);
        assert_eq!(bits(&hit.epsilons), bits(&first.epsilons));
        let q2 = env_query(2e-3, 2);
        let old = certify_as_cold(&engine, "b", &q2, &net, &dom);
        assert!(!old.delta_seeded && !old.answer_cached);
        assert!(
            !lu_engine() || old.stats.query.cross_query_warm_hits > 0,
            "the old id lost its bases: {:?}",
            old.stats.query
        );
        assert_eq!(engine.stats().delta_seeded_sessions, 1);
    }

    /// A rollback, and a version registered but never queried, keep the id
    /// warm: its sessions follow it from v0 past the unqueried v1 to v2 and
    /// back to v1, where W = 2 starts from W = 1's layer. Every answer
    /// equals cold.
    #[test]
    fn a_rollback_continues_the_ids_state() {
        let dom = [(-1.0, 1.0); 4];
        let v0 = dense_net(0x2011, 4, 6, 2);
        let v1 = perturbed(&v0, 1e-4);
        let v2 = perturbed(&v1, 1e-4);
        let engine = CertEngine::new(1, 1);
        engine.register_affine("m", v0.clone(), &dom).unwrap();
        for window in [1, 2] {
            certify_as_cold(&engine, "m", &env_query(1e-3, window), &v0, &dom);
        }
        engine.register_affine("m", v1.clone(), &dom).unwrap();
        engine.register_affine("m", v2.clone(), &dom).unwrap();
        let resp = certify_as_cold(&engine, "m", &env_query(1e-3, 1), &v2, &dom);
        assert!(resp.delta_seeded && !resp.answer_cached);
        engine.register_affine("m", v1.clone(), &dom).unwrap();
        for window in [1, 2] {
            let resp = certify_as_cold(&engine, "m", &env_query(1e-3, window), &v1, &dom);
            assert!(resp.delta_seeded && !resp.answer_cached, "W = {window}");
            assert_eq!(resp.shared_layers, window - 1, "W = {window}");
        }
        let s = engine.stats();
        assert_eq!(
            (s.delta_seeded_sessions, s.live_entries, s.live_sessions),
            (3, 1, 2)
        );
    }

    /// An id re-registered with other widths, then with another depth,
    /// answers every window as cold: its sessions continue, and their caches
    /// rebuild where the shapes changed. At depth 2 the W = 3 session is
    /// gone, and W = 3 asks W = 2's query and is answered from its store.
    #[test]
    fn an_id_reregistered_with_another_architecture_answers_as_cold() {
        let dom = [(-1.0, 1.0); 4];
        let deep = dense_net(0xA2C4, 4, 6, 2);
        let wide = dense_net(0xA2C5, 4, 8, 2);
        let mut shallow = dense_net(0xA2C6, 4, 5, 2);
        shallow.layers.remove(1);
        let engine = CertEngine::new(1, 1);
        for net in [&deep, &wide, &shallow] {
            engine.register_affine("m", net.clone(), &dom).unwrap();
            for window in 1..=3 {
                certify_as_cold(&engine, "m", &env_query(1e-3, window), net, &dom);
            }
        }
        let s = engine.stats();
        assert_eq!(
            (
                s.delta_registrations,
                s.delta_seeded_sessions,
                s.answer_hits
            ),
            (2, 5, 1)
        );
        assert_eq!((s.live_entries, s.live_sessions), (1, 2));
    }

    /// A query waits for its session outside the registry: while a helper
    /// holds m's session, a query on m at a new δ takes its handle on it
    /// and waits, yet a query on another id and a re-registration of m both
    /// finish. Released, the waiting query answers for the weights it
    /// resolved, and the answer it stores late is never served for the new
    /// weights.
    #[test]
    fn a_query_waits_for_its_session_outside_the_registry() {
        use std::sync::mpsc;
        use std::time::Duration;
        const PATIENCE: Duration = Duration::from_secs(30);
        let net = dense_net(0x5EED, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let other_net = dense_net(0x07E, 3, 4, 1);
        let other_dom = [(0.0, 1.0); 3];
        let engine = &CertEngine::new(1, 2);
        let k1 = engine.register_affine("m", net.clone(), &dom).unwrap();
        engine
            .register_affine("other", other_net.clone(), &other_dom)
            .unwrap();
        let q = env_query(1e-3, 2);
        engine.certify("m", &q).unwrap();
        let q2 = env_query(2e-3, 2);
        let tuned = &perturbed(&net, 1e-4);
        let held = &Arc::clone(&lock(&engine.registry).ids["m"].sessions[&(2, 0)].state);
        std::thread::scope(|scope| {
            // Both senders drop if this body panics, so no thread is left
            // waiting and the scope can join.
            let (locked_tx, locked_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            scope.spawn(move || {
                let _held = held.lock().unwrap();
                locked_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            locked_rx.recv().unwrap();
            let waiting = scope.spawn(move || engine.certify("m", &q2).unwrap());
            // The map's handle and this test's, plus the waiting query's.
            let taken = || Arc::strong_count(held) == 3;
            let tick = Duration::from_millis(1);
            for _ in 0..PATIENCE.as_millis() {
                if taken() {
                    break;
                }
                std::thread::sleep(tick);
            }
            assert!(taken(), "the query never took its session's handle");
            let (done_tx, done_rx) = mpsc::channel();
            let done = done_tx.clone();
            let other = scope.spawn(move || {
                let resp = engine.certify("other", &q);
                let _ = done.send(());
                resp
            });
            let update = scope.spawn(move || {
                let key = engine.register_affine("m", tuned.clone(), dom.as_slice());
                let _ = done_tx.send(());
                key
            });
            for _ in 0..2 {
                done_rx
                    .recv_timeout(PATIENCE)
                    .expect("a query on another id or a registration waited for the session");
            }
            assert!(!waiting.is_finished());
            let other = other.join().unwrap().unwrap();
            let cold =
                certify_global_affine(&other_net, &other_dom, q.delta, &cold_opts(&q, 1)).unwrap();
            assert_eq!(bits(&other.epsilons), bits(&cold.epsilons));
            assert_ne!(update.join().unwrap().unwrap(), k1);
            drop(release_tx);
            let late = waiting.join().unwrap();
            assert_eq!(late.net_hash, k1);
            let cold = certify_global_affine(&net, &dom, q2.delta, &cold_opts(&q2, 1)).unwrap();
            assert_eq!(bits(&late.epsilons), bits(&cold.epsilons));
        });
        let resp = certify_as_cold(engine, "m", &q2, tuned, &dom);
        assert!(!resp.answer_cached, "served the old weights' late answer");
        assert!(resp.delta_seeded);
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
                proptest::prop_assert!(!lu_engine() || s.query.cross_query_warm_hits > 0);
            }
        }
    }
}
