//! The resident certification engine: certification-as-a-service over the
//! ITNE certifier, for workloads that issue many near-identical queries
//! against the same network (δ-sweeps, window ablations, per-epoch
//! re-certification during certified training).
//!
//! A [`CertEngine`] holds four cache layers, each invalidated by its own
//! key. A query tries layer 1 first; a hit there skips the other three:
//!
//! 1. an **answer store shared across windows**, keyed like the sessions
//!    (see layer 3): per key, the full bounds of its last successful query
//!    together with that query's δ bit pattern and certificate-checking
//!    flag. A query whose key holds an answer for the same δ bits and flag
//!    is an exact repeat: it returns that answer without running the
//!    certifier, with [`QueryResponse::answer_cached`] set and all work
//!    counters zero, and [`ServeStats::answer_hits`] counts it. Any other
//!    query starts from the answer of another window of the same entry and
//!    refine at the same δ bits and flag that shares the most layers with
//!    it: Algorithm 1 decomposes layer `i` over `min(W, i + 1)` layers, so
//!    two windows certify the same ranges on their first `min(W, W′)`
//!    layers ([`itne_core::shared_layers`]). The query copies those layers
//!    and certifies only the rest ([`QueryResponse::shared_layers`],
//!    [`ServeStats::shared_starts`]); reading another window's answer locks
//!    no other session. A key holds one answer; every other query on it
//!    replaces it. An answer leaves the store with its session (retirement,
//!    seeding by move, a poisoned lock), and delta seeding (below) never
//!    passes one on, since answers belong to their weights;
//! 2. a **model registry** keyed by everything that shapes an answer — the
//!    weights ([`itne_nn::AffineNetwork::weight_hash`]) *and* the input
//!    domain — holding the lowered network, the domain, and the
//!    δ-independent interval pre-bounds ([`itne_core::ibp_values`]),
//!    computed once at registration. The key is a hash, so a key hit is
//!    confirmed by comparing the full content bit for bit before an entry
//!    is shared;
//! 3. per-session **encoding caches** inside [`ResidentState`], keyed by
//!    `(net_key, min(window, depth), refine)` (every window at or past the
//!    network's depth asks the same query): repeated δ-values over the same
//!    window re-parameterize the cached constraint skeletons in place
//!    instead of re-encoding (δ only perturbs bounds/RHS);
//! 4. a **basis store** in the same state: every directed solve's final
//!    simplex basis persists per `(encoding, objective)` across requests,
//!    extending within-sweep warm starts to cross-query warm starts. A
//!    basis a new δ or a weight update left primal infeasible is repaired
//!    by the bounded dual simplex rather than re-solved cold.
//!
//! Re-registering an id with updated weights (or a new domain) produces a
//! new key whose entry links to its predecessor, so **delta
//! re-certification** after a fine-tuning step rebuilds only bounds/RHS and
//! warm-starts every sweep from the previous model's bases. Resident state
//! has a lifecycle, so a stream of weight versions keeps at most two of
//! them resident per id:
//!
//! - a new entry's first query per `(window, refine)` seeds its session from
//!   the predecessor's session of that shape. It *moves* the predecessor's
//!   resident state out and drops that session when no id resolves to the
//!   predecessor any more, and clones it only while some id still does;
//! - every registration retires the entries no id resolves to that are not
//!   the predecessor of an entry some id resolves to, with their sessions.
//!   A query already running on a retired session finishes on it.
//!
//! [`ServeStats::live_entries`] and [`ServeStats::live_sessions`] report what
//! is resident. Two known cases start cold where keeping every version
//! resident would have stayed warm; their answers are as correct as any:
//!
//! - re-registering content an entry still holds resolves to that entry as
//!   it is, link included. A rollback to the previous version is one such
//!   case: its sessions went to its successor, which the rollback retires;
//! - forked ids: when two ids resolve to one entry and both move to new
//!   versions before either queries, the first successor to query a shape
//!   takes the shared predecessor's session, and the other starts that
//!   shape cold.
//!
//! Every answer is the certifier's ε̄ for the exact inputs of its query, and
//! an answer hit returns exactly the bits its key returned before. Shared
//! layers are the ranges the same query would certify on them, and layers
//! 2–4 change at most the pivot path, so a computed answer equals a cold
//! [`itne_core::certify_global`] run to solver tolerance and, after
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
//! A query that panics leaves its session's lock poisoned. From then on no
//! query reads that session's stored answer, and the next query on the
//! session restarts it empty and drops the answer
//! ([`ServeStats::poisoned_sessions`]).

#![forbid(unsafe_code)]

use itne_core::query::QueryStats;
use itne_core::{
    certify_global_resident, ibp_values, shared_layers, validate_network, validate_query,
    CertifyError, CertifyOptions, CertifyStats, Interval, ResidentState, TwinBounds,
    ValuePreBounds,
};
use itne_nn::{AffineNetwork, Network};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
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
    /// (`encoding_cache_hits/misses`, `cross_query_warm_hits`). They cover
    /// only the layers the query certified itself, not its
    /// [`QueryResponse::shared_layers`].
    pub stats: CertifyStats,
    /// Whether this query opened its session by seeding it from a
    /// predecessor net's session (the delta re-certification path): it took
    /// that session's resident state, or cloned it while some id still
    /// resolves to the predecessor.
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
    /// Distinct (weights, domain) entries registered.
    pub registered_nets: u64,
    /// Re-registrations of an existing id with new weights or a new domain
    /// (each links a predecessor for the delta path).
    pub delta_registrations: u64,
    /// Queries answered, answer hits included.
    pub queries: u64,
    /// Sessions seeded from a predecessor net's session state, taken or
    /// (while some id still resolves to the predecessor) cloned.
    pub delta_seeded_sessions: u64,
    /// Queries answered from their key's stored answer: exact repeats
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
    /// Registry entries resident when the snapshot was taken: those an id
    /// resolves to and their predecessors (a gauge, not a lifetime count).
    pub live_entries: u64,
    /// Sessions resident when the snapshot was taken (a gauge).
    pub live_sessions: u64,
}

/// One registered network: everything the registry computes once per
/// distinct (weights, domain) pair (cache layer 2).
struct NetEntry {
    aff: AffineNetwork,
    domain: Vec<(f64, f64)>,
    key: u64,
    /// δ-independent interval pre-bounds over `domain`.
    pre: ValuePreBounds,
    /// The entry whose sessions seed this one's — the delta
    /// re-certification link. Set when an id is re-registered with updated
    /// weights or a new domain: the key the id resolved to.
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

    /// Whether some id resolves to `key`.
    fn resolves(&self, key: u64) -> bool {
        self.by_id.values().any(|&k| k == key)
    }

    /// Retires every entry no id resolves to that is not the predecessor of
    /// an entry some id resolves to, and takes the sessions of retired
    /// entries, answers included, out of `sessions`. They are returned, not
    /// dropped, so the caller can free their resident state after releasing
    /// its locks.
    fn retire(&mut self, sessions: &mut Sessions) -> Sessions {
        let by_key = &self.by_key;
        let keep: BTreeSet<u64> = self
            .by_id
            .values()
            .flat_map(|k| std::iter::once(*k).chain(by_key[k].predecessor))
            .collect();
        self.by_key.retain(|k, _| keep.contains(k));
        sessions
            .extract_if(.., |(net, _, _), _| !keep.contains(net))
            .collect()
    }
}

/// Sessions and stored answers are keyed by everything that shapes cached
/// encodings: `(net_key, window, refine)`, where the registry key covers
/// weights and domain and the window is clamped to the network's depth
/// (every window at or past the depth asks the same query). δ and
/// certificate checking deliberately stay out of the key — they never
/// change the constraint skeleton.
type SessionKey = (u64, usize, usize);

/// The session key of `q` against `entry`.
fn session_key(entry: &NetEntry, q: &QueryRequest) -> SessionKey {
    (entry.key, q.window.min(entry.aff.layers.len()), q.refine)
}

/// One session's resident state (cache layers 3 and 4). Seeding a
/// successor session passes on only this, never the session's answer.
type Session = Arc<Mutex<ResidentState>>;

/// The answer of a key's last successful query: its full bounds, stored
/// under what the key leaves out, δ's bit pattern and the
/// certificate-checking flag (a failed check falls back to the IBP range,
/// so the flag can change the answer).
struct Answer {
    delta_bits: u64,
    check_certs: bool,
    bounds: TwinBounds,
}

impl Answer {
    /// Whether this answer was computed at `q`'s δ bits and checking flag.
    fn answers(&self, q: &QueryRequest) -> bool {
        self.delta_bits == q.delta.to_bits() && self.check_certs == q.check_certs
    }
}

/// An open session with its entry in the answer store (cache layer 1). The
/// answer sits outside the session's lock, so reading it never waits on a
/// running query, and it leaves the map with its session.
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

/// The open sessions and their answers.
type Sessions = BTreeMap<SessionKey, Open>;

/// The stored answer `q` can start from, with the window that computed it:
/// among the answers of `key`'s net and refine at `q`'s δ bits and checking
/// flag, the one that shares the most layers with `key`'s window
/// ([`shared_layers`]; the smaller window on a tie). Its window equals
/// `key`'s exactly when `q` repeats that key's last answer.
fn start_for(
    sessions: &Sessions,
    key: SessionKey,
    q: &QueryRequest,
    depth: usize,
) -> Option<(usize, Arc<Answer>)> {
    let (net, window, refine) = key;
    sessions
        .range((net, 0, 0)..=(net, usize::MAX, usize::MAX))
        .filter_map(|(&(_, w, r), open)| Some((w, r, open.answer()?)))
        .filter(|&(_, r, a)| r == refine && a.answers(q))
        .max_by_key(|&(w, _, _)| (shared_layers(depth, window, w), Reverse(w)))
        .map(|(w, _, a)| (w, Arc::clone(a)))
}

/// The entry open under `key` if it still holds `session`: the session has
/// not left the map (retired, or taken by a successor) since it was looked
/// up.
fn still_open<'a>(
    sessions: &'a mut Sessions,
    key: &SessionKey,
    session: &Session,
) -> Option<&'a mut Open> {
    sessions
        .get_mut(key)
        .filter(|open| Arc::ptr_eq(&open.state, session))
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
    /// Locked after `registry` whenever both are held, and after a
    /// session's own lock: a session is locked under this one only while it
    /// is new and no other query can reach it.
    sessions: Mutex<Sessions>,
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
            sessions: Mutex::new(Sessions::default()),
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
    /// predecessor, the entry the id resolved to. The first query of each
    /// `(window, refine)` against the new entry seeds its session from the
    /// predecessor's (delta path): it takes the predecessor's state when no
    /// id resolves to the predecessor any more, and clones it otherwise.
    /// Every registration then retires the entries no id resolves to that
    /// are not the predecessor of one some id resolves to, with their
    /// sessions. Re-registering identical content is a no-op.
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
        let mut sessions = lock(&self.sessions);
        let retired = reg.retire(&mut sessions);
        // A retired session can hold megabytes of resident state: free it
        // after both maps are released, so no query's lookup waits on it.
        drop((sessions, reg));
        drop(retired);
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
    /// same `(net, min(window, depth), refine)` session serialize on its
    /// state; different nets (and different windows of one net) run
    /// concurrently up to the engine's in-flight bound. An exact repeat of
    /// the session's last successful query returns that query's ε̄ bits
    /// unchanged, without waiting for the session. Any other query runs
    /// the certifier, starting from the layers another window's stored
    /// answer at the same δ bits and checking flag already certified, when
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
    /// query creates, seeds and changes no session.
    pub fn certify(&self, net_id: &str, q: &QueryRequest) -> Result<QueryResponse, ServeError> {
        let _slot = self.gate.acquire();
        // The id resolves, and the session is found or made, under one
        // registry lock: a registration cannot retire the entry in between,
        // so the map never gains a session of a retired entry.
        let reg = lock(&self.registry);
        let key = *reg
            .by_id
            .get(net_id)
            .ok_or_else(|| ServeError::UnknownNet(net_id.to_string()))?;
        let entry = Arc::clone(reg.by_key.get(&key).expect("registry id without entry"));
        // The network and domain passed validation at registration; the
        // query's own parameters are checked before it touches any session.
        validate_query(q.delta, q.window)?;
        let depth = entry.aff.layers.len();
        let key = session_key(&entry, q);
        let mut sessions = lock(&self.sessions);
        let open = sessions.get(&key);
        // An exact repeat is answered on the spot, without its session's
        // lock: a stored answer is immutable and belongs to these inputs.
        if let Some(answer) = open.and_then(Open::answer).filter(|a| a.answers(q)) {
            let epsilons = answer.bounds.epsilons();
            drop((sessions, reg));
            return Ok(self.counted(QueryResponse {
                net_hash: entry.key,
                epsilons,
                stats: CertifyStats::default(),
                delta_seeded: false,
                answer_cached: true,
                shared_layers: 0,
            }));
        }
        let found = open.map(|o| Arc::clone(&o.state));
        let is_new = found.is_none();
        // First query for this (net, window, refine): seed from the
        // predecessor net's same-shaped session when one exists — its
        // encodings re-parameterize and its bases warm-start against the
        // updated weights (delta re-certification). The session of a
        // predecessor no id resolves to leaves the map, answer included, and
        // hands over its state; a resolvable one's state is cloned. A
        // predecessor can itself be retired: a rollback resolves to an
        // entry as it is, link included.
        let seed = entry.predecessor.filter(|_| is_new).and_then(|p| {
            let from = session_key(reg.by_key.get(&p)?, q);
            if reg.resolves(p) {
                sessions
                    .get(&from)
                    .map(|o| (from, Arc::clone(&o.state), false))
            } else {
                sessions.remove(&from).map(|o| (from, o.state, true))
            }
        });
        let session = found.unwrap_or_default();
        // A new session enters the map already locked, so no other query
        // runs on it unseeded; no other query can reach it yet, so locking
        // it never waits. The seed is copied after both maps are released:
        // its source may be busy with another query.
        let new_guard = is_new.then(|| {
            let guard = lock(&session);
            sessions.insert(
                key,
                Open {
                    state: Arc::clone(&session),
                    answer: None,
                },
            );
            guard
        });
        drop((sessions, reg));
        let mut state = new_guard.unwrap_or_else(|| self.lock_session(key, &session));
        let delta_seeded = seed.is_some();
        if let Some((from_key, from, take)) = seed {
            let mut from = self.lock_session(from_key, &from);
            *state = if take {
                std::mem::take(&mut *from)
            } else {
                from.clone()
            };
        }
        // The store is read again under this session's lock, so a repeat of
        // a query that was still running on the session takes its answer.
        // Reading another window's answer locks no other session.
        let start = start_for(&lock(&self.sessions), key, q, depth);
        let (epsilons, stats, answer_cached, shared) = match start {
            Some((window, answer)) if window == key.1 => {
                (answer.bounds.epsilons(), CertifyStats::default(), true, 0)
            }
            start => {
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
                let earlier = start.as_ref().map(|(w, a)| (&a.bounds, *w));
                let report = certify_global_resident(
                    &entry.aff,
                    &entry.domain,
                    q.delta,
                    &opts,
                    Some(&entry.pre),
                    &mut state,
                    earlier,
                )?;
                let shared = earlier.map_or(0, |(_, w)| shared_layers(depth, key.1, w));
                let answer = Answer {
                    delta_bits: q.delta.to_bits(),
                    check_certs: q.check_certs,
                    bounds: report.bounds,
                };
                // Stored only while the session is still open under its key.
                if let Some(open) = still_open(&mut lock(&self.sessions), &key, &session) {
                    open.answer = Some(Arc::new(answer));
                }
                (report.epsilons, report.stats, false, shared)
            }
        };
        drop(state);
        Ok(self.counted(QueryResponse {
            net_hash: entry.key,
            epsilons,
            stats,
            delta_seeded,
            answer_cached,
            shared_layers: shared,
        }))
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

    /// Locks the session under `key`. A poisoned lock means a query panicked
    /// while holding it and may have left the state partly taken, so the
    /// session restarts empty, its stored answer is dropped, and the event
    /// is counted. The answer goes before the poison is cleared, so no
    /// reader sees it in between. Never called while the session map is
    /// held.
    fn lock_session<'a>(
        &self,
        key: SessionKey,
        session: &'a Session,
    ) -> MutexGuard<'a, ResidentState> {
        session.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            *guard = ResidentState::default();
            if let Some(open) = still_open(&mut lock(&self.sessions), &key, session) {
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
        let sessions = lock(&self.sessions);
        ServeStats {
            live_entries: reg.by_key.len() as u64,
            live_sessions: sessions.len() as u64,
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
    /// next query on that session restarts it empty, with no answer, and no
    /// other window starts from that answer in the meantime.
    #[test]
    fn a_poisoned_session_restarts_empty() {
        let net = dense_net(0x9015, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        let key = engine.register_affine("m", net.clone(), &dom).unwrap();
        let q = QueryRequest::new(0.001);
        engine.certify("m", &q).unwrap();
        let key = (key, q.window, q.refine);
        let session = Arc::clone(&lock(&engine.sessions)[&key].state);
        // Leave a wrong answer behind and die holding the lock, as a query
        // that panicked mid-update would.
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = session.lock().unwrap();
                    let mut sessions = lock(&engine.sessions);
                    let open = sessions.get_mut(&key).expect("open session");
                    let stored = Arc::clone(open.answer.as_ref().expect("stored answer"));
                    let mut bounds = stored.bounds.clone();
                    for layer in &mut bounds.dx {
                        layer.fill(Interval::point(0.0));
                    }
                    open.answer = Some(Arc::new(Answer { bounds, ..*stored }));
                    drop(sessions);
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
    /// version's first query per window takes over its predecessor's
    /// session, so no more than two versions are ever resident. Taking the
    /// state moves exactly what a clone would copy, so every answer equals
    /// that of one `ResidentState` carried through the stream, bit for bit
    /// (the W = 2 run starting, as the engine's does, from the W = 1
    /// answer's first layer).
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
            assert!(s.live_entries <= 2 && s.live_sessions <= 4, "{s:?}");
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
        assert_eq!((s.live_entries, s.live_sessions), (2, 2));
    }

    /// While a second id still resolves to the old weights, seeding clones
    /// the old session instead of taking it: the old id keeps its warm
    /// bases and its answer.
    #[test]
    fn a_version_another_id_resolves_to_is_cloned() {
        let net = dense_net(0xC10E, 4, 6, 2);
        let dom = [(-1.0, 1.0); 4];
        let engine = CertEngine::new(1, 1);
        let k1 = engine.register_affine("a", net.clone(), &dom).unwrap();
        assert_eq!(engine.register_affine("b", net.clone(), &dom).unwrap(), k1);
        let q = env_query(1e-3, 2);
        certify_as_cold(&engine, "a", &q, &net, &dom);
        let tuned = perturbed(&net, 1e-4);
        engine.register_affine("a", tuned.clone(), &dom).unwrap();
        assert!(certify_as_cold(&engine, "a", &q, &tuned, &dom).delta_seeded);
        let s = engine.stats();
        assert_eq!((s.live_entries, s.live_sessions), (2, 2));

        // The old session still holds the answer `a` left in it.
        assert!(engine.certify("b", &q).unwrap().answer_cached);
        let q2 = env_query(2e-3, 2);
        let old = certify_as_cold(&engine, "b", &q2, &net, &dom);
        assert!(!old.delta_seeded && !old.answer_cached);
        assert!(
            old.stats.query.cross_query_warm_hits > 0,
            "the old id lost its bases: {:?}",
            old.stats.query
        );
        let repeat = engine.certify("b", &q2).unwrap();
        assert!(repeat.answer_cached);
        assert_eq!(bits(&repeat.epsilons), bits(&old.epsilons));
        assert_eq!(engine.stats().delta_seeded_sessions, 1);
    }

    /// A rollback starts cold when the version it returns to links to a
    /// retired predecessor: after versions 0, 1 and 2, re-registering
    /// version 1 resolves to its entry as it is, still linked to the retired
    /// version 0, and its sessions went to version 2, which the rollback
    /// retires. Its first queries seed nothing and equal cold.
    #[test]
    fn a_rollback_to_a_version_whose_predecessor_retired_starts_cold() {
        let dom = [(-1.0, 1.0); 4];
        let v0 = dense_net(0x2011, 4, 6, 2);
        let v1 = perturbed(&v0, 1e-4);
        let v2 = perturbed(&v1, 1e-4);
        let engine = CertEngine::new(1, 1);
        for net in [&v0, &v1, &v2] {
            engine.register_affine("m", net.clone(), &dom).unwrap();
            certify_as_cold(&engine, "m", &env_query(1e-3, 1), net, &dom);
        }
        engine.register_affine("m", v1.clone(), &dom).unwrap();
        for window in [1, 2] {
            let resp = certify_as_cold(&engine, "m", &env_query(1e-3, window), &v1, &dom);
            assert!(!resp.delta_seeded && !resp.answer_cached, "W = {window}");
            assert_eq!(resp.shared_layers, window - 1, "W = {window}");
        }
        let s = engine.stats();
        assert_eq!(
            (s.delta_seeded_sessions, s.live_entries, s.live_sessions),
            (2, 1, 2)
        );
    }

    /// A seeding query waits for its predecessor's session outside the
    /// session map: while another thread holds that session, a query on
    /// another id still runs, and the seeding query completes seeded once
    /// the session is released.
    #[test]
    fn a_seeding_query_waits_outside_the_session_map() {
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
        let tuned = perturbed(&net, 1e-4);
        let k2 = engine.register_affine("m", tuned.clone(), &dom).unwrap();
        let held = Arc::clone(&lock(&engine.sessions)[&(k1, q.window, q.refine)].state);
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
            let seeding = scope.spawn(move || engine.certify("m", &q).unwrap());
            // The seeding query opens its session, then waits for the held
            // one. `try_lock`, so a map it kept fails the test, not hangs it.
            let opened = || {
                let sessions = engine.sessions.try_lock();
                sessions.is_ok_and(|s| s.contains_key(&(k2, q.window, q.refine)))
            };
            let tick = Duration::from_millis(1);
            for _ in 0..PATIENCE.as_millis() {
                if opened() {
                    break;
                }
                std::thread::sleep(tick);
            }
            assert!(opened(), "the seeding query kept the session map");
            let (done_tx, done_rx) = mpsc::channel();
            scope.spawn(move || {
                let _ = done_tx.send(engine.certify("other", &q));
            });
            let other = done_rx
                .recv_timeout(PATIENCE)
                .expect("a query on another id waited for the seeding query")
                .unwrap();
            let cold =
                certify_global_affine(&other_net, &other_dom, q.delta, &cold_opts(&q, 1)).unwrap();
            assert_eq!(bits(&other.epsilons), bits(&cold.epsilons));
            drop(release_tx);
            let resp = seeding.join().unwrap();
            assert!(resp.delta_seeded);
            let cold = certify_global_affine(&tuned, &dom, q.delta, &cold_opts(&q, 1)).unwrap();
            assert_eq!(bits(&resp.epsilons), bits(&cold.epsilons));
        });
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
