//! Exhaustive schedule exploration: model-check a protocol over *every*
//! network ordering of a small workload instead of sampling seeds.
//!
//! The timed kernel resolves nondeterminism with sampled latencies; the
//! explorer instead branches on **which pending event fires next** —
//! any in-flight frame or timer, or each process's next unissued
//! request — and DFS-enumerates all interleavings, branching in place:
//! a state is dead the moment its last explorable child has been
//! dispatched, so that child runs on the state (and the monitor) it
//! inherits, and only a child with a later sibling — the one kind that
//! can also be donated to another worker — is first copied with
//! `clone_from` into the state slot of the depth below. Each worker
//! keeps one level per DFS depth: reusable buffers (the enabled
//! transitions, the sleep and done sets) and that slot. A DFS step moves
//! only the buffers, never a state, so once every depth has been
//! reached a branch costs copies into warm buffers and no allocator
//! calls. The traversal, the visit order and every counter are those of
//! cloning at each branch: which child pays for the copy, and where the
//! copy lives, is not observable. Every
//! complete schedule's captured run is handed to the visitor as the
//! kernel's own [`StreamingRun`] — the run plus the vector clock it
//! stamped on each user event, from which the visitor can read the
//! user's view without rebuilding it — and the visitor typically checks
//! a specification.
//!
//! There are two entries over one engine: [`explore`], and
//! [`explore_monitored`], which additionally carries a [`RunObserver`]
//! down every branch and cuts the sub-tree below any prefix the
//! observer halts. Both take the same [`ExploreOptions`] and every
//! field means the same thing at both, in every combination:
//!
//! 1. **Sleep-set partial-order reduction** ([`ExploreOptions::por`]).
//!    Two enabled events *commute* iff they dispatch at different
//!    processes under a quiet fault model: a dispatch at `p` only
//!    mutates `protocols[p]`, `p`'s slice of the captured run, and
//!    per-message state no co-enabled event at another node can touch.
//!    Sleep sets (Godefroid) then prune every interleaving of commuting
//!    dispatches but one, preserving the *set* of terminal
//!    configurations and therefore the set of distinct runs — and in
//!    particular every violating configuration.
//! 2. **Incremental state keys** ([`ExploreOptions::dedup`]). A
//!    configuration is a handful of components — per-process run-event
//!    chains, per-node protocol states, the pending pool, and each
//!    process's request cursor — updated per dispatch, never
//!    re-encoded from scratch. The seen-set hash-conses every component
//!    value once per exploration (SPIN's collapse compression) and keys
//!    a state by the short vector of its component ids, so two states
//!    merge iff every component is byte-identical. Each shard stores
//!    every key and sleep set back to back in one append-only arena,
//!    found through an index from a key's word hash to a chain of
//!    entries that each compare the whole key, so a hash collision
//!    never merges two states and an insert calls the allocator only
//!    when the arena doubles.
//! 3. **Threads** ([`ExploreOptions::threads`]). A run is its partial
//!    order, not its interleaving, so the explorer's contract is the
//!    *set* of terminal configurations, and the single-thread search —
//!    one recursive DFS on the caller's thread, deterministic in
//!    traversal order, visit order and every counter — is the reference
//!    for every other mode. More threads change scheduling only: the
//!    same DFS runs in each worker over a work-stealing frontier, workers
//!    donating subtrees round-robin whenever the global queue runs low,
//!    so threads stay busy all the way to the leaves instead of only
//!    across top-level branches.
//!
//! Under exploration the clock is frozen at `0`: event times are then
//! path-independent, which is what makes commuting prefixes reach
//! byte-identical configurations. Schedules still explode
//! combinatorially; keep workloads small and use `cap` (the count of
//! *completed schedules*; the search stops once reached).

use crate::error::SimError;
use crate::faults::FaultModel;
use crate::host::HostEvent;
use crate::kernel::{
    Driver, EventKind, JournalEntry, Protocol, RunObserver, Scheduled, SimConfig, Simulation,
};
use crate::liveness::{self, LivenessVerdict};
use crate::workload::Workload;
use msgorder_runs::{StreamingRun, SystemEvent};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The most worker threads one exploration runs. A larger
/// [`ExploreOptions::threads`] is clamped to it, and
/// [`ExploreOptions::validate`] reports it.
const MAX_THREADS: usize = 256;

/// The outcome of an exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Complete schedules visited.
    pub schedules: usize,
    /// Whether the cap or the depth bound stopped the search early.
    pub truncated: bool,
    /// Prefixes at which [`explore_monitored`]'s observer halted (and
    /// which were therefore never extended). Zero for [`explore`]. Under
    /// partial-order reduction this counts condemned *representatives*,
    /// not every condemned interleaving, so it is ≤ the unreduced
    /// count.
    pub pruned: usize,
    /// A protocol bug found along some schedule, with its counterexample
    /// trace; the search stops at the first one.
    pub error: Option<Box<SimError>>,
    /// Complete schedules that ended *non-quiescent* — the protocol
    /// inhibited some message forever along that interleaving.
    pub non_live: usize,
    /// Blame analysis of the first non-quiescent schedule encountered
    /// (under several threads, "first" is whichever worker got there
    /// first).
    pub first_stall: Option<Box<LivenessVerdict>>,
    /// Distinct configurations inserted into the seen-set. Zero when
    /// deduplication is off.
    pub states: usize,
    /// Interior states whose every enabled event was slept — the
    /// branches partial-order reduction never expanded.
    pub sleep_skipped: usize,
}

/// Whether the explorer keeps a seen-set of visited configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DedupMode {
    /// No seen-set: a pure (possibly sleep-set-reduced) DFS.
    Off,
    /// Full canonical keys: two configurations merge iff their key
    /// material is byte-identical, so a merge can never lose a
    /// reachable schedule. Unbounded memory.
    Exact,
}

/// Tuning knobs for [`explore`] and [`explore_monitored`].
///
/// Two knobs take effect only under a quiet [`FaultModel`], and both
/// silently degrade under any other. Deduplication becomes
/// [`DedupMode::Off`]: the probabilistic fault stream is part
/// of the configuration but cannot be keyed. Partial-order reduction
/// becomes the full search: fault verdicts make same-channel events
/// rediscoverable in any order, so no two events are treated as
/// independent. [`ExploreOptions::validate`] reports the first case,
/// and a thread count past the worker ceiling, for callers that would
/// rather refuse them.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Stop after this many completed schedules (`usize::MAX` = never).
    pub cap: usize,
    /// Enable sleep-set partial-order reduction.
    pub por: bool,
    /// Worker threads. `<= 1` runs the search on the caller's thread,
    /// deterministically; more spawn that many workers over the
    /// work-stealing frontier, up to a ceiling of 256 (a larger value
    /// runs 256).
    pub threads: usize,
    /// Seen-set mode.
    pub dedup: DedupMode,
    /// Maximum schedule depth (dispatches per schedule) before a branch
    /// is truncated; guards protocols that self-schedule forever when
    /// no seen-set breaks the cycle.
    pub max_depth: usize,
    /// Fault model the explored world runs under. The clock is frozen
    /// at `0`, so only verdicts observable at `t = 0` apply
    /// (probabilistic loss/duplication still fire per transmit).
    pub faults: FaultModel,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            cap: usize::MAX,
            por: false,
            threads: 1,
            dedup: DedupMode::Off,
            max_depth: 100_000,
            faults: FaultModel::none(),
        }
    }
}

impl ExploreOptions {
    /// Checks that the seen-set and the thread count take effect as set.
    ///
    /// # Errors
    /// [`threads`](ExploreOptions::threads) past the worker ceiling,
    /// which the search would clamp; or a
    /// [`dedup`](ExploreOptions::dedup) other than [`DedupMode::Off`]
    /// under a non-quiet fault model, which the search would run without
    /// a seen-set. The message starts with the field's name.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads > MAX_THREADS {
            return Err(format!(
                "threads must be at most {MAX_THREADS} (the explorer's worker ceiling), got {}",
                self.threads
            ));
        }
        if *self.dedup_effective() != self.dedup {
            return Err(
                "dedup requires a quiet fault model: the probabilistic fault \
                        stream is part of the configuration but cannot be keyed"
                    .into(),
            );
        }
        Ok(())
    }

    /// Whether partial-order reduction is actually in force.
    fn por_effective(&self) -> bool {
        self.por && self.faults.is_quiet()
    }

    /// The seen-set actually in force.
    fn dedup_effective(&self) -> &DedupMode {
        if self.faults.is_quiet() {
            &self.dedup
        } else {
            &DedupMode::Off
        }
    }
}

/// The observer of the unmonitored entry: never halts. [`explore`]
/// passes it with `monitored = false`, which keeps run-event journaling
/// off, so it is consulted only for the events deduplication journals.
#[derive(Clone, Copy)]
struct Unobserved;

impl RunObserver for Unobserved {
    fn on_event(&mut self, _: &StreamingRun, _: SystemEvent, _: usize, _: u64) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Exhaustively explores every schedule of `workload` under the
/// protocol, invoking `visit` with each complete run — the kernel's
/// [`StreamingRun`], which derefs to its
/// [`SystemRun`](msgorder_runs::SystemRun). `visit` may
/// return `false` to stop early (e.g. after finding a violation); with
/// several [`threads`](ExploreOptions::threads) it runs concurrently.
///
/// Per-process request order is preserved (a user issues its sends in
/// workload order); everything else — frame arrival order across and
/// within channels, timer firing order — is fully interleaved.
///
/// With reduction on, `visit` sees exactly one schedule per
/// sleep-set-distinct terminal configuration: the *set* of distinct
/// runs (and so every violating configuration) matches the full
/// search's, while `schedules` shrinks to the representative count.
///
/// On one thread the traversal, the order of `visit` calls and every
/// counter are deterministic. Uncapped and without deduplication, the
/// counters and the multiset of visited runs are the same for any
/// thread count; with deduplication, the *set* of distinct runs and the
/// `schedules`/`states` counts still match, but
/// `pruned`/`sleep_skipped` can vary with scheduling (workers may race
/// into a state before its stored sleep set shrinks).
///
/// A protocol bug along some schedule — an invalid kernel action, or
/// unbounded traffic (`10_000` events pending at once, reported as
/// [`StepLimit`](crate::SimErrorKind::StepLimit)) — stops the search
/// and is returned as [`Exploration::error`] with its partial trace.
///
/// # Panics
/// Only by propagating a panic of the protocol, the visitor or a
/// worker thread. Every [`ExploreOptions`] value is accepted; knobs a
/// noisy fault model disables degrade, and a thread count past the
/// worker ceiling is clamped (see there).
pub fn explore<P, V>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    opts: &ExploreOptions,
    visit: &V,
) -> Exploration
where
    P: Protocol + Clone + Hash + Send,
    V: Fn(&StreamingRun) -> bool + Sync,
{
    search(processes, workload, factory, Unobserved, false, opts, visit)
}

/// Like [`explore`], but carries a clone of `monitor` down every branch,
/// feeds it each run event in the order the explored schedule executes
/// it, and prunes any prefix at which it returns `false` — "halt the
/// run" condemns the prefix, so the schedule sub-tree below a detected
/// violation is never expanded. This is sound for any check that is
/// monotone under run extension, as forbidden-predicate violations
/// are. `visit` receives only the complete runs of *uncondemned*
/// schedules; [`Exploration::pruned`] counts the condemned prefixes.
///
/// The monitor is copied wherever the state is — for every child but the
/// last of each state, into the next depth's slot with
/// [`Clone::clone_from`] — so it should keep its state small, or
/// implement `clone_from` to reuse its buffers. Only run
/// events reach it: wire and fault records are not journaled under
/// exploration.
///
/// Condemnation composes with sleep sets provided the monitor is
/// insensitive to the order of *commuting* events (true of any check
/// over the run's partial order, like `OnlineMonitor` in
/// `msgorder-protocols`): it then condemns a representative iff it
/// would condemn every sleep-skipped sibling order, so the visitor
/// still sees exactly the uncondemned distinct runs.
///
/// # Panics
/// As [`explore`], and by propagating a panic of the monitor.
pub fn explore_monitored<P, M, V>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    monitor: M,
    opts: &ExploreOptions,
    visit: &V,
) -> Exploration
where
    P: Protocol + Clone + Hash + Send,
    M: RunObserver + Clone + Send,
    V: Fn(&StreamingRun) -> bool + Sync,
{
    search(processes, workload, factory, monitor, true, opts, visit)
}

// ---------------------------------------------------------------------------
// Root construction
// ---------------------------------------------------------------------------

/// Builds the explorer's root state: the initial world via the normal
/// constructor (declares all messages), with the kernel's request
/// cursor drained and grouped by process, each process's requests in
/// issue order. The requests are shared by every state of the
/// exploration; a state only moves its per-process cursor along them.
/// Every pending event is keyed once, here or when it enters the pool,
/// its payload named in `interner`.
fn initial_state<P: Protocol + Clone>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    faults: &FaultModel,
    interner: &Mutex<Interner>,
) -> State<P> {
    let config = SimConfig::new(processes, crate::latency::LatencyModel::Fixed(1), 0)
        .with_faults(faults.clone());
    let sim = Simulation::new(config, workload, factory);
    let (mut world, mut protocols) = sim.into_parts();
    let mut table = interner.lock().expect("no worker panicked interning");
    let mut keyed = |ev: Scheduled| (TKey::of(&ev, |bytes| table.bytes(bytes)), ev);
    let mut requests = Vec::with_capacity(world.requests.len());
    // `World::build` schedules nothing: every pending event is a request.
    while let Some(ev) = world.pop_next() {
        requests.push(keyed(ev));
    }
    // A stable sort: each process's requests stay in issue order.
    requests.sort_by_key(|(_, ev)| ev.node);
    let cursor = (0..processes)
        .map(|p| dense(requests.partition_point(|(_, ev)| ev.node < p)))
        .collect();
    for node in 0..processes {
        protocols.react(&mut world, node, HostEvent::Init);
    }
    let mut pool = Vec::with_capacity(requests.len());
    while let Some(Reverse(ev)) = world.queue.pop() {
        pool.push(keyed(ev));
    }
    State {
        world,
        protocols,
        pool,
        requests: requests.into(),
        cursor,
        cache: None,
    }
}

// ---------------------------------------------------------------------------
// State, transitions, and the incremental key cache
// ---------------------------------------------------------------------------

/// The identity of an enabled transition: where it dispatches and what
/// it is. The kernel's tie-breaking `seq` label is deliberately
/// excluded — two pending events with the same `(node, time, kind)`
/// have identical dispatch effects, so they are interchangeable for
/// sleep sets.
///
/// Three words and `Copy`: a tag or control payload is named by its
/// [`Interner::bytes`] id, which is one-to-one, so two keys are equal iff
/// their events' `(node, time, kind)` are, and sleep sets, done sets and
/// the seen-set copy and compare words, never payload bytes. A pending
/// event is keyed once, when it enters the pool or the root's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TKey {
    time: u64,
    /// `node << 2 | kind`, the kind one of `REQUEST`, `USER`, `CONTROL`
    /// and `TIMER`.
    head: u32,
    /// The kind's fields: a request's message; a user frame's sender,
    /// message and tag id; a control frame's sender and payload id; a
    /// timer's id, low word first.
    body: [u32; 3],
}

impl TKey {
    const REQUEST: u32 = 0;
    const USER: u32 = 1;
    const CONTROL: u32 = 2;
    const TIMER: u32 = 3;

    /// `ev`'s key, its payload named by `name`; an empty payload is
    /// `0` and never named, so the tagless kinds never reach the table.
    fn of(ev: &Scheduled, mut name: impl FnMut(&[u8]) -> u32) -> TKey {
        let mut id = |bytes: &[u8]| if bytes.is_empty() { 0 } else { name(bytes) };
        let (kind, body) = match &ev.kind {
            EventKind::Request { msg } => (Self::REQUEST, [dense(msg.0), 0, 0]),
            EventKind::UserArrival { from, msg, tag } => {
                (Self::USER, [dense(*from), dense(msg.0), id(tag)])
            }
            EventKind::ControlArrival { from, bytes } => {
                (Self::CONTROL, [dense(*from), id(bytes), 0])
            }
            EventKind::Timer { id } => (Self::TIMER, [*id as u32, (*id >> 32) as u32, 0]),
        };
        let node = u32::try_from(ev.node)
            .ok()
            .filter(|&n| n < 1 << 30)
            .expect("fewer than 2^30 processes");
        TKey {
            time: ev.time,
            head: node << 2 | kind,
            body,
        }
    }

    fn node(self) -> u32 {
        self.head >> 2
    }
}

/// Which pending event a transition fires.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// `pool[i]` (removed by `swap_remove`).
    Pool(usize),
    /// Process `p`'s next request, at its cursor.
    Request(usize),
}

struct State<P> {
    world: crate::kernel::World,
    protocols: Vec<P>,
    /// In-flight frames and timers, any of which may fire next, each
    /// with its key.
    pool: Vec<(TKey, Scheduled)>,
    /// Every user request with its key, grouped by process in issue
    /// order: fixed at the root and shared by every state of the
    /// exploration.
    requests: Arc<[(TKey, Scheduled)]>,
    /// Per process, the index in `requests` of its next request: it has
    /// none left once the entry there is another process's, or there is
    /// none.
    cursor: Vec<u32>,
    /// Incrementally maintained canonical key, present iff
    /// deduplication is on.
    cache: Option<Box<KeyCache>>,
}

/// Written out so that a branch copies into its frame's spare in place
/// (`clone_from` reuses every buffer the spare already holds) and so
/// that every field is named: one added later is a compile error here,
/// not a stale copy.
impl<P: Clone> Clone for State<P> {
    fn clone(&self) -> State<P> {
        let State {
            world,
            protocols,
            pool,
            requests,
            cursor,
            cache,
        } = self;
        State {
            world: world.clone(),
            protocols: protocols.clone(),
            pool: pool.clone(),
            requests: requests.clone(),
            cursor: cursor.clone(),
            cache: cache.clone(),
        }
    }

    fn clone_from(&mut self, source: &State<P>) {
        let State {
            world,
            protocols,
            pool,
            requests,
            cursor,
            cache,
        } = source;
        self.world.clone_from(world);
        self.protocols.clone_from(protocols);
        self.pool.clone_from(pool);
        self.requests.clone_from(requests);
        self.cursor.clone_from(cursor);
        self.cache.clone_from(cache);
    }
}

impl<P: Protocol + Hash> State<P> {
    /// If the last dispatch poisoned the world, extracts the
    /// counterexample (with the partial trace and stats attached).
    fn take_error(&mut self) -> Option<Box<SimError>> {
        self.world.take_error().map(Box::new)
    }

    /// Refills `out` with the enabled transitions in the classic branch
    /// order: every pool event by index, then each process's next
    /// request.
    fn transitions_into(&self, out: &mut Vec<(TKey, Pick)>) {
        out.clear();
        let pool = self.pool.iter().enumerate();
        out.extend(pool.map(|(i, &(key, _))| (key, Pick::Pool(i))));
        for (p, &next) in self.cursor.iter().enumerate() {
            match self.requests.get(next as usize) {
                Some(&(key, ref ev)) if ev.node == p => out.push((key, Pick::Request(p))),
                _ => {}
            }
        }
    }

    /// Removes the picked pending event (a request is issued by moving
    /// its process's cursor past it), mirroring a pool removal in the
    /// key cache.
    fn take_transition(&mut self, pick: Pick) -> Scheduled {
        match pick {
            Pick::Pool(i) => {
                if let Some(c) = &mut self.cache {
                    c.pool.swap_remove(i);
                }
                self.pool.swap_remove(i).1
            }
            Pick::Request(p) => {
                let ev = self.requests[self.cursor[p] as usize].1.clone();
                self.cursor[p] += 1;
                ev
            }
        }
    }

    /// Dispatches `ev`, folds newly scheduled events into the pool, and
    /// feeds the dispatch's effects to the key cache (interning its
    /// components in `interner`) and its freshly journaled run events
    /// to the monitor. Returns `true` if the monitor condemned the
    /// prefix.
    ///
    /// The clock stays frozen at `0`: ordering is the explorer's
    /// choice, and path-independent event times are what make commuting
    /// prefixes reach identical configurations.
    fn execute(
        &mut self,
        ev: Scheduled,
        mon: &mut dyn RunObserver,
        interner: &Mutex<Interner>,
    ) -> bool {
        let node = ev.node;
        self.world.step(&mut self.protocols, node, ev.kind);
        let first_new = self.pool.len();
        // Locked only to name a payload or to update the key cache.
        let mut table = None;
        while let Some(Reverse(nev)) = self.world.queue.pop() {
            let key = TKey::of(&nev, |bytes| locked(interner, &mut table).bytes(bytes));
            self.pool.push((key, nev));
        }
        if let Some(c) = &mut self.cache {
            let table = locked(interner, &mut table);
            // The explorer never journals wire/fault records
            // (record_wire stays off under exploration), so only run
            // events appear. Every run event journaled during a
            // dispatch at `node` belongs to `node`'s process sequence,
            // so the cache chains stay per-process-ordered.
            for entry in &self.world.fresh {
                if let JournalEntry::Run { ev, .. } = entry {
                    c.chain_append(node, *ev, table);
                }
            }
            c.set_proto(node, &self.protocols[node], table);
            for &(key, _) in &self.pool[first_new..] {
                c.pool_push(key, table);
            }
        }
        drop(table);
        let condemned = !self.world.notify_observer(mon);
        if self.pool.len() >= POOL_LIMIT {
            self.world.poison_step_limit(POOL_LIMIT, false, false);
        }
        condemned
    }
}

/// `interner`, locked at the first call through `guard`.
fn locked<'a, 'g>(
    interner: &'a Mutex<Interner>,
    guard: &'g mut Option<MutexGuard<'a, Interner>>,
) -> &'g mut Interner {
    guard.get_or_insert_with(|| interner.lock().expect("no worker panicked interning"))
}

/// Pending events at once beyond which a protocol is taken to generate
/// unbounded traffic: the world is poisoned with a
/// [`StepLimit`](crate::SimErrorKind::StepLimit) counterexample and the
/// search stops, as for any other protocol bug.
const POOL_LIMIT: usize = 10_000;

/// A [`Hasher`] that appends a component's `Hash` material to a byte
/// buffer: the component's full canonical encoding. Two components
/// encode equal iff their hash material is identical — no truncation,
/// no collisions beyond what `Hash` itself conflates. It keeps no
/// digest, so [`Hasher::finish`] is never read.
struct Encoder<'a>(&'a mut Vec<u8>);

impl Hasher for Encoder<'_> {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
    fn finish(&self) -> u64 {
        0
    }
}

/// The incrementally maintained configuration key.
///
/// A configuration is determined (within one exploration, whose root is
/// fixed) by: the per-process chains of run events journaled since the
/// root (the captured run is an order-independent function of them),
/// the per-node protocol states, the multiset of pending pool events,
/// and how many requests each process has issued (the state's request
/// cursor, which the key reads instead of copying). Kernel bookkeeping is
/// excluded: sequence labels only break heap ties the explorer ignores,
/// stats are not visitor-observable, the latency RNG is never consulted
/// under `Fixed` latency, and the fault RNG is behaviourally inert under
/// the quiet fault models deduplication is restricted to.
///
/// Each dispatch re-encodes only the dispatching node's protocol state,
/// appends to one chain, and mirrors pool pushes/removals — O(changed)
/// instead of re-encoding every `BTreeMap` from scratch. Every component
/// is interned, and the key is the vector of their ids
/// ([`KeyCache::exact_key`]).
struct KeyCache {
    /// Per-process [`Interner`] id of the run-event chain since the
    /// root.
    chain: Vec<u32>,
    /// Per-node id of the protocol state's encoding.
    proto: Vec<u32>,
    /// Per pool event id; mirrors `State::pool` index for index.
    pool: Vec<u32>,
}

/// Written out for the same reasons as `State`'s: `clone_from` reuses
/// the spare's vectors, and every field is named.
impl Clone for KeyCache {
    fn clone(&self) -> KeyCache {
        let KeyCache { chain, proto, pool } = self;
        KeyCache {
            chain: chain.clone(),
            proto: proto.clone(),
            pool: pool.clone(),
        }
    }

    fn clone_from(&mut self, source: &KeyCache) {
        let KeyCache { chain, proto, pool } = source;
        self.chain.clone_from(chain);
        self.proto.clone_from(proto);
        self.pool.clone_from(pool);
    }
}

impl KeyCache {
    /// The root's key.
    fn new<P: Hash>(protocols: &[P], pool: &[(TKey, Scheduled)], interner: &mut Interner) -> Self {
        KeyCache {
            chain: vec![0; protocols.len()],
            proto: protocols.iter().map(|p| interner.proto(p)).collect(),
            pool: pool.iter().map(|&(key, _)| interner.pool(key)).collect(),
        }
    }

    fn chain_append(&mut self, p: usize, ev: SystemEvent, interner: &mut Interner) {
        self.chain[p] = interner.chain(self.chain[p], ev);
    }

    fn set_proto(&mut self, node: usize, proto: &impl Hash, interner: &mut Interner) {
        self.proto[node] = interner.proto(proto);
    }

    fn pool_push(&mut self, key: TKey, interner: &mut Interner) {
        self.pool.push(interner.pool(key));
    }

    /// Writes the exact key of the state whose request cursor is
    /// `cursor` into `out`: `[chain; n] ++ [proto; n] ++ sorted pool ids
    /// ++ [cursor; n]`. It is the complete component
    /// material, not a digest: a digest collision would silently merge
    /// two *distinct* configurations and could prune a reachable
    /// violating schedule, which is unacceptable for a model checker.
    /// Every id names one component value and `n` is fixed per
    /// exploration, so the pool's ids are the key less its first `2n`
    /// and last `n` entries, and keys compare equal only at equal
    /// lengths: the vector is injective with no pool count to convert.
    /// The pool is an unordered multiset (commuting prefixes produce it
    /// in different orders), canonicalized by sorting its ids.
    fn exact_key(&self, cursor: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.chain);
        out.extend_from_slice(&self.proto);
        let start = out.len();
        out.extend_from_slice(&self.pool);
        out[start..].sort_unstable();
        out.extend_from_slice(cursor);
    }
}

/// Attaches the root's key cache.
fn attach_cache<P: Hash>(state: &mut State<P>, interner: &Mutex<Interner>) {
    let mut table = interner.lock().expect("no worker panicked interning");
    state.cache = Some(Box::new(KeyCache::new(
        &state.protocols,
        &state.pool,
        &mut table,
    )));
}

/// The explorer's word hasher (the multiply-rotate step of FxHash): one
/// rotate, xor and multiply per word written. Every table it serves is
/// keyed by the explorer's own ids and values, never by outside input,
/// and exactness never rests on it — each table compares whole keys —
/// so a weak hash costs a longer probe, never a merged state.
#[derive(Default, Clone, Copy)]
struct WordHasher(u64);

type WordBuild = BuildHasherDefault<WordHasher>;

impl WordHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    /// The multiply leaves the product's best-mixed bits on top; the
    /// rotate brings them down to the bucket index a table masks off.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The word hash of a sequence of ids: the seen-set's index hash of a
/// key, and the shard choice.
fn hash_words<'a>(words: impl IntoIterator<Item = &'a u32>) -> u64 {
    let mut h = WordHasher::default();
    for &w in words {
        h.add(u64::from(w));
    }
    h.finish()
}

/// Converts a table length into a dense `u32` id or arena offset. Every
/// id and offset stands for stored bytes, so memory runs out long before
/// 2³² of them.
fn dense(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 ids and arena offsets")
}

/// The hash-consing table of one exploration (collapse compression),
/// shared by its workers: every distinct value is stored once and named
/// by a dense `u32` id, per table in order of first sight from `1`.
///
/// - Byte strings — tag and control payloads, and protocol-state
///   encodings — are keyed by content, so one id names one byte string:
///   this is what keeps a [`TKey`] exact. The empty string is `0` and is
///   never looked up, so no lookup hands `memcmp` an empty slice.
/// - The components of an exact key, filled only under deduplication: a
///   chain is a trie path — its id is that of (parent chain id, appended
///   event) — so an append costs one lookup, and two chains share an id
///   iff their event sequences are equal (`0` is the empty chain); a
///   pending event is keyed by its `TKey`; a protocol state, known only
///   to be `Hash`, by the byte string its `Hash` writes.
///
/// Ids are stable within one exploration. Several workers hand them out
/// in whichever order they first see a value, so no search decision may
/// read more of an id than which value it names.
#[derive(Default)]
struct Interner {
    bytes: HashMap<Box<[u8]>, u32, WordBuild>,
    chains: HashMap<(u32, SystemEvent), u32, WordBuild>,
    pool: HashMap<TKey, u32, WordBuild>,
    /// Where a protocol state is encoded; its bytes are copied into the
    /// table only when they are new.
    scratch: Vec<u8>,
}

impl Interner {
    /// The id of a byte string.
    fn bytes(&mut self, bytes: &[u8]) -> u32 {
        if bytes.is_empty() {
            return 0;
        }
        if let Some(&id) = self.bytes.get(bytes) {
            return id;
        }
        let id = dense(self.bytes.len() + 1);
        self.bytes.insert(bytes.into(), id);
        id
    }

    /// The id of `parent`'s chain extended by `ev`.
    fn chain(&mut self, parent: u32, ev: SystemEvent) -> u32 {
        let next = self.chains.len() + 1;
        *self
            .chains
            .entry((parent, ev))
            .or_insert_with(|| dense(next))
    }

    /// The id of a protocol state's encoding.
    fn proto(&mut self, proto: &(impl Hash + ?Sized)) -> u32 {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        proto.hash(&mut Encoder(&mut scratch));
        let id = self.bytes(&scratch);
        self.scratch = scratch;
        id
    }

    /// The id of a pending event's component.
    fn pool(&mut self, key: TKey) -> u32 {
        let next = self.pool.len() + 1;
        *self.pool.entry(key).or_insert_with(|| dense(next))
    }
}

// ---------------------------------------------------------------------------
// Seen-set: sharded, exact
// ---------------------------------------------------------------------------

enum SeenVerdict {
    /// New state: explore it.
    Enter,
    /// Revisited with a smaller sleep set than stored: re-explore with
    /// the intersection, which the stored set was narrowed to and the
    /// caller's sleep set refilled with (Godefroid's rule; the stored
    /// set strictly shrinks, so re-exploration terminates even on
    /// cyclic graphs).
    EnterWith,
    /// Already explored at least as permissively: prune.
    Prune,
}

struct SeenShards {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
}

/// One seen-set shard: an append-only arena. Every stored key and sleep
/// set lies back to back in `keys` and `sleeps`, an [`Entry`] records
/// where, and `index` maps a key's word hash to the newest entry with
/// that hash, older ones chained through [`Entry::next`]. A lookup
/// compares the length and then the whole key at each entry of its
/// chain, so keys that share a hash cost a comparison each and never
/// merge. An insert appends to three vectors and the index, so it calls
/// the allocator only when one of them doubles.
#[derive(Default)]
struct Shard {
    keys: Vec<u32>,
    sleeps: Vec<TKey>,
    entries: Vec<Entry>,
    index: HashMap<u64, u32, WordBuild>,
    /// The probed key, built under the shard lock so that a revisit
    /// allocates nothing.
    probe: Vec<u32>,
}

/// Where one stored state's key and sleep set sit in its [`Shard`].
struct Entry {
    key: u32,
    key_len: u32,
    sleep: u32,
    /// Shrinks in place when a revisit narrows the stored set.
    sleep_len: u32,
    /// The next older entry whose key has the same word hash.
    next: Option<u32>,
}

/// Applies the sleep-set subset rule to a revisited state: `None` to
/// prune it, or — when it must be re-explored — `Some(kept)` after
/// narrowing `stored` in place, stably, so that its first `kept` members
/// are its intersection with `sleep`. With reduction off both sets are
/// empty and this is a plain prune.
fn por_rule(stored: &mut [TKey], sleep: &[TKey], por: bool) -> Option<usize> {
    if !por || stored.iter().all(|u| sleep.contains(u)) {
        return None;
    }
    let mut kept = 0;
    for i in 0..stored.len() {
        if sleep.contains(&stored[i]) {
            stored.swap(kept, i);
            kept += 1;
        }
    }
    Some(kept)
}

impl SeenShards {
    fn new(dedup: &DedupMode, threads: usize) -> Option<SeenShards> {
        if *dedup == DedupMode::Off {
            return None;
        }
        let n = if threads <= 1 {
            1
        } else {
            (threads * 4).next_power_of_two()
        };
        Some(SeenShards {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: n - 1,
        })
    }

    /// Looks up the state keyed by `cache` and `cursor`, arriving with
    /// the sleep set `sleep`; on [`SeenVerdict::EnterWith`] `sleep` is
    /// refilled with the narrowed set to explore under.
    fn check(
        &self,
        cache: &KeyCache,
        cursor: &[u32],
        sleep: &mut Vec<TKey>,
        por: bool,
    ) -> SeenVerdict {
        // The key's per-process prefix is already canonical (only the
        // pool needs sorting), so equal keys pick the same shard.
        let i = if self.mask == 0 {
            0
        } else {
            hash_words(cache.chain.iter().chain(&cache.proto)) as usize & self.mask
        };
        let mut shard = self.shards[i]
            .lock()
            .expect("no worker panicked in the seen-set");
        cache.exact_key(cursor, &mut shard.probe);
        let h = hash_words(&shard.probe);
        shard.check_hashed(h, sleep, por)
    }

    /// Distinct states inserted.
    fn states(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("no worker panicked in the seen-set")
                    .states()
            })
            .sum()
    }
}

impl Shard {
    fn states(&self) -> usize {
        self.entries.len()
    }

    /// [`SeenShards::check`] for the key in `probe`, whose word hash is
    /// `h`.
    fn check_hashed(&mut self, h: u64, sleep: &mut Vec<TKey>, por: bool) -> SeenVerdict {
        let Shard {
            keys,
            sleeps,
            entries,
            index,
            probe,
        } = self;
        let head = index.get(&h).copied();
        let mut at = head;
        while let Some(i) = at {
            let e = &mut entries[i as usize];
            // Slice equality compares the lengths first, so a key that
            // prefixes another is another state.
            if keys[e.key as usize..][..e.key_len as usize] == probe[..] {
                let stored = &mut sleeps[e.sleep as usize..][..e.sleep_len as usize];
                let Some(kept) = por_rule(stored, sleep, por) else {
                    return SeenVerdict::Prune;
                };
                e.sleep_len = dense(kept);
                sleep.clear();
                sleep.extend_from_slice(&stored[..kept]);
                return SeenVerdict::EnterWith;
            }
            at = e.next;
        }
        let id = dense(entries.len());
        entries.push(Entry {
            key: dense(keys.len()),
            key_len: dense(probe.len()),
            sleep: dense(sleeps.len()),
            sleep_len: dense(sleep.len()),
            next: head,
        });
        keys.extend_from_slice(probe);
        sleeps.extend_from_slice(sleep);
        index.insert(h, id);
        SeenVerdict::Enter
    }
}

// ---------------------------------------------------------------------------
// The unified DFS engine
// ---------------------------------------------------------------------------

/// Per-exploration environment shared by every worker.
struct Env<'e> {
    por: bool,
    max_depth: usize,
    seen: Option<&'e SeenShards>,
    interner: &'e Mutex<Interner>,
}

/// Where the engine reports: the visitor, the cap, and the counters
/// every worker folds into. Shared by reference — on one thread the
/// atomics are merely uncontended.
struct Sink<'a, V> {
    visit: &'a V,
    cap: usize,
    schedules: AtomicUsize,
    non_live: AtomicUsize,
    pruned: AtomicUsize,
    sleep_skipped: AtomicUsize,
    truncated: AtomicBool,
    /// A cooperative stop was requested (early-stop visitor, error, or
    /// the cap reached).
    stopped: AtomicBool,
    stall: Mutex<Option<Box<LivenessVerdict>>>,
    error: Mutex<Option<Box<SimError>>>,
}

impl<'a, V: Fn(&StreamingRun) -> bool> Sink<'a, V> {
    fn new(visit: &'a V, cap: usize) -> Sink<'a, V> {
        Sink {
            visit,
            cap,
            schedules: AtomicUsize::new(0),
            non_live: AtomicUsize::new(0),
            pruned: AtomicUsize::new(0),
            sleep_skipped: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            stall: Mutex::new(None),
            error: Mutex::new(None),
        }
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Relaxed);
    }

    fn truncate(&self) {
        self.truncated.store(true, Ordering::Relaxed);
    }

    /// `cap` schedules exist: the search is truncated and winds down.
    fn cap_reached(&self) -> bool {
        self.truncate();
        self.stop();
        false
    }

    /// Entry gate, called once per state; `false` aborts the traversal.
    /// No state is entered once `cap` schedules exist.
    fn enter(&self) -> bool {
        if self.stopped() {
            return false;
        }
        if self.schedules.load(Ordering::Relaxed) >= self.cap {
            return self.cap_reached();
        }
        true
    }

    /// A terminal configuration; returns `false` to stop the search.
    fn leaf<P>(&self, state: &mut State<P>) -> bool {
        // Claim a schedule slot atomically so the count can never
        // overshoot the cap, however many workers passed the entry gate
        // together.
        let claim = self
            .schedules
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cap).then_some(n + 1)
            });
        if claim.is_err() {
            return self.cap_reached();
        }
        // A leaf whose run is non-quiescent wedged under this
        // interleaving.
        if let Some(v) = liveness::analyze(&state.world, false) {
            self.non_live.fetch_add(1, Ordering::Relaxed);
            self.stall
                .lock()
                .expect("no worker panicked holding the stall slot")
                .get_or_insert_with(|| Box::new(v));
        }
        let go_on = (self.visit)(&state.world.builder);
        if !go_on {
            self.stop();
        }
        go_on
    }

    fn error(&self, e: Box<SimError>) {
        self.error
            .lock()
            .expect("no worker panicked holding the error slot")
            .get_or_insert(e);
        self.stop();
    }
}

/// One unit of donated work on the threaded frontier.
struct Job<P, M> {
    state: State<P>,
    sleep: Vec<TKey>,
    mon: M,
    depth: usize,
}

/// The sharded work-stealing frontier. Workers pop their own shard
/// LIFO (depth-first, cache-warm) and steal other shards FIFO (oldest,
/// biggest subtrees). `pending` counts queued *and* in-flight jobs, so
/// `pending == 0` with empty queues is the termination condition.
struct Frontier<P, M> {
    shards: Vec<Mutex<VecDeque<Job<P, M>>>>,
    pending: AtomicUsize,
    queued: AtomicUsize,
    rr: AtomicUsize,
    /// Donate while fewer than this many jobs are queued.
    low_water: usize,
}

impl<P, M> Frontier<P, M> {
    fn new(threads: usize) -> Frontier<P, M> {
        Frontier {
            shards: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            low_water: threads * 2,
        }
    }

    /// Whether a busy worker should donate a subtree instead of
    /// recursing into it.
    fn hungry(&self) -> bool {
        self.queued.load(Ordering::Relaxed) < self.low_water
    }

    /// Queues `job` on the next shard, round-robin.
    fn push(&self, job: Job<P, M>) {
        let shard = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.shards[shard]
            .lock()
            .expect("no worker panicked holding a frontier shard")
            .push_back(job);
    }

    fn pop(&self, worker: usize) -> Option<Job<P, M>> {
        let n = self.shards.len();
        let own = self.shards[worker % n]
            .lock()
            .expect("no worker panicked holding a frontier shard")
            .pop_back();
        if let Some(job) = own {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        for k in 1..n {
            let stolen = self.shards[(worker + k) % n]
                .lock()
                .expect("no worker panicked holding a frontier shard")
                .pop_front();
            if let Some(job) = stolen {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }
}

/// One DFS depth's reusable buffers: all that [`dfs`] moves, so a step
/// moves four vectors and never a state. A node refills buffers an
/// earlier node at its depth already grew.
#[derive(Default)]
struct Frame {
    /// The node's enabled transitions, in branch order.
    trans: Vec<(TKey, Pick)>,
    /// Indices into `trans` of the transitions not asleep.
    explorable: Vec<usize>,
    /// Transitions executed before the current sibling.
    done: Vec<TKey>,
    /// The node's sleep set, written by its parent (empty without
    /// reduction).
    sleep: Vec<TKey>,
}

/// One DFS depth of a worker: its [`Frame`] and its state slot. The
/// root, or a donated job, sits in the slot of its own depth; a node at
/// depth `d` copies each child that has a later sibling into slot
/// `d + 1`, into a state an earlier branch at that depth already sized,
/// and runs its last child in place on its own slot. The slot is empty
/// until the depth above first branches, and again once a worker donates
/// its state.
struct Level<P, M> {
    frame: Frame,
    slot: Option<(State<P>, M)>,
}

impl<P, M> Default for Level<P, M> {
    fn default() -> Level<P, M> {
        Level {
            frame: Frame::default(),
            slot: None,
        }
    }
}

impl<P, M> Level<P, M> {
    /// The state and monitor in this level's slot, which a node running
    /// on it has filled.
    fn node(&mut self) -> (&mut State<P>, &mut M) {
        let (state, mon) = self.slot.as_mut().expect("a node runs on a filled slot");
        (state, mon)
    }
}

/// The engine: one recursive DFS shared by every mode. The node at
/// `depth` runs on the state in `levels[at].slot` (`at <= depth`), its
/// sleep set already in `levels[depth].frame`; `frontier` is `Some` only
/// with several threads, where explorable children may be donated
/// instead of recursed into. Returns `false` to abort the traversal.
fn dfs<P, M, V>(
    levels: &mut Vec<Level<P, M>>,
    at: usize,
    depth: usize,
    env: &Env<'_>,
    sink: &Sink<'_, V>,
    frontier: Option<&Frontier<P, M>>,
) -> bool
where
    P: Protocol + Clone + Hash,
    M: RunObserver + Clone,
    V: Fn(&StreamingRun) -> bool,
{
    if !sink.enter() {
        return false;
    }
    // Out of its level while in use, so that the children can take the
    // levels below it.
    let mut frame = std::mem::take(&mut levels[depth].frame);
    let go_on = expand(levels, at, depth, &mut frame, env, sink, frontier);
    levels[depth].frame = frame;
    go_on
}

/// [`dfs`]'s body, on the frame taken out of `levels[depth]`.
fn expand<P, M, V>(
    levels: &mut Vec<Level<P, M>>,
    at: usize,
    depth: usize,
    frame: &mut Frame,
    env: &Env<'_>,
    sink: &Sink<'_, V>,
    frontier: Option<&Frontier<P, M>>,
) -> bool
where
    P: Protocol + Clone + Hash,
    M: RunObserver + Clone,
    V: Fn(&StreamingRun) -> bool,
{
    let Frame {
        trans,
        explorable,
        done,
        sleep,
    } = frame;
    let (state, _) = levels[at].node();
    state.transitions_into(trans);
    if trans.is_empty() {
        // A leaf always arrives with an empty effective sleep set
        // (sleep members stay enabled, and nothing is enabled here), so
        // it is stored fully explored and every revisit prunes: leaves
        // are counted once per distinct terminal configuration.
        sleep.clear();
        if let Some((seen, cache)) = env.seen.zip(state.cache.as_deref()) {
            if let SeenVerdict::Prune = seen.check(cache, &state.cursor, sleep, env.por) {
                return true;
            }
        }
        return sink.leaf(state);
    }
    if depth >= env.max_depth {
        sink.truncate();
        return true;
    }
    if let Some((seen, cache)) = env.seen.zip(state.cache.as_deref()) {
        if let SeenVerdict::Prune = seen.check(cache, &state.cursor, sleep, env.por) {
            return true;
        }
    }
    explorable.clear();
    if env.por && !sleep.is_empty() {
        explorable.extend((0..trans.len()).filter(|&i| !sleep.contains(&trans[i].0)));
    } else {
        explorable.extend(0..trans.len());
    }
    if explorable.is_empty() {
        sink.sleep_skipped.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    if levels.len() == depth + 1 {
        levels.push(Level::default());
    }
    let last = explorable.len() - 1;
    // Transitions executed before the current sibling (the classic
    // "done" set): a later sibling's child sleeps on each earlier
    // independent one, because every order putting that one first is
    // covered by the earlier sibling's subtree.
    done.clear();
    for (j, &ti) in explorable.iter().enumerate() {
        if sink.stopped() {
            return false;
        }
        let (t_key, pick) = trans[ti];
        // Nothing reads this state or its monitor once the last child
        // is dispatched, so that child runs on them in place; only a
        // child with a later sibling runs on a copy, made in the next
        // depth's slot. No node on the path to this one runs on that
        // slot: each runs on the slot of its own depth or above.
        let branch = j < last;
        let (mine, below) = levels.split_at_mut(depth + 1);
        let (state, mon) = mine[at].node();
        let child = &mut below[0];
        if branch {
            match &mut child.slot {
                Some((next, child_mon)) => {
                    next.clone_from(state);
                    child_mon.clone_from(mon);
                }
                None => child.slot = Some((state.clone(), mon.clone())),
            }
        }
        let (next, child_mon) = match child.slot.as_mut().filter(|_| branch) {
            Some((next, child_mon)) => (next, child_mon),
            None => (state, mon),
        };
        let ev = next.take_transition(pick);
        let condemned = next.execute(ev, child_mon, env.interner);
        if let Some(e) = next.take_error() {
            sink.error(e);
            return false;
        }
        if condemned {
            // Condemnation is monotone and order-insensitive over
            // commuting events, so sleeping `t_key` in later siblings
            // stays sound: those skipped orders would be condemned too.
            sink.pruned.fetch_add(1, Ordering::Relaxed);
            if env.por {
                done.push(t_key);
            }
            continue;
        }
        let child_sleep = &mut child.frame.sleep;
        child_sleep.clear();
        if env.por {
            child_sleep.extend(
                sleep
                    .iter()
                    .chain(done.iter())
                    .filter(|u| u.node() != t_key.node()),
            );
        }
        if let Some(f) = frontier.filter(|f| f.hungry()) {
            // Only the copy can be given away: the last child runs on
            // this worker's own slot.
            if let Some((state, mon)) = child.slot.take_if(|_| branch) {
                f.push(Job {
                    state,
                    sleep: std::mem::take(child_sleep),
                    mon,
                    depth: depth + 1,
                });
                if env.por {
                    done.push(t_key);
                }
                continue;
            }
        }
        let child_at = if branch { depth + 1 } else { at };
        if !dfs(levels, child_at, depth + 1, env, sink, frontier) {
            return false;
        }
        if env.por {
            done.push(t_key);
        }
    }
    true
}

/// The one driver behind both entries: builds the root, runs the DFS
/// inline (`threads <= 1`) or in workers over a [`Frontier`], and folds
/// the sink and the seen-set into the [`Exploration`]. `monitored`
/// turns run-event journaling on for `monitor`; deduplication needs it
/// either way, to key the per-process event chains.
fn search<P, M, V>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    monitor: M,
    monitored: bool,
    opts: &ExploreOptions,
    visit: &V,
) -> Exploration
where
    P: Protocol + Clone + Hash + Send,
    M: RunObserver + Clone + Send,
    V: Fn(&StreamingRun) -> bool + Sync,
{
    let threads = opts.threads.clamp(1, MAX_THREADS);
    let seen = SeenShards::new(opts.dedup_effective(), threads);
    let interner = Mutex::default();
    let mut root = initial_state(processes, workload, factory, &opts.faults, &interner);
    if seen.is_some() {
        attach_cache(&mut root, &interner);
    }
    root.world.record = monitored || root.cache.is_some();
    let env = Env {
        por: opts.por_effective(),
        max_depth: opts.max_depth,
        seen: seen.as_ref(),
        interner: &interner,
    };
    let sink = Sink::new(visit, opts.cap);
    if let Some(e) = root.take_error() {
        // Poisoned before the first transition (a bad workload request).
        sink.error(e);
    } else if threads == 1 {
        let mut levels = vec![Level {
            frame: Frame::default(),
            slot: Some((root, monitor)),
        }];
        dfs(&mut levels, 0, 0, &env, &sink, None);
    } else {
        let frontier = Frontier::new(threads);
        frontier.push(Job {
            state: root,
            sleep: Vec::new(),
            mon: monitor,
            depth: 0,
        });
        std::thread::scope(|s| {
            for w in 0..threads {
                let (frontier, env, sink) = (&frontier, &env, &sink);
                s.spawn(move || {
                    let mut levels = Vec::new();
                    while !sink.stopped() {
                        let Some(job) = frontier.pop(w) else {
                            if frontier.pending.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                            std::thread::sleep(std::time::Duration::from_micros(20));
                            continue;
                        };
                        let d = job.depth;
                        if levels.len() <= d {
                            levels.resize_with(d + 1, Level::default);
                        }
                        levels[d].frame.sleep = job.sleep;
                        levels[d].slot = Some((job.state, job.mon));
                        dfs(&mut levels, d, d, env, sink, Some(frontier));
                        frontier.pending.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
    }
    let states = seen.as_ref().map_or(0, SeenShards::states);
    Exploration {
        schedules: sink.schedules.into_inner(),
        truncated: sink.truncated.into_inner(),
        pruned: sink.pruned.into_inner(),
        error: sink
            .error
            .into_inner()
            .expect("no worker panicked holding the error slot"),
        non_live: sink.non_live.into_inner(),
        first_stall: sink
            .stall
            .into_inner()
            .expect("no worker panicked holding the stall slot"),
        states,
        sleep_skipped: sink.sleep_skipped.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SendSpec;
    use msgorder_runs::{MessageId, ProcessId, SystemRun};
    use std::collections::{BTreeMap, BTreeSet, HashSet};

    #[derive(Clone, Hash)]
    struct Immediate;
    impl Protocol for Immediate {
        fn on_send_request(&mut self, ctx: &mut crate::Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut crate::Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
        }
    }

    #[derive(Clone, Hash)]
    struct Sink2;
    impl Protocol for Sink2 {
        fn on_send_request(&mut self, ctx: &mut crate::Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            _ctx: &mut crate::Ctx<'_>,
            _from: ProcessId,
            _msg: MessageId,
            _tag: Vec<u8>,
        ) {
            // Never delivers: every schedule wedges.
        }
    }

    /// Answers every frame with a burst of control frames: pending
    /// traffic grows without bound along every schedule.
    #[derive(Clone, Hash)]
    struct Flood;
    impl Flood {
        fn burst(ctx: &mut crate::Ctx<'_>, to: ProcessId) {
            for _ in 0..POOL_LIMIT / 4 {
                ctx.send_control(to, Vec::new());
            }
        }
    }
    impl Protocol for Flood {
        fn on_send_request(&mut self, ctx: &mut crate::Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut crate::Ctx<'_>,
            from: ProcessId,
            _msg: MessageId,
            _tag: Vec<u8>,
        ) {
            Flood::burst(ctx, from);
        }
        fn on_control_frame(&mut self, ctx: &mut crate::Ctx<'_>, from: ProcessId, _: Vec<u8>) {
            Flood::burst(ctx, from);
        }
    }

    #[test]
    fn unbounded_traffic_is_a_counterexample_not_a_panic() {
        for threads in [1, 2] {
            let exp = explore(
                2,
                two_same_channel(),
                |_| Flood,
                &threaded(threads, usize::MAX),
                &|_| true,
            );
            let e = exp.error.expect("the flood poisons the world");
            assert_eq!(e.kind.discriminant_name(), "step-limit");
            assert!(e.trace.is_some(), "the partial trace rides along");
            assert_eq!(
                exp.schedules, 0,
                "no schedule of a flooding protocol completes"
            );
        }
    }

    #[test]
    fn out_of_range_workload_process_is_a_counterexample_not_a_panic() {
        let mut w = two_same_channel();
        w.sends[1].dst = 7;
        let exp = explore(2, w, |_| Immediate, &ExploreOptions::default(), &|_| true);
        let e = exp.error.expect("the bad request poisons the root");
        assert_eq!(e.kind.discriminant_name(), "invalid-request");
        assert_eq!(exp.schedules, 0);
    }

    #[test]
    fn exploration_counts_non_live_schedules_with_blame() {
        let exp = explore(
            2,
            two_same_channel(),
            |_| Sink2,
            &ExploreOptions::default(),
            &|_| true,
        );
        assert!(exp.error.is_none());
        assert!(exp.schedules > 0);
        assert_eq!(
            exp.non_live, exp.schedules,
            "a sink protocol wedges every interleaving"
        );
        let stall = exp.first_stall.expect("blame for the first stall");
        assert_eq!(stall.stuck_count(), 2);
        assert_eq!(
            stall.classes(),
            vec!["deliver:protocol-inhibited".to_owned()]
        );

        // A live protocol reports none.
        let exp = explore(
            2,
            two_same_channel(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|_| true,
        );
        assert_eq!(exp.non_live, 0);
        assert!(exp.first_stall.is_none());

        // Several workers aggregate the same counts.
        let par = explore(
            2,
            two_same_channel(),
            |_| Sink2,
            &threaded(4, usize::MAX),
            &|_| true,
        );
        assert_eq!(par.non_live, par.schedules);
        assert!(par.first_stall.is_some());
    }

    /// `threads` workers, stopping after `cap` schedules.
    fn threaded(threads: usize, cap: usize) -> ExploreOptions {
        ExploreOptions {
            cap,
            threads,
            ..ExploreOptions::default()
        }
    }

    /// The fan-out workload under exact deduplication.
    fn exact_dedup_fan_out(visit: &(impl Fn(&StreamingRun) -> bool + Sync)) -> Exploration {
        let opts = ExploreOptions {
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        };
        explore(3, fan_out(), |_| Immediate, &opts, visit)
    }

    fn two_same_channel() -> Workload {
        Workload {
            sends: vec![
                SendSpec {
                    at: 0,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 1,
                    src: 0,
                    dst: 1,
                    color: None,
                },
            ],
        }
    }

    #[test]
    fn counts_all_interleavings_of_two_messages() {
        // Events for the immediate protocol: req0 (triggers send),
        // arrival0, req1, arrival1 — requests of the same process are
        // ordered, arrivals are free: schedules = interleavings of
        // [a0] and [a1] relative to req order... enumerate and check a
        // known property instead of an exact count: both delivery
        // orders must occur.
        let saw_in_order = AtomicBool::new(false);
        let saw_inverted = AtomicBool::new(false);
        let exp = explore(
            2,
            two_same_channel(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|run| {
                let user = run.users_view();
                use msgorder_runs::UserEvent;
                if user.before(
                    UserEvent::deliver(MessageId(0)),
                    UserEvent::deliver(MessageId(1)),
                ) {
                    saw_in_order.store(true, Ordering::Relaxed);
                } else {
                    saw_inverted.store(true, Ordering::Relaxed);
                }
                true
            },
        );
        assert!(!exp.truncated);
        assert!(exp.schedules >= 2);
        assert!(
            saw_in_order.into_inner() && saw_inverted.into_inner(),
            "explorer must reorder frames"
        );
    }

    #[test]
    fn every_explored_run_is_quiescent_for_live_protocol() {
        let exp = explore(
            2,
            two_same_channel(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|run| {
                assert!(run.is_quiescent());
                true
            },
        );
        assert!(exp.schedules > 0);
    }

    #[test]
    fn early_stop_works() {
        let exp = explore(
            2,
            two_same_channel(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|_| false,
        );
        assert_eq!(exp.schedules, 1);
    }

    #[test]
    fn cap_truncates_and_never_overshoots() {
        let w = Workload {
            sends: (0..4)
                .map(|i| SendSpec {
                    at: i,
                    src: 0,
                    dst: 1,
                    color: None,
                })
                .collect(),
        };
        for threads in [1, 4] {
            let exp = explore(2, w.clone(), |_| Immediate, &threaded(threads, 3), &|_| {
                true
            });
            assert!(exp.truncated, "threads = {threads}");
            assert_eq!(exp.schedules, 3, "threads = {threads}");
        }
    }

    /// A workload whose messages fan out to different destinations, so
    /// interleavings genuinely commute and dedup has something to merge.
    fn fan_out() -> Workload {
        Workload {
            sends: vec![
                SendSpec {
                    at: 0,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 1,
                    src: 0,
                    dst: 2,
                    color: None,
                },
                SendSpec {
                    at: 2,
                    src: 0,
                    dst: 1,
                    color: None,
                },
            ],
        }
    }

    /// Canonical fingerprint of a run for set comparison across
    /// exploration strategies.
    fn fingerprint(run: &SystemRun) -> Fingerprint {
        let mut pairs: Fingerprint = run
            .users_view()
            .relation_pairs()
            .into_iter()
            .map(|(a, b)| (format!("{a:?}"), format!("{b:?}")))
            .collect();
        pairs.sort();
        pairs
    }

    type Fingerprint = Vec<(String, String)>;

    /// Visitor body collecting the *set* of visited runs.
    fn note(runs: &Mutex<BTreeSet<Fingerprint>>, run: &SystemRun) -> bool {
        runs.lock()
            .expect("no visitor panicked")
            .insert(fingerprint(run));
        true
    }

    /// Visitor body collecting the *multiset* of visited runs.
    fn tally(runs: &Mutex<BTreeMap<Fingerprint, usize>>, run: &SystemRun) -> bool {
        *runs
            .lock()
            .expect("no visitor panicked")
            .entry(fingerprint(run))
            .or_default() += 1;
        true
    }

    #[test]
    fn dedup_visits_same_distinct_runs_with_fewer_configurations() {
        let plain_runs = Mutex::new(BTreeSet::new());
        let plain = explore(
            3,
            fan_out(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|run| note(&plain_runs, run),
        );
        let dedup_runs = Mutex::new(BTreeSet::new());
        let dedup = exact_dedup_fan_out(&|run| note(&dedup_runs, run));
        let (plain_runs, dedup_runs) = (
            plain_runs.into_inner().expect("final read"),
            dedup_runs.into_inner().expect("final read"),
        );
        assert_eq!(plain_runs, dedup_runs, "dedup must not lose runs");
        assert!(
            dedup.schedules < plain.schedules,
            "commuting interleavings must merge: {} !< {}",
            dedup.schedules,
            plain.schedules
        );
        assert!(dedup.states > 0, "dedup reports the state count");
        assert!(!dedup_runs.is_empty());
    }

    /// One successor state per enabled branch, in the engine's order.
    fn branch_states<P: Protocol + Clone + Hash>(
        state: &State<P>,
        interner: &Mutex<Interner>,
    ) -> Vec<State<P>> {
        let mut out = Vec::new();
        let mut trans = Vec::new();
        state.transitions_into(&mut trans);
        for (_, pick) in trans {
            let mut next = state.clone();
            let ev = next.take_transition(pick);
            next.execute(ev, &mut Unobserved, interner);
            out.push(next);
        }
        out
    }

    /// A stateful protocol: tags each frame with its sender's send
    /// count, counts per peer the frames it delivered (in a
    /// `SortedSlab`), and echoes each tag back in a control frame. The
    /// sender logs odd echoes in arrival order — state the run does not
    /// determine — and drops even ones, which only the pool then tells
    /// apart from echoes still in flight.
    #[derive(Clone, Hash, Default)]
    struct Tally {
        sent: u64,
        seen: crate::SortedSlab<usize, u64>,
        echoes: Vec<u8>,
    }
    impl Protocol for Tally {
        fn on_send_request(&mut self, ctx: &mut crate::Ctx<'_>, msg: MessageId) {
            self.sent += 1;
            ctx.send_user(msg, self.sent.to_le_bytes().to_vec());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut crate::Ctx<'_>,
            from: ProcessId,
            msg: MessageId,
            tag: Vec<u8>,
        ) {
            *self.seen.get_or_insert_with(from.0, || 0) += 1;
            ctx.deliver(msg);
            ctx.send_control(from, tag);
        }
        fn on_control_frame(&mut self, _: &mut crate::Ctx<'_>, _: ProcessId, echo: Vec<u8>) {
            if echo[0] % 2 == 1 {
                self.echoes.extend(echo);
            }
        }
    }

    /// A pool event's component: everything but its tie-breaking `seq`.
    fn pool_component(ev: &Scheduled) -> (u64, usize, &EventKind) {
        (ev.time, ev.node, &ev.kind)
    }

    /// `value`'s canonical encoding, copied out.
    fn bytes_of(value: &(impl Hash + ?Sized)) -> Vec<u8> {
        let mut out = Vec::new();
        value.hash(&mut Encoder(&mut out));
        out
    }

    /// The reference oracle: the byte key exact deduplication kept
    /// before components were interned — every component's encoding
    /// copied out, length-prefixed and concatenated, the pool sorted by
    /// encoding. It is recomputed from the state itself, so it also
    /// checks the incremental cache.
    struct Oracle {
        /// Run events per process at the root (not part of any chain).
        root_events: Vec<usize>,
    }

    impl Oracle {
        fn new<P>(root: &State<P>) -> Oracle {
            Oracle {
                root_events: (0..root.cursor.len())
                    .map(|p| root.world.builder.sequence(ProcessId(p)).len())
                    .collect(),
            }
        }

        /// The byte key of `state`.
        fn key<P: Hash>(&self, state: &State<P>) -> Vec<u8> {
            let chains: Vec<Vec<u8>> = (0..self.root_events.len())
                .map(|p| {
                    let seq = state.world.builder.sequence(ProcessId(p));
                    seq[self.root_events[p]..]
                        .iter()
                        .flat_map(bytes_of)
                        .collect()
                })
                .collect();
            let proto: Vec<Vec<u8>> = state.protocols.iter().map(bytes_of).collect();
            let mut pool: Vec<Vec<u8>> = state
                .pool
                .iter()
                .map(|(_, ev)| bytes_of(&pool_component(ev)))
                .collect();
            let popped: Vec<u64> = state.cursor.iter().map(|&c| u64::from(c)).collect();
            let mut bytes = Vec::new();
            let mut h = Encoder(&mut bytes);
            chains.len().hash(&mut h);
            for c in chains.iter().chain(&proto) {
                c.len().hash(&mut h);
                h.write(c);
            }
            pool.sort_unstable();
            pool.len().hash(&mut h);
            for k in &pool {
                k.len().hash(&mut h);
                h.write(k);
            }
            for c in popped {
                c.hash(&mut h);
            }
            bytes
        }
    }

    /// One arrival at a configuration: the oracle's byte key, then the
    /// cache's interned key.
    struct Arrival {
        bytes: Vec<u8>,
        ids: Vec<u32>,
    }

    /// Walks the whole configuration graph of `w` under exact keys and
    /// returns every arrival — one per edge, plus the root — expanding
    /// each configuration at its first arrival only.
    fn arrivals<P: Protocol + Clone + Hash>(
        processes: usize,
        w: Workload,
        factory: impl Fn(usize) -> P,
    ) -> Vec<Arrival> {
        let interner = Mutex::default();
        let mut root = initial_state(processes, w, factory, &FaultModel::none(), &interner);
        attach_cache(&mut root, &interner);
        root.world.record = true;
        let oracle = Oracle::new(&root);
        let arrive = |state: &State<P>| {
            let cache = state.cache.as_ref().expect("cache attached at the root");
            let mut ids = Vec::new();
            cache.exact_key(&state.cursor, &mut ids);
            Arrival {
                bytes: oracle.key(state),
                ids,
            }
        };
        let mut out = vec![arrive(&root)];
        let mut expanded: HashSet<Vec<u8>> = HashSet::from([out[0].bytes.clone()]);
        let mut stack = vec![root];
        while let Some(state) = stack.pop() {
            for next in branch_states(&state, &interner) {
                let a = arrive(&next);
                if expanded.insert(a.bytes.clone()) {
                    stack.push(next);
                }
                out.push(a);
            }
        }
        out
    }

    /// Distinct byte keys, distinct interned keys, distinct pairs: all
    /// three are equal iff interned keys are equal exactly when byte
    /// keys are.
    fn distinct_keys(arrivals: &[Arrival]) -> (usize, usize, usize) {
        let bytes: HashSet<&[u8]> = arrivals.iter().map(|a| &a.bytes[..]).collect();
        let ids: HashSet<&[u32]> = arrivals.iter().map(|a| &a.ids[..]).collect();
        let pairs: HashSet<(&[u8], &[u32])> = arrivals
            .iter()
            .map(|a| (&a.bytes[..], &a.ids[..]))
            .collect();
        (bytes.len(), ids.len(), pairs.len())
    }

    #[test]
    fn chains_with_different_parents_never_share_an_id() {
        // The same event appended to two different chains names two
        // chains; appending it again finds the one already interned.
        let mut interner = Interner::default();
        let ev = SystemEvent::new(MessageId(0), msgorder_runs::EventKind::Send);
        let a = interner.chain(1, ev);
        let b = interner.chain(2, ev);
        assert_ne!(a, b, "two chains merged");
        assert_eq!(interner.chain(2, ev), b);
    }

    /// Stores or revisits `key` in `shard` under the index hash `h`.
    fn visit_hashed(shard: &mut Shard, h: u64, key: &[u32]) -> SeenVerdict {
        shard.probe.clear();
        shard.probe.extend_from_slice(key);
        shard.check_hashed(h, &mut Vec::new(), true)
    }

    #[test]
    fn distinct_keys_sharing_an_index_hash_stay_distinct() {
        // Every hash is the same here, so only the comparison of whole
        // keys along the entry chain tells the two states apart.
        let mut shard = Shard::default();
        for key in [[1, 2, 3], [1, 2, 4]] {
            assert!(matches!(
                visit_hashed(&mut shard, 7, &key),
                SeenVerdict::Enter
            ));
        }
        for key in [[1, 2, 3], [1, 2, 4]] {
            assert!(matches!(
                visit_hashed(&mut shard, 7, &key),
                SeenVerdict::Prune
            ));
        }
        assert_eq!(shard.states(), 2);
    }

    #[test]
    fn a_key_that_prefixes_a_stored_key_is_a_new_state() {
        // Keys differ in length only by their pool, so one can be a
        // prefix of another: both orders of arrival must store both.
        for (first, second) in [(&[1, 2, 3][..], &[1, 2][..]), (&[1, 2], &[1, 2, 3])] {
            let mut shard = Shard::default();
            assert!(matches!(
                visit_hashed(&mut shard, 7, first),
                SeenVerdict::Enter
            ));
            assert!(matches!(
                visit_hashed(&mut shard, 7, second),
                SeenVerdict::Enter
            ));
            assert!(matches!(
                visit_hashed(&mut shard, 7, first),
                SeenVerdict::Prune
            ));
            assert_eq!(shard.states(), 2);
        }
    }

    #[test]
    fn interned_keys_are_exactly_as_fine_as_byte_keys() {
        for arrivals in [
            arrivals(3, fan_out(), |_| Immediate),
            arrivals(3, fan_out(), |_| Tally::default()),
        ] {
            let (bytes, ids, pairs) = distinct_keys(&arrivals);
            assert_eq!((ids, pairs), (bytes, bytes), "keys split or merged");
            assert!(bytes > 10);
            assert!(
                arrivals.len() > bytes,
                "commuting prefixes must revisit configurations: {} arrivals, {bytes} keys",
                arrivals.len()
            );
        }
    }

    #[test]
    fn dedup_key_survives_collisions_that_kill_a_truncated_hash() {
        // Regression for the 64-bit-digest dedup key: a digest collision
        // silently merges two distinct configurations, and in a model
        // checker that can prune a reachable *violating* schedule. The
        // exact key is the full component material, so distinct
        // configurations always key distinct — demonstrated here by
        // pigeonhole: over an 8-bit truncation of the same key,
        // collisions are guaranteed once we have > 256 distinct
        // configurations, yet the interned keys stay as distinct as the
        // byte keys.
        let w = Workload {
            sends: (0..5)
                .map(|i| SendSpec {
                    at: i,
                    src: (i as usize) % 3,
                    dst: ((i as usize) + 1) % 3,
                    color: None,
                })
                .collect(),
        };
        let arrivals = arrivals(3, w, |_| Immediate);
        let (bytes, ids, pairs) = distinct_keys(&arrivals);
        assert_eq!((ids, pairs), (bytes, bytes));
        assert!(
            ids > 256,
            "need > 256 distinct configurations for the pigeonhole \
             argument, got {ids}"
        );
        // Truncate each exact key to 8 bits the way any fixed-width
        // digest would: distinct configurations now collide.
        let truncated: HashSet<u8> = arrivals
            .iter()
            .map(|a| {
                use std::collections::hash_map::DefaultHasher;
                let mut h = DefaultHasher::new();
                a.ids.hash(&mut h);
                h.finish() as u8
            })
            .collect();
        assert!(
            truncated.len() < ids,
            "a truncated digest must collide on this many configurations"
        );
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let seq = explore(
            3,
            fan_out(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|_| true,
        );
        // `usize::MAX` runs at the worker ceiling: nothing is allocated
        // per requested thread.
        for threads in [1, 2, 4, usize::MAX] {
            let par = explore(
                3,
                fan_out(),
                |_| Immediate,
                &threaded(threads, usize::MAX),
                &|_| true,
            );
            assert_eq!(par.schedules, seq.schedules, "threads = {threads}");
            assert!(!par.truncated);
        }
        assert_eq!(threaded(MAX_THREADS, usize::MAX).validate(), Ok(()));
        let err = threaded(MAX_THREADS + 1, usize::MAX).validate();
        assert!(
            err.as_ref()
                .is_err_and(|e| e.starts_with("threads must be at most 256")),
            "{err:?}"
        );
    }

    #[test]
    fn parallel_visits_same_run_multiset() {
        let seq_runs = Mutex::new(BTreeMap::new());
        explore(
            3,
            fan_out(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|run| tally(&seq_runs, run),
        );
        let par_runs = Mutex::new(BTreeMap::new());
        explore(
            3,
            fan_out(),
            |_| Immediate,
            &threaded(4, usize::MAX),
            &|run| tally(&par_runs, run),
        );
        assert_eq!(
            seq_runs.into_inner().expect("final read"),
            par_runs.into_inner().expect("final read")
        );
    }

    /// [`Immediate`], counting its clones: every `State` copy makes one
    /// per process, a `clone_from` into a spare included (`Counted`
    /// keeps the default `clone_from`, which clones).
    #[derive(Hash)]
    struct Counted(CloneCount);

    #[derive(Clone, Default)]
    struct CloneCount(std::sync::Arc<AtomicUsize>);

    impl Hash for CloneCount {
        fn hash<H: Hasher>(&self, _: &mut H) {}
    }

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.0 .0.fetch_add(1, Ordering::Relaxed);
            Counted(self.0.clone())
        }
    }

    impl Protocol for Counted {
        fn on_send_request(&mut self, ctx: &mut crate::Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut crate::Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
        }
    }

    /// Explores `w` over 3 processes under [`Counted`]: the counters,
    /// the multiset of visited runs and the number of `State` clones.
    fn counted(
        w: Workload,
        opts: &ExploreOptions,
    ) -> (Exploration, BTreeMap<Fingerprint, usize>, usize) {
        let clones = CloneCount::default();
        let runs = Mutex::new(BTreeMap::new());
        let exp = explore(3, w, |_| Counted(clones.clone()), opts, &|run| {
            tally(&runs, run)
        });
        let protocol_clones = clones.0.load(Ordering::Relaxed);
        assert_eq!(protocol_clones % 3, 0, "a state clones all its processes");
        (
            exp,
            runs.into_inner().expect("final read"),
            protocol_clones / 3,
        )
    }

    #[test]
    fn only_a_child_with_a_later_sibling_clones_the_state() {
        // A chain — one enabled event at every state — never branches,
        // so the whole schedule runs on the root state.
        let chain = Workload {
            sends: vec![SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            }],
        };
        let (exp, _, clones) = counted(chain, &ExploreOptions::default());
        assert_eq!((exp.schedules, clones), (1, 0));

        // The benchmark's pool shape 0: one clone per child that has a
        // later sibling, pinned. Every dispatch used to pay one.
        let shape = || Workload::uniform_random(3, 7, 3);
        let (seq, seq_runs, seq_clones) = counted(shape(), &por_opts());
        assert_eq!(
            (seq.schedules, seq.sleep_skipped, seq_clones),
            (6_070, 9_979, 16_048)
        );

        // A donated job is such a clone — the last child is never given
        // away — so donation neither aliases the parent's state (same
        // run multiset) nor adds or saves a clone.
        let opts = ExploreOptions {
            threads: 2,
            ..por_opts()
        };
        let (par, par_runs, par_clones) = counted(shape(), &opts);
        assert_eq!(par.schedules, seq.schedules);
        assert_eq!(par_runs, seq_runs);
        assert_eq!(par_clones, seq_clones);
    }

    /// Explores on from `state` under reduction, on one thread, with no
    /// seen-set: `(schedules, sleep_skipped)` and the multiset of runs.
    fn explore_on<P: Protocol + Clone + Hash>(
        mut state: State<P>,
        interner: &Mutex<Interner>,
    ) -> ((usize, usize), BTreeMap<Fingerprint, usize>) {
        // Nothing keys the state without a seen-set, and a cache no
        // interner updates would drift from it.
        state.cache = None;
        let runs = Mutex::new(BTreeMap::new());
        let visit = |run: &StreamingRun| tally(&runs, run);
        let sink = Sink::new(&visit, usize::MAX);
        let env = Env {
            por: true,
            max_depth: usize::MAX,
            seen: None,
            interner,
        };
        let mut levels = vec![Level {
            frame: Frame::default(),
            slot: Some((state, Unobserved)),
        }];
        assert!(dfs(&mut levels, 0, 0, &env, &sink, None));
        let counts = (sink.schedules.into_inner(), sink.sleep_skipped.into_inner());
        (counts, runs.into_inner().expect("final read"))
    }

    #[test]
    fn a_copy_into_a_dirty_spare_is_a_clone() {
        // `Tally` states carry tags, a slab and an echo log, so every
        // buffer of a state holds something.
        let interner = Mutex::default();
        let mut root = initial_state(
            3,
            fan_out(),
            |_| Tally::default(),
            &FaultModel::none(),
            &interner,
        );
        attach_cache(&mut root, &interner);
        root.world.record = true;
        let oracle = Oracle::new(&root);
        let ids = |state: &State<Tally>| {
            let mut ids = Vec::new();
            let cache = state.cache.as_ref().expect("cache attached at the root");
            cache.exact_key(&state.cursor, &mut ids);
            ids
        };
        // The second child of the root's only child: the process's next
        // request, with the first frame still in flight.
        let first = branch_states(&root, &interner).swap_remove(0);
        let state = branch_states(&first, &interner).swap_remove(1);
        // Dirty spares: every state on another branch, the first
        // child's, from there down to its leaf.
        let mut dirty = vec![branch_states(&first, &interner).swap_remove(0)];
        while let Some(next) = branch_states(&dirty[dirty.len() - 1], &interner).pop() {
            dirty.push(next);
        }
        let deepest = &dirty[dirty.len() - 1];
        assert!(deepest.world.builder.event_count() > state.world.builder.event_count());
        let fresh = state.clone();
        let expected = explore_on(state.clone(), &interner);
        assert!(expected.0 .0 > 1, "the copy has somewhere to go");
        for mut spare in dirty {
            spare.clone_from(&state);
            assert_eq!(oracle.key(&spare), oracle.key(&fresh));
            assert_eq!(ids(&spare), ids(&fresh));
            assert_eq!(
                format!("{:?}", spare.world.builder),
                format!("{:?}", fresh.world.builder)
            );
            assert_eq!(format!("{:?}", spare.pool), format!("{:?}", fresh.pool));
            assert_eq!(explore_on(spare, &interner), expected);
        }
        assert_eq!(explore_on(fresh, &interner), expected);
    }

    /// Condemns any prefix whose deliveries on the (0 → 1) channel are
    /// out of send order — an online FIFO check via the live `▷`.
    #[derive(Clone)]
    struct FifoCheck;
    impl RunObserver for FifoCheck {
        fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent, _: usize, _: u64) -> bool {
            use msgorder_runs::{EventKind, UserEvent};
            if ev.kind != EventKind::Deliver {
                return true;
            }
            // Any earlier-sent, later-delivered same-channel message?
            for other in view.completed() {
                let (a, b) = (*other, ev.msg);
                if a != b
                    && view.before(UserEvent::send(b), UserEvent::send(a))
                    && view.before(UserEvent::deliver(a), UserEvent::deliver(b))
                {
                    return false;
                }
            }
            true
        }
    }

    #[test]
    fn monitored_exploration_prunes_condemned_prefixes() {
        let plain_fifo = AtomicUsize::new(0);
        let plain = explore(
            2,
            two_same_channel(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|run| {
                let user = run.users_view();
                if user.before(
                    msgorder_runs::UserEvent::deliver(MessageId(0)),
                    msgorder_runs::UserEvent::deliver(MessageId(1)),
                ) {
                    plain_fifo.fetch_add(1, Ordering::Relaxed);
                }
                true
            },
        );
        let visited = AtomicUsize::new(0);
        let exp = explore_monitored(
            2,
            two_same_channel(),
            |_| Immediate,
            FifoCheck,
            &ExploreOptions::default(),
            &|run| {
                visited.fetch_add(1, Ordering::Relaxed);
                let user = run.users_view();
                assert!(
                    user.before(
                        msgorder_runs::UserEvent::deliver(MessageId(0)),
                        msgorder_runs::UserEvent::deliver(MessageId(1)),
                    ),
                    "condemned schedules must not reach the visitor"
                );
                true
            },
        );
        let visited = visited.into_inner();
        assert!(exp.error.is_none());
        assert_eq!(exp.schedules, visited);
        assert_eq!(
            visited,
            plain_fifo.into_inner(),
            "every FIFO schedule still visited"
        );
        assert!(exp.pruned > 0, "violating prefixes were cut");
        assert!(
            exp.schedules < plain.schedules,
            "pruning must reduce the visited count"
        );
    }

    // ------------------------------------------------------------------
    // Partial-order reduction
    // ------------------------------------------------------------------

    fn por_opts() -> ExploreOptions {
        ExploreOptions {
            por: true,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn por_visits_same_run_set_with_fewer_schedules() {
        let plain_runs = Mutex::new(BTreeSet::new());
        let plain = explore(
            3,
            fan_out(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|run| note(&plain_runs, run),
        );
        let por_runs = Mutex::new(BTreeSet::new());
        let por = explore(3, fan_out(), |_| Immediate, &por_opts(), &|run| {
            note(&por_runs, run)
        });
        assert_eq!(
            plain_runs.into_inner().expect("final read"),
            por_runs.into_inner().expect("final read"),
            "reduction must not lose runs"
        );
        assert!(
            por.schedules < plain.schedules,
            "commuting interleavings must be skipped: {} !< {}",
            por.schedules,
            plain.schedules
        );
        assert!(!por.truncated);
    }

    #[test]
    fn por_with_dedup_agrees_with_exact_dedup() {
        let exact_runs = Mutex::new(BTreeSet::new());
        let exact = exact_dedup_fan_out(&|run| note(&exact_runs, run));
        let both_runs = Mutex::new(BTreeSet::new());
        let opts = ExploreOptions {
            por: true,
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        };
        let both = explore(3, fan_out(), |_| Immediate, &opts, &|run| {
            note(&both_runs, run)
        });
        assert_eq!(
            exact_runs.into_inner().expect("final read"),
            both_runs.into_inner().expect("final read"),
            "POR over dedup must not lose runs"
        );
        assert_eq!(
            both.schedules, exact.schedules,
            "terminal configurations are counted once either way"
        );
        assert!(both.states <= exact.states);
    }

    #[test]
    fn monitored_por_preserves_the_uncondemned_run_set() {
        // The satellite edge case: the monitor halts inside a branch
        // whose commuting siblings were sleep-skipped. The visitor-
        // observed run set must still match plain monitored search —
        // on one thread and across the frontier.
        let w = Workload {
            sends: vec![
                SendSpec {
                    at: 0,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 1,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 2,
                    src: 0,
                    dst: 2,
                    color: None,
                },
            ],
        };
        let plain_runs = Mutex::new(BTreeSet::new());
        explore_monitored(
            3,
            w.clone(),
            |_| Immediate,
            FifoCheck,
            &ExploreOptions::default(),
            &|run| note(&plain_runs, run),
        );
        let plain_runs = plain_runs.into_inner().expect("final read");
        for threads in [1, 2, 4] {
            let opts = ExploreOptions {
                threads,
                ..por_opts()
            };
            let por_runs = Mutex::new(BTreeSet::new());
            let exp = explore_monitored(3, w.clone(), |_| Immediate, FifoCheck, &opts, &|run| {
                note(&por_runs, run)
            });
            assert_eq!(
                plain_runs,
                por_runs.into_inner().expect("final read"),
                "sleep sets must not change what the monitor lets through \
                 (threads = {threads})"
            );
            assert!(
                exp.pruned > 0,
                "the monitor still condemns representatives (threads = {threads})"
            );
        }
    }

    #[test]
    fn non_quiet_faults_disable_por() {
        // Crash/restart (or any fault) invalidates node-locality, so
        // reduction silently degrades to the full search.
        let faults = FaultModel::none().with_crash(1, 1, Some(5));
        let full = ExploreOptions {
            faults: faults.clone(),
            ..ExploreOptions::default()
        };
        let with_por = ExploreOptions {
            por: true,
            faults,
            ..ExploreOptions::default()
        };
        let a = explore(3, fan_out(), |_| Immediate, &full, &|_| true);
        let b = explore(3, fan_out(), |_| Immediate, &with_por, &|_| true);
        assert_eq!(a.schedules, b.schedules, "POR must be inert under faults");
        assert_eq!(b.sleep_skipped, 0);
    }

    #[test]
    fn noisy_faults_degrade_dedup_to_off() {
        // The fault stream cannot be keyed, so the seen-set is dropped —
        // as reduction is — instead of panicking, and `validate` names
        // the combination for callers that refuse it.
        let faults = FaultModel::none().with_drop(0.2).expect("a probability");
        let off = ExploreOptions {
            faults,
            ..ExploreOptions::default()
        };
        let exact = ExploreOptions {
            dedup: DedupMode::Exact,
            ..off.clone()
        };
        let (off_runs, exact_runs) = (Mutex::new(BTreeMap::new()), Mutex::new(BTreeMap::new()));
        let a = explore(3, fan_out(), |_| Immediate, &off, &|run| {
            tally(&off_runs, run)
        });
        let b = explore(3, fan_out(), |_| Immediate, &exact, &|run| {
            tally(&exact_runs, run)
        });
        assert_eq!((b.schedules, b.states), (a.schedules, 0));
        assert_eq!(
            off_runs.into_inner().expect("final read"),
            exact_runs.into_inner().expect("final read")
        );
        assert!(a.schedules > 0);
        assert_eq!(off.validate(), Ok(()));
        let err = exact.validate().expect_err("exact dedup under drops");
        assert!(
            err.starts_with("dedup requires a quiet fault model"),
            "{err}"
        );
    }

    #[test]
    fn cap_zero_and_depth_bound_interact_soundly() {
        // cap = 0: truncated before anything completes.
        let opts = ExploreOptions {
            cap: 0,
            por: true,
            ..ExploreOptions::default()
        };
        let exp = explore(3, fan_out(), |_| Immediate, &opts, &|_| true);
        assert!(exp.truncated);
        assert_eq!(exp.schedules, 0);
        // max_depth = 1: no schedule of this workload completes in one
        // dispatch, so everything truncates; a deeper bound finishes.
        let shallow = ExploreOptions {
            max_depth: 1,
            por: true,
            ..ExploreOptions::default()
        };
        let exp = explore(3, fan_out(), |_| Immediate, &shallow, &|_| true);
        assert!(exp.truncated);
        assert_eq!(exp.schedules, 0);
        let deep = ExploreOptions {
            max_depth: 64,
            por: true,
            ..ExploreOptions::default()
        };
        let exp = explore(3, fan_out(), |_| Immediate, &deep, &|_| true);
        assert!(!exp.truncated);
        assert!(exp.schedules > 0);
    }

    #[test]
    fn threaded_por_matches_sequential_por() {
        let seq_runs = Mutex::new(BTreeMap::new());
        let seq = explore(3, fan_out(), |_| Immediate, &por_opts(), &|run| {
            tally(&seq_runs, run)
        });
        let seq_runs = seq_runs.into_inner().expect("final read");
        for threads in [2, 4] {
            let opts = ExploreOptions {
                threads,
                ..por_opts()
            };
            let par_runs = Mutex::new(BTreeMap::new());
            let par = explore(3, fan_out(), |_| Immediate, &opts, &|run| {
                tally(&par_runs, run)
            });
            assert_eq!(par.schedules, seq.schedules, "threads = {threads}");
            assert_eq!(
                seq_runs,
                par_runs.into_inner().expect("final read"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn threaded_dedup_counts_terminal_configurations_once() {
        let exact = exact_dedup_fan_out(&|_| true);
        let opts = ExploreOptions {
            por: true,
            threads: 4,
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        };
        let par = explore(3, fan_out(), |_| Immediate, &opts, &|_| true);
        assert_eq!(par.schedules, exact.schedules);
        assert!(par.states <= exact.states);
    }

    #[test]
    fn a_revisit_with_a_smaller_sleep_set_explores_the_intersection() {
        let seen = SeenShards::new(&DedupMode::Exact, 1).expect("a seen-set");
        let cache = KeyCache {
            chain: vec![0],
            proto: vec![1],
            pool: Vec::new(),
        };
        let check = |cursor: u32, sleep: &mut Vec<TKey>| seen.check(&cache, &[cursor], sleep, true);
        let key = |id| timer_key(0, id);
        assert!(matches!(
            check(0, &mut vec![key(1), key(2)]),
            SeenVerdict::Enter
        ));
        // Both the stored set and the arriving one become {2}.
        let mut sleep = vec![key(2), key(3)];
        assert!(matches!(check(0, &mut sleep), SeenVerdict::EnterWith));
        assert_eq!(sleep, [key(2)]);
        assert!(matches!(check(0, &mut vec![key(2)]), SeenVerdict::Prune));
        let mut sleep = Vec::new();
        assert!(matches!(check(0, &mut sleep), SeenVerdict::EnterWith));
        assert!(sleep.is_empty());
        // Another cursor is another state.
        assert!(matches!(check(1, &mut vec![key(1)]), SeenVerdict::Enter));
    }

    /// The key of a timer `id` pending at `node`.
    fn timer_key(node: usize, id: u64) -> TKey {
        let ev = Scheduled {
            time: 0,
            seq: 0,
            node,
            kind: EventKind::Timer { id },
        };
        TKey::of(&ev, |_| unreachable!("a timer has no payload"))
    }

    #[test]
    fn a_dfs_step_moves_and_compares_only_words() {
        fn copy<T: Copy>() {}
        copy::<TKey>();
        assert!(std::mem::size_of::<TKey>() <= 24);
        // What `dfs` moves out of a level and back: no state.
        assert!(std::mem::size_of::<Frame>() <= 128);
        // A timer id keeps all 64 bits; the node and kind stay apart.
        assert_ne!(timer_key(0, 1), timer_key(0, 1 << 32));
        assert_ne!(timer_key(0, 1), timer_key(1, 1));
        assert_eq!(timer_key(5, u64::MAX).node(), 5);
    }

    #[test]
    fn byte_ids_are_one_to_one() {
        let mut interner = Interner::default();
        let strings: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![1],
            vec![1, 0],
            vec![0, 1],
            vec![0xff; 9],
            vec![0xff; 8],
            b"tag".to_vec(),
            b"tah".to_vec(),
        ];
        let ids: Vec<u32> = strings.iter().map(|s| interner.bytes(s)).collect();
        for (i, a) in strings.iter().enumerate() {
            // The same bytes again, at another address.
            let again = a.clone();
            assert_eq!(interner.bytes(&again), ids[i], "{a:?} named twice");
            for (j, b) in strings.iter().enumerate() {
                assert_eq!(ids[i] == ids[j], a == b, "{a:?} and {b:?}");
            }
        }
        assert_eq!(interner.bytes(&Vec::with_capacity(4)), 0);
        // A protocol state's encoding shares the table.
        assert_eq!(interner.proto(&[1u8][..]), interner.proto(&[1u8][..]));

        // Keys: equal payloads at two addresses key equal, one flipped
        // bit or a dangling against an allocated empty tag does not
        // split or merge them.
        let user = |tag: Vec<u8>| Scheduled {
            time: 1,
            seq: 0,
            node: 2,
            kind: EventKind::UserArrival {
                from: 0,
                msg: msgorder_runs::MessageId(3),
                tag,
            },
        };
        let mut key = |tag: Vec<u8>| TKey::of(&user(tag), |b| interner.bytes(b));
        assert_eq!(key(b"tag".to_vec()), key(b"tag".to_vec()));
        assert_ne!(key(b"tag".to_vec()), key(b"tah".to_vec()));
        assert_eq!(key(Vec::new()), key(Vec::with_capacity(4)));
        assert_ne!(key(Vec::new()), key(vec![0]));
    }

    #[test]
    fn a_state_lands_in_exactly_one_shard() {
        // Without reduction a revisit always prunes, so every thread
        // count stores each reachable configuration once — unless two
        // arrivals at one configuration look in two different shards.
        let counts = |threads| {
            let opts = ExploreOptions {
                dedup: DedupMode::Exact,
                ..threaded(threads, usize::MAX)
            };
            let exp = explore(3, fan_out(), |_| Immediate, &opts, &|_| true);
            (exp.schedules, exp.states)
        };
        let seq = counts(1);
        for threads in [2, 4, 8] {
            assert_eq!(counts(threads), seq, "threads = {threads}");
        }
    }
}
