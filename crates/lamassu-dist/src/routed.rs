//! [`RoutedStore`]: the distributed backend tier.
//!
//! A `RoutedStore` implements [`ObjectStore`] over N child backends. A
//! consistent-hash ring (see [`crate::ring`]) places every **placement
//! unit** — a fixed byte range of one object, [`DistConfig::unit`] bytes
//! long — on an owner chain of R distinct members. The members, the ring
//! and the unit size are fixed when the store is built.
//!
//! # Replica consistency model
//!
//! * **Writes** fan out to every owner of each touched unit. A write that
//!   reaches at least one owner succeeds; owners that missed it are marked
//!   *suspect* and resynchronized by the next [`RoutedStore::scrub`]. A
//!   submitted write takes the same unit walk and fan-out and sends each
//!   member write as a submission, so its cost lands on the member clock's
//!   queue-depth lanes until the caller's `wait_completions`.
//! * **Reads** try the unit's primary owner and fail over down the chain on
//!   [`StorageError::Backend`], [`StorageError::Crashed`] or a lost replica
//!   (`NotFound`); the failed member is marked suspect.
//! * **Scrub / read-repair**: replica ciphertext is deterministic under
//!   convergent encryption, so equal plaintext must yield byte-equal
//!   replicas. `scrub` reads every replica of every unit, compares SHA-256
//!   digests, and rewrites divergent or missing replicas from a good copy —
//!   chosen by majority among non-suspect replicas (R ≥ 3), falling back to
//!   chain order (at R = 2 a silently-corrupt *primary* therefore wins the
//!   tie; the Lamassu integrity layer above catches that case end-to-end).
//!
//! # Lengths and sparseness
//!
//! The routed tier keeps the authoritative logical length of every object
//! (like `lamassu-cache`, it assumes it is the only client of its members;
//! lengths are re-derived from member metadata on first touch after a
//! remount). The container object exists on every member but holds bytes
//! only for the units the member owns; reads zero-fill whatever a member's
//! sparse object cannot produce, inside the logical length.

use crate::config::DistConfig;
use crate::health::{HealthEvent, HealthGate};
use crate::ring::{HashRing, OwnerChain, MAX_REPLICAS};
use crate::stats::{AtomicDistStats, DistStats, ScrubReport};
use lamassu_core::{Category, Profiler};
use lamassu_crypto::sha256::{sha256, Digest};
use lamassu_storage::{
    iovec, write_submitted, Completion, IoCounters, ObjectStore, Result, StorageError, SubmitQueue,
    SubmitTicket,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::io::{IoSlice, IoSliceMut};
use std::ops::{Deref, Range};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual nodes per member on the ring. Placement is a function of this
/// value: changing it moves data on every existing volume.
const VNODES: usize = 64;

/// Why a `(member, object)` pair awaits repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SuspectKind {
    /// The member failed a *read* attempt. Reads modify nothing, so the
    /// member's data is merely unverified, not known-stale: a later
    /// successful read from the same `(member, object)` clears the entry
    /// without waiting for a scrub. Scrub still distrusts it in digest
    /// votes while it stands.
    Probation,
    /// The member missed a write and must be resynchronized from a good
    /// replica. Only a clean scrub of the object clears it.
    Resync,
    /// The object was removed but this member still holds a stale copy.
    Tombstone,
}

impl SuspectKind {
    /// Entries a clean scrub of the object resolves (everything except
    /// tombstones, which have their own cleanup path).
    fn repairable(self) -> bool {
        matches!(self, SuspectKind::Probation | SuspectKind::Resync)
    }

    /// Severity order for the upgrade lattice in `note_suspect`:
    /// `Probation < Resync < Tombstone`.
    fn rank(self) -> u8 {
        match self {
            SuspectKind::Probation => 0,
            SuspectKind::Resync => 1,
            SuspectKind::Tombstone => 2,
        }
    }
}

/// Runs `f` and adds its wall time to `acc` (separates member-store time
/// from routing time for the Figure 9 profiler).
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

fn not_found(name: &str) -> StorageError {
    StorageError::NotFound {
        name: name.to_string(),
    }
}

fn no_backends(name: &str) -> StorageError {
    StorageError::Backend {
        name: name.to_string(),
        detail: "no live backends".to_string(),
    }
}

/// Zero-fills the logical concatenation of `bufs` from byte `skip` on.
fn zero_fill_bufs(bufs: &mut [IoSliceMut<'_>], mut skip: usize) {
    for b in bufs.iter_mut() {
        if skip >= b.len() {
            skip -= b.len();
            continue;
        }
        b[skip..].fill(0);
        skip = 0;
    }
}

/// How a member write is sent.
#[derive(Clone, Copy)]
enum WriteMode {
    /// The member's blocking call: the transport cost advances the member
    /// clock's serial frontier.
    Blocking,
    /// A submission run to completion ([`write_submitted`]): the cost lands
    /// on one of the member clock's queue-depth lanes, and the caller's
    /// `wait_completions` is the barrier.
    Submitted,
}

impl WriteMode {
    fn write<S: ObjectStore + ?Sized>(
        self,
        store: &S,
        name: &str,
        pos: u64,
        bufs: &[IoSlice<'_>],
    ) -> Result<()> {
        match self {
            WriteMode::Blocking => store.write_at_vectored(name, pos, bufs),
            WriteMode::Submitted => write_submitted(store, name, pos, bufs).map(drop),
        }
    }
}

/// What the next member operation of a [`UnitWalk`] covers.
enum Piece {
    /// The whole buffers `bufs[range]`, all inside one placement unit.
    Run(Range<usize>),
    /// Bytes `range` of `bufs[index]`: a buffer straddling a unit boundary
    /// (or clipped by the window) goes piecewise.
    Part(usize, Range<usize>),
}

/// The one walk that cuts a scatter list into per-unit member operations,
/// shared by the read and the write direction (it only looks at lengths).
/// Each step is the longest run of whole buffers that fits in the current
/// placement unit and the window — one member round trip — or, for a buffer
/// that does not fit, the part of it that does.
struct UnitWalk {
    /// Object offset of the next byte.
    pos: u64,
    /// Bytes of the window still to cover.
    left: u64,
    /// The buffer the walk is in, and how far into it.
    buf: usize,
    buf_off: usize,
}

impl UnitWalk {
    /// A walk over the first `window` bytes of a list placed at `offset`.
    fn new(offset: u64, window: u64) -> Self {
        UnitWalk {
            pos: offset,
            left: window,
            buf: 0,
            buf_off: 0,
        }
    }

    /// The next operation's object offset and extent, or `None` once the
    /// window is covered. `bufs` must be the same list on every call.
    fn next<B: Deref<Target = [u8]>>(
        &mut self,
        config: &DistConfig,
        bufs: &[B],
    ) -> Option<(u64, Piece)> {
        if self.left == 0 {
            return None;
        }
        // An empty buffer rides along inside a run; only at the head of a
        // step would it make an operation of no bytes.
        while bufs[self.buf].is_empty() {
            self.buf += 1;
        }
        let pos = self.pos;
        let room = (config.unit_end(pos) - pos).min(self.left);
        let first = self.buf;
        let mut run = 0u64;
        if self.buf_off == 0 {
            while let Some(b) = bufs.get(self.buf) {
                if run + b.len() as u64 > room {
                    break;
                }
                run += b.len() as u64;
                self.buf += 1;
            }
        }
        let (piece, step) = if self.buf > first {
            (Piece::Run(first..self.buf), run)
        } else {
            let bl = bufs[first].len();
            let take = room.min((bl - self.buf_off) as u64) as usize;
            let part = self.buf_off..self.buf_off + take;
            self.buf_off += take;
            if self.buf_off == bl {
                self.buf += 1;
                self.buf_off = 0;
            }
            (Piece::Part(first, part), take as u64)
        };
        self.pos += step;
        self.left -= step;
        Some((pos, piece))
    }
}

/// A replicated, consistent-hash-routed [`ObjectStore`] over N members.
///
/// # Examples
///
/// ```
/// use lamassu_dist::{DistConfig, RoutedStore};
/// use lamassu_storage::{DedupStore, ObjectStore, StorageProfile};
/// use std::sync::Arc;
///
/// let members: Vec<Arc<DedupStore>> = (0..3)
///     .map(|_| Arc::new(DedupStore::new(4096, StorageProfile::instant())))
///     .collect();
/// let routed = RoutedStore::new(members, DistConfig::new(2));
/// routed.create("f").unwrap();
/// routed.write_at("f", 0, b"replicated").unwrap();
/// assert_eq!(routed.read_at("f", 0, 10).unwrap(), b"replicated");
/// assert_eq!(routed.scrub().mismatches, 0);
/// ```
pub struct RoutedStore<S: ObjectStore + ?Sized = dyn ObjectStore> {
    config: DistConfig,
    /// The member stores. A member's id — in suspects, stats, the health
    /// gate and on the ring — is its index here.
    members: Vec<Arc<S>>,
    /// The ring over ids `0..members.len()`.
    ring: HashRing,
    /// Scrub's exclusion gate: data and namespace methods hold it shared,
    /// [`RoutedStore::scrub`] and [`RoutedStore::scrub_member`] exclusively,
    /// so no operation observes a half-repaired replica set.
    scrub_gate: RwLock<()>,
    /// Authoritative logical lengths, interned names. Lazily seeded from
    /// member metadata for objects that predate this instance.
    meta: Mutex<HashMap<Arc<str>, u64>>,
    /// `(member id, object)` pairs awaiting repair.
    suspects: Mutex<BTreeMap<(u32, Arc<str>), SuspectKind>>,
    stats: AtomicDistStats,
    /// Running union of every scrub pass (see [`RoutedStore::scrub_totals`]).
    scrub_totals: Mutex<ScrubReport>,
    /// The mount's Figure 9 profiler, fixed at construction.
    profiler: Option<Arc<Profiler>>,
    /// Optional per-member admission control (circuit breakers), fixed at
    /// construction.
    health: Option<Arc<dyn HealthGate>>,
    /// Member ids whose breaker just reclosed and who therefore await a
    /// targeted scrub (see [`RoutedStore::take_probe_scrub_requests`]).
    probe_scrubs: Mutex<Vec<u32>>,
}

impl<S: ObjectStore + ?Sized> RoutedStore<S> {
    /// Builds a routed store over the given members (at least one).
    pub fn new(members: Vec<Arc<S>>, config: DistConfig) -> Self {
        assert!(!members.is_empty(), "a routed store needs >= 1 backend");
        let ids: Vec<u32> = (0..members.len() as u32).collect();
        RoutedStore {
            config,
            ring: HashRing::build(&ids, VNODES),
            members,
            scrub_gate: RwLock::new(()),
            meta: Mutex::new(HashMap::new()),
            suspects: Mutex::new(BTreeMap::new()),
            stats: AtomicDistStats::default(),
            scrub_totals: Mutex::new(ScrubReport::default()),
            profiler: None,
            health: None,
            probe_scrubs: Mutex::new(Vec::new()),
        }
    }

    /// The placement configuration.
    pub fn config(&self) -> &DistConfig {
        &self.config
    }

    /// Number of member backends.
    pub fn backends(&self) -> usize {
        self.members.len()
    }

    /// The member store with the given id (its index in the list the store
    /// was built from), if there is one.
    pub fn member_store(&self, id: u32) -> Option<Arc<S>> {
        self.members.get(id as usize).cloned()
    }

    /// Ids of the members owning the placement unit covering `offset` of
    /// `name`, primary first.
    pub fn replica_ids(&self, name: &str, offset: u64) -> Vec<u32> {
        let mut chain: OwnerChain = [0; MAX_REPLICAS];
        let n = self.owners_for(name, offset, &mut chain);
        chain[..n].to_vec()
    }

    /// Snapshot of the routing statistics.
    pub fn stats(&self) -> DistStats {
        self.stats.snapshot(self.suspects.lock().len() as u64)
    }

    /// Number of `(member, object)` pairs currently awaiting repair.
    pub fn suspects_pending(&self) -> usize {
        self.suspects.lock().len()
    }

    /// Builds the router with the mount's Figure 9 [`Profiler`]: time spent
    /// routing (ring lookups, span splitting, fan-out bookkeeping —
    /// member-store call time excluded) is charged to [`Category::Route`].
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Builds the router with a per-member [`HealthGate`] (typically the
    /// resilience layer's breaker set): reads and writes skip members the
    /// gate rejects — degrading to replica reads and suspect-marked writes
    /// — unless no admitted member can serve the operation, and every
    /// attempt's outcome is reported back to the gate. A member whose gate
    /// recloses (recovers) is queued for a targeted scrub, so whoever owns
    /// a gated router owes it a drain loop
    /// ([`RoutedStore::take_probe_scrub_requests`]).
    pub fn with_health_gate(mut self, gate: Arc<dyn HealthGate>) -> Self {
        self.health = Some(gate);
        self
    }

    /// Drains the pending targeted-scrub requests: ids of members whose
    /// health gate reclosed since the last call, deduplicated. The caller
    /// runs [`RoutedStore::scrub_member`] for each — the half-open probe
    /// that reclosed the breaker doubles as the resync trigger.
    pub fn take_probe_scrub_requests(&self) -> Vec<u32> {
        let mut ids = std::mem::take(&mut *self.probe_scrubs.lock());
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    // ---- internal helpers -------------------------------------------------

    fn op_start(&self) -> Option<Instant> {
        self.profiler.as_ref().map(|_| Instant::now())
    }

    fn charge_route(&self, start: Option<Instant>, backend_time: Duration) {
        if let (Some(t0), Some(p)) = (start, &self.profiler) {
            p.add(Category::Route, t0.elapsed().saturating_sub(backend_time));
        }
    }

    /// The members with their ids.
    fn each_member(&self) -> impl Iterator<Item = (u32, &S)> {
        self.members
            .iter()
            .enumerate()
            .map(|(id, store)| (id as u32, &**store))
    }

    fn owners_for(&self, name: &str, offset: u64, out: &mut OwnerChain) -> usize {
        let unit = self.config.unit_of(offset);
        self.ring.owners_at(
            HashRing::key_position(name, unit),
            self.config.replicas,
            out,
        )
    }

    fn note_suspect(&self, member_id: u32, name: &Arc<str>, kind: SuspectKind) {
        let mut suspects = self.suspects.lock();
        let entry = suspects.entry((member_id, name.clone())).or_insert(kind);
        // Upgrade-only lattice (Probation < Resync < Tombstone): a read
        // failure never downgrades a known missed write, and nothing
        // overrides a pending removal.
        if kind.rank() > entry.rank() {
            *entry = kind;
        }
    }

    /// A successful read from `(member, object)` disproves a read-failure
    /// suspicion: drop a `Probation` entry (and only that kind) without
    /// waiting for a scrub. Alloc-free; the common no-suspects case is one
    /// uncontended lock and an `is_empty` check.
    fn clear_probation(&self, member_id: u32, name: &Arc<str>) {
        let mut suspects = self.suspects.lock();
        if suspects.is_empty() {
            return;
        }
        let key = (member_id, name.clone());
        if suspects.get(&key) == Some(&SuspectKind::Probation) {
            suspects.remove(&key);
            AtomicDistStats::bump(&self.stats.suspects_cleared_inline);
        }
    }

    /// Reacts to a health-gate state transition: a member whose breaker
    /// reclosed (came back after an outage) is queued for a targeted scrub.
    fn gate_event(&self, member_id: u32, ev: HealthEvent) {
        if ev == HealthEvent::Reclosed {
            self.probe_scrubs.lock().push(member_id);
        }
    }

    fn is_tombstoned(&self, name: &str) -> bool {
        self.suspects
            .lock()
            .iter()
            .any(|((_, n), k)| *k == SuspectKind::Tombstone && n.as_ref() == name)
    }

    /// Authoritative logical length plus the interned name: the cached
    /// value, or — on first touch of a pre-existing object — the maximum
    /// length any member reports. `None` means the object does not exist.
    fn object_len(&self, name: &str, backend_time: &mut Duration) -> Option<(Arc<str>, u64)> {
        {
            let meta = self.meta.lock();
            if let Some((interned, &len)) = meta.get_key_value(name) {
                return Some((interned.clone(), len));
            }
        }
        // A removed object pending cleanup on a crashed member must not be
        // resurrected by the probe below.
        if self.is_tombstoned(name) {
            return None;
        }
        let mut best: Option<u64> = None;
        for store in &self.members {
            if let Ok(l) = timed(backend_time, || store.len(name)) {
                best = Some(best.map_or(l, |b| b.max(l)));
            }
        }
        let len = best?;
        let mut meta = self.meta.lock();
        if let Some((interned, &len)) = meta.get_key_value(name) {
            return Some((interned.clone(), len));
        }
        let interned: Arc<str> = Arc::from(name);
        meta.insert(interned.clone(), len);
        Some((interned, len))
    }

    /// Applies `op` to every member (each holds the container object of
    /// `name`); succeeds when at least one member applied it, marking the
    /// others suspect with `kind`.
    fn fan_out(
        &self,
        name: &Arc<str>,
        kind: SuspectKind,
        tolerate_notfound: bool,
        op: impl Fn(&S) -> Result<()>,
    ) -> Result<()> {
        let mut ok = 0;
        let mut first_err: Option<StorageError> = None;
        for (id, store) in self.each_member() {
            match op(store) {
                Ok(()) => ok += 1,
                Err(StorageError::NotFound { .. }) if tolerate_notfound => ok += 1,
                Err(e) => {
                    self.note_suspect(id, name, kind);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if ok > 0 {
            Ok(())
        } else {
            Err(first_err.unwrap_or_else(|| no_backends(name)))
        }
    }

    /// Tries `attempt` against the chain's members in order, consulting
    /// the health gate. Members the gate rejects are skipped on the first
    /// pass (counted as `breaker_skips`); if no admitted member succeeded,
    /// a second pass retries the skipped ones — the tier prefers serving a
    /// read off a dubious replica over refusing it. Every real attempt's
    /// outcome feeds the gate; failures put the member on `Probation`,
    /// success clears it. Allocation-free on success.
    fn try_chain(
        &self,
        name: &Arc<str>,
        chain: &[u32],
        mut attempt: impl FnMut(&S) -> Result<()>,
    ) -> Result<()> {
        let gate = &self.health;
        let n = chain.len();
        let mut tried = [false; MAX_REPLICAS];
        let mut last_err: Option<StorageError> = None;
        let mut skipped = false;
        for pass in 0..2 {
            for (i, &id) in chain.iter().enumerate() {
                if tried[i] {
                    continue;
                }
                if pass == 0 {
                    if let Some(g) = gate {
                        if !g.allow(id) {
                            skipped = true;
                            AtomicDistStats::bump(&self.stats.breaker_skips);
                            continue;
                        }
                    }
                }
                tried[i] = true;
                match attempt(&self.members[id as usize]) {
                    Ok(()) => {
                        if let Some(g) = gate {
                            self.gate_event(id, g.record(id, true));
                        }
                        self.clear_probation(id, name);
                        return Ok(());
                    }
                    Err(e) => {
                        if let Some(g) = gate {
                            self.gate_event(id, g.record(id, false));
                        }
                        if i + 1 < n {
                            AtomicDistStats::bump(&self.stats.read_failovers);
                        }
                        self.note_suspect(id, name, SuspectKind::Probation);
                        last_err = Some(e);
                    }
                }
            }
            if !skipped {
                break;
            }
        }
        Err(last_err.unwrap_or_else(|| no_backends(name)))
    }

    /// Fans `attempt` out to every member of the chain, consulting the
    /// health gate. Gate-rejected owners are skipped (a *degraded* write:
    /// they miss the data and are marked `Resync` so the next scrub
    /// rewrites them) unless no admitted owner took the write, in which
    /// case the skipped ones are tried after all — availability wins.
    fn write_chain(
        &self,
        name: &Arc<str>,
        chain: &[u32],
        mut attempt: impl FnMut(&S) -> Result<()>,
    ) -> Result<()> {
        let gate = &self.health;
        let n = chain.len();
        let mut tried = [false; MAX_REPLICAS];
        let mut ok = 0;
        let mut first_err: Option<StorageError> = None;
        let mut skipped = false;
        for pass in 0..2 {
            for (i, &id) in chain.iter().enumerate() {
                if tried[i] {
                    continue;
                }
                if pass == 0 {
                    if let Some(g) = gate {
                        if !g.allow(id) {
                            skipped = true;
                            AtomicDistStats::bump(&self.stats.breaker_skips);
                            continue;
                        }
                    }
                }
                tried[i] = true;
                match attempt(&self.members[id as usize]) {
                    Ok(()) => {
                        if let Some(g) = gate {
                            self.gate_event(id, g.record(id, true));
                        }
                        ok += 1;
                    }
                    Err(e) => {
                        if let Some(g) = gate {
                            self.gate_event(id, g.record(id, false));
                        }
                        self.note_suspect(id, name, SuspectKind::Resync);
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            if !(skipped && ok == 0) {
                break;
            }
        }
        // Owners never attempted (their breaker was open and the admitted
        // owners sufficed) missed the write: mark them for resync now —
        // *after* the passes, so a skipped owner the fallback pass did
        // reach is not wrongly suspected.
        for (i, &id) in chain.iter().enumerate() {
            if !tried[i] {
                self.note_suspect(id, name, SuspectKind::Resync);
            }
        }
        self.finish_unit_write(ok, n, first_err, name)
    }

    /// Reads the list `bufs` at `pos` — a run that lies inside one placement
    /// unit and the logical length — from the unit's replica chain in one
    /// charged member operation, failing over down the chain and
    /// zero-filling whatever a sparse member object cannot produce.
    /// Allocation-free on success.
    fn read_unit_vectored(
        &self,
        name: &Arc<str>,
        pos: u64,
        bufs: &mut [IoSliceMut<'_>],
        backend_time: &mut Duration,
    ) -> Result<()> {
        let mut chain: OwnerChain = [0; MAX_REPLICAS];
        let n = self.owners_for(name, pos, &mut chain);
        self.try_chain(name, &chain[..n], |store| {
            let got = timed(backend_time, || store.read_into_vectored(name, pos, bufs))?;
            zero_fill_bufs(bufs, got);
            Ok(())
        })
    }

    /// Writes the list `bufs` at `pos` (inside one placement unit) to every
    /// owner, one charged operation each, sent as `mode` says. Succeeds
    /// when at least one owner took the write; missed owners are marked
    /// suspect (a *degraded* write).
    fn write_unit_vectored(
        &self,
        name: &Arc<str>,
        pos: u64,
        bufs: &[IoSlice<'_>],
        mode: WriteMode,
        backend_time: &mut Duration,
    ) -> Result<()> {
        let mut chain: OwnerChain = [0; MAX_REPLICAS];
        let n = self.owners_for(name, pos, &mut chain);
        self.write_chain(name, &chain[..n], |store| {
            timed(backend_time, || mode.write(store, name, pos, bufs))
        })
    }

    /// [`ObjectStore::write_at_vectored`], each member write sent as
    /// `mode` says: the list is cut into per-unit runs by the one
    /// [`UnitWalk`], and every run fans out to its owners.
    fn write_list(
        &self,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
        mode: WriteMode,
    ) -> Result<()> {
        let op = self.op_start();
        let mut backend_time = Duration::ZERO;
        let _gate = self.scrub_gate.read();
        let Some((iname, _len)) = self.object_len(name, &mut backend_time) else {
            return Err(not_found(name));
        };
        let total = iovec::total_len(bufs) as u64;
        let mut walk = UnitWalk::new(offset, total);
        while let Some((pos, piece)) = walk.next(&self.config, bufs) {
            match piece {
                Piece::Run(run) => {
                    self.write_unit_vectored(&iname, pos, &bufs[run], mode, &mut backend_time)?
                }
                Piece::Part(i, part) => self.write_unit_vectored(
                    &iname,
                    pos,
                    &[IoSlice::new(&bufs[i][part])],
                    mode,
                    &mut backend_time,
                )?,
            }
        }
        self.grow_len(&iname, offset + total);
        self.charge_route(op, backend_time);
        Ok(())
    }

    fn finish_unit_write(
        &self,
        ok: usize,
        owners: usize,
        first_err: Option<StorageError>,
        name: &str,
    ) -> Result<()> {
        if ok > 0 {
            if ok < owners {
                AtomicDistStats::bump(&self.stats.degraded_writes);
            }
            Ok(())
        } else {
            Err(first_err.unwrap_or_else(|| no_backends(name)))
        }
    }

    /// Grows the recorded logical length to at least `end`.
    fn grow_len(&self, name: &Arc<str>, end: u64) {
        let mut meta = self.meta.lock();
        let entry = meta.entry(name.clone()).or_insert(0);
        *entry = (*entry).max(end);
    }

    /// [`ObjectStore::create`] under a held gate.
    fn create_locked(&self, name: &str) -> Result<()> {
        let mut backend_time = Duration::ZERO;
        if self.object_len(name, &mut backend_time).is_some() {
            return Err(StorageError::AlreadyExists {
                name: name.to_string(),
            });
        }
        let iname: Arc<str> = Arc::from(name);
        // Recreating a tombstoned name: clear stale copies now so the old
        // bytes cannot resurrect under the new object.
        let pending: Vec<u32> = {
            let suspects = self.suspects.lock();
            suspects
                .iter()
                .filter(|((_, n), k)| **k == SuspectKind::Tombstone && n.as_ref() == name)
                .map(|((id, _), _)| *id)
                .collect()
        };
        for id in pending {
            match self.members[id as usize].remove(name) {
                Ok(()) | Err(StorageError::NotFound { .. }) => {
                    self.suspects.lock().remove(&(id, iname.clone()));
                }
                Err(_) => {} // still unreachable; create below re-marks it
            }
        }
        self.fan_out(&iname, SuspectKind::Resync, false, |store| {
            match store.create(name) {
                Err(StorageError::AlreadyExists { .. }) => Ok(()),
                r => r,
            }
        })?;
        self.meta.lock().insert(iname, 0);
        Ok(())
    }

    /// [`ObjectStore::remove`] under a held gate.
    fn remove_locked(&self, name: &str) -> Result<()> {
        let mut backend_time = Duration::ZERO;
        let Some((iname, _)) = self.object_len(name, &mut backend_time) else {
            return Err(not_found(name));
        };
        self.meta.lock().remove(name);
        // Pending resyncs (and read-failure probations) of a removed
        // object are moot.
        self.suspects
            .lock()
            .retain(|(_, n), k| !(k.repairable() && n.as_ref() == name));
        self.fan_out(&iname, SuspectKind::Tombstone, true, |store| {
            store.remove(name)
        })
    }

    /// Object names known to the cluster: the union of every member's
    /// listing and the length map, minus removed-but-not-yet-cleaned names.
    fn known_objects(&self) -> Vec<String> {
        let mut names: Vec<String> = self.members.iter().flat_map(|s| s.list()).collect();
        names.extend(self.meta.lock().keys().map(|k| k.to_string()));
        names.sort_unstable();
        names.dedup();
        let meta = self.meta.lock();
        let suspects = self.suspects.lock();
        names.retain(|n| {
            meta.contains_key(n.as_str())
                || !suspects
                    .iter()
                    .any(|((_, sn), k)| *k == SuspectKind::Tombstone && sn.as_ref() == n.as_str())
        });
        names
    }
}

impl<S: ObjectStore + ?Sized> ObjectStore for RoutedStore<S> {
    fn create(&self, name: &str) -> Result<()> {
        let _gate = self.scrub_gate.read();
        self.create_locked(name)
    }

    fn exists(&self, name: &str) -> bool {
        let _gate = self.scrub_gate.read();
        let mut backend_time = Duration::ZERO;
        self.object_len(name, &mut backend_time).is_some()
    }

    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize> {
        let op = self.op_start();
        let mut backend_time = Duration::ZERO;
        let _gate = self.scrub_gate.read();
        let Some((iname, len)) = self.object_len(name, &mut backend_time) else {
            return Err(not_found(name));
        };
        let window = len
            .saturating_sub(offset)
            .min(iovec::total_len(bufs) as u64);
        let mut walk = UnitWalk::new(offset, window);
        while let Some((pos, piece)) = walk.next(&self.config, bufs) {
            match piece {
                Piece::Run(run) => {
                    self.read_unit_vectored(&iname, pos, &mut bufs[run], &mut backend_time)?
                }
                Piece::Part(i, part) => self.read_unit_vectored(
                    &iname,
                    pos,
                    &mut [IoSliceMut::new(&mut bufs[i][part])],
                    &mut backend_time,
                )?,
            }
        }
        self.charge_route(op, backend_time);
        Ok(window as usize)
    }

    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        self.write_list(name, offset, bufs, WriteMode::Blocking)
    }

    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> SubmitTicket {
        let result = self
            .write_list(name, offset, bufs, WriteMode::Submitted)
            .map(|()| iovec::total_len(bufs));
        q.complete_now(result)
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        q.release_all();
        q.drain_ready(out);
        // Propagate the transport barrier to every member: the queue is
        // already drained, so these calls only raise each member clock's
        // channel floor.
        for store in &self.members {
            store.wait_completions(q, out);
        }
    }

    fn len(&self, name: &str) -> Result<u64> {
        let _gate = self.scrub_gate.read();
        let mut backend_time = Duration::ZERO;
        self.object_len(name, &mut backend_time)
            .map(|(_, len)| len)
            .ok_or_else(|| not_found(name))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        let _gate = self.scrub_gate.read();
        let mut backend_time = Duration::ZERO;
        let Some((iname, _old)) = self.object_len(name, &mut backend_time) else {
            return Err(not_found(name));
        };
        // Owners of the unit holding the (new) last byte get their physical
        // object set to exactly `len`, so the maximum physical length always
        // equals the logical length (a remount re-derives lengths from it).
        let mut chain: OwnerChain = [0; MAX_REPLICAS];
        let n_last = self.owners_for(name, len.saturating_sub(1), &mut chain);
        let last_owners = &chain[..n_last];
        let mut ok = 0;
        let mut needed = 0;
        let mut first_err: Option<StorageError> = None;
        for (id, store) in self.each_member() {
            let phys = match timed(&mut backend_time, || store.len(name)) {
                Ok(l) => l,
                Err(_) => {
                    self.note_suspect(id, &iname, SuspectKind::Resync);
                    continue;
                }
            };
            if phys <= len && !last_owners.contains(&id) {
                continue; // nothing to cut, not responsible for the tail
            }
            needed += 1;
            match timed(&mut backend_time, || store.truncate(name, len)) {
                Ok(()) => ok += 1,
                Err(e) => {
                    self.note_suspect(id, &iname, SuspectKind::Resync);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if needed > 0 && ok == 0 {
            return Err(first_err.unwrap_or_else(|| no_backends(name)));
        }
        self.meta.lock().insert(iname, len);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        let _gate = self.scrub_gate.read();
        self.remove_locked(name)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let _gate = self.scrub_gate.read();
        let mut backend_time = Duration::ZERO;
        let Some((ifrom, len)) = self.object_len(from, &mut backend_time) else {
            return Err(not_found(from));
        };
        if from == to {
            return Ok(());
        }
        // Replace semantics: drop any existing target, then re-place the
        // data under the *target's* owner chains (a rename changes every
        // placement key, so this is a copy, not a pointer swap).
        if self.object_len(to, &mut backend_time).is_some() {
            self.remove_locked(to)?;
        }
        self.create_locked(to)?;
        let ito: Arc<str> = Arc::from(to);
        let mut scratch = Vec::new();
        let mut pos = 0u64;
        while pos < len {
            let chunk = (self.config.unit_end(pos) - pos)
                .min(len - pos)
                .min(1 << 20) as usize;
            scratch.resize(chunk, 0);
            let mut iov = [IoSliceMut::new(&mut scratch)];
            self.read_unit_vectored(&ifrom, pos, &mut iov, &mut backend_time)?;
            let iov = [IoSlice::new(&scratch)];
            self.write_unit_vectored(&ito, pos, &iov, WriteMode::Blocking, &mut backend_time)?;
            pos += chunk as u64;
        }
        self.meta.lock().insert(ito, len);
        self.remove_locked(from)
    }

    fn list(&self) -> Vec<String> {
        let _gate = self.scrub_gate.read();
        self.known_objects()
    }

    fn flush(&self, name: &str) -> Result<()> {
        let _gate = self.scrub_gate.read();
        let mut backend_time = Duration::ZERO;
        let Some((iname, _)) = self.object_len(name, &mut backend_time) else {
            return Err(not_found(name));
        };
        self.fan_out(&iname, SuspectKind::Resync, false, |store| {
            store.flush(name)
        })
    }

    fn sleep_virtual(&self, d: Duration) {
        // A retry layer's backoff above this tier waits on every member:
        // io_time() is the max over member clocks, so advancing them all
        // makes the wait visible no matter which member serves next.
        for store in &self.members {
            store.sleep_virtual(d);
        }
    }

    fn io_time(&self) -> Duration {
        // Members are independent servers: the modelled wall time of the
        // tier is the busiest member's makespan, the cross-backend
        // generalization of SimClock's per-channel model. (Each member
        // keeps its own clock, so no member's time is counted twice.)
        self.members
            .iter()
            .map(|s| s.io_time())
            .max()
            .unwrap_or(Duration::ZERO)
    }

    fn io_counters(&self) -> IoCounters {
        IoCounters::sum(self.members.iter().map(|s| s.io_counters()))
    }

    fn reset_io_accounting(&self) {
        for store in &self.members {
            store.reset_io_accounting();
        }
    }
}

// ---- scrub / read-repair --------------------------------------------------

impl<S: ObjectStore + ?Sized> RoutedStore<S> {
    /// Verifies and repairs the whole cluster: for every placement unit of
    /// every object, reads all replicas, compares SHA-256 digests, and
    /// rewrites divergent, missing or unreadable replicas from a good copy.
    /// Also clears tombstones (stale copies of removed objects) and
    /// recreates missing container objects. Holds the scrub gate
    /// exclusively, so no concurrent operation observes a half-repaired
    /// replica set.
    ///
    /// The good copy for a unit is chosen by digest **majority** among the
    /// readable, non-suspect replicas; ties break in chain order, so at
    /// R = 2 (no majority possible) the primary wins unless it is suspect.
    /// Digests distinguish replicas without identifying the true one: silent
    /// bit-rot *on the primary* at R = 2 therefore repairs in the wrong
    /// direction (the primary is authoritative, as in real replicated
    /// stores). The shims' end-to-end integrity check still detects the
    /// damage on read/verify; R ≥ 3 resolves it correctly by majority.
    pub fn scrub(&self) -> ScrubReport {
        let _gate = self.scrub_gate.write();
        let mut report = ScrubReport::default();
        self.clear_tombstones(&mut report);
        self.scrub_walk(None, report)
    }

    /// The union of every scrub pass run so far on this instance (each
    /// [`RoutedStore::scrub`] merges its report in) — the cumulative scrub
    /// outcome telemetry snapshots export.
    pub fn scrub_totals(&self) -> ScrubReport {
        *self.scrub_totals.lock()
    }

    /// Targeted scrub of one member: verifies and repairs only the units
    /// whose owner chain includes the member with id `id` (and that
    /// member's container objects). This is the resync a reclosing circuit
    /// breaker requests — the member was down, its breaker's half-open
    /// probe just succeeded, and exactly the data it can hold needs
    /// verification, not the whole cluster.
    ///
    /// Clean objects drop the member's pending `Resync`/`Probation`
    /// entries. Returns an empty report if there is no member `id`.
    pub fn scrub_member(&self, id: u32) -> ScrubReport {
        let _gate = self.scrub_gate.write();
        if id as usize >= self.members.len() {
            return ScrubReport::default();
        }
        AtomicDistStats::bump(&self.stats.probe_scrubs);
        self.scrub_walk(Some(id), ScrubReport::default())
    }

    /// The walk behind both scrubs, over every (object, unit): checks the
    /// units whose chain holds `member` (every unit when `None`), and on an
    /// object that comes out clean drops the repairable suspects of
    /// `member` (of every member when `None`). Caller holds the gate
    /// exclusively; returns `report` with the walk's findings added.
    fn scrub_walk(&self, member: Option<u32>, mut report: ScrubReport) -> ScrubReport {
        for name in self.known_objects() {
            let mut backend_time = Duration::ZERO;
            let Some((iname, len)) = self.object_len(&name, &mut backend_time) else {
                continue;
            };
            report.objects += 1;
            let mut clean = self.repair_containers(&iname, len, &mut report);
            let mut pos = 0u64;
            loop {
                let uend = self.config.unit_end(pos).min(len);
                let mut chain: OwnerChain = [0; MAX_REPLICAS];
                let n = self.owners_for(&iname, pos, &mut chain);
                if member.is_none_or(|id| chain[..n].contains(&id)) {
                    report.units += 1;
                    let window = (uend - pos) as usize;
                    if !self.scrub_unit(&iname, pos, window, &chain[..n], &mut report) {
                        clean = false;
                    }
                }
                if uend >= len {
                    break;
                }
                pos = uend;
            }
            if clean {
                // Every checked unit verified or repaired: pending resyncs
                // (and probations) are done.
                self.suspects.lock().retain(|(id, n), k| {
                    !(member.is_none_or(|m| m == *id)
                        && k.repairable()
                        && n.as_ref() == iname.as_ref())
                });
            }
        }
        AtomicDistStats::add(&self.stats.scrub_mismatches, report.mismatches);
        AtomicDistStats::add(&self.stats.scrub_repairs, report.repaired);
        {
            let mut totals = self.scrub_totals.lock();
            *totals = totals.merge(&report);
        }
        report
    }

    fn clear_tombstones(&self, report: &mut ScrubReport) {
        let tombstones: Vec<(u32, Arc<str>)> = self
            .suspects
            .lock()
            .iter()
            .filter(|(_, k)| **k == SuspectKind::Tombstone)
            .map(|((id, n), _)| (*id, n.clone()))
            .collect();
        for (id, name) in tombstones {
            if matches!(
                self.members[id as usize].remove(&name),
                Ok(()) | Err(StorageError::NotFound { .. })
            ) {
                self.suspects.lock().remove(&(id, name));
                report.tombstones_cleared += 1;
            }
        }
    }

    /// Ensures every member has the container object and that no physical
    /// length exceeds the logical one (a replica that missed a shrinking
    /// truncate would otherwise leak its stale tail into a remount's
    /// re-derived length). Returns false if a repair failed.
    fn repair_containers(&self, name: &Arc<str>, len: u64, report: &mut ScrubReport) -> bool {
        let mut clean = true;
        for (id, store) in self.each_member() {
            match store.len(name) {
                Ok(phys) if phys > len => {
                    if store.truncate(name, len).is_ok() {
                        report.repaired += 1;
                    } else {
                        clean = false;
                    }
                }
                Ok(_) => {}
                Err(StorageError::NotFound { .. }) => {
                    if store.create(name).is_ok() {
                        // The recreated container is empty, hence stale for
                        // every unit: suspect it so the digest vote cannot
                        // prefer its zeros even where it is primary.
                        self.note_suspect(id, name, SuspectKind::Resync);
                        report.repaired += 1;
                    } else {
                        clean = false;
                    }
                }
                Err(_) => clean = false, // member unreachable
            }
        }
        clean
    }

    /// Digest-compares (and repairs) the replicas on `chain` of the unit at
    /// `[pos, pos + window)`. Returns true when the replicas are in sync
    /// afterwards.
    fn scrub_unit(
        &self,
        name: &Arc<str>,
        pos: u64,
        window: usize,
        chain: &[u32],
        report: &mut ScrubReport,
    ) -> bool {
        let n = chain.len();
        if window == 0 || n == 0 {
            return true;
        }
        let suspect: Vec<bool> = {
            let suspects = self.suspects.lock();
            chain
                .iter()
                .map(|&id| suspects.contains_key(&(id, name.clone())))
                .collect()
        };
        // Read every replica's window, zero-padded to the logical extent
        // (physical lengths legitimately differ between owners of different
        // unit sets; padding normalizes that).
        let mut copies: Vec<Option<Vec<u8>>> = Vec::with_capacity(n);
        let mut digests: Vec<Option<Digest>> = Vec::with_capacity(n);
        for &id in chain {
            let mut buf = vec![0u8; window];
            match self.members[id as usize].read_into(name, pos, &mut buf) {
                Ok(_) => {
                    digests.push(Some(sha256(&buf)));
                    copies.push(Some(buf));
                }
                Err(_) => {
                    digests.push(None);
                    copies.push(None);
                }
            }
        }
        // Majority vote among readable, non-suspect replicas; fall back to
        // any readable replica (chain order breaks ties in both passes).
        let good = Self::pick_good(&digests, &suspect);
        let Some(good) = good else {
            report.mismatches += n as u64;
            report.unreadable_units += 1;
            return false;
        };
        let good_digest = digests[good].expect("good replica is readable");
        let good_bytes = copies[good].as_ref().expect("good replica is readable");
        let mut in_sync = true;
        for (k, &id) in chain.iter().enumerate() {
            if k == good || digests[k] == Some(good_digest) {
                continue;
            }
            report.mismatches += 1;
            let store = &self.members[id as usize];
            let repaired = match store.write_at(name, pos, good_bytes) {
                Ok(()) => true,
                Err(StorageError::NotFound { .. }) => {
                    store.create(name).is_ok() && store.write_at(name, pos, good_bytes).is_ok()
                }
                Err(_) => false,
            };
            if repaired {
                report.repaired += 1;
            } else {
                in_sync = false;
            }
        }
        in_sync
    }

    /// Index of the replica to repair from: the digest with the most votes
    /// among readable non-suspect replicas (ties → lowest chain position),
    /// falling back to the first readable replica of any standing.
    fn pick_good(digests: &[Option<Digest>], suspect: &[bool]) -> Option<usize> {
        let votes = |d: &Digest, trusted_only: bool| {
            digests
                .iter()
                .zip(suspect)
                .filter(|(dig, &s)| dig.as_ref() == Some(d) && (!trusted_only || !s))
                .count()
        };
        let candidate = |trusted_only: bool| {
            let mut best: Option<(usize, usize)> = None; // (votes, index)
            for (k, d) in digests.iter().enumerate() {
                let Some(d) = d else { continue };
                if trusted_only && suspect[k] {
                    continue;
                }
                let v = votes(d, trusted_only);
                if best.is_none_or(|(bv, _)| v > bv) {
                    best = Some((v, k));
                }
            }
            best.map(|(_, k)| k)
        };
        candidate(true).or_else(|| candidate(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamassu_storage::{DedupStore, FaultyStore, StorageProfile};

    fn dedup_members(n: usize) -> Vec<Arc<DedupStore>> {
        (0..n)
            .map(|_| Arc::new(DedupStore::new(512, StorageProfile::instant())))
            .collect()
    }

    fn routed(n: usize, r: usize, unit: u64) -> RoutedStore<DedupStore> {
        RoutedStore::new(dedup_members(n), DistConfig::new(r).unit(unit))
    }

    fn faulty_cluster(n: usize, r: usize, unit: u64) -> RoutedStore<FaultyStore> {
        let members: Vec<Arc<FaultyStore>> = (0..n)
            .map(|_| {
                Arc::new(FaultyStore::new(Arc::new(DedupStore::new(
                    512,
                    StorageProfile::instant(),
                ))))
            })
            .collect();
        RoutedStore::new(members, DistConfig::new(r).unit(unit))
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    fn read_all(store: &impl ObjectStore, name: &str) -> Vec<u8> {
        let len = store.len(name).unwrap() as usize;
        let mut buf = vec![0u8; len];
        assert_eq!(store.read_into(name, 0, &mut buf).unwrap(), len);
        buf
    }

    #[test]
    fn roundtrip_across_unit_boundaries() {
        let r = routed(4, 2, 256);
        r.create("f").unwrap();
        let data = pattern(3000, 7);
        r.write_at("f", 100, &data).unwrap();
        assert_eq!(r.len("f").unwrap(), 3100);
        let all = read_all(&r, "f");
        assert_eq!(&all[..100], &[0u8; 100], "hole is zero-filled");
        assert_eq!(&all[100..], &data[..]);
        // Interior re-read straddling several unit boundaries.
        let mut mid = vec![0u8; 700];
        assert_eq!(r.read_into("f", 400, &mut mid).unwrap(), 700);
        assert_eq!(&mid[..], &all[400..1100]);
        // Reads at and past the end clamp to zero bytes.
        let mut tail = [1u8; 16];
        assert_eq!(r.read_into("f", 3100, &mut tail).unwrap(), 0);
        assert!(r.exists("f"));
        assert_eq!(r.list(), vec!["f".to_string()]);
    }

    #[test]
    fn block_range_stripes_across_all_members() {
        let members = dedup_members(4);
        let r = RoutedStore::new(members.clone(), DistConfig::new(1).unit(64));
        r.create("wide").unwrap();
        r.write_at("wide", 0, &pattern(64 * 40, 9)).unwrap();
        // Every member holds the container; with 40 units over 4 members,
        // every member should own at least one unit (hold real bytes).
        for m in &members {
            assert!(m.exists("wide"));
            assert!(m.len("wide").unwrap() > 0, "member owns no unit");
        }
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let r = routed(3, 2, 100);
        r.create("t").unwrap();
        r.write_at("t", 0, &pattern(950, 4)).unwrap();
        r.truncate("t", 300).unwrap();
        assert_eq!(r.len("t").unwrap(), 300);
        assert_eq!(read_all(&r, "t"), pattern(950, 4)[..300].to_vec());
        r.truncate("t", 500).unwrap();
        assert_eq!(r.len("t").unwrap(), 500);
        let all = read_all(&r, "t");
        assert_eq!(&all[..300], &pattern(950, 4)[..300]);
        assert_eq!(&all[300..], &[0u8; 200], "extension is zero-filled");
        // Shrinking caps every member's physical length: a remount (fresh
        // meta) must re-derive exactly 300 after truncating back.
        r.truncate("t", 300).unwrap();
        for id in 0..r.backends() as u32 {
            assert!(r.member_store(id).unwrap().len("t").unwrap_or(0) <= 300);
        }
    }

    #[test]
    fn rename_moves_data_and_replaces_target() {
        let r = routed(3, 2, 128);
        r.create("src").unwrap();
        r.write_at("src", 0, &pattern(700, 5)).unwrap();
        r.create("dst").unwrap();
        r.write_at("dst", 0, b"old target").unwrap();
        r.rename("src", "dst").unwrap();
        assert!(!r.exists("src"));
        assert_eq!(read_all(&r, "dst"), pattern(700, 5));
        assert!(matches!(
            r.rename("missing", "x"),
            Err(StorageError::NotFound { .. })
        ));
    }

    #[test]
    fn reads_fail_over_when_a_member_dies() {
        let r = faulty_cluster(3, 2, 64);
        r.create("f").unwrap();
        let data = pattern(64 * 30, 6);
        r.write_at("f", 0, &data).unwrap();
        // Power off member 0 entirely.
        let victim = r.member_store(0).unwrap();
        victim.crash_after_reads(0);
        let mut buf = [0u8; 1];
        let _ = victim.read_into("f", 0, &mut buf); // fire the crash
        assert!(victim.has_crashed());
        assert_eq!(read_all(&r, "f"), data, "reads must survive via replicas");
        let stats = r.stats();
        assert!(
            stats.read_failovers > 0,
            "member 0 owns some primaries over 30 units: {stats:?}"
        );
        // Recovery: disarm, scrub. No data diverged (reads only), so the
        // suspect entries clear and nothing needs rewriting.
        victim.disarm();
        let report = r.scrub();
        assert_eq!(report.mismatches, 0, "{report:?}");
        assert_eq!(r.suspects_pending(), 0);
    }

    #[test]
    fn degraded_write_is_repaired_by_scrub() {
        let r = faulty_cluster(2, 2, 128);
        r.create("f").unwrap();
        r.write_at("f", 0, &pattern(1024, 1)).unwrap();
        let stale = r.member_store(1).unwrap();
        stale.crash_after_writes(0);
        let fresh_data = pattern(1024, 2);
        r.write_at("f", 0, &fresh_data).unwrap(); // degraded: member 1 missed it
        assert!(r.stats().degraded_writes > 0);
        assert!(r.suspects_pending() > 0);
        assert_eq!(read_all(&r, "f"), fresh_data);
        // Member 1 comes back with stale bytes; scrub must trust member 0
        // (member 1 is suspect) and rewrite, even where 1 is the primary.
        stale.disarm();
        let report = r.scrub();
        assert!(report.mismatches > 0, "{report:?}");
        assert!(report.repaired >= report.mismatches, "{report:?}");
        assert_eq!(r.suspects_pending(), 0);
        for id in 0..r.backends() as u32 {
            let m = r.member_store(id).unwrap();
            assert_eq!(
                read_all(m.as_ref(), "f"),
                fresh_data,
                "member {id} diverges after scrub"
            );
        }
        let second = r.scrub();
        assert_eq!(second.mismatches, 0, "second pass must be clean");
    }

    #[test]
    fn majority_outvotes_a_corrupt_primary() {
        // One unit larger than the data: all three members own all of it.
        let members = dedup_members(3);
        let r = RoutedStore::new(members.clone(), DistConfig::new(3).unit(1 << 20));
        r.create("f").unwrap();
        let data = pattern(600, 8);
        r.write_at("f", 0, &data).unwrap();
        // Bit-rot on the *primary*: no suspect marking, so only the digest
        // majority (the two clean secondaries) can identify the bad copy.
        let primary = r.replica_ids("f", 0)[0];
        r.member_store(primary)
            .unwrap()
            .write_at("f", 77, b"CORRUPTION")
            .unwrap();
        let report = r.scrub();
        assert_eq!(report.mismatches, 1, "{report:?}");
        assert_eq!(report.repaired, 1, "{report:?}");
        assert_eq!(read_all(&r, "f"), data);
        for m in &members {
            assert_eq!(read_all(m.as_ref(), "f"), data);
        }
    }

    #[test]
    fn scrub_recreates_a_lost_replica_byte_for_byte() {
        let members = dedup_members(2);
        let r = RoutedStore::new(members.clone(), DistConfig::new(2).unit(128));
        r.create("f").unwrap();
        let data = pattern(1000, 3);
        r.write_at("f", 0, &data).unwrap();
        // Replica loss: member 1's media loses the whole container.
        members[1].remove("f").unwrap();
        let report = r.scrub();
        assert!(report.repaired > 0, "{report:?}");
        assert_eq!(read_all(members[1].as_ref(), "f"), data);
        assert_eq!(r.scrub().mismatches, 0);
    }

    #[test]
    fn tombstone_blocks_resurrection_by_a_lagging_member() {
        let r = faulty_cluster(2, 2, 256);
        r.create("ghost").unwrap();
        r.write_at("ghost", 0, &pattern(300, 1)).unwrap();
        let lagging = r.member_store(1).unwrap();
        lagging.crash_after_writes(0);
        let _ = r.write_at("ghost", 0, &pattern(300, 2)); // fires the crash
        r.remove("ghost").unwrap(); // member 1 misses the removal
        assert!(!r.exists("ghost"));
        lagging.disarm();
        // Member 1 still holds the object, but the tombstone must stop the
        // length probe from resurrecting it.
        assert!(lagging.exists("ghost"));
        assert!(!r.exists("ghost"));
        assert!(matches!(r.len("ghost"), Err(StorageError::NotFound { .. })));
        assert!(r.list().is_empty());
        let report = r.scrub();
        assert!(report.tombstones_cleared > 0, "{report:?}");
        assert!(!lagging.exists("ghost"), "scrub purges the stale copy");
        assert_eq!(r.suspects_pending(), 0);
        // The name is reusable after the tombstone clears.
        r.create("ghost").unwrap();
        assert_eq!(r.len("ghost").unwrap(), 0);
    }

    #[test]
    fn accounting_sums_counters_and_takes_the_busiest_members_io_time() {
        let members: Vec<Arc<DedupStore>> = (0..2)
            .map(|_| Arc::new(DedupStore::new(512, StorageProfile::nfs_1gbe())))
            .collect();
        let r = RoutedStore::new(members.clone(), DistConfig::new(1).unit(512));
        r.create("f").unwrap();
        r.write_at("f", 0, &pattern(512 * 16, 3)).unwrap();
        let _ = read_all(&r, "f");
        let agg = r.io_counters();
        let per_member: Vec<IoCounters> = members.iter().map(|m| m.io_counters()).collect();
        assert_eq!(agg, IoCounters::sum(per_member.iter().copied()));
        assert!(agg.write_ops > 0 && agg.read_ops > 0);
        let max_member = members.iter().map(|m| m.io_time()).max().unwrap();
        assert_eq!(
            r.io_time(),
            max_member,
            "routed io_time is the busiest member (independent servers)"
        );
        assert!(r.io_time() > Duration::ZERO);
        r.reset_io_accounting();
        assert_eq!(r.io_counters(), IoCounters::default());
    }

    #[test]
    fn profiler_charges_route_category() {
        let profiler = Profiler::new();
        let r = routed(2, 2, 256).with_profiler(profiler.clone());
        r.create("f").unwrap();
        r.write_at("f", 0, &pattern(4096, 1)).unwrap();
        let _ = read_all(&r, "f");
        let breakdown = profiler.breakdown(Duration::from_secs(1));
        assert!(
            breakdown.route > Duration::ZERO,
            "routing time must land in Category::Route"
        );
    }

    #[test]
    fn replication_clamps_to_membership_size() {
        // R = 3 over two members, on one unit larger than the data: both
        // members own it, and both hold every byte.
        let members = dedup_members(2);
        let r = RoutedStore::new(members.clone(), DistConfig::new(3).unit(1 << 20));
        r.create("f").unwrap();
        r.write_at("f", 0, b"both").unwrap();
        assert_eq!(r.replica_ids("f", 0).len(), 2);
        for m in &members {
            assert_eq!(read_all(m.as_ref(), "f"), b"both");
        }
    }

    /// Placement is a function of std's `DefaultHasher`, which Rust does not
    /// promise to keep across releases. Every existing volume on a routed
    /// stack is laid out by these chains: if this test fails, the hasher
    /// moved and such volumes no longer read back.
    #[test]
    fn placement_is_pinned() {
        let r = RoutedStore::new(dedup_members(3), DistConfig::new(2));
        let pinned: [(&str, u64, [u32; 2]); 8] = [
            ("f", 0, [2, 1]),
            ("f", 1 << 20, [1, 0]),
            ("f", (7 << 20) + 5, [1, 2]),
            ("data.bin", 3 << 20, [1, 0]),
            ("/a/b.bin", 0, [1, 2]),
            ("zipf-000", 2 << 20, [2, 1]),
            ("x", 9 << 20, [2, 1]),
            ("lamassu.meta", 0, [0, 2]),
        ];
        for (name, offset, chain) in pinned {
            assert_eq!(r.replica_ids(name, offset), chain, "{name} @ {offset}");
        }
    }

    /// Scriptable [`HealthGate`] for tests: deny-listed members are
    /// rejected; members in `reclose_on_success` report [`HealthEvent::Reclosed`]
    /// on their next successful attempt (once).
    #[derive(Default)]
    struct TestGate {
        denied: Mutex<std::collections::HashSet<u32>>,
        reclose_on_success: Mutex<std::collections::HashSet<u32>>,
    }

    impl HealthGate for TestGate {
        fn allow(&self, member: u32) -> bool {
            !self.denied.lock().contains(&member)
        }

        fn record(&self, member: u32, ok: bool) -> HealthEvent {
            if ok && self.reclose_on_success.lock().remove(&member) {
                HealthEvent::Reclosed
            } else {
                HealthEvent::None
            }
        }
    }

    #[test]
    fn open_gate_skips_member_on_reads_and_writes() {
        let members = dedup_members(3);
        let gate = Arc::new(TestGate::default());
        let r = RoutedStore::new(members.clone(), DistConfig::new(2).unit(64))
            .with_health_gate(gate.clone());
        r.create("f").unwrap();
        let data = pattern(64 * 24, 5);
        r.write_at("f", 0, &data).unwrap();

        gate.denied.lock().insert(0);

        // Reads skip member 0 wherever it is in a chain and serve off the
        // other replica instead — no client-visible error.
        assert_eq!(read_all(&r, "f"), data);
        let stats = r.stats();
        assert!(stats.breaker_skips > 0, "{stats:?}");
        assert_eq!(stats.read_failovers, 0, "skips are not failovers");

        // Writes skip member 0 too: degraded, member 0 marked suspect.
        let fresh = pattern(64 * 24, 6);
        r.write_at("f", 0, &fresh).unwrap();
        let stats = r.stats();
        assert!(stats.degraded_writes > 0, "{stats:?}");
        assert!(r.suspects_pending() > 0);
        assert_eq!(read_all(&r, "f"), fresh);

        // Member 0 readmitted: scrub resyncs the writes it missed.
        gate.denied.lock().clear();
        let report = r.scrub();
        assert!(report.repaired > 0, "{report:?}");
        assert_eq!(r.suspects_pending(), 0);
        assert_eq!(r.scrub().mismatches, 0);
    }

    #[test]
    fn gate_rejecting_everyone_falls_back_to_serving_anyway() {
        let gate = Arc::new(TestGate::default());
        let r = routed(2, 2, 128).with_health_gate(gate.clone());
        r.create("f").unwrap();
        let data = pattern(512, 9);
        r.write_at("f", 0, &data).unwrap();
        gate.denied.lock().extend([0u32, 1]);
        // Every owner's breaker is open, but refusing service would turn a
        // health precaution into an outage: the fallback pass serves it.
        assert_eq!(read_all(&r, "f"), data);
        let fresh = pattern(512, 10);
        r.write_at("f", 0, &fresh).unwrap();
        assert_eq!(read_all(&r, "f"), fresh);
        assert!(r.stats().breaker_skips > 0);
    }

    #[test]
    fn reclosed_gate_queues_targeted_scrub_that_resyncs_the_member() {
        let members = dedup_members(2);
        let gate = Arc::new(TestGate::default());
        let r = RoutedStore::new(members.clone(), DistConfig::new(2).unit(128))
            .with_health_gate(gate.clone());
        r.create("f").unwrap();
        r.write_at("f", 0, &pattern(1024, 1)).unwrap();

        gate.denied.lock().insert(1);
        let fresh = pattern(1024, 2);
        r.write_at("f", 0, &fresh).unwrap(); // member 1 skipped: degraded
        assert!(r.suspects_pending() > 0);

        // Member 1 recovers; its next successful attempt recloses the gate,
        // which queues a targeted scrub of exactly that member. (Until that
        // scrub runs, units where the stale member is primary still serve
        // its old bytes — content is only asserted after the resync.)
        gate.denied.lock().clear();
        gate.reclose_on_success.lock().insert(1);
        let _ = read_all(&r, "f");
        let pending = r.take_probe_scrub_requests();
        assert_eq!(pending, vec![1]);
        assert!(r.take_probe_scrub_requests().is_empty(), "drained");

        let report = r.scrub_member(1);
        assert!(report.repaired > 0, "{report:?}");
        assert_eq!(r.stats().probe_scrubs, 1);
        assert_eq!(r.suspects_pending(), 0);
        assert_eq!(read_all(members[1].as_ref(), "f"), fresh);
        assert_eq!(read_all(&r, "f"), fresh);
        assert_eq!(r.scrub().mismatches, 0);
    }

    #[test]
    fn scrub_member_ignores_unknown_ids() {
        let r = routed(2, 2, 128);
        r.create("f").unwrap();
        r.write_at("f", 0, &pattern(256, 1)).unwrap();
        let report = r.scrub_member(99);
        assert_eq!(report, ScrubReport::default());
        assert_eq!(r.stats().probe_scrubs, 0);
    }

    #[test]
    fn successful_read_clears_probation_without_a_scrub() {
        let r = faulty_cluster(2, 2, 64);
        r.create("f").unwrap();
        let data = pattern(64 * 8, 4);
        r.write_at("f", 0, &data).unwrap();
        // Member 0 refuses reads for a while: every unit read fails over,
        // putting (0, "f") on probation.
        let flaky = r.member_store(0).unwrap();
        flaky.crash_after_reads(0);
        assert_eq!(read_all(&r, "f"), data);
        assert_eq!(r.suspects_pending(), 1);
        assert!(r.stats().read_failovers > 0);
        // It comes back; the next successful read disproves the suspicion
        // inline — no scrub needed.
        flaky.disarm();
        assert_eq!(read_all(&r, "f"), data);
        assert_eq!(r.suspects_pending(), 0);
        assert!(r.stats().suspects_cleared_inline > 0);
    }

    #[test]
    fn missed_write_resync_is_not_cleared_by_a_read() {
        let r = faulty_cluster(2, 2, 128);
        r.create("f").unwrap();
        r.write_at("f", 0, &pattern(512, 1)).unwrap();
        let stale = r.member_store(1).unwrap();
        stale.crash_after_writes(0);
        let fresh = pattern(512, 2);
        r.write_at("f", 0, &fresh).unwrap(); // member 1 misses it: Resync
        stale.disarm();
        // Reads succeed off member 0 (and maybe member 1 where it is
        // primary and stale — the chain serves *some* copy), but a read
        // success must never clear a missed-write suspicion.
        let _ = read_all(&r, "f");
        assert!(r.suspects_pending() > 0, "Resync survives reads");
        let report = r.scrub();
        assert!(report.repaired > 0, "{report:?}");
        assert_eq!(r.suspects_pending(), 0);
    }

    #[test]
    fn create_conflicts_and_missing_objects_error() {
        let r = routed(2, 1, 128);
        r.create("f").unwrap();
        assert!(matches!(
            r.create("f"),
            Err(StorageError::AlreadyExists { .. })
        ));
        assert!(matches!(
            r.write_at("nope", 0, b"x"),
            Err(StorageError::NotFound { .. })
        ));
        let mut buf = [0u8; 4];
        assert!(matches!(
            r.read_into("nope", 0, &mut buf),
            Err(StorageError::NotFound { .. })
        ));
        assert!(matches!(
            r.remove("nope"),
            Err(StorageError::NotFound { .. })
        ));
    }
}
