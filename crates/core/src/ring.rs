//! The Ring ORAM engine with CB, IR, DR, NS and AB support.
//!
//! One engine implements the whole family: the scheme is expressed through
//! the tree geometry (per-level `Z'`/`S`/`Y`/extension) built by
//! [`OramConfig::geometry`], plus the DeadQ/remote-allocation machinery that
//! activates on levels with a dynamic extension.
//!
//! ## Protocol summary (§III-B, §V)
//!
//! * **readPath** — metadata fetch for every bucket on the target's path,
//!   then one block read per bucket: the target's slot in one bucket,
//!   a random valid dummy elsewhere (a *green* block from the `Z'` portion
//!   once reserved dummies run out, per CB). Every read invalidates its
//!   slot (`markDEAD`); dead slots on tracked levels are gathered into the
//!   level's DeadQ (`gatherDEADs`).
//! * **evictPath** — every `A` accesses, on the next reverse-lexicographic
//!   path: pull valid real blocks into the stash, then rebuild each bucket
//!   leaf-first from matching stash blocks and write all slots back.
//! * **earlyReshuffle** — same rebuild for a single bucket that exhausted
//!   its dummy budget (`count ≥ dynamicS + Y`).
//! * **remote allocation (DR)** — at rebuild time on extension levels, the
//!   bucket borrows up to `r` reclaimed dead slots from the DeadQ as extra
//!   reserved-dummy space, raising `dynamicS` back to the baseline budget.
//! * **background eviction (CB)** — dummy accesses are injected while stash
//!   occupancy exceeds the threshold, driving extra evictPaths.
//!
//! ## Remote-allocation semantics (disambiguation, see DESIGN.md)
//!
//! Remote (borrowed) slots hold **reserved dummies only**; real blocks
//! always live in a bucket's own physical slots. A level's slot economy is
//! zero-sum under exclusive lending (`Σ borrowed = Σ lent`), so the paper's
//! "+2 dummy budget for every bucket" is only realizable if home buckets
//! keep rewriting their own slots and borrowed slots are *shared* dead
//! space: the home may reclaim a lent slot at its own reshuffle, silently
//! invalidating the borrower's remote dummy — harmless, since dummy content
//! is never interpreted. A DeadQ entry is validated against the home
//! bucket's slot status at dequeue time (the status query the paper folds
//! into the metadata access, §VI-A); stale entries are discarded.

use crate::config::{OramConfig, DEADQ_LEVELS, EVICT_RATE_A, RELOCS_PER_ACCESS};
use crate::deadq::DeadQueues;
use crate::error::OramError;
use crate::fault::{FaultSite, BACKOFF_BASE_CYCLES, MAX_FAULT_RETRIES, REDUNDANT_REFETCHES};
use crate::growth::{extend_label, DynamicTree};
use crate::integrity::IntegrityVerifier;
use crate::metadata::{nth_set_bit, MetadataStore, RealEntry, SlotStatus};
use crate::posmap::PositionMap;
use crate::sink::{MemorySink, OramOp};
use crate::stash::{EvictionPlan, Held, Pick, Stash};
use crate::stats::OramStats;
use crate::{BlockId, BLOCK_BYTES};
use aboram_crypto::{BlockCipher, SealedBlock};
use aboram_stats::HealthState;
use aboram_telemetry::{self as telemetry, Phase};
use aboram_tree::{
    reverse_lex_path, BucketId, Level, PathId, PhysicalLayout, SlotAddr, TreeGeometry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// In-stash payload rewrite hook for managed accesses: runs on the target
/// block's plaintext between the fetch and any later eviction, making the
/// whole read-modify-write a single indistinguishable access.
pub type PayloadMutator<'a> = dyn FnMut(&mut [u8; BLOCK_BYTES]) + 'a;

/// Direction of a user access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Fetch a block's contents.
    Read,
    /// Overwrite a block's contents.
    Write,
}

/// Optional encrypted backing store for block contents.
#[derive(Debug, Clone, PartialEq)]
struct DataStore {
    cipher: BlockCipher,
    slots: Vec<SealedBlock>,
    counters: Vec<u64>,
}

impl DataStore {
    fn new(layout: &PhysicalLayout, seed: u64) -> Self {
        let n = (layout.data_bytes() / BLOCK_BYTES as u64) as usize;
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..16].copy_from_slice(&(!seed).to_le_bytes());
        let cipher = BlockCipher::new(key);
        let mut store =
            DataStore { cipher, slots: vec![SealedBlock::default(); n], counters: vec![0; n] };
        let zero = [0u8; BLOCK_BYTES];
        for i in 0..n {
            store.write_index(i, &zero);
        }
        store
    }

    fn index(addr: SlotAddr) -> usize {
        (addr.byte() / BLOCK_BYTES as u64) as usize
    }

    fn write(&mut self, addr: SlotAddr, plain: &[u8; BLOCK_BYTES]) {
        self.write_index(Self::index(addr), plain);
    }

    fn write_index(&mut self, i: usize, plain: &[u8; BLOCK_BYTES]) {
        self.counters[i] += 1;
        self.slots[i] = self.cipher.seal(plain, i as u64 * BLOCK_BYTES as u64, self.counters[i]);
    }

    fn read(&self, addr: SlotAddr) -> Result<[u8; BLOCK_BYTES], OramError> {
        let i = Self::index(addr);
        self.cipher
            .open(&self.slots[i], i as u64 * BLOCK_BYTES as u64, self.counters[i])
            .map_err(|e| OramError::DataIntegrity { address: e.address })
    }

    /// Extends the store to cover a grown layout. Growth extents live past
    /// the old high-water mark, so the index space now spans the whole
    /// byte range; the gap indexes (metadata bytes) stay zero-sealed and
    /// unused.
    fn grow_to(&mut self, layout: &PhysicalLayout) {
        let n = (layout.total_bytes() / BLOCK_BYTES as u64) as usize;
        if n <= self.slots.len() {
            return;
        }
        let old = self.slots.len();
        self.slots.resize(n, SealedBlock::default());
        self.counters.resize(n, 0);
        let zero = [0u8; BLOCK_BYTES];
        for i in old..n {
            self.write_index(i, &zero);
        }
    }
}

/// Per-access scratch buffers, held on the engine so the hot path reuses
/// one allocation per buffer instead of reallocating every access.
///
/// Each user takes its buffer with `std::mem::take`, works on the owned
/// `Vec`, and stores it back when done — so a reentrant call (readPath →
/// evictPath → rebuild) simply sees an empty buffer and allocates afresh,
/// never aliasing an in-use one. Contents never survive across uses (every
/// taker clears first), so the buffers carry no protocol state.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// readPath's path bucket list.
    path_buckets: Vec<BucketId>,
    /// evictPath's path bucket list.
    evict_buckets: Vec<BucketId>,
    /// rebuild read phase: logical slots to read for one bucket.
    read_slots: Vec<u8>,
    /// rebuild read phase: batched physical read addresses for one bucket.
    read_addrs: Vec<SlotAddr>,
    /// rebuild read phase: resolved physical slots for the address batch.
    phys_slots: Vec<aboram_tree::SlotId>,
    /// rebuild read phase: one bucket's valid real entries.
    entries: Vec<RealEntry>,
    /// rebuild: the blocks read off the rebuilt buckets, held beside the
    /// stash until a bucket takes them or the rebuild ends.
    held: Held,
    /// rebuild refill: which stash or held blocks go to which rebuilt
    /// bucket.
    plan: EvictionPlan,
    /// rebuild refill: the slot permutation.
    slots: Vec<u8>,
    /// rebuild refill: (slot, payload) of each placed block, for the write
    /// phase of an engine with a data path (never allocated without one).
    placed: Vec<(u8, [u8; BLOCK_BYTES])>,
}

#[cfg(test)]
impl Scratch {
    /// Address and capacity of every scratch buffer, the placed payloads
    /// last.
    fn buffers(&self) -> Vec<(usize, usize)> {
        use crate::buffer_of as of;
        let mut all = vec![
            of(&self.path_buckets),
            of(&self.evict_buckets),
            of(&self.read_slots),
            of(&self.read_addrs),
            of(&self.phys_slots),
            of(&self.entries),
            of(&self.slots),
        ];
        all.extend(self.plan.buffers());
        all.push(of(&self.placed));
        all
    }
}

/// The Ring ORAM engine (see module docs).
#[derive(Debug, Clone)]
pub struct RingOram {
    cfg: OramConfig,
    geo: TreeGeometry,
    layout: PhysicalLayout,
    posmap: PositionMap,
    meta: MetadataStore,
    stash: Stash,
    deadqs: DeadQueues,
    /// Auto-scaling controller: growth epochs plus the relocation backlog.
    dynamic: DynamicTree,
    rng: StdRng,
    data: Option<DataStore>,
    reads_since_evict: u8,
    evict_counter: u64,
    stats: OramStats,
    remote_enabled: bool,
    scratch: Scratch,
    /// Armed by [`enable_integrity`](Self::enable_integrity); `None` keeps
    /// the engine bit-identical to the pre-integrity builds.
    integrity: Option<IntegrityVerifier>,
    /// Set when the recovery ladder requests an escalated path eviction; it
    /// runs at the next safe protocol boundary (the end of the access).
    pending_escalation: bool,
}

/// Engines compare by value: every field that carries protocol state is
/// compared, the `Scratch` buffers are not (their contents never outlive
/// an access). Two engines that ran the same history compare equal, so `==`
/// is the differential tests' oracle for "this knob moved no protocol
/// state" — the data store and an armed verifier included.
impl PartialEq for RingOram {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so a new field cannot be forgotten here.
        let RingOram {
            cfg,
            geo,
            layout,
            posmap,
            meta,
            stash,
            deadqs,
            dynamic,
            rng,
            data,
            reads_since_evict,
            evict_counter,
            stats,
            remote_enabled,
            scratch: _,
            integrity,
            pending_escalation,
        } = self;
        *cfg == other.cfg
            && *geo == other.geo
            && *layout == other.layout
            && *posmap == other.posmap
            && *meta == other.meta
            && *stash == other.stash
            && *deadqs == other.deadqs
            && *dynamic == other.dynamic
            && *rng == other.rng
            && *data == other.data
            && *reads_since_evict == other.reads_since_evict
            && *evict_counter == other.evict_counter
            && *stats == other.stats
            && *remote_enabled == other.remote_enabled
            && *integrity == other.integrity
            && *pending_escalation == other.pending_escalation
    }
}

impl RingOram {
    /// Builds an engine: allocates the tree, initializes metadata, maps and
    /// bulk-loads every protected block onto its random path.
    ///
    /// # Errors
    ///
    /// Propagates configuration/geometry errors.
    pub fn new(cfg: &OramConfig) -> Result<Self, OramError> {
        let geo = cfg.geometry()?;
        let layout = PhysicalLayout::new(&geo);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let blocks = cfg.real_block_count();
        let posmap = PositionMap::new_random(blocks, geo.leaf_count(), &mut rng);
        let mut meta = MetadataStore::new(&geo);
        let stash = Stash::new(cfg.stash_capacity, cfg.levels, cfg.store_data);
        let deadqs = DeadQueues::new(cfg.levels, DEADQ_LEVELS, cfg.deadq_capacity);
        let remote_enabled = cfg.scheme.uses_remote_allocation();

        // Initialize every bucket to its freshly-reshuffled state.
        for raw in 0..geo.bucket_count() {
            let bucket = BucketId::new(raw);
            let own = geo.level_config(bucket.level()).z_total();
            let m = meta.get_mut(bucket);
            m.logical_slots = own;
            m.set_all_valid(own);
            m.dynamic_s = own - own.min(geo.level_config(bucket.level()).z_real);
        }

        let mut engine = RingOram {
            cfg: cfg.clone(),
            geo,
            layout,
            posmap,
            meta,
            stash,
            deadqs,
            dynamic: DynamicTree::new(),
            data: None,
            rng,
            reads_since_evict: 0,
            evict_counter: 0,
            stats: OramStats::new(cfg.levels, cfg.track_lifetimes),
            remote_enabled,
            scratch: Scratch::default(),
            integrity: None,
            pending_escalation: false,
        };
        engine.bulk_load()?;
        if cfg.store_data {
            engine.data = Some(DataStore::new(&engine.layout, cfg.seed));
        }
        Ok(engine)
    }

    /// Places every block into the deepest bucket on its path with a free
    /// real slot; overflow lands in the stash.
    fn bulk_load(&mut self) -> Result<(), OramError> {
        let levels = self.geo.levels();
        for block in 0..self.posmap.len() {
            let label = self.posmap.path_of(block);
            let mut placed = false;
            for l in (0..levels).rev() {
                let bucket = self.geo.bucket_on_path(label, Level(l));
                let cap = self.geo.level_config(Level(l)).z_real;
                let m = self.meta.get_mut(bucket);
                if m.entries().len() < usize::from(cap.min(m.logical_slots)) {
                    // Pick a random free logical slot for the block.
                    let free = m.unoccupied_mask();
                    let n = free.count_ones() as usize;
                    let ptr = nth_set_bit(free, self.rng.gen_range(0..n));
                    m.push_entry(RealEntry { addr: block, label, ptr });
                    placed = true;
                    break;
                }
            }
            if !placed {
                self.stash.insert(block, label, &[0; BLOCK_BYTES]);
                if self.stash.overflowed() {
                    return Err(OramError::StashOverflow { capacity: self.stash.capacity() });
                }
            }
        }
        Ok(())
    }

    /// The configuration in force.
    pub fn config(&self) -> &OramConfig {
        &self.cfg
    }

    /// The tree geometry in force.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geo
    }

    /// Protocol statistics collected so far.
    pub fn stats(&self) -> &OramStats {
        &self.stats
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Peak stash occupancy observed.
    pub fn stash_peak(&self) -> usize {
        self.stash.peak()
    }

    /// The DeadQ state (for harness inspection).
    pub fn deadqs(&self) -> &DeadQueues {
        &self.deadqs
    }

    /// Arms integrity verification: every off-chip fetch from here on
    /// re-derives its per-bucket MAC tag and folds it into the Merkle-style
    /// per-level digest chain, and fault recovery climbs the full ladder
    /// (retry → redundant refetch → escalated eviction → poison + degrade)
    /// instead of aborting with [`OramError::RetriesExhausted`].
    ///
    /// Fault-free behavior is bit-identical with or without the verifier:
    /// verification is pure computation over shadow state (no traffic, no
    /// RNG draws), and its cycle cost is already covered by the crypto
    /// pipeline the timing driver charges per fetched burst.
    pub fn enable_integrity(&mut self) {
        if self.integrity.is_none() {
            self.integrity = Some(IntegrityVerifier::new(self.cfg.seed, self.cfg.levels));
        }
    }

    /// The integrity verifier, when armed.
    pub fn integrity(&self) -> Option<&IntegrityVerifier> {
        self.integrity.as_ref()
    }

    /// Engine health: [`HealthState::Degraded`] once any fault exhausted
    /// the recovery ladder; always `Healthy` without the verifier armed.
    pub fn health(&self) -> HealthState {
        self.integrity.as_ref().map(IntegrityVerifier::health).unwrap_or_default()
    }

    /// Reads `block` through the full ORAM protocol, returning its data.
    ///
    /// # Errors
    ///
    /// Fails when the data path is disabled, the block id is out of range,
    /// or an integrity/overflow fault occurs.
    pub fn read(
        &mut self,
        block: BlockId,
        sink: &mut impl MemorySink,
    ) -> Result<[u8; BLOCK_BYTES], OramError> {
        if self.data.is_none() {
            return Err(OramError::DataPathDisabled);
        }
        self.access(AccessKind::Read, block, None, sink)?
            .ok_or(OramError::Internal { context: "enabled data path returned no block" })
    }

    /// Writes `data` to `block` through the full ORAM protocol.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`read`](Self::read).
    pub fn write(
        &mut self,
        block: BlockId,
        data: [u8; BLOCK_BYTES],
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        if self.data.is_none() {
            return Err(OramError::DataPathDisabled);
        }
        self.access(AccessKind::Write, block, Some(data), sink).map(|_| ())
    }

    /// Performs one user access (protocol only when the data path is off).
    ///
    /// Returns the block's data when the data path is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] for invalid ids and
    /// [`OramError::StashOverflow`] on protocol failure.
    pub fn access(
        &mut self,
        kind: AccessKind,
        block: BlockId,
        new_data: Option<[u8; BLOCK_BYTES]>,
        sink: &mut impl MemorySink,
    ) -> Result<Option<[u8; BLOCK_BYTES]>, OramError> {
        debug_assert!(
            kind == AccessKind::Write || new_data.is_none(),
            "new_data is only meaningful for writes"
        );
        // A write is an overwrite of the fetched contents.
        let mut overwrite = |p: &mut [u8; BLOCK_BYTES]| {
            if let Some(d) = new_data {
                *p = d;
            }
        };
        self.user_access(block, None, &mut overwrite, sink).map(Some)
    }

    /// Warms the protocol state with `accesses` uniform random reads into a
    /// counting sink — the paper's §VII warm-up phase — drawn from a stream
    /// seeded with the engine's seed XOR `salt`, each caller's own.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (stash overflow).
    pub fn warm_up(&mut self, accesses: u64, salt: u64) -> Result<(), OramError> {
        let mut sink = crate::sink::CountingSink::new();
        let blocks = self.block_count();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ salt);
        for _ in 0..accesses {
            self.access(AccessKind::Read, rng.gen_range(0..blocks), None, &mut sink)?;
        }
        Ok(())
    }

    /// Performs one dummy access: a readPath on a uniformly random path
    /// that returns no block. Indistinguishable from a real access on the
    /// bus; used to model recursive position-map fetches and available for
    /// timing-channel padding studies.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn dummy_access(&mut self, sink: &mut impl MemorySink) -> Result<(), OramError> {
        // Its own epilogue, not `user_access`'s: a dummy takes no stash
        // sample, so the occupancy percentiles describe user accesses only.
        self.stats.user_accesses += 1;
        self.read_path(None, None, None, OramOp::ReadPath, sink)?;
        self.background_evict(sink)?;
        if self.pending_escalation {
            self.pending_escalation = false;
            self.escalate_evictions(sink)?;
        }
        self.drain_growth_backlog(sink)?;
        if let Some(v) = &mut self.integrity {
            v.fold_root();
        }
        Ok(())
    }

    /// Current path assignment of `block` — the ground truth an external
    /// position map (e.g. the service layer's recursive posmap) verifies
    /// its stored entries against. Read-only; generates no traffic.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] for invalid ids.
    pub fn position_of(&self, block: BlockId) -> Result<PathId, OramError> {
        if block >= self.posmap.len() {
            return Err(OramError::BlockOutOfRange { block, count: self.posmap.len() });
        }
        Ok(self.posmap.path_of(block))
    }

    /// One full ORAM access with the two managed-access extensions an
    /// external recursive position map needs:
    ///
    /// * the block remaps to the caller-chosen `new_position` (drawn from
    ///   the *caller's* RNG, so the caller can record the new position in a
    ///   parent position-map tree before this access runs) instead of a
    ///   label drawn from the engine RNG, and
    /// * `mutate` rewrites the block's payload in the stash right after the
    ///   fetch — a single-access read-modify-write, which is how a posmap
    ///   block updates one packed entry without a second (pattern-revealing
    ///   and twice-remapping) write access.
    ///
    /// Returns the payload as fetched, i.e. *before* `mutate` ran. Passing
    /// `new_position: None` falls back to the engine's internal remap
    /// draw.
    ///
    /// # Errors
    ///
    /// Fails when the data path is disabled or the block id is out of
    /// range, and propagates protocol errors.
    ///
    /// # Panics
    ///
    /// Panics if `new_position` is outside the tree's leaf range.
    pub fn access_managed(
        &mut self,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
        sink: &mut impl MemorySink,
    ) -> Result<[u8; BLOCK_BYTES], OramError> {
        if self.data.is_none() {
            return Err(OramError::DataPathDisabled);
        }
        self.user_access(block, new_position, mutate, sink)
    }

    /// §VI-C's measurement hook: performs one read access — the same
    /// protocol, stash sample included, as [`access`](Self::access) with
    /// [`AccessKind::Read`] — and reports the tree level that returned the
    /// real block (`None` for stash hits), so an attacker's random guess can
    /// be scored. The level is probed after the access's leading background
    /// eviction, where the block sits when its readPath runs.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] for invalid ids and
    /// propagates protocol errors.
    pub fn access_observed(
        &mut self,
        block: BlockId,
        sink: &mut impl MemorySink,
    ) -> Result<Option<Level>, OramError> {
        if block >= self.posmap.len() {
            return Err(OramError::BlockOutOfRange { block, count: self.posmap.len() });
        }
        self.background_evict(sink)?;
        let served = self.locate_level(block);
        self.user_access(block, None, &mut |_| {}, sink)?;
        Ok(served)
    }

    fn locate_level(&self, block: BlockId) -> Option<Level> {
        let label = self.posmap.path_of(block);
        if self.stash.contains(block, label) {
            return None;
        }
        for bucket in self.geo.path_buckets(label) {
            let m = self.meta.get(bucket);
            if let Some(e) = m.entry_of(block) {
                if m.is_valid(e.ptr) {
                    return Some(bucket.level());
                }
            }
        }
        None
    }

    /// The one body of every user access: the readPath on `block` between
    /// two background-eviction drains, then the access-boundary work —
    /// escalation, the growth drain, the degraded count, the digest root
    /// and the stash sample. `forced_label` and `mutate` are
    /// [`read_path`](Self::read_path)'s. Returns the payload as fetched.
    ///
    /// # Panics
    ///
    /// Panics if `forced_label` is outside the tree's leaf range.
    fn user_access(
        &mut self,
        block: BlockId,
        forced_label: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
        sink: &mut impl MemorySink,
    ) -> Result<[u8; BLOCK_BYTES], OramError> {
        if block >= self.posmap.len() {
            return Err(OramError::BlockOutOfRange { block, count: self.posmap.len() });
        }
        if let Some(p) = forced_label {
            assert!(p.leaf() < self.geo.leaf_count(), "managed remap label out of range");
        }
        // Stall-and-drain: a controller holds new requests while the stash
        // sits above its threshold, so one access never bursts past the
        // hard capacity.
        let recovery_before = self.stats.recovery;
        self.background_evict(sink)?;
        self.stats.user_accesses += 1;
        let data =
            self.read_path(Some(block), forced_label, Some(mutate), OramOp::ReadPath, sink)?;
        self.background_evict(sink)?;
        // Ladder rung 3: an escalated path eviction requested mid-operation
        // runs here, at the access boundary, where a full evictPath is
        // protocol-safe.
        if self.pending_escalation {
            self.pending_escalation = false;
            self.escalate_evictions(sink)?;
        }
        self.drain_growth_backlog(sink)?;
        if self.stats.recovery != recovery_before {
            self.stats.recovery.degraded_accesses += 1;
        }
        // The stash roots the digest chain: every access folds the
        // per-level digests into the root exactly once.
        if let Some(v) = &mut self.integrity {
            v.fold_root();
        }
        let occupancy = self.stash.len();
        self.stats.sample_stash(occupancy);
        telemetry::gauge("stash.occupancy", occupancy as f64);
        data.ok_or(OramError::Internal { context: "a user access returned no block" })
    }

    /// One readPath (§III-B) on `target`'s path, or on a uniformly random
    /// path for a dummy (`target: None`). `forced_label` remaps the target
    /// to a caller-chosen path instead of drawing from the engine RNG, and
    /// `mutate` rewrites the target's payload in the stash after the fetch,
    /// before any maintenance operation can evict the block — a user write
    /// is an overwrite, a managed access a single-access read-modify-write.
    /// Returns the target's payload as fetched.
    fn read_path(
        &mut self,
        target: Option<BlockId>,
        forced_label: Option<PathId>,
        mut mutate: Option<&mut PayloadMutator<'_>>,
        op: OramOp,
        sink: &mut impl MemorySink,
    ) -> Result<Option<[u8; BLOCK_BYTES]>, OramError> {
        telemetry::span(op.phase());
        let now = self.stats.online_accesses();
        let (label, new_label) = match target {
            Some(b) => {
                let old = self.posmap.path_of(b);
                let new = match forced_label {
                    Some(p) => {
                        self.posmap.set_path(b, p);
                        p
                    }
                    None => self.posmap.remap(b, &mut self.rng),
                };
                (old, new)
            }
            None => {
                let leaf = self.rng.gen_range(0..self.geo.leaf_count());
                (PathId::new(leaf), PathId::new(leaf))
            }
        };
        let mut buckets = std::mem::take(&mut self.scratch.path_buckets);
        buckets.clear();
        buckets.extend(self.geo.path_buckets(label));
        self.meta.touch(&buckets);

        // (1) Metadata access for every off-chip bucket on the path; the
        // gatherDEADs procedure piggybacks on it (§V-B2).
        for &bucket in &buckets {
            self.fetch_metadata(bucket, true, sink)?;
        }
        if self.remote_enabled {
            for &bucket in &buckets {
                self.gather_deads(bucket);
            }
        }

        // (2) Block access: one slot per bucket.
        let mut fetched: Option<[u8; BLOCK_BYTES]> = None;
        // The position map already holds the new label; the stash still
        // files the target under the old one.
        let stash_hit = target.is_some_and(|b| self.stash.contains(b, label));
        if stash_hit {
            self.stats.stash_hits += 1;
        }
        for &bucket in &buckets {
            let level = bucket.level();
            let m = self.meta.get(bucket);
            // The storage index of the target's entry, while its slot here
            // is still valid.
            let target_at = match target {
                Some(b) if !stash_hit => {
                    m.entry_index(b).filter(|&i| m.is_valid(m.entry_at(i).ptr))
                }
                _ => None,
            };
            let logical = match target_at {
                Some(i) => m.entry_at(i).ptr,
                None => {
                    // A valid reserved dummy, else a valid green slot (CB).
                    // Selection is the nth set bit of a slot mask, which
                    // enumerates candidates in the same ascending order the
                    // old Vec scan did — identical RNG draw, identical slot.
                    let dummies = m.dummy_mask();
                    let pick_from = if dummies == 0 { m.valid_mask() } else { dummies };
                    debug_assert!(
                        pick_from != 0,
                        "bucket {bucket} has no valid slot (count={}, budget={})",
                        m.count,
                        self.budget(bucket)
                    );
                    let n = pick_from.count_ones() as usize;
                    nth_set_bit(pick_from, self.rng.gen_range(0..n))
                }
            };
            let phys = self.meta.resolve(bucket, logical);
            if self.off_chip(bucket) {
                let addr = self.slot_addr(phys)?;
                sink.read(addr, op, true);
                telemetry::mem_read(op.phase(), level.0);
            }

            // markDEAD: invalidate the slot, update status and census. Only
            // own slots enter the dead census — a borrowed slot's physical
            // space is accounted by its home bucket's status.
            let m = self.meta.get_mut(bucket);
            debug_assert!(m.is_valid(logical), "readPath must touch a valid slot");
            m.set_valid(logical, false);
            m.count += 1;
            let remote = m.is_remote(logical);
            if remote {
                self.stats.remote_slot_reads += 1;
            } else {
                m.set_status(logical, SlotStatus::Dead);
                self.stats.slot_died(level, phys.bucket.raw(), phys.index, now);
            }

            // Handle the block the read returned: the target's entry, else
            // the real block (if any) in the dummy slot picked, each taken
            // by the storage index it was found at.
            let is_target = target_at.is_some();
            let green_entry =
                target_at.or_else(|| m.slot_entry_index(logical)).map(|i| m.take_at(i));
            if let Some(entry) = green_entry {
                // Real block leaves the tree: target goes to the user and the
                // stash; a green real block goes to the stash (§III-C).
                let plain = self.fetch_block(phys, op, true, sink)?;
                if is_target {
                    fetched = Some(plain);
                    let mut stored = plain;
                    if let Some(f) = &mut mutate {
                        f(&mut stored);
                    }
                    self.stash.insert(entry.addr, new_label, &stored);
                } else {
                    // The label is read from the position map, not the
                    // fetched metadata entry: the two agree whenever the
                    // entry is valid (an entry exists exactly while its
                    // block is out of the stash), and the posmap is the one
                    // that is always current mid-growth.
                    self.stash.insert(entry.addr, self.posmap.path_of(entry.addr), &plain);
                }
            }
        }

        // Target served from the stash: relabel (and fetch data) there.
        if let Some(b) = target {
            if stash_hit {
                self.stash.relabel(b, label, new_label);
                fetched = self.stash.get(b, new_label).map(|e| e.data);
                if let (Some(f), Some(mut stored)) = (&mut mutate, fetched) {
                    f(&mut stored);
                    self.stash.set_data(b, new_label, &stored);
                }
            } else if fetched.is_none() {
                return Err(OramError::BlockOutOfRange { block: b, count: self.posmap.len() });
            }
        }

        // Metadata write-back.
        for &bucket in &buckets {
            if self.off_chip(bucket) {
                let addr = self.metadata_addr(bucket)?;
                self.post_write(addr, OramOp::Metadata, false, bucket, sink)?;
            }
        }
        if self.stash.overflowed() {
            // Escalated eviction drains the stash below capacity before
            // this is surfaced as a hard overflow.
            self.escalate_evictions(sink)?;
        }

        // (3) Early reshuffles for buckets that exhausted their budget.
        for &bucket in &buckets {
            if self.meta.get(bucket).needs_reshuffle(self.budget(bucket)) {
                self.stats.reshuffles.add(bucket.level().0, 1);
                telemetry::span(Phase::EarlyReshuffle);
                telemetry::event(
                    "early_reshuffle",
                    Phase::EarlyReshuffle,
                    bucket.level().0,
                    bucket.raw(),
                );
                self.rebuild_buckets(&[bucket], None, OramOp::EarlyReshuffle, sink)?;
            }
        }

        // (4) evictPath every A accesses.
        self.reads_since_evict += 1;
        if self.reads_since_evict >= EVICT_RATE_A {
            self.reads_since_evict = 0;
            self.evict_path(OramOp::EvictPath, sink)?;
        }
        self.scratch.path_buckets = buckets;
        Ok(fetched)
    }

    /// evictPath (§III-B): reshuffle the next reverse-lexicographic path.
    fn evict_path(&mut self, op: OramOp, sink: &mut impl MemorySink) -> Result<(), OramError> {
        let path = reverse_lex_path(self.evict_counter, self.geo.levels());
        telemetry::span(op.phase());
        telemetry::event("evict_path", op.phase(), 0, self.evict_counter);
        self.evict_counter += 1;
        if op == OramOp::EvictPath {
            self.stats.evict_paths += 1;
        }
        let mut buckets = std::mem::take(&mut self.scratch.evict_buckets);
        buckets.clear();
        buckets.extend(self.geo.path_buckets(path));
        let result = self.rebuild_buckets(&buckets, Some(path), op, sink);
        self.scratch.evict_buckets = buckets;
        result
    }

    /// Shared rebuild for evictPath (whole path) and earlyReshuffle (single
    /// bucket): read the valid real blocks and hold them beside the stash,
    /// refill leaf-first from the stash and the held blocks, write every
    /// logical slot back, and admit the held blocks no bucket took.
    fn rebuild_buckets(
        &mut self,
        buckets: &[BucketId],
        evict_path: Option<PathId>,
        op: OramOp,
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        let mut held = std::mem::take(&mut self.scratch.held);
        let result = self.rebuild_held(buckets, evict_path, op, sink, &mut held);
        // Whatever no rebuilt bucket took enters the stash once, here — after
        // an error too, so a failed rebuild loses no block.
        self.stash.admit(&mut held);
        self.scratch.held = held;
        result
    }

    /// [`rebuild_buckets`](Self::rebuild_buckets) up to the admission of
    /// the blocks left in `held`.
    fn rebuild_held(
        &mut self,
        buckets: &[BucketId],
        evict_path: Option<PathId>,
        op: OramOp,
        sink: &mut impl MemorySink,
        held: &mut Held,
    ) -> Result<(), OramError> {
        let now = self.stats.online_accesses();
        let mut read_slots = std::mem::take(&mut self.scratch.read_slots);
        let mut read_addrs = std::mem::take(&mut self.scratch.read_addrs);
        let mut phys_slots = std::mem::take(&mut self.scratch.phys_slots);
        let mut entries = std::mem::take(&mut self.scratch.entries);

        // Read phase: metadata plus Z' block reads per bucket.
        self.meta.touch(buckets);
        for &bucket in buckets {
            self.fetch_metadata(bucket, false, sink)?;
            let z_real = self.geo.level_config(bucket.level()).z_real;
            let m = self.meta.get(bucket);
            read_slots.clear();
            read_slots.extend(m.entries().filter(|e| m.is_valid(e.ptr)).map(|e| e.ptr));
            // Pad to Z' reads so reshuffle traffic is shape-faithful.
            let mut extra = 0;
            while read_slots.len() < usize::from(z_real.min(m.logical_slots)) {
                read_slots.push(extra % m.logical_slots);
                extra += 1;
            }
            if self.off_chip(bucket) {
                // One DRAM command batch per bucket rather than one call
                // per slot; issue order within the batch is unchanged.
                read_addrs.clear();
                phys_slots.clear();
                phys_slots.extend(read_slots.iter().map(|&l| self.meta.resolve(bucket, l)));
                self.layout.slot_addrs(&phys_slots, &mut read_addrs)?;
                sink.read_batch(&read_addrs, op, false);
                for _ in &read_addrs {
                    telemetry::mem_read(op.phase(), bucket.level().0);
                }
            }
            // Hold the valid real blocks beside the stash. Invalid entries
            // were already consumed, so every entry is unmapped once all of
            // them are fetched; a fetch that fails leaves the bucket's blocks
            // in the bucket.
            let m = self.meta.get(bucket);
            entries.clear();
            entries.extend(m.entries().filter(|e| m.is_valid(e.ptr)));
            let start = held.len();
            for e in &entries {
                let phys = self.meta.resolve(bucket, e.ptr);
                let plain = self.fetch_block(phys, op, false, sink).inspect_err(|_| {
                    held.truncate(start);
                })?;
                // Label from the posmap (identical to the stored label for
                // a valid entry; see the readPath green-block comment).
                let label = self.posmap.path_of(e.addr);
                held.push(e.addr, label, self.data.is_some().then_some(&plain));
            }
            self.meta.get_mut(bucket).clear_entries();
        }
        self.scratch.read_slots = read_slots;
        self.scratch.read_addrs = read_addrs;
        self.scratch.phys_slots = phys_slots;
        self.scratch.entries = entries;
        // Occupancy may transiently exceed capacity here: the read phase
        // holds a whole path's blocks in flight, and they count toward the
        // stash's peak as if buffered. The bound is enforced at operation
        // boundaries, after the rebuild places blocks back.
        self.stash.note_held(held);

        // One pass over the stash and the held blocks decides every bucket's
        // refill. Nothing enters either from here to the last rebuild, so
        // planning up front picks what a scan per bucket would (DESIGN.md
        // §8). A freshly rebuilt bucket has all `Z' + S` own slots, so it
        // holds `Z'` blocks.
        let mut plan = std::mem::take(&mut self.scratch.plan);
        let geo = &self.geo;
        match (evict_path, buckets) {
            // evictPath: tier = level; a block sinks to the deepest bucket
            // its own path shares with the eviction path.
            (Some(path), _) => self.stash.plan_eviction(
                held,
                usize::from(geo.levels()),
                |tier| usize::from(geo.level_config(Level(tier as u8)).z_real),
                |label| Some(usize::from(geo.common_prefix_levels(label, path)) - 1),
                &mut plan,
            ),
            // earlyReshuffle: the lone bucket takes blocks whose path
            // crosses it: the ones it held and those on the stash bins
            // under it.
            (None, &[bucket]) => self.stash.plan_bucket(
                held,
                bucket.level().0,
                bucket.index_in_level(),
                usize::from(geo.level_config(bucket.level()).z_real),
                &mut plan,
            ),
            (None, _) => {
                return Err(OramError::Internal { context: "a reshuffle rebuilds one bucket" })
            }
        }

        // Rebuild phase, deepest bucket first so blocks sink to the leaves:
        // an eviction path's buckets come root to leaf, a reshuffle's is one.
        debug_assert!(buckets.windows(2).all(|w| w[0].level() < w[1].level()));
        for &b in buckets.iter().rev() {
            let tier = if evict_path.is_some() { usize::from(b.level().0) } else { 0 };
            self.rebuild_one(b, plan.picks(tier), held, op, sink, now)?;
        }
        self.scratch.plan = plan;
        Ok(())
    }

    /// Rebuilds one bucket around `picks`, the stash or held blocks the
    /// eviction plan chose for it (ascending ids, at most its real
    /// capacity).
    fn rebuild_one(
        &mut self,
        bucket: BucketId,
        picks: &[Pick],
        held: &mut Held,
        op: OramOp,
        sink: &mut impl MemorySink,
        now: u64,
    ) -> Result<(), OramError> {
        let level = bucket.level();
        let cfg_l = self.geo.level_config(level);

        // Drop the old epoch's borrowed slots. No release bookkeeping is
        // needed: the slots' home buckets still own them (status Allocated
        // until the home's own rebuild), and the DeadQ is replenished by
        // gatherDEADs. (The record's borrowed array is refilled below.)
        self.meta.get_mut(bucket).clear_borrowed();

        // Census: the rewrite revives every own slot that died this epoch,
        // including slots that were gathered into the pool (the home
        // reclaims them; any borrower's remote dummy there is silently
        // invalidated, which is harmless for dummies). Iterated as set bits
        // of the not-refreshed word, ascending like the old index scan.
        let mut revive = self.meta.get(bucket).not_refreshed_mask();
        while revive != 0 {
            let j = revive.trailing_zeros() as u8;
            revive &= revive - 1;
            self.stats.slot_revived(level, bucket.raw(), j, now);
        }

        // Post-grow refresh: this rewrite re-encrypts the whole bucket
        // under the current geometry, clearing it from the relocation
        // backlog; a bucket whose slot provisioning predates the grow
        // (per-level Z changed with the level count) adopts the new width.
        self.dynamic.clear_if_stale(bucket.raw());
        if self.meta.get(bucket).own_slots() != cfg_l.z_total() {
            self.meta.get_mut(bucket).set_own_slots(cfg_l.z_total());
        }

        // Borrow fresh dead slots on extension levels (DR / AB), validating
        // each DeadQ entry against its home's slot status: an entry whose
        // home has rebuilt since it was queued is stale and discarded.
        if self.remote_enabled && cfg_l.has_dynamic_extension() && self.deadqs.tracks(level) {
            telemetry::span(Phase::RemoteAlloc);
            self.stats.extensions_attempted += 1;
            'borrow: for _ in 0..cfg_l.dynamic_s_extension {
                loop {
                    let Some(slot) = self.deadqs.dequeue(level) else { break 'borrow };
                    if slot.bucket == bucket {
                        continue; // Never borrow a slot we are about to rewrite.
                    }
                    let home = self.meta.get(slot.bucket);
                    if slot.index >= home.own_slots() {
                        // The home shrank at its post-grow refresh and the
                        // slot was retired: the queued entry is stale.
                        telemetry::counter_add("remote.stale_discarded", 1);
                        continue;
                    }
                    if home.status(slot.index) == SlotStatus::Allocated {
                        self.stats.slot_reused(level, slot.bucket.raw(), slot.index, now);
                        self.meta.get_mut(bucket).push_borrowed(slot);
                        break;
                    }
                    // Stale entry (home rebuilt since enqueue): discard.
                    telemetry::counter_add("remote.stale_discarded", 1);
                }
            }
            let borrowed = self.meta.get(bucket).borrowed_len();
            if borrowed != 0 {
                telemetry::counter_add("remote.borrowed", u64::from(borrowed));
                telemetry::observe_level("remote.borrowed", level.0, u64::from(borrowed));
            }
            if borrowed == cfg_l.dynamic_s_extension {
                self.stats.extensions_done += 1;
            }
        }

        // New epoch: the bucket always rewrites all of its own slots.
        let m = self.meta.get_mut(bucket);
        m.reset_statuses();
        m.logical_slots = m.own_slots() + m.borrowed_len();
        let logical_slots = m.logical_slots;
        let own_slots = m.own_slots();
        let real_capacity = cfg_l.z_real.min(own_slots);
        m.dynamic_s = logical_slots - real_capacity;
        m.count = 0;
        m.set_all_valid(logical_slots);

        debug_assert!(picks.len() <= usize::from(real_capacity), "{bucket}: plan overfills");

        // Random distinct slots for the chosen blocks (the permutation).
        // Real blocks go into own slots only; borrowed (remote) logical
        // slots always hold reserved dummies.
        let mut slots = std::mem::take(&mut self.scratch.slots);
        slots.clear();
        slots.extend(0..own_slots);
        for i in (1..slots.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            slots.swap(i, j);
        }
        // A held block is taken by its index; a stash block is looked up
        // under its position-map label, which is its stash label.
        let mut placed = std::mem::take(&mut self.scratch.placed);
        placed.clear();
        let m = self.meta.get_mut(bucket);
        for (&ptr, &pick) in slots.iter().zip(picks) {
            let (block, label, data) = match pick.held() {
                Some(i) => {
                    let (block, label) = held.take(i);
                    (block, label, *held.payload(i))
                }
                None => {
                    let block = pick.block();
                    let label = self.posmap.path_of(block);
                    let entry = self.stash.remove(block, label).ok_or(OramError::Internal {
                        context: "eviction candidate left the stash",
                    })?;
                    (block, label, entry.data)
                }
            };
            m.push_entry(RealEntry { addr: block, label, ptr });
            if self.data.is_some() {
                placed.push((ptr, data));
            }
        }
        self.scratch.slots = slots;

        // Write phase: every logical slot goes back to memory re-encrypted.
        for logical in 0..logical_slots {
            let phys = self.meta.resolve(bucket, logical);
            let addr = self.slot_addr(phys)?;
            if self.off_chip(bucket) {
                self.post_write(addr, op, false, bucket, sink)?;
            }
            if let Some(data) = &mut self.data {
                let plain = placed
                    .iter()
                    .find(|(p, _)| *p == logical)
                    .map_or(&[0; BLOCK_BYTES], |(_, d)| d);
                data.write(addr, plain);
            }
        }
        if self.off_chip(bucket) {
            let addr = self.metadata_addr(bucket)?;
            self.post_write(addr, OramOp::Metadata, false, bucket, sink)?;
        }
        self.scratch.placed = placed;
        Ok(())
    }

    /// gatherDEADs (§V-B2): move this bucket's dead own slots into the
    /// level's DeadQ, marking them `Allocated` so they are not gathered
    /// twice within the epoch. Invoked during the readPath metadata access.
    fn gather_deads(&mut self, bucket: BucketId) {
        let level = bucket.level();
        if !self.deadqs.tracks(level) || !self.geo.level_config(level).has_dynamic_extension() {
            return;
        }
        let mut dead = self.meta.get(bucket).dead_mask();
        let mut gathered = 0u64;
        while dead != 0 {
            let j = dead.trailing_zeros() as u8;
            dead &= dead - 1;
            let slot = aboram_tree::SlotId::new(bucket, j);
            if self.deadqs.enqueue(slot) {
                self.meta.get_mut(bucket).set_status(j, SlotStatus::Allocated);
                gathered += 1;
            } else {
                telemetry::counter_add("deadq.enqueue_full", 1);
                break; // Queue full; stop trying this level for now.
            }
        }
        if gathered > 0 {
            telemetry::span(Phase::DeadqReclaim);
            telemetry::counter_add("deadq.gathered", gathered);
            telemetry::observe_level("deadq.gathered", level.0, gathered);
        }
    }

    /// CB background eviction (§III-C): when the stash exceeds its
    /// threshold, insert dummy accesses — full readPaths on random paths,
    /// indistinguishable from real ones — until the evictPaths they trigger
    /// (the `A` counter keeps advancing) drain the stash below the
    /// threshold.
    fn background_evict(&mut self, sink: &mut impl MemorySink) -> Result<(), OramError> {
        let mut guard = 0u32;
        while self.stash.len() > self.cfg.bg_evict_threshold {
            self.stats.background_accesses += 1;
            // A dummy access: a readPath on a random path (indistinguishable
            // from a real one) followed by the evictPath it is inserted to
            // provoke.
            self.read_path(None, None, None, OramOp::BackgroundEvict, sink)?;
            self.evict_path(OramOp::BackgroundEvict, sink)?;
            guard += 1;
            if guard > 16 * u32::from(self.cfg.levels) {
                // The dummy-access loop is not draining (each readPath can
                // pull as many blocks into the stash as its evictPath puts
                // back). Escalate before declaring overflow.
                return self.escalate_evictions(sink);
            }
        }
        Ok(())
    }

    /// Escalated stash draining: evictPaths alone, with no paired readPath,
    /// so each round strictly moves blocks stash → tree. Runs until
    /// occupancy falls back under the background-eviction threshold; only
    /// when even this cannot drain the stash does the engine surface
    /// [`OramError::StashOverflow`]. Never reached on a correctly
    /// provisioned fault-free instance.
    fn escalate_evictions(&mut self, sink: &mut impl MemorySink) -> Result<(), OramError> {
        let bound = 32 * u32::from(self.cfg.levels);
        for _ in 0..bound {
            self.stats.recovery.escalated_evictions += 1;
            telemetry::event("escalated_evict", Phase::BackgroundEvict, 0, self.stash.len() as u64);
            self.evict_path(OramOp::BackgroundEvict, sink)?;
            if self.stash.len() <= self.cfg.bg_evict_threshold {
                return Ok(());
            }
        }
        telemetry::dump_ring("stash_overflow");
        Err(OramError::StashOverflow { capacity: self.stash.capacity() })
    }

    /// The readPath budget of a bucket: `dynamicS + Y`, with the overlap
    /// capped by the bucket's actual real capacity so a shrunken bucket
    /// (maximal lending, empty DeadQ) never promises more reads than it has
    /// slots.
    fn budget(&self, bucket: BucketId) -> u8 {
        let m = self.meta.get(bucket);
        let cfg_l = self.geo.level_config(bucket.level());
        let real_capacity = cfg_l.z_real.min(m.own_slots());
        m.dynamic_s + cfg_l.overlap_y.min(real_capacity)
    }

    fn off_chip(&self, bucket: BucketId) -> bool {
        bucket.level().0 >= self.cfg.treetop_levels
    }

    fn slot_addr(&self, slot: aboram_tree::SlotId) -> Result<SlotAddr, OramError> {
        Ok(self.layout.slot_addr(slot)?)
    }

    fn metadata_addr(&self, bucket: BucketId) -> Result<SlotAddr, OramError> {
        Ok(self.layout.metadata_addr(bucket)?)
    }

    /// Typed recovery ladder after the poll at `site` reported the
    /// transfer at `addr` (owned by `bucket`) faulted. Counts the fault
    /// under its site and returns whether the transfer ended clean:
    ///
    /// 1. **Bounded retry** — up to [`MAX_FAULT_RETRIES`] re-issues with
    ///    exponential backoff. Without integrity verification armed this is
    ///    the whole ladder; exhaustion surfaces as
    ///    [`OramError::RetriesExhausted`], preserving pre-integrity
    ///    behavior bit for bit.
    /// 2. **Redundant-slot refetch** — up to [`REDUNDANT_REFETCHES`] extra
    ///    transfers of the slot's redundant copy.
    /// 3. **Escalated path eviction** — scheduled (it runs at the next
    ///    access boundary) so the faulted region is rewritten wholesale.
    /// 4. **Graceful degradation** — the subtree under `bucket` is
    ///    poisoned, health drops to `Degraded`, and the run continues:
    ///    never an abort. The transfer ends unclean (`false`).
    fn recover(
        &mut self,
        addr: SlotAddr,
        site: FaultSite,
        op: OramOp,
        online: bool,
        bucket: BucketId,
        sink: &mut impl MemorySink,
    ) -> Result<bool, OramError> {
        let level = bucket.level().0;
        *site.counters(&mut self.stats.recovery).0 += 1;
        telemetry::event(site.event(), Phase::RecoveryRetry, level, addr.byte());
        telemetry::span(Phase::RecoveryRetry);
        for attempt in 0..MAX_FAULT_RETRIES + REDUNDANT_REFETCHES {
            let refetch = attempt >= MAX_FAULT_RETRIES;
            if refetch && self.integrity.is_none() {
                telemetry::dump_ring("retries_exhausted");
                return Err(OramError::RetriesExhausted {
                    address: addr.byte(),
                    attempts: MAX_FAULT_RETRIES,
                });
            }
            // The backoff climbs on past the retry rung: depth shows in cycles.
            self.stats.recovery.backoff_cycles += BACKOFF_BASE_CYCLES << attempt;
            if refetch {
                self.stats.recovery.redundant_refetches += 1;
                let extra = u64::from(attempt - MAX_FAULT_RETRIES);
                telemetry::event("redundant_refetch", Phase::RecoveryRetry, level, extra);
            } else {
                *site.counters(&mut self.stats.recovery).2 += 1;
                telemetry::event("retry", Phase::RecoveryRetry, level, u64::from(attempt));
            }
            if site == FaultSite::WriteAck {
                sink.write(addr, op, online);
                telemetry::mem_write(Phase::RecoveryRetry, level);
            } else {
                sink.read(addr, op, online);
                telemetry::mem_read(Phase::RecoveryRetry, level);
            }
            if !sink.poll_fault(addr, site) {
                *site.counters(&mut self.stats.recovery).1 += 1;
                return Ok(true);
            }
        }
        // Rungs 3 + 4: rewrite the region via an escalated eviction at the
        // next safe boundary, poison the subtree, degrade — don't abort.
        self.pending_escalation = true;
        self.stats.recovery.unrecovered_faults += 1;
        if let Some(v) = &mut self.integrity {
            v.poison(bucket.raw(), level);
        }
        telemetry::event("fault_poisoned", Phase::RecoveryRetry, level, bucket.raw());
        telemetry::dump_ring("fault_poisoned");
        Ok(false)
    }

    /// MAC-verified fetch of the data slot at `phys` (zeroes when the data
    /// path is off). An off-chip fetch whose copy arrives corrupted — the
    /// sink's fault poll stands in for the MAC check failing — goes through
    /// the recovery ladder before the plaintext is produced. The fault poll
    /// happens regardless of whether the data store is enabled: the slot's
    /// burst crosses the bus either way, so a metadata-only engine sees (and
    /// must recover from) the same Data-site faults.
    fn fetch_block(
        &mut self,
        phys: aboram_tree::SlotId,
        op: OramOp,
        online: bool,
        sink: &mut impl MemorySink,
    ) -> Result<[u8; BLOCK_BYTES], OramError> {
        let addr = self.slot_addr(phys)?;
        if self.off_chip(phys.bucket) {
            let clean = !sink.poll_fault(addr, FaultSite::Data)
                || self.recover(addr, FaultSite::Data, op, online, phys.bucket, sink)?;
            if let Some(v) = &mut self.integrity {
                v.verify_fetch(phys.bucket.level().0, addr.byte(), clean);
            }
        }
        match &self.data {
            Some(ds) => ds.read(addr),
            None => Ok([0; BLOCK_BYTES]),
        }
    }

    /// One off-chip metadata fetch, re-read with bounded backoff when the
    /// fetched record fails verification. On-chip (treetop) buckets generate
    /// no traffic and cannot fault.
    fn fetch_metadata(
        &mut self,
        bucket: BucketId,
        online: bool,
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        if !self.off_chip(bucket) {
            return Ok(());
        }
        let addr = self.metadata_addr(bucket)?;
        sink.read(addr, OramOp::Metadata, online);
        let level = bucket.level().0;
        telemetry::mem_read(Phase::Metadata, level);
        let clean = !sink.poll_fault(addr, FaultSite::Metadata)
            || self.recover(addr, FaultSite::Metadata, OramOp::Metadata, online, bucket, sink)?;
        if let Some(v) = &mut self.integrity {
            v.verify_fetch(level, addr.byte(), clean);
        }
        Ok(())
    }

    /// One off-chip write, retransmitted through the recovery ladder when
    /// the write-CRC acknowledgment reports the burst was dropped. An
    /// acknowledged write advances the slot's shadow write epoch under the
    /// integrity verifier; a dropped one taints the bucket's level chain.
    fn post_write(
        &mut self,
        addr: SlotAddr,
        op: OramOp,
        online: bool,
        bucket: BucketId,
        sink: &mut impl MemorySink,
    ) -> Result<(), OramError> {
        let level = bucket.level().0;
        sink.write(addr, op, online);
        telemetry::mem_write(op.phase(), level);
        let acked = !sink.poll_fault(addr, FaultSite::WriteAck)
            || self.recover(addr, FaultSite::WriteAck, op, online, bucket, sink)?;
        if let Some(v) = &mut self.integrity {
            v.record_write(level, addr.byte(), acked);
        }
        Ok(())
    }

    /// The auto-scaling controller state (growth epochs, relocation
    /// backlog, incremental relocations performed).
    pub fn growth_state(&self) -> &DynamicTree {
        &self.dynamic
    }

    /// Number of mapped (protected) blocks right now.
    pub fn block_count(&self) -> u64 {
        self.posmap.len()
    }

    /// Whether the next insert finds the tree full at the current level
    /// count (and a grow is still allowed).
    fn needs_grow(&self) -> bool {
        let Some(g) = self.cfg.growth else { return false };
        self.cfg.levels < g.max_levels && self.posmap.len() >= self.cfg.real_block_count()
    }

    /// Appends a new zeroed block (id = current block count), lazily
    /// growing the tree one level first when the tree is full. The insert itself is traffic-free:
    /// the block is born in the stash with the given (or a fresh random)
    /// path and reaches the tree through ordinary evictions.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::CapacityExhausted`] when the tree is full and
    /// cannot grow (no growth configured, or the ceiling is reached), and
    /// [`OramError::StashOverflow`] if the stash cannot absorb the block.
    ///
    /// # Panics
    ///
    /// Panics if `position` is outside the (post-grow) leaf range.
    pub fn insert_block(&mut self, position: Option<PathId>) -> Result<BlockId, OramError> {
        while self.needs_grow() {
            self.grow_level()?;
        }
        if self.posmap.len() >= self.cfg.real_block_count() {
            return Err(OramError::CapacityExhausted {
                levels: self.cfg.levels,
                max_levels: self.cfg.growth.map_or(self.cfg.levels, |g| g.max_levels),
            });
        }
        let block = self.posmap.len();
        let label = match position {
            Some(p) => {
                assert!(p.leaf() < self.geo.leaf_count(), "insert label out of range");
                p
            }
            None => PathId::new(self.rng.gen_range(0..self.geo.leaf_count())),
        };
        self.posmap.push(label);
        self.stash.insert(block, label, &[0; BLOCK_BYTES]);
        if self.stash.overflowed() {
            return Err(OramError::StashOverflow { capacity: self.stash.capacity() });
        }
        telemetry::event("insert_block", Phase::ReadPath, 0, block);
        Ok(block)
    }

    /// Adds one level to the tree in place: the leaf space doubles, every
    /// path label extends by its deterministic growth-bit replay
    /// ([`extend_label`]), the physical layout grows by *appending*
    /// segments (no bucket address ever moves), and every pre-existing
    /// bucket joins the relocation backlog that subsequent accesses drain
    /// incrementally — no access ever blocks on the resize.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::CapacityExhausted`] when growth is disabled or
    /// the ceiling is reached, and [`OramError::BadParameter`] while the
    /// integrity verifier is armed (its per-level digest chains are sized
    /// at arm time; grow first, then arm) or when the grown geometry would
    /// not fit the bucket record (refused before anything is changed; a
    /// ceiling that `OramConfigBuilder::build` accepted never meets this).
    pub fn grow_level(&mut self) -> Result<(), OramError> {
        match self.cfg.growth {
            Some(g) if self.cfg.levels < g.max_levels => {}
            _ => {
                return Err(OramError::CapacityExhausted {
                    levels: self.cfg.levels,
                    max_levels: self.cfg.growth.map_or(self.cfg.levels, |g| g.max_levels),
                })
            }
        }
        if self.integrity.is_some() {
            return Err(OramError::BadParameter {
                name: "growth",
                reason: "cannot grow with the integrity verifier armed".to_string(),
            });
        }
        let old_levels = self.cfg.levels;
        let old_buckets = self.geo.bucket_count();
        let mut cfg = self.cfg.clone();
        cfg.levels = old_levels + 1;
        let geo = cfg.geometry()?;
        self.layout.grow(&geo)?;

        // Client-side relabel: position map first, then the stash mirrors
        // it (stash blocks are exactly the mapped blocks not resident in a
        // bucket; resident blocks keep valid prefixes by construction).
        let seed = self.cfg.seed;
        self.posmap
            .grow_one_level(|b, leaf| extend_label(leaf, old_levels, old_levels + 1, seed, b));
        let posmap = &self.posmap;
        self.stash.relabel_all(old_levels + 1, |b| posmap.path_of(b));

        // The new leaf level starts freshly reshuffled: all slots valid
        // reserved dummies, exactly like `new`'s bucket init.
        // The records are appended; no existing record moves.
        let leaf_cfg = geo.level_config(Level(old_levels));
        let own = leaf_cfg.z_total();
        let mut fresh = crate::metadata::BucketMeta::new(own);
        fresh.set_all_valid(own);
        fresh.dynamic_s = own - own.min(leaf_cfg.z_real);
        for _ in old_buckets..geo.bucket_count() {
            self.meta.push(fresh);
        }

        self.deadqs.grow_level();
        self.stats.grow_level();
        self.dynamic.begin_epoch(old_buckets);
        if let Some(data) = &mut self.data {
            data.grow_to(&self.layout);
        }
        self.geo = geo;
        self.cfg = cfg;
        telemetry::event("grow_level", Phase::EarlyReshuffle, old_levels, old_buckets);
        Ok(())
    }

    /// Drains up to [`RELOCS_PER_ACCESS`] buckets from the growth backlog:
    /// each is rebuilt in place under the new geometry (an
    /// earlyReshuffle-shaped rewrite). Folded into the tail of every
    /// access so relocations are spread incrementally.
    fn drain_growth_backlog(&mut self, sink: &mut impl MemorySink) -> Result<(), OramError> {
        if self.dynamic.backlog() == 0 {
            return Ok(());
        }
        for _ in 0..RELOCS_PER_ACCESS {
            let Some(raw) = self.dynamic.take_next() else { break };
            let bucket = BucketId::new(raw);
            telemetry::event("growth_relocate", Phase::EarlyReshuffle, bucket.level().0, raw);
            self.rebuild_buckets(&[bucket], None, OramOp::EarlyReshuffle, sink)?;
        }
        Ok(())
    }

    /// Verifies the core invariant: every mapped block is findable on its
    /// path, in the stash, or via remote metadata. Expensive; used by tests.
    pub fn check_block_reachable(&self, block: BlockId) -> bool {
        if block >= self.posmap.len() {
            return false;
        }
        let label = self.posmap.path_of(block);
        if self.stash.contains(block, label) {
            return true;
        }
        self.geo.path_buckets(label).any(|bucket| {
            let m = self.meta.get(bucket);
            m.entry_of(block).is_some_and(|e| m.is_valid(e.ptr))
        })
    }

    /// Exhaustive structural-invariant check over the stash, every bucket's
    /// metadata and the DeadQs (DESIGN.md §5). Expensive — a test hook for
    /// the property suite; returns a description of the first violation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable violation description.
    pub fn validate_invariants(&self) -> Result<(), String> {
        // (1) Stash bound holds at every operation boundary.
        if self.stash.len() > self.stash.capacity() {
            return Err(format!(
                "stash occupancy {} exceeds capacity {}",
                self.stash.len(),
                self.stash.capacity()
            ));
        }
        // (1a) The stash's bins and dense storage describe one set of
        // distinct blocks, each carrying its position-map label — so each
        // is filed on the bin of the label every lookup passes.
        self.stash.validate()?;
        for e in self.stash.iter() {
            if e.block >= self.posmap.len() {
                return Err(format!("stash holds unmapped block {}", e.block));
            }
            let mapped = self.posmap.path_of(e.block);
            if e.label != mapped {
                return Err(format!(
                    "stash block {} labelled {} but mapped to {mapped}",
                    e.block, e.label
                ));
            }
        }
        for raw in 0..self.geo.bucket_count() {
            let bucket = BucketId::new(raw);
            let m = self.meta.get(bucket);
            let own = m.own_slots();
            // (2) Logical slot accounting: own slots plus borrowed remotes.
            if m.logical_slots != own + m.borrowed_len() {
                return Err(format!(
                    "{bucket}: logical_slots {} != own {} + borrowed {}",
                    m.logical_slots,
                    own,
                    m.borrowed_len()
                ));
            }
            // (3) Real blocks live in distinct *own* slots only; remote
            // slots hold reserved dummies exclusively.
            let mut occupied = 0u64;
            for e in m.entries() {
                if e.ptr >= own {
                    return Err(format!(
                        "{bucket}: real block {} in remote slot {}",
                        e.addr, e.ptr
                    ));
                }
                if occupied & (1u64 << e.ptr) != 0 {
                    return Err(format!("{bucket}: two real blocks share slot {}", e.ptr));
                }
                occupied |= 1u64 << e.ptr;
                // A bucket entry exists exactly while its block is out of
                // the stash.
                let mapped = (e.addr < self.posmap.len()).then(|| self.posmap.path_of(e.addr));
                if mapped.is_some_and(|label| self.stash.contains(e.addr, label)) {
                    return Err(format!("{bucket}: block {} is also in the stash", e.addr));
                }
            }
            // (3a) The record's occupancy word is the union of its entries'
            // slots.
            if occupied != m.real_mask() {
                return Err(format!(
                    "{bucket}: occupancy word {:#06x} but entries occupy {occupied:#06x}",
                    m.real_mask()
                ));
            }
            // (4) No slot is simultaneously live and reclaimed: a Dead or
            // Allocated status always pairs with a cleared valid bit.
            let conflict = m.not_refreshed_mask() & m.valid_mask();
            if conflict != 0 {
                return Err(format!("{bucket}: slots {conflict:#06x} are both valid and dead"));
            }
            // (5) Borrowed slots come from a *different* bucket on the
            // *same* level and stay inside the lender's own-slot range.
            for slot in m.borrowed() {
                if slot.bucket == bucket {
                    return Err(format!("{bucket}: borrows from itself"));
                }
                if slot.bucket.level() != bucket.level() {
                    return Err(format!(
                        "{bucket}: borrowed slot {slot:?} crosses levels (paper requires \
                         same-level lending)"
                    ));
                }
                // Bound by the level's physical capacity, not the lender's
                // current own_slots: a post-grow refresh may shrink the
                // lender while a borrow is outstanding (the slot's physical
                // space stays addressable; the dummy there is never read).
                if slot.index >= self.layout.level_capacity(slot.bucket.level()) {
                    return Err(format!("{bucket}: borrowed slot {slot:?} out of lender range"));
                }
            }
        }
        // (5a) Conservation: every block is in exactly one place, the stash
        // or one bucket's entries, and nothing is held beside the stash
        // between operations (a rebuild admits what it held).
        if !self.scratch.held.is_empty() {
            return Err(format!("{} blocks held beside the stash", self.scratch.held.len()));
        }
        let mut places = vec![0u8; self.posmap.len() as usize];
        let buckets = (0..self.geo.bucket_count()).map(|raw| self.meta.get(BucketId::new(raw)));
        let bucketed = buckets.flat_map(|m| m.entries().map(|e| e.addr));
        for block in self.stash.iter().map(|e| e.block).chain(bucketed) {
            match places.get_mut(block as usize) {
                Some(n) => *n = n.saturating_add(1),
                None => return Err(format!("unmapped block {block} in the stash or a bucket")),
            }
        }
        if let Some((block, &n)) = places.iter().enumerate().find(|&(_, &n)| n != 1) {
            return Err(format!("block {block} is in {n} places (stash and buckets), not one"));
        }
        // (6) DeadQ entries are level-consistent, in-bounds and within the
        // configured capacity. (A queued slot may be stale — its home bucket
        // can have reshuffled since — so slot *status* is validated lazily
        // at dequeue time, not here.)
        for l in 0..self.cfg.levels {
            let level = Level(l);
            if self.deadqs.len(level) > self.deadqs.capacity() {
                return Err(format!("DeadQ level {l}: length exceeds capacity"));
            }
            for slot in self.deadqs.entries(level) {
                if slot.bucket.level() != level {
                    return Err(format!("DeadQ level {l}: entry {slot:?} on wrong level"));
                }
                // Physical capacity, not own_slots: entries queued before a
                // post-grow shrink are discarded lazily at dequeue time.
                if slot.index >= self.layout.level_capacity(slot.bucket.level()) {
                    return Err(format!("DeadQ level {l}: entry {slot:?} out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::sink::CountingSink;

    fn engine(scheme: Scheme, levels: u8) -> RingOram {
        let cfg = OramConfig::builder(levels, scheme).seed(3).build().unwrap();
        RingOram::new(&cfg).unwrap()
    }

    fn churn(oram: &mut RingOram, sink: &mut CountingSink, accesses: u64) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let blocks = oram.config().real_block_count();
        for _ in 0..accesses {
            let b = rng.gen_range(0..blocks);
            oram.access(AccessKind::Read, b, None, sink).unwrap();
        }
    }

    /// `==` is the differential tests' state oracle, so it must see one
    /// access, a grow, an armed verifier — and a change confined to any one
    /// protocol state field.
    #[test]
    fn equality_sees_one_access() {
        let mut oram = engine(Scheme::Ab, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 500);
        assert!(oram.clone() == oram, "a clone compares equal");

        for side in 0..2 {
            let (mut a, mut b) = (oram.clone(), oram.clone());
            [&mut a, &mut b][side].dummy_access(&mut sink).unwrap();
            assert!(a != b, "one more access on side {side} went unseen");
        }

        let mut armed = oram.clone();
        armed.enable_integrity();
        assert!(armed != oram, "an armed verifier went unseen");

        let cfg = OramConfig::builder(8, Scheme::Ab)
            .seed(3)
            .growth(crate::config::GrowthConfig::up_to(9))
            .build()
            .unwrap();
        let fresh = RingOram::new(&cfg).unwrap();
        let mut inserted = fresh.clone();
        inserted.insert_block(None).unwrap();
        assert!(inserted != fresh, "an insert went unseen");

        let leaf = BucketId::from_level_index(Level(9), 0);
        let fields = [
            "rng",
            "position map",
            "stash",
            "metadata",
            "DeadQs",
            "statistics",
            "eviction counter",
            "pending escalation",
        ];
        for field in fields {
            let mut o = oram.clone();
            match field {
                "rng" => drop(o.rng.gen::<u32>()),
                "position map" => o.posmap.set_path(0, PathId::new(o.posmap.path_of(0).leaf() ^ 1)),
                "stash" => o.stash.insert(u64::MAX, PathId::new(0), &[0; BLOCK_BYTES]),
                "metadata" => o.meta.get_mut(leaf).count += 1,
                // A full queue counts the rejection instead: either way it moves.
                "DeadQs" => drop(o.deadqs.enqueue(aboram_tree::SlotId::new(leaf, 0))),
                "statistics" => o.stats.stash_hits += 1,
                "eviction counter" => o.evict_counter += 1,
                _ => o.pending_escalation = !o.pending_escalation,
            }
            assert!(o != oram, "a change to the {field} alone went unseen");
        }
    }

    #[test]
    fn steady_state_access_allocates_nothing() {
        // Every per-access buffer — the engine's scratch, the eviction plan,
        // the held blocks, the stash's dense arrays and its bins — is the
        // same allocation, at the same capacity, after 10 000 more accesses.
        // The payload buffers (each list's last: the refill's placed
        // payloads, the held payloads, the stash's payload column) exist
        // only with a data path; without one they are never allocated.
        for (scheme, store_data) in
            [(Scheme::Ab, false), (Scheme::Baseline, false), (Scheme::Ab, true)]
        {
            let cfg =
                OramConfig::builder(12, scheme).seed(3).store_data(store_data).build().unwrap();
            let mut oram = RingOram::new(&cfg).unwrap();
            let mut sink = CountingSink::new();
            let buffers = |oram: &RingOram| {
                let scratch = &oram.scratch;
                [scratch.buffers(), scratch.held.buffers().to_vec(), oram.stash.buffers().to_vec()]
            };
            churn(&mut oram, &mut sink, 20_000);
            let warm = buffers(&oram);
            for list in &warm {
                let (&(_, payloads), rest) = list.split_last().unwrap();
                assert!(rest.iter().all(|&(_, capacity)| capacity > 0), "{scheme:?}: {list:?}");
                assert_eq!(
                    payloads > 0,
                    store_data,
                    "{scheme:?}, data path {store_data}: {list:?}"
                );
            }
            churn(&mut oram, &mut sink, 10_000);
            assert_eq!(buffers(&oram), warm, "{scheme:?}: a buffer moved or grew");
            assert!(oram.stats().reshuffles.total() > 0 && oram.stats().evict_paths > 0);
        }
    }

    /// A counting sink that fails every data fetch of `op` from the
    /// `clean`-th on, counted since the last read of another op (each
    /// bucket's metadata read), while armed: with no verifier the fetch ends
    /// in `RetriesExhausted`, from inside a rebuild's read phase.
    struct FailRebuildReads {
        inner: CountingSink,
        op: OramOp,
        clean: u32,
        armed: bool,
        last: Option<OramOp>,
        polls: u32,
    }

    impl MemorySink for FailRebuildReads {
        fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
            if self.last != Some(op) {
                self.polls = 0;
            }
            self.last = Some(op);
            self.inner.read(addr, op, online);
        }

        fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
            self.inner.write(addr, op, online);
        }

        fn poll_fault(&mut self, _: SlotAddr, site: FaultSite) -> bool {
            if !self.armed || site != FaultSite::Data || self.last != Some(self.op) {
                return false;
            }
            self.polls += 1;
            self.polls > self.clean
        }
    }

    #[test]
    fn a_rebuild_that_fails_mid_read_loses_no_block() {
        // The first fetch of a bucket fails, or for an evictPath the second
        // (after one block of the bucket is held; a reshuffled bucket holds
        // one block at most): either way the blocks already held reach the
        // stash, the failed bucket keeps its own, and every payload reads
        // back afterwards.
        let payload = |b: BlockId| {
            let mut d = [0; BLOCK_BYTES];
            d[..8].copy_from_slice(&b.to_le_bytes());
            d
        };
        for (op, clean) in
            [(OramOp::EvictPath, 0), (OramOp::EvictPath, 1), (OramOp::EarlyReshuffle, 0)]
        {
            let cfg = OramConfig::builder(9, Scheme::Ab).seed(5).store_data(true).build().unwrap();
            let mut oram = RingOram::new(&cfg).unwrap();
            let blocks = oram.block_count();
            let mut sink = FailRebuildReads {
                inner: CountingSink::new(),
                op,
                clean,
                armed: false,
                last: None,
                polls: 0,
            };
            for b in 0..blocks {
                oram.access(AccessKind::Write, b, Some(payload(b)), &mut sink).unwrap();
            }
            sink.armed = true;
            let err = (0..blocks)
                .find_map(|b| oram.access(AccessKind::Read, b, None, &mut sink).err())
                .unwrap_or_else(|| panic!("{op:?}, {clean}: no rebuild read failed"));
            assert!(matches!(err, OramError::RetriesExhausted { .. }), "{op:?}: {err:?}");
            oram.validate_invariants().unwrap_or_else(|e| panic!("{op:?}, {clean}: {e}"));

            sink.armed = false;
            for b in (0..blocks).rev() {
                let got = oram.access(AccessKind::Read, b, None, &mut sink).unwrap();
                assert_eq!(got, Some(payload(b)), "{op:?}, {clean}: block {b}");
            }
            oram.validate_invariants().unwrap_or_else(|e| panic!("{op:?}, {clean}: {e}"));
        }
    }

    #[test]
    fn an_evict_path_moves_few_blocks_through_the_stash() {
        // Before blocks were held, every block an evictPath read was
        // inserted into the stash and every pick removed from it. Now only
        // the stash's own picks and the read blocks no bucket took move.
        // Counted on the benchmark's engine after its 81 920-access
        // warm-up, each scheduled evictPath run on its own, one access early.
        use rand::Rng;
        let cfg = OramConfig::builder(14, Scheme::Ab).build().unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 81_920);
        let entries_on = |oram: &RingOram, path| -> u64 {
            oram.geo.path_buckets(path).map(|b| oram.meta.get(b).entries().len() as u64).sum()
        };
        let mut rng = StdRng::seed_from_u64(19);
        let (mut evictions, mut read, mut picked, mut moved) = (0, 0, 0, 0);
        while evictions < 200 {
            if oram.reads_since_evict + 1 == EVICT_RATE_A {
                let path = reverse_lex_path(oram.evict_counter, oram.geo.levels());
                read += entries_on(&oram, path);
                let before = crate::stash::MOVES.with(|m| m.get());
                oram.evict_path(OramOp::EvictPath, &mut sink).unwrap();
                moved += crate::stash::MOVES.with(|m| m.get()) - before;
                picked += entries_on(&oram, path);
                oram.reads_since_evict = 0;
                evictions += 1;
            }
            let b = rng.gen_range(0..oram.block_count());
            oram.access(AccessKind::Read, b, None, &mut sink).unwrap();
        }
        let per = |n: u64| n as f64 / f64::from(evictions);
        println!(
            "per evictPath: {:.1} read + {:.1} placed = {:.1} stash moves before, {:.1} now",
            per(read),
            per(picked),
            per(read + picked),
            per(moved)
        );
        assert!(moved * 3 < read + picked, "{moved} stash moves against {read} + {picked}");
        oram.validate_invariants().unwrap();
    }

    #[test]
    fn bulk_load_places_every_block_on_its_path() {
        let oram = engine(Scheme::Baseline, 10);
        for b in 0..oram.config().real_block_count() {
            assert!(oram.check_block_reachable(b), "block {b} misplaced at init");
        }
        assert!(oram.stash_len() < 50, "bulk load should rarely spill to stash");
    }

    #[test]
    fn evict_path_runs_every_a_accesses() {
        let mut oram = engine(Scheme::Baseline, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 100);
        // A = 5, no background accesses expected at this scale.
        assert_eq!(oram.stats().evict_paths, 20);
    }

    #[test]
    fn bucket_counts_never_exceed_budget() {
        let mut oram = engine(Scheme::Ab, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 2_000);
        for raw in 0..oram.geometry().bucket_count() {
            let bucket = BucketId::new(raw);
            let m = oram.meta.get(bucket);
            let budget = oram.budget(bucket);
            assert!(m.count <= budget, "{bucket}: count {} exceeds budget {budget}", m.count);
        }
    }

    #[test]
    fn dummy_reads_only_touch_valid_slots() {
        // Indirect check: the engine debug-asserts slot validity on every
        // read; a long churn under the most aggressive scheme exercises it.
        let mut oram = engine(Scheme::Ab, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 5_000);
    }

    #[test]
    fn remote_reads_happen_only_with_extension_schemes() {
        for (scheme, expect_remote) in
            [(Scheme::Baseline, false), (Scheme::NS, false), (Scheme::DR, true), (Scheme::Ab, true)]
        {
            let mut oram = engine(scheme, 10);
            let mut sink = CountingSink::new();
            churn(&mut oram, &mut sink, 8_000);
            let remote = oram.stats().remote_slot_reads > 0;
            assert_eq!(remote, expect_remote, "{scheme}");
        }
    }

    #[test]
    fn borrowed_slots_always_point_into_same_level() {
        let mut oram = engine(Scheme::Ab, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 8_000);
        for raw in 0..oram.geometry().bucket_count() {
            let bucket = BucketId::new(raw);
            for slot in oram.meta.get(bucket).borrowed() {
                assert_eq!(slot.bucket.level(), bucket.level(), "cross-level borrow");
                assert_ne!(slot.bucket, bucket, "self-borrow");
            }
        }
    }

    #[test]
    fn real_entries_live_in_own_slots_only() {
        let mut oram = engine(Scheme::Ab, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 8_000);
        for raw in 0..oram.geometry().bucket_count() {
            let bucket = BucketId::new(raw);
            let m = oram.meta.get(bucket);
            for e in m.entries() {
                assert!(!m.is_remote(e.ptr), "{bucket}: real block in remote slot");
            }
        }
    }

    #[test]
    fn dead_census_matches_metadata_scan() {
        let mut oram = engine(Scheme::Baseline, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 3_000);
        // Recompute the census from slot statuses and compare.
        let recount: u64 = (0..oram.geometry().bucket_count())
            .map(|b| u64::from(oram.meta.get(BucketId::new(b)).not_refreshed_mask().count_ones()))
            .sum();
        assert_eq!(recount, oram.stats().dead_total(), "incremental census drifted");
    }

    #[test]
    fn treetop_suppresses_offchip_traffic() {
        let cfg_cached =
            OramConfig::builder(10, Scheme::Baseline).seed(3).treetop_levels(5).build().unwrap();
        let cfg_bare =
            OramConfig::builder(10, Scheme::Baseline).seed(3).treetop_levels(1).build().unwrap();
        let mut a = RingOram::new(&cfg_cached).unwrap();
        let mut b = RingOram::new(&cfg_bare).unwrap();
        let mut sa = CountingSink::new();
        let mut sb = CountingSink::new();
        churn(&mut a, &mut sa, 500);
        churn(&mut b, &mut sb, 500);
        assert!(
            sa.grand_total() < sb.grand_total(),
            "deeper treetop must cut off-chip traffic ({} vs {})",
            sa.grand_total(),
            sb.grand_total()
        );
    }

    #[test]
    fn stash_hits_are_served_correctly() {
        let cfg =
            OramConfig::builder(10, Scheme::Baseline).seed(3).store_data(true).build().unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        oram.write(9, [0x99; BLOCK_BYTES], &mut sink).unwrap();
        // Immediately re-read: the block is almost certainly still in the
        // stash, exercising the stash-hit path.
        let before = oram.stats().stash_hits;
        let data = oram.read(9, &mut sink).unwrap();
        assert_eq!(data, [0x99; BLOCK_BYTES]);
        assert!(oram.stats().stash_hits >= before);
    }

    #[test]
    fn access_observed_reports_plausible_levels() {
        let mut oram = engine(Scheme::Baseline, 10);
        let mut sink = CountingSink::new();
        let mut tree_serves = 0;
        for b in 0..200u64 {
            if let Some(level) = oram.access_observed(b, &mut sink).unwrap() {
                assert!(level.0 < 10);
                tree_serves += 1;
            }
        }
        assert!(tree_serves > 150, "most first accesses come from the tree");
    }

    #[test]
    fn dynamic_s_reflects_borrowing() {
        let mut oram = engine(Scheme::DR, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 10_000);
        // At DR levels, extended buckets advertise dynamicS = s1 + 2.
        let leaf_cfg = oram.geometry().level_config(Level(9));
        assert!(leaf_cfg.has_dynamic_extension());
        let mut extended = 0;
        let mut plain = 0;
        for i in 0..oram.geometry().buckets_at_level(Level(9)) {
            let m = oram.meta.get(BucketId::from_level_index(Level(9), i));
            if m.borrowed_len() == 2 {
                assert_eq!(m.dynamic_s, leaf_cfg.s_dummies + 2);
                extended += 1;
            } else if m.borrowed_len() == 0 {
                plain += 1;
            }
        }
        assert!(extended > 0, "some buckets extended ({extended} ext, {plain} plain)");
    }

    #[test]
    fn counting_sink_tracks_metadata_writeback() {
        let mut oram = engine(Scheme::Baseline, 10);
        let mut sink = CountingSink::new();
        churn(&mut oram, &mut sink, 50);
        // Every off-chip metadata read is paired with a write-back.
        assert!(sink.reads(OramOp::Metadata) > 0);
        assert!(sink.writes(OramOp::Metadata) >= sink.reads(OramOp::Metadata) / 2);
    }
}

#[cfg(test)]
mod growth_tests {
    use super::*;
    use crate::config::{GrowthConfig, Scheme};
    use crate::sink::CountingSink;

    fn growing(scheme: Scheme, levels: u8, max_levels: u8) -> RingOram {
        let cfg = OramConfig::builder(levels, scheme)
            .seed(3)
            .growth(GrowthConfig::up_to(max_levels))
            .build()
            .unwrap();
        RingOram::new(&cfg).unwrap()
    }

    fn drain(oram: &mut RingOram, sink: &mut CountingSink) {
        let mut i = 0u64;
        while oram.growth_state().backlog() > 0 {
            oram.access(AccessKind::Read, i % oram.block_count(), None, sink).unwrap();
            i += 1;
        }
    }

    #[test]
    fn insert_at_capacity_grows_one_level() {
        let mut oram = growing(Scheme::Ab, 8, 10);
        let cap8 = oram.config().real_block_count();
        assert_eq!(oram.block_count(), cap8);
        let b = oram.insert_block(None).unwrap();
        assert_eq!(b, cap8, "new block id is the old count");
        assert_eq!(oram.config().levels, 9, "full tree grew on insert");
        assert_eq!(oram.growth_state().epochs(), 1);
        assert!(oram.growth_state().backlog() > 0, "old buckets await relocation");
        oram.validate_invariants().unwrap();
    }

    #[test]
    fn backlog_drains_incrementally_and_blocks_stay_reachable() {
        let mut oram = growing(Scheme::Ab, 8, 10);
        let mut sink = CountingSink::new();
        oram.insert_block(None).unwrap();
        let backlog0 = oram.growth_state().backlog();
        oram.access(AccessKind::Read, 0, None, &mut sink).unwrap();
        let per = u64::from(RELOCS_PER_ACCESS);
        assert!(
            oram.growth_state().backlog() + per <= backlog0 + oram.config().levels as u64,
            "each access must retire roughly RELOCS_PER_ACCESS buckets"
        );
        drain(&mut oram, &mut sink);
        assert_eq!(oram.growth_state().backlog(), 0);
        assert!(oram.growth_state().relocations() > 0, "incremental drain did work");
        oram.validate_invariants().unwrap();
        for b in 0..oram.block_count() {
            assert!(oram.check_block_reachable(b), "block {b} lost across the grow");
        }
    }

    #[test]
    fn growth_fills_to_the_ceiling_then_exhausts() {
        let mut oram = growing(Scheme::Baseline, 8, 9);
        let mut sink = CountingSink::new();
        let cap9 = ((1u64 << 9) - 1) * 5 / 2;
        while oram.block_count() < cap9 {
            oram.insert_block(None).unwrap();
            // Interleave accesses so the stash never saturates with births.
            for _ in 0..2 {
                oram.access(AccessKind::Read, 0, None, &mut sink).unwrap();
            }
        }
        assert_eq!(oram.config().levels, 9);
        let err = oram.insert_block(None).unwrap_err();
        assert!(matches!(err, OramError::CapacityExhausted { levels: 9, max_levels: 9 }));
    }

    #[test]
    fn insert_without_growth_config_is_capacity_exhausted() {
        let cfg = OramConfig::builder(8, Scheme::Baseline).seed(1).build().unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let err = oram.insert_block(None).unwrap_err();
        assert!(matches!(err, OramError::CapacityExhausted { levels: 8, max_levels: 8 }));
        assert!(matches!(oram.grow_level(), Err(OramError::CapacityExhausted { .. })));
    }

    #[test]
    fn a_grown_level_appends_records_without_moving_any() {
        let mut oram = growing(Scheme::Ab, 8, 10);
        let mut sink = CountingSink::new();
        let address = |oram: &RingOram, raw: u64| {
            oram.meta.get(BucketId::new(raw)) as *const crate::metadata::BucketMeta as usize
        };
        let old = oram.geometry().bucket_count();
        let before: Vec<usize> = (0..old).map(|raw| address(&oram, raw)).collect();
        let records: Vec<_> = (0..old).map(|raw| *oram.meta.get(BucketId::new(raw))).collect();
        for _ in 0..2 {
            oram.grow_level().unwrap();
        }
        // The grown tree's last bucket has an initialized record.
        let last = BucketId::new(oram.geometry().bucket_count() - 1);
        assert!(oram.meta.get(last).logical_slots > 0);
        for raw in 0..old {
            assert_eq!(address(&oram, raw), before[raw as usize], "bucket {raw} moved");
            assert_eq!(*oram.meta.get(BucketId::new(raw)), records[raw as usize]);
        }
        // The appended records are contiguous within their segment.
        let size = std::mem::size_of::<crate::metadata::BucketMeta>();
        let grown = oram.geometry().bucket_count();
        assert_eq!(address(&oram, grown - 1) - address(&oram, grown - 2), size);
        drain(&mut oram, &mut sink);
        oram.validate_invariants().unwrap();
    }

    #[test]
    fn grow_refused_while_integrity_armed() {
        let mut oram = growing(Scheme::Ab, 8, 10);
        oram.enable_integrity();
        assert!(matches!(oram.grow_level(), Err(OramError::BadParameter { .. })));
    }

    #[test]
    fn data_path_survives_growth() {
        let cfg = OramConfig::builder(8, Scheme::Ab)
            .seed(5)
            .store_data(true)
            .growth(GrowthConfig::up_to(9))
            .build()
            .unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        oram.write(3, [0xAB; BLOCK_BYTES], &mut sink).unwrap();
        let b = oram.insert_block(None).unwrap();
        assert_eq!(oram.config().levels, 9);
        oram.write(b, [0xCD; BLOCK_BYTES], &mut sink).unwrap();
        for i in 0..600u64 {
            oram.access(AccessKind::Read, i % oram.block_count(), None, &mut sink).unwrap();
        }
        assert_eq!(oram.read(3, &mut sink).unwrap(), [0xAB; BLOCK_BYTES]);
        assert_eq!(oram.read(b, &mut sink).unwrap(), [0xCD; BLOCK_BYTES]);
    }
}
