//! Global, content-addressed, immutable codebook registry with a
//! hot/cold memory hierarchy — ROADMAP item 5.
//!
//! Every [`crate::session::Session`] used to own its codebooks outright,
//! so many-tenant serving duplicated packed lane-major mirrors for every
//! tenant. The registry interns codebook *sets* by a content hash of
//! their sign words: sessions, carved shards, and service pools hold
//! [`CodebookHandle`]s and resolve them to one shared allocation, so 64
//! tenants over one codebook set cost one set's bytes, not 64.
//!
//! # The two tiers
//!
//! The GEM3D-CIM SRAM/eDRAM hybrid hierarchy (PAPERS.md) is the explicit
//! blueprint — hot packed mirrors as the "SRAM" tier, dense cold
//! codebooks as a rebuild-on-demand "eDRAM" tier:
//!
//! - **Cold tier** (always resident): the interned set with row-major
//!   sign words only
//!   ([`hdc::packed::PackedCodebook::drop_lane_mirror`]). Every kernel
//!   stays available and value-identical on this representation.
//! - **Hot tier** (LRU, byte-budgeted): a promoted mirror of the set in
//!   which the lane-major half (the layout of the similarity kernel's
//!   eight-row strip walk) is materialized **only for members whose shape
//!   the strip walk wins at** (`gets_mirror`: the row-major words fit
//!   L1d, ≤ 48 KiB, or rows are at most 16 words, D ≤ 1024). When no
//!   member qualifies, the hot representation *is* the cold `Arc` (zero
//!   duplication), and the similarity kernel and the decode take their
//!   per-row walk over the row-major words. Tier state never changes a
//!   result either way.
//!
//! [`CodebookHandle::resolve`] touches the entry (a logical access
//! counter, never wall time), promotes cold→hot on a miss, and returns
//! the hot `Arc`. When the hot tier exceeds its byte budget, the
//! least-recently-touched entries are demoted — the registry drops its
//! hot `Arc` (in-flight solves holding the `Arc` are unaffected; the
//! memory is reclaimed when the last borrower finishes) and the next
//! touch rebuilds the mirrors bit-identically.
//!
//! # Determinism
//!
//! Registry decisions (dedup, promotion, demotion order) are pure
//! functions of the interning/access sequence — no clocks, no
//! randomness. More importantly, the determinism contracts do not *rest*
//! on tier state at all: every kernel output is the same exact integer
//! whether a codebook is hot or cold, so `threads(N) ≡ threads(1)`,
//! live ≡ replay, and the golden cells hold in any tier state. Each
//! solve pass resolves its handle **once** and runs against that one
//! `Arc`, so the logical access clock — and with it the LRU order and
//! [`RegistryStats`] — counts passes, not items.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hdc::Codebook;

/// Default hot-tier byte budget of the [global](CodebookRegistry::global)
/// registry: generous enough that single-process workloads never thrash,
/// small enough to bound mirror duplication under thousands of tenants.
pub const DEFAULT_HOT_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// Row-major footprint (which the lane-major mirror duplicates exactly)
/// up to which every measured shape's per-query similarity MVM ran faster
/// on the lane mirror: the host's L1d.
const MIRROR_MAX_BYTES: usize = 48 * 1024;

/// Row width in 64-bit words (D ≤ 1024) up to which the lane mirror won
/// at every measured footprint, L1-resident or not.
const MIRROR_MAX_ROW_WORDS: usize = 16;

/// True when the per-query similarity kernel wins on `book`'s lane mirror,
/// so the hot tier materializes one. Depends only on the shape, never on
/// mirror state.
///
/// Measured with `PackedCodebook::similarities_into`, row walk vs lane
/// mirror, best of 5 × 40 ms over 16 queries, on a 2-vCPU Xeon
/// (AVX-512 `vpopcnt` arm, `target-cpu=native`, 48 KiB L1d, 2 MiB L2 per
/// core); speedup = row-walk time / mirror time:
///
/// | shape (M×D) | row bytes | speedup | mirror |
/// |---|---|---|---|
/// | 8×256 | 256 B | 2.44× | yes |
/// | 64×256 | 2 KiB | 3.70× | yes |
/// | 256×1024 | 32 KiB | 3.09× | yes |
/// | 64×4096 | 32 KiB | 1.24× | yes |
/// | 96×4096 | 48 KiB | 1.12–1.27× | yes |
/// | 1024×1024 | 128 KiB | 2.59× | yes |
/// | 4096×512 | 256 KiB | 3.50× | yes |
/// | 128×4096 | 64 KiB | 0.85–0.89× | no |
/// | 64×8192 | 64 KiB | 0.63–0.84× | no |
/// | 256×2560 | 80 KiB | 0.91–0.97× | no |
/// | 2048×2048 | 512 KiB | 0.95–0.98× | no |
/// | 1024×8192 | 1 MiB | 0.60× | no |
///
/// Rows of 32 words past L1d (256–8192 × 2048) swung between 0.89× and
/// 1.94× from run to run, so they stay on the row walk: no mirror bytes
/// for no dependable gain.
fn gets_mirror(book: &Codebook) -> bool {
    let packed = book.packed();
    packed.row_bytes() <= MIRROR_MAX_BYTES || packed.words_per_row() <= MIRROR_MAX_ROW_WORDS
}

/// Point-in-time counters of one [`CodebookRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Distinct codebook sets interned.
    pub interned_sets: u64,
    /// Intern calls answered by an existing entry (content match).
    pub dedup_hits: u64,
    /// Handle resolutions (touches).
    pub resolves: u64,
    /// Resolutions that found the entry already hot.
    pub hot_hits: u64,
    /// Cold→hot promotions (including zero-cost ones where no member
    /// gets a mirror and hot aliases cold).
    pub promotions: u64,
    /// Promotions that actually materialized lane mirrors.
    pub materializations: u64,
    /// Hot→cold demotions (lane mirrors dropped under budget pressure).
    pub demotions: u64,
    /// Lane-mirror bytes currently held by the hot tier over cold.
    pub hot_bytes: u64,
    /// Packed row-major bytes held by the interned cold tier.
    pub cold_bytes: u64,
}

impl RegistryStats {
    /// Total packed bytes resident in the registry (cold rows + hot
    /// lane mirrors).
    pub fn resident_bytes(&self) -> u64 {
        self.cold_bytes + self.hot_bytes
    }

    /// Fraction of resolves served without a promotion, in `[0, 1]`
    /// (1.0 when nothing was resolved).
    pub fn hot_hit_rate(&self) -> f64 {
        if self.resolves == 0 {
            1.0
        } else {
            self.hot_hits as f64 / self.resolves as f64
        }
    }
}

/// One interned codebook set.
struct SetEntry {
    /// Content hash the set was interned under.
    hash: u64,
    /// The cold representation: row-major sign words only. Never
    /// dropped; identity-stable for the registry's lifetime.
    cold: Arc<[Codebook]>,
    /// The hot representation when promoted. Aliases `cold` when no
    /// member gets a mirror; otherwise a mirror-materialized copy (possibly
    /// *partial* after member-granular demotion — see
    /// [`CodebookRegistry::enforce_budget`]).
    hot: Option<Arc<[Codebook]>>,
    /// Lane-mirror bytes the hot representation adds over cold (the sum
    /// of `hot_member_bytes`).
    hot_extra_bytes: usize,
    /// Per-member lane-mirror bytes currently materialized in `hot`
    /// (0 for members without a mirror or whose mirror was demoted).
    hot_member_bytes: Vec<usize>,
    /// Per-member: true when that member [gets a mirror](gets_mirror)
    /// (shape-derived, fixed at intern).
    member_mirrored: Vec<bool>,
    /// True when at least one member gets a mirror (so promotion
    /// materializes mirrors and demotion reclaims bytes).
    any_mirrored: bool,
    /// Logical clock of the last touch (the LRU key).
    last_touch: u64,
}

impl SetEntry {
    /// True when the hot representation carries every mirror a full
    /// promotion would build — i.e. every mirrored member is currently
    /// materialized. Partially-demoted entries fail this and re-promote
    /// on the next touch.
    fn hot_is_complete(&self) -> bool {
        self.member_mirrored
            .iter()
            .zip(&self.hot_member_bytes)
            .all(|(&mirrored, &bytes)| !mirrored || bytes > 0)
    }
}

struct RegistryInner {
    /// Interned sets in interning order; [`CodebookHandle::slot`]
    /// indexes this table.
    sets: Vec<SetEntry>,
    /// Content hash → slots carrying it (collision chain).
    by_hash: HashMap<u64, Vec<usize>>,
    /// Logical access counter; advanced by every resolve.
    clock: u64,
    stats: RegistryStats,
}

/// The content-addressed codebook store. See the [module docs](self).
///
/// Construct one per test/bench for isolation, or share the process-wide
/// [`CodebookRegistry::global`] (the session builder's default).
pub struct CodebookRegistry {
    hot_budget_bytes: usize,
    inner: Mutex<RegistryInner>,
}

impl Default for CodebookRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CodebookRegistry {
    /// A registry with the [default](DEFAULT_HOT_BUDGET_BYTES) hot-tier
    /// budget.
    pub fn new() -> Self {
        Self::with_hot_budget(DEFAULT_HOT_BUDGET_BYTES)
    }

    /// A registry whose hot tier demotes past `budget_bytes` of
    /// materialized lane mirrors. A budget of 0 keeps every set cold
    /// (mirrors are built per promotion and immediately reclaimable; sets
    /// without mirrored members alias cold and cost nothing).
    pub fn with_hot_budget(budget_bytes: usize) -> Self {
        Self {
            hot_budget_bytes: budget_bytes,
            inner: Mutex::new(RegistryInner {
                sets: Vec::new(),
                by_hash: HashMap::new(),
                clock: 0,
                stats: RegistryStats::default(),
            }),
        }
    }

    /// The process-wide registry every session uses unless
    /// [`crate::session::SessionBuilder::registry`] overrides it.
    pub fn global() -> Arc<CodebookRegistry> {
        static GLOBAL: OnceLock<Arc<CodebookRegistry>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Arc::new(CodebookRegistry::new()))
            .clone()
    }

    /// The configured hot-tier byte budget.
    pub fn hot_budget_bytes(&self) -> usize {
        self.hot_budget_bytes
    }

    /// Interns `books` as one immutable set and returns its handle.
    /// A set whose content (dimensions and sign words) matches an
    /// existing entry shares that entry — the new allocation is dropped
    /// and both handles resolve to pointer-equal `Arc`s.
    ///
    /// # Panics
    ///
    /// Panics if `books` is empty (a factorization needs at least one
    /// codebook) or the registry mutex is poisoned.
    pub fn intern(registry: &Arc<CodebookRegistry>, mut books: Vec<Codebook>) -> CodebookHandle {
        assert!(!books.is_empty(), "cannot intern an empty codebook set");
        let hash = content_hash(&books);
        let mut inner = registry.inner.lock().expect("registry poisoned");
        if let Some(slots) = inner.by_hash.get(&hash) {
            for &slot in slots {
                if same_content(&inner.sets[slot].cold, &books) {
                    inner.stats.dedup_hits += 1;
                    return CodebookHandle {
                        registry: Arc::clone(registry),
                        slot,
                    };
                }
            }
        }
        // New content: store the cold (row-major-only) representation.
        let mut member_mirrored = Vec::with_capacity(books.len());
        let mut cold_bytes = 0usize;
        for b in &mut books {
            b.drop_lane_mirror();
            member_mirrored.push(gets_mirror(b));
            cold_bytes += b.packed().row_bytes();
        }
        let any_mirrored = member_mirrored.iter().any(|&s| s);
        let slot = inner.sets.len();
        let clock = inner.clock;
        inner.sets.push(SetEntry {
            hash,
            cold: books.into(),
            hot: None,
            hot_extra_bytes: 0,
            hot_member_bytes: vec![0; member_mirrored.len()],
            member_mirrored,
            any_mirrored,
            last_touch: clock,
        });
        inner.by_hash.entry(hash).or_default().push(slot);
        inner.stats.interned_sets += 1;
        inner.stats.cold_bytes += cold_bytes as u64;
        CodebookHandle {
            registry: Arc::clone(registry),
            slot,
        }
    }

    /// Current counters.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned.
    pub fn stats(&self) -> RegistryStats {
        self.inner.lock().expect("registry poisoned").stats
    }

    /// Touches `slot`, promoting it hot if needed, and returns the hot
    /// `Arc`.
    fn resolve_slot(&self, slot: usize) -> Arc<[Codebook]> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        inner.stats.resolves += 1;
        let entry = &mut inner.sets[slot];
        entry.last_touch = clock;
        if let Some(hot) = entry.hot.as_ref().map(Arc::clone) {
            if entry.hot_is_complete() {
                inner.stats.hot_hits += 1;
                return hot;
            }
            // Partially demoted: fall through and re-materialize the
            // missing member mirrors below (counted as a promotion +
            // materialization, not a hot hit).
        }
        // Promotion. Sets without mirrored members alias the cold Arc (no
        // duplicated bytes; their similarity kernels take the per-row
        // walk). Others get a mirror-materialized copy; a
        // partially-demoted set starts from its current hot copy so
        // surviving mirrors are reused rather than rebuilt.
        let hot = if entry.any_mirrored {
            let base = entry.hot.as_ref().unwrap_or(&entry.cold);
            let mut copy: Vec<Codebook> = base.to_vec();
            let mut added = 0usize;
            for (i, b) in copy.iter_mut().enumerate() {
                if entry.member_mirrored[i] && entry.hot_member_bytes[i] == 0 {
                    b.materialize_lane_mirror();
                    let bytes = b.packed().lane_mirror_bytes();
                    entry.hot_member_bytes[i] = bytes;
                    added += bytes;
                }
            }
            entry.hot_extra_bytes += added;
            inner.stats.materializations += 1;
            inner.stats.hot_bytes += added as u64;
            Arc::from(copy)
        } else {
            Arc::clone(&entry.cold)
        };
        inner.sets[slot].hot = Some(Arc::clone(&hot));
        inner.stats.promotions += 1;
        self.enforce_budget(&mut inner, slot);
        hot
    }

    /// Demotes materialized lane mirrors until the hot tier fits its
    /// budget. Granularity is one *member* mirror per step — the
    /// least-recently-touched hot set (other than `protected`, the entry
    /// just touched) gives up its largest remaining mirror (ties break
    /// toward the higher member index), so a set with one mirrored
    /// member under pressure no longer pins its siblings' mirrors. A set
    /// whose last mirror is demoted drops its hot `Arc` entirely and
    /// re-promotes on the next touch; a partially-demoted set stays hot
    /// and re-materializes only the missing members.
    fn enforce_budget(&self, inner: &mut RegistryInner, protected: usize) {
        while inner.stats.hot_bytes > self.hot_budget_bytes as u64 {
            let victim = inner
                .sets
                .iter()
                .enumerate()
                .filter(|(slot, e)| *slot != protected && e.hot.is_some() && e.hot_extra_bytes > 0)
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(slot, _)| slot);
            let Some(slot) = victim else { break };
            let entry = &mut inner.sets[slot];
            let (member, freed) = entry
                .hot_member_bytes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b > 0)
                .max_by_key(|&(i, &b)| (b, i))
                .map(|(i, &b)| (i, b))
                .expect("hot_extra_bytes > 0 implies a materialized member");
            entry.hot_member_bytes[member] = 0;
            entry.hot_extra_bytes -= freed;
            if entry.hot_extra_bytes == 0 {
                // Last mirror gone: nothing distinguishes hot from cold
                // any more, so release the copy wholesale.
                entry.hot = None;
            } else {
                let mut copy: Vec<Codebook> = entry
                    .hot
                    .as_ref()
                    .expect("victim filter requires hot")
                    .to_vec();
                copy[member].drop_lane_mirror();
                entry.hot = Some(Arc::from(copy));
            }
            inner.stats.hot_bytes -= freed as u64;
            inner.stats.demotions += 1;
        }
    }
}

impl std::fmt::Debug for CodebookRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodebookRegistry")
            .field("hot_budget_bytes", &self.hot_budget_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A reference to one interned codebook set. Cheap to clone; two handles
/// compare equal exactly when they address the same entry of the same
/// registry (and therefore resolve to pointer-equal `Arc`s).
#[derive(Clone)]
pub struct CodebookHandle {
    registry: Arc<CodebookRegistry>,
    slot: usize,
}

impl CodebookHandle {
    /// Touches the entry (LRU), promotes it hot if demoted, and returns
    /// the current hot `Arc`. Callers resolve once per solve pass and run
    /// the whole pass against that `Arc`, so the access clock counts
    /// passes, not items.
    pub fn resolve(&self) -> Arc<[Codebook]> {
        self.registry.resolve_slot(self.slot)
    }

    /// The registry this handle addresses.
    pub fn registry(&self) -> &Arc<CodebookRegistry> {
        &self.registry
    }
}

impl PartialEq for CodebookHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.registry, &other.registry) && self.slot == other.slot
    }
}

impl Eq for CodebookHandle {}

impl std::fmt::Debug for CodebookHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.registry.inner.lock().expect("registry poisoned");
        f.debug_struct("CodebookHandle")
            .field("slot", &self.slot)
            .field("hash", &format_args!("{:016x}", inner.sets[self.slot].hash))
            .finish()
    }
}

/// FNV-1a over the full content of a codebook set: member count, then
/// each member's `(M, D)` shape and every vector's packed sign words.
/// Collisions are disambiguated by [`same_content`], so the hash only
/// has to be well-distributed, not cryptographic.
fn content_hash(books: &[Codebook]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(books.len() as u64);
    for b in books {
        mix(b.len() as u64);
        mix(b.dim() as u64);
        for v in b.vectors() {
            for &w in v.words() {
                mix(w);
            }
        }
    }
    h
}

/// Full content comparison (shape + sign words), used to disambiguate
/// hash collisions and to dedup re-interned sets.
fn same_content(a: &[Codebook], b: &[Codebook]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.dim() == y.dim()
                && x.vectors()
                    .iter()
                    .zip(y.vectors())
                    .all(|(u, v)| u.words() == v.words())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;

    fn books(m: usize, d: usize, n: usize, seed: u64) -> Vec<Codebook> {
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| Codebook::random(m, d, &mut rng)).collect()
    }

    #[test]
    fn identical_content_interns_once() {
        let reg = Arc::new(CodebookRegistry::new());
        let h1 = CodebookRegistry::intern(&reg, books(8, 256, 3, 11));
        let h2 = CodebookRegistry::intern(&reg, books(8, 256, 3, 11));
        assert_eq!(h1, h2);
        assert!(Arc::ptr_eq(&h1.resolve(), &h2.resolve()));
        let stats = reg.stats();
        assert_eq!(stats.interned_sets, 1);
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn distinct_content_gets_distinct_entries() {
        let reg = Arc::new(CodebookRegistry::new());
        let h1 = CodebookRegistry::intern(&reg, books(8, 256, 3, 11));
        let h2 = CodebookRegistry::intern(&reg, books(8, 256, 3, 12));
        assert_ne!(h1, h2);
        assert!(!Arc::ptr_eq(&h1.resolve(), &h2.resolve()));
        assert_eq!(reg.stats().interned_sets, 2);
    }

    /// Lane-mirror bytes of one 64×256 member, the unit the budget tests
    /// size their hot tiers in.
    const SMALL_MIRROR: usize = 64 * 256 / 8;

    #[test]
    fn unmirrored_sets_alias_cold_with_zero_hot_bytes() {
        let reg = Arc::new(CodebookRegistry::new());
        // 128×4096 rows: 64 KiB past L1d with 64-word rows, where the row
        // walk beats the strip walk.
        let h = CodebookRegistry::intern(&reg, books(128, 4096, 2, 13));
        let resolved = h.resolve();
        assert!(resolved.iter().all(|b| !b.has_lane_mirror()));
        let stats = reg.stats();
        assert_eq!(stats.hot_bytes, 0, "unmirrored sets duplicate nothing");
        assert!(stats.cold_bytes > 0);
        // Second resolve is a hot hit on the aliased Arc.
        let again = h.resolve();
        assert!(Arc::ptr_eq(&resolved, &again));
        assert_eq!(reg.stats().hot_hits, 1);
    }

    #[test]
    fn mirrored_sets_materialize_mirrors_on_promotion() {
        let reg = Arc::new(CodebookRegistry::new());
        let h = CodebookRegistry::intern(&reg, books(8, 256, 3, 14));
        assert_eq!(reg.stats().hot_bytes, 0, "intern does not promote");
        let resolved = h.resolve();
        assert!(resolved.iter().all(|b| b.has_lane_mirror()));
        let stats = reg.stats();
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.hot_bytes, stats.cold_bytes, "mirror == row bytes");
    }

    #[test]
    fn mirror_predicate_is_mirror_state_independent() {
        // Shapes on both sides of the measured crossover (see
        // `gets_mirror`). The predicate must not change with mirror
        // presence.
        for (m, d, expect) in [
            (8usize, 256usize, true),
            (96, 4096, true),
            (1024, 1024, true),
            (128, 4096, false),
            (256, 2560, false),
            (2048, 2048, false),
        ] {
            let mut book = books(m, d, 1, 73).remove(0);
            assert!(book.has_lane_mirror());
            assert_eq!(gets_mirror(&book), expect, "m={m} d={d}");
            book.drop_lane_mirror();
            assert_eq!(gets_mirror(&book), expect, "m={m} d={d}");
        }
    }

    #[test]
    fn lru_demotion_reclaims_and_rebuilds_bit_identically() {
        // Budget fits exactly one 64×256 mirror; two mirrored sets must
        // evict each other in LRU order.
        let reg = Arc::new(CodebookRegistry::with_hot_budget(SMALL_MIRROR));
        let h1 = CodebookRegistry::intern(&reg, books(64, 256, 1, 15));
        let h2 = CodebookRegistry::intern(&reg, books(64, 256, 1, 16));
        let first = h1.resolve();
        assert_eq!(reg.stats().demotions, 0);
        let _second = h2.resolve();
        let stats = reg.stats();
        assert_eq!(stats.demotions, 1, "h1 demoted to admit h2");
        assert!(stats.hot_bytes <= SMALL_MIRROR as u64);
        // The demoted entry rebuilds on next touch, bit-identical.
        let rebuilt = h1.resolve();
        assert!(!Arc::ptr_eq(&first, &rebuilt), "rebuild is a fresh Arc");
        assert_eq!(&first[..], &rebuilt[..], "rebuild is content-identical");
        assert_eq!(reg.stats().demotions, 2, "h2 demoted in turn");
    }

    #[test]
    fn demotion_is_member_granular_not_set_granular() {
        // One set with two mirrored members (two 64×256 mirrors) plus one
        // single-member set, under a budget that fits 2.5 mirrors.
        // Pressure must shave ONE mirror off the LRU set, not evict the
        // whole set.
        let reg = Arc::new(CodebookRegistry::with_hot_budget(SMALL_MIRROR * 5 / 2));
        let pair = CodebookRegistry::intern(&reg, books(64, 256, 2, 18));
        let single = CodebookRegistry::intern(&reg, books(64, 256, 1, 19));
        let pair_hot = pair.resolve();
        assert!(pair_hot.iter().all(|b| b.has_lane_mirror()));
        assert_eq!(reg.stats().hot_bytes, 2 * SMALL_MIRROR as u64);
        let _single_hot = single.resolve();
        let stats = reg.stats();
        assert_eq!(
            stats.demotions, 1,
            "exactly one member mirror demoted (equal sizes tie toward the higher index)"
        );
        assert_eq!(
            stats.hot_bytes,
            2 * SMALL_MIRROR as u64,
            "pair keeps one mirror resident; set-granular eviction would leave only one total"
        );
        // In-flight borrowers of the pre-demotion Arc are untouched.
        assert!(pair_hot.iter().all(|b| b.has_lane_mirror()));
        // Re-touching the partially-demoted set re-materializes only the
        // missing member (promotion + materialization, not a hot hit).
        let hits_before = stats.hot_hits;
        let repromoted = pair.resolve();
        assert!(repromoted.iter().all(|b| b.has_lane_mirror()));
        assert_eq!(
            &pair_hot[..],
            &repromoted[..],
            "rebuild is content-identical"
        );
        let stats = reg.stats();
        assert_eq!(stats.hot_hits, hits_before, "partial hot set is not a hit");
        assert_eq!(
            stats.demotions, 2,
            "re-promotion pushed the single-member set's mirror out in turn"
        );
        assert!(stats.hot_bytes <= (SMALL_MIRROR * 5 / 2) as u64);
    }

    #[test]
    fn interning_from_two_threads_yields_one_allocation() {
        let reg = Arc::new(CodebookRegistry::new());
        let handles: Vec<CodebookHandle> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    scope.spawn(move || CodebookRegistry::intern(&reg, books(8, 256, 3, 17)))
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(handles[0], handles[1]);
        assert!(Arc::ptr_eq(&handles[0].resolve(), &handles[1].resolve()));
        assert_eq!(reg.stats().interned_sets, 1);
    }

    #[test]
    #[should_panic(expected = "empty codebook set")]
    fn empty_set_rejected() {
        let reg = Arc::new(CodebookRegistry::new());
        let _ = CodebookRegistry::intern(&reg, Vec::new());
    }
}
