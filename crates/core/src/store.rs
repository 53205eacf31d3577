//! LUT storage in a pLUTo-enabled subarray.
//!
//! Paper §4 / Fig. 2: the pLUTo-enabled subarray stores *multiple vertical
//! copies* of a LUT — row *i* contains the element at index *i*, replicated
//! across the full row width so that every comparator position can read it.
//!
//! For GSA (destructive reads, §5.2.1) a pristine *master copy* lives in a
//! neighbouring subarray and is re-loaded into the pLUTo-enabled subarray
//! before every query at a cost of `LISA_RBM × N` (Table 1).
//!
//! Loading is a zero-cost backdoor served by a process-wide packed-row
//! cache, the crate's one LUT cache. Each entry holds one LUT's packed
//! *image*, a shared row table ([`pluto_dram::RowImage`]), and, per
//! segment length, the padded segment LUTs and images of its §5.6
//! partition (`crate::partition`) together with the lane cost tapes
//! recorded against that partition (`crate::plan`). A load onto a fresh
//! engine adopts one image handle per subarray, and dropping the engine
//! releases one per subarray, so the reset + reload a pooled machine pays
//! before every served query costs O(segments), not O(rows).

use crate::deque::lock_recover;
use crate::design::DesignKind;
use crate::error::PlutoError;
use crate::lut::{pack_slots_into, slots_per_row, Lut};
use crate::plan::PlanSets;
use pluto_dram::{BankId, Engine, RowId, RowImage, RowLoc, SubarrayId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Counters of the process-wide packed-row cache (see [`packed_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedCacheStats {
    /// Loads served from the cache.
    pub hits: u64,
    /// Loads that had to pack their element rows.
    pub misses: u64,
    /// LUT variants currently cached.
    pub entries: usize,
}

/// Identity of one packed layout: which LUT (by name and shape) on which
/// row geometry. Equal keys still verify element equality on hit, so two
/// different LUTs reusing a name can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PackedKey {
    /// The LUT's own shared name, so building a key allocates nothing.
    name: Arc<str>,
    input_bits: u32,
    output_bits: u32,
    /// Effective slot width — distinct from `max(input, output)` when a
    /// slot-width floor is pinned (partitioned segments stored at their
    /// parent's layout, [`crate::lut::Lut::with_min_slot_bits`]).
    slot_bits: u32,
    row_bytes: usize,
}

#[derive(Debug)]
struct PackedEntry {
    /// The element table the image was packed from (the identity witness).
    elements: Arc<Vec<u64>>,
    /// Row `i` holds element `i` replicated across every slot.
    image: RowImage,
    /// The §5.6 segment layouts cut from `image`, one per segment length,
    /// each built on the first partitioned load at that length. They and
    /// their lane tapes live and die with the entry, under its witness
    /// and the cache's cap.
    partitions: Mutex<Vec<Arc<Partition>>>,
}

/// A LUT's §5.6 segment layout at one segment length
/// (`crate::partition`): per segment, the padded segment [`Lut`] and the
/// image its pLUTo and master subarrays adopt, plus the cost tapes its
/// query lanes have recorded.
#[derive(Debug)]
pub(crate) struct Partition {
    pub(crate) segment_rows: usize,
    /// `(segment LUT, segment image)` in segment order.
    pub(crate) segments: Vec<(Lut, RowImage)>,
    /// Lane cost tapes, by engine context, design and placement.
    pub(crate) plans: PlanSets,
}

impl Partition {
    /// Cuts `lut`'s image into segments of `segment_rows` rows. Segments
    /// keep the parent's slot layout, so their rows *are* the parent's
    /// rows. A tail segment is padded to a power of two with masked-out
    /// zero elements, stored as zero rows: inputs are validated against
    /// the parent length, so a pad row can never match.
    fn build(lut: &Lut, image: &RowImage, segment_rows: usize) -> Result<Self, PlutoError> {
        let segments = (0..lut.len().div_ceil(segment_rows))
            .map(|k| {
                let base = k * segment_rows;
                let end = (base + segment_rows).min(lut.len());
                let mut elements = lut.elements()[base..end].to_vec();
                elements.resize((end - base).next_power_of_two(), 0);
                let len = elements.len();
                let seg = Lut::from_table(
                    format!("{}@seg{k}", lut.name()),
                    len.trailing_zeros(),
                    lut.output_bits(),
                    elements,
                )?
                .with_min_slot_bits(lut.slot_bits());
                debug_assert_eq!(
                    seg.slot_bits(),
                    lut.slot_bits(),
                    "segment layout must match the unpartitioned layout"
                );
                Ok((seg, image.segment(base..end, len)))
            })
            .collect::<Result<_, PlutoError>>()?;
        Ok(Partition {
            segment_rows,
            segments,
            plans: PlanSets::default(),
        })
    }
}

#[derive(Debug, Default)]
struct PackedCache {
    entries: HashMap<PackedKey, Vec<Arc<PackedEntry>>>,
    hits: u64,
    misses: u64,
}

impl PackedCache {
    fn find(&self, key: &PackedKey, lut: &Lut) -> Option<&Arc<PackedEntry>> {
        self.entries.get(key)?.iter().find(|e| {
            Arc::ptr_eq(&e.elements, lut.elements_shared())
                || *e.elements == **lut.elements_shared()
        })
    }
}

/// Variant count beyond which the cache resets (a deterministic guard
/// against unbounded growth under adversarial LUT churn; real workloads
/// use a handful of LUTs).
const PACKED_CACHE_CAP: usize = 512;

fn packed_cache() -> &'static Mutex<PackedCache> {
    static CACHE: OnceLock<Mutex<PackedCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(PackedCache::default()))
}

/// Returns the cache entry holding the fully packed image of `lut` on a
/// `row_bytes` geometry — row *i* holds element *i* replicated across
/// every slot — packing it on a miss. Counts one hit or one miss.
///
/// Cache identity is the full element table, compared on every hit, so
/// stale or aliased rows are structurally impossible. The lookup holds
/// the lock only briefly; the O(lut_len × row_bytes) packing runs
/// *unlocked* so one worker's miss on a large LUT never stalls other
/// cluster workers' loads.
fn packed_entry(lut: &Lut, row_bytes: usize) -> Arc<PackedEntry> {
    let key = PackedKey {
        name: Arc::clone(lut.name_shared()),
        input_bits: lut.input_bits(),
        output_bits: lut.output_bits(),
        slot_bits: lut.slot_bits(),
        row_bytes,
    };
    {
        let mut cache = lock_recover(packed_cache());
        if let Some(entry) = cache.find(&key, lut).map(Arc::clone) {
            cache.hits += 1;
            return entry;
        }
        cache.misses += 1;
    }
    let image = pack_image(lut, row_bytes);
    let mut cache = lock_recover(packed_cache());
    // Another worker may have packed the same LUT while we were
    // unlocked — prefer its entry so all loads share one image.
    if let Some(entry) = cache.find(&key, lut) {
        return Arc::clone(entry);
    }
    if cache.entries.values().map(Vec::len).sum::<usize>() >= PACKED_CACHE_CAP {
        cache.entries.clear();
    }
    let entry = Arc::new(PackedEntry {
        elements: Arc::clone(lut.elements_shared()),
        image,
        partitions: Mutex::default(),
    });
    cache
        .entries
        .entry(key)
        .or_default()
        .push(Arc::clone(&entry));
    entry
}

/// The cached §5.6 layout of `lut` at `segment_rows` rows per segment,
/// cut from the same entry as a whole-table image: an N-segment load is one
/// cache lookup and one identity check, and every load after the first
/// reuses the segment `Lut`s and images.
///
/// # Errors
/// Fails if a segment LUT cannot be built.
pub(crate) fn packed_partition(
    lut: &Lut,
    row_bytes: usize,
    segment_rows: usize,
) -> Result<Arc<Partition>, PlutoError> {
    let entry = packed_entry(lut, row_bytes);
    let mut partitions = lock_recover(&entry.partitions);
    if let Some(partition) = partitions.iter().find(|p| p.segment_rows == segment_rows) {
        return Ok(Arc::clone(partition));
    }
    let partition = Arc::new(Partition::build(lut, &entry.image, segment_rows)?);
    partitions.push(Arc::clone(&partition));
    Ok(partition)
}

/// The packing work the cache elides: one fully packed row per element,
/// the element replicated across every slot — a single pass over the
/// element table.
fn pack_image(lut: &Lut, row_bytes: usize) -> RowImage {
    let slot_bits = lut.slot_bits();
    let per_row = slots_per_row(row_bytes, slot_bits);
    let mut values = vec![0u64; per_row];
    let mut row = Vec::new();
    let rows = lut
        .elements()
        .iter()
        .map(|&elem| {
            values.fill(elem);
            // Elements are validated against `output_bits` at LUT
            // construction, so they always fit the slot.
            pack_slots_into(&values, slot_bits, row_bytes, &mut row)
                .expect("validated elements always pack");
            Some(Arc::new(row.clone()))
        })
        .collect();
    RowImage::new(rows, row_bytes).expect("packed rows are one row wide")
}

/// Hit/miss/occupancy counters of the packed-row cache (for tests and the
/// bench harness; counters are process-wide and monotonic).
pub fn packed_cache_stats() -> PackedCacheStats {
    let cache = lock_recover(packed_cache());
    PackedCacheStats {
        hits: cache.hits,
        misses: cache.misses,
        entries: cache.entries.values().map(Vec::len).sum(),
    }
}

/// A LUT resident in a pLUTo-enabled subarray.
#[derive(Debug, Clone)]
pub struct LutStore {
    lut: Lut,
    bank: BankId,
    subarray: SubarrayId,
    /// Subarray holding the pristine master copy (used by GSA reloads).
    /// Must be LISA-adjacent to `subarray` for the Table 1 reload cost
    /// (`LISA_RBM × N`) to hold; the canonical placement co-locates it with
    /// the source subarray, in rows above the input data (§6.5 requires
    /// "close physical proximity").
    master: SubarrayId,
    /// First master-copy row (element `i` lives at `master_row_base + i`).
    master_row_base: u16,
    loaded: bool,
}

impl LutStore {
    /// Materializes `lut` into `subarray` of `bank`, with a master copy at
    /// rows `master_row_base..` of `master`. Uses the zero-cost backdoor:
    /// the LUT is modeled as already resident in DRAM; the *loading cost*
    /// trade-off is a separate study (paper §8.5 / Fig. 11, reproduced in
    /// [`crate::loading`]).
    ///
    /// The packed image comes from the process-wide cache: repeated loads
    /// of the same LUT (pooled machines after a reset, GSA streams) skip
    /// the packing, and each empty subarray adopts the image as one
    /// copy-on-write handle ([`Engine::poke_rows_shared`]), so the load
    /// costs O(1) per subarray and in-DRAM mutation (GSA destruction, row
    /// writes) replaces row handles on the DRAM side, never in the cache.
    ///
    /// # Errors
    /// Fails if the LUT has more elements than the subarray has rows, the
    /// master range overflows its subarray, or `master == subarray`.
    pub fn load(
        engine: &mut Engine,
        lut: Lut,
        bank: BankId,
        subarray: SubarrayId,
        master: SubarrayId,
        master_row_base: u16,
    ) -> Result<Self, PlutoError> {
        check_placement(engine, lut.len(), subarray, master, master_row_base)?;
        let entry = packed_entry(&lut, engine.config().row_bytes);
        LutStore::load_image(
            engine,
            lut,
            bank,
            subarray,
            master,
            master_row_base,
            &entry.image,
        )
    }

    /// Materializes a LUT whose image the caller already holds — the
    /// partitioned path, where every segment's image is cut from the
    /// parent's cache entry. Performs the same placement validation as
    /// [`LutStore::load`] but no cache lookup; `image` must hold exactly
    /// `lut.len()` rows.
    ///
    /// # Errors
    /// Same conditions as [`LutStore::load`], plus a row-count mismatch.
    pub(crate) fn load_image(
        engine: &mut Engine,
        lut: Lut,
        bank: BankId,
        subarray: SubarrayId,
        master: SubarrayId,
        master_row_base: u16,
        image: &RowImage,
    ) -> Result<Self, PlutoError> {
        if image.len() != lut.len() {
            return Err(PlutoError::InvalidLut {
                reason: format!("{} image rows for a {}-element LUT", image.len(), lut.len()),
            });
        }
        check_placement(engine, lut.len(), subarray, master, master_row_base)?;
        engine.poke_rows_shared(bank, subarray, RowId(0), image)?;
        engine.poke_rows_shared(bank, master, RowId(master_row_base), image)?;
        Ok(LutStore {
            lut,
            bank,
            subarray,
            master,
            master_row_base,
            loaded: true,
        })
    }

    /// The stored LUT.
    pub fn lut(&self) -> &Lut {
        &self.lut
    }

    /// The bank holding the store.
    pub fn bank(&self) -> BankId {
        self.bank
    }

    /// The pLUTo-enabled subarray.
    pub fn subarray(&self) -> SubarrayId {
        self.subarray
    }

    /// The master-copy subarray.
    pub fn master(&self) -> SubarrayId {
        self.master
    }

    /// Whether the subarray currently holds valid LUT contents.
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }

    /// Location of the row holding element `i`.
    pub fn element_row(&self, i: usize) -> RowLoc {
        RowLoc {
            bank: self.bank,
            subarray: self.subarray,
            row: RowId(i as u16),
        }
    }

    /// Marks the contents destroyed (after a GSA sweep) and functionally
    /// clears the rows: unmatched cells lost their charge, so subsequent
    /// reads return garbage — modeled as zeros.
    ///
    /// # Errors
    /// Propagates out-of-bounds errors (cannot occur for a valid store).
    pub fn mark_destroyed(&mut self, engine: &mut Engine) -> Result<(), PlutoError> {
        engine.poke_clear_rows(self.bank, self.subarray, RowId(0), self.lut.len())?;
        self.loaded = false;
        Ok(())
    }

    /// Reloads the LUT from the master copy via one LISA-RBM per element
    /// row (cost `LISA_RBM × N`, Table 1 / §5.2.2). The engine batches
    /// the transfer — cost, counters, and trace are identical to the
    /// per-row deposit + RBM loop this used to issue, but the data moves
    /// as copy-on-write row handles (GSA pays this path on every query).
    ///
    /// # Errors
    /// Propagates DRAM errors.
    pub fn reload(&mut self, engine: &mut Engine) -> Result<(), PlutoError> {
        engine.lisa_reload_rows(
            self.bank,
            self.master,
            RowId(self.master_row_base),
            self.subarray,
            RowId(0),
            self.lut.len(),
        )?;
        self.loaded = true;
        Ok(())
    }

    /// [`LutStore::reload`] with the functional restore elided: the same
    /// `LISA_RBM × N` cost, counters, and trace, but the subarray keeps
    /// its (destroyed) contents. For the fused partitioned query, which
    /// reloads and re-destroys every GSA segment within one composite
    /// operation — the restored rows are never observable, so moving the
    /// row handles would be pure overhead. The caller must destroy the
    /// store again before returning control.
    ///
    /// # Errors
    /// Propagates DRAM errors.
    pub(crate) fn reload_transient(&mut self, engine: &mut Engine) -> Result<(), PlutoError> {
        engine.lisa_reload_rows_transient(
            self.bank,
            self.master,
            RowId(self.master_row_base),
            self.subarray,
            RowId(0),
            self.lut.len(),
        )?;
        self.loaded = true;
        Ok(())
    }

    /// Ensures the store is ready for a query on `design`: reloads first if
    /// the design destroys LUT data and the store is stale.
    ///
    /// # Errors
    /// Propagates DRAM errors.
    pub fn ensure_ready(
        &mut self,
        engine: &mut Engine,
        design: DesignKind,
    ) -> Result<(), PlutoError> {
        if !self.loaded {
            if design.reload_per_query() || !design.destructive_reads() {
                self.reload(engine)?;
            } else {
                return Err(PlutoError::LutDestroyed);
            }
        }
        Ok(())
    }
}

/// Validates a `len`-row LUT's placement in `subarray` with its master
/// copy at rows `master_row_base..` of `master`.
fn check_placement(
    engine: &Engine,
    len: usize,
    subarray: SubarrayId,
    master: SubarrayId,
    master_row_base: u16,
) -> Result<(), PlutoError> {
    let rows = engine.config().rows_per_subarray as usize;
    if len > rows {
        return Err(PlutoError::InvalidLut {
            reason: format!(
                "{len} elements exceed the {rows}-row subarray (partition across subarrays instead, §5.6)"
            ),
        });
    }
    if master == subarray {
        return Err(PlutoError::AllocationFailed {
            reason: "master copy must live in a different subarray".into(),
        });
    }
    if master_row_base as usize + len > rows {
        return Err(PlutoError::AllocationFailed {
            reason: format!(
                "master rows {master_row_base}..{} overflow the {rows}-row subarray",
                master_row_base as usize + len
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::catalog;
    use pluto_dram::DramConfig;

    fn engine() -> Engine {
        Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        })
    }

    #[test]
    fn load_replicates_elements_across_rows() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let store =
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(2), SubarrayId(0), 0).unwrap();
        // Row 2 holds repeated copies of element 5 = 0b0101 packed in 4-bit
        // slots => bytes of 0x55.
        let row = e.peek_row(store.element_row(2)).unwrap();
        assert!(row.iter().all(|&b| b == 0x55));
        // Master copy identical.
        let m = e.peek_row(store.element_row(2).with_subarray(0)).unwrap();
        assert_eq!(m, row);
    }

    #[test]
    fn load_rejects_oversized_luts() {
        let mut e = engine();
        let lut = catalog::add(4).unwrap(); // 256 elements > 64 rows
        assert!(matches!(
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(2), SubarrayId(0), 0),
            Err(PlutoError::InvalidLut { .. })
        ));
    }

    #[test]
    fn destroy_then_reload_restores_contents() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let mut store =
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(1), SubarrayId(0), 60).unwrap();
        let before = e.peek_row(store.element_row(3)).unwrap();
        store.mark_destroyed(&mut e).unwrap();
        assert!(!store.is_loaded());
        assert!(e
            .peek_row(store.element_row(3))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        let t0 = e.elapsed();
        store.reload(&mut e).unwrap();
        assert!(store.is_loaded());
        assert_eq!(e.peek_row(store.element_row(3)).unwrap(), before);
        // Cost: one LISA hop per element (adjacent master).
        let dt = e.elapsed() - t0;
        assert_eq!(dt, e.timing().t_lisa_hop.times(4));
    }

    #[test]
    fn packed_cache_serves_repeat_loads_without_aliasing() {
        // Distinct name to isolate from other tests sharing the process
        // cache.
        let lut = Lut::from_table("cache-probe", 2, 4, vec![9, 8, 7, 6]).unwrap();
        let mut e1 = engine();
        let s1 = LutStore::load(
            &mut e1,
            lut.clone(),
            BankId(0),
            SubarrayId(2),
            SubarrayId(0),
            0,
        )
        .unwrap();
        let before = packed_cache_stats();
        let mut e2 = engine();
        let s2 = LutStore::load(&mut e2, lut, BankId(0), SubarrayId(2), SubarrayId(0), 0).unwrap();
        let after = packed_cache_stats();
        // Counters are process-wide and other tests load stores
        // concurrently, so only lower-bound them; the aliasing checks
        // below are the deterministic part.
        assert!(after.hits > before.hits, "second load is a cache hit");
        for i in 0..4 {
            assert_eq!(
                e1.peek_row(s1.element_row(i)).unwrap(),
                e2.peek_row(s2.element_row(i)).unwrap()
            );
        }

        // Same name and shape, different contents: must re-pack, not alias.
        let impostor = Lut::from_table("cache-probe", 2, 4, vec![1, 2, 3, 4]).unwrap();
        let mut e3 = engine();
        let s3 = LutStore::load(
            &mut e3,
            impostor,
            BankId(0),
            SubarrayId(2),
            SubarrayId(0),
            0,
        )
        .unwrap();
        assert!(packed_cache_stats().misses > after.misses);
        assert_ne!(
            e3.peek_row(s3.element_row(0)).unwrap(),
            e1.peek_row(s1.element_row(0)).unwrap()
        );
    }

    #[test]
    fn cache_is_immune_to_in_dram_destruction() {
        let lut = Lut::from_table("cache-destroy-probe", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let mut e = engine();
        let mut store = LutStore::load(
            &mut e,
            lut.clone(),
            BankId(0),
            SubarrayId(1),
            SubarrayId(0),
            60,
        )
        .unwrap();
        let pristine = e.peek_row(store.element_row(1)).unwrap();
        store.mark_destroyed(&mut e).unwrap();
        // A fresh load of the same LUT (cache hit) must see pristine rows,
        // not the zeroed ones the destruction wrote into the DRAM array.
        let mut e2 = engine();
        let s2 = LutStore::load(&mut e2, lut, BankId(0), SubarrayId(1), SubarrayId(0), 60).unwrap();
        assert_eq!(e2.peek_row(s2.element_row(1)).unwrap(), pristine);
    }

    #[test]
    fn loads_survive_a_poisoned_cache_lock() {
        let poisoner = std::thread::spawn(|| {
            let _guard = lock_recover(packed_cache());
            panic!("poisoning the packed-row cache on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(packed_cache().is_poisoned());
        let lut = Lut::from_table("poison-probe", 2, 4, vec![1, 2, 3, 4]).unwrap();
        let mut e = engine();
        let store =
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(2), SubarrayId(3), 0).unwrap();
        assert!(e
            .peek_row(store.element_row(3))
            .unwrap()
            .iter()
            .all(|&b| b == 0x44));
        assert!(packed_cache_stats().entries > 0);
    }

    #[test]
    fn ensure_ready_reloads_when_stale() {
        let mut e = engine();
        let lut = Lut::from_table("t", 1, 1, vec![0, 1]).unwrap();
        let mut store =
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(1), SubarrayId(0), 60).unwrap();
        store.mark_destroyed(&mut e).unwrap();
        store.ensure_ready(&mut e, DesignKind::Gsa).unwrap();
        assert!(store.is_loaded());
    }
}
