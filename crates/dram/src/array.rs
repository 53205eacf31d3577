//! Bit-accurate functional model of the DRAM array.
//!
//! Storage is sparse: only touched subarrays/rows are materialized, so the
//! full 8 GB module can be simulated without allocating 8 GB. A missing row
//! reads as all-zeros (freshly initialized DRAM).
//!
//! This module is *purely functional*: it models what data ends up where,
//! with no notion of time or energy (that is [`crate::engine`]'s job).
//!
//! Row storage is copy-on-write at two levels. A subarray's row table is
//! one shared image (`Arc<Vec<Option<Arc<Vec<u8>>>>>`), and each row in it
//! is a shared handle. A zero-cost LUT load ([`MemoryArray::set_rows_shared`])
//! adopts a prebuilt [`RowImage`] wholesale, so loading a LUT onto a fresh
//! array and dropping that array both cost O(1) per subarray, not O(rows).
//! Every mutation first takes the table with `Arc::make_mut` (cloning the
//! handles only while the image is still shared) and then replaces the
//! row's handle, so a write never reaches the image or any other holder.

use crate::error::DramError;
use crate::geometry::{BankId, DramConfig, RowId, RowLoc, SubarrayId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// The local row buffer (sense amplifiers) of one subarray.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBuffer {
    /// Latched data. Only meaningful while `open_row` is `Some` or after a
    /// LISA movement deposited data (`latched` true).
    pub data: Vec<u8>,
    /// The row whose wordline is currently asserted, if any.
    pub open_row: Option<RowId>,
    /// Whether `data` holds valid latched contents (an open row, or data
    /// deposited by a LISA-RBM into a precharged subarray's buffer).
    pub latched: bool,
}

impl RowBuffer {
    fn new(row_bytes: usize) -> Self {
        RowBuffer {
            data: vec![0; row_bytes],
            open_row: None,
            latched: false,
        }
    }
}

/// Row storage of one subarray: a dense, lazily grown vector indexed by
/// row id (`None` = never written, reads as zeros). Rows are held behind
/// `Arc` with copy-on-write discipline — every mutation either replaces
/// the slot or writes through `Arc::get_mut` when sole owner — so
/// master→pLUTo reload copies are O(1) handle clones per row instead of
/// row-byte memcpys.
type RowSlots = Vec<Option<Arc<Vec<u8>>>>;

/// An immutable subarray row table: slot `i` is row `i`, and `None` reads
/// as zeros. This is the unit a zero-cost LUT load places
/// ([`MemoryArray::set_rows_shared`]): cloning an image clones one
/// handle, and a subarray that adopts it shares every row with the image
/// until it writes one. Every row has the width the image was built
/// for, checked once when it is built.
#[derive(Debug, Clone)]
pub struct RowImage {
    rows: Arc<RowSlots>,
    row_bytes: usize,
}

impl RowImage {
    /// Builds an image from `rows` (`None` = an all-zeros row).
    ///
    /// # Errors
    /// Fails if a row is not exactly `row_bytes` wide.
    pub fn new(rows: RowSlots, row_bytes: usize) -> Result<Self, DramError> {
        if let Some(bad) = rows.iter().flatten().find(|r| r.len() != row_bytes) {
            return Err(DramError::RowSizeMismatch {
                expected: row_bytes,
                actual: bad.len(),
            });
        }
        Ok(RowImage {
            rows: Arc::new(rows),
            row_bytes,
        })
    }

    /// Rows `range` of this image followed by zero rows up to `len` rows
    /// in total: a padded segment of a larger table. The rows are shared
    /// with this image and need no second width check.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds or longer than `len`.
    pub fn segment(&self, range: std::ops::Range<usize>, len: usize) -> RowImage {
        assert!(
            range.len() <= len,
            "segment of {len} rows cannot hold {range:?}"
        );
        let mut rows = Vec::with_capacity(len);
        rows.extend_from_slice(&self.rows[range]);
        rows.resize(len, None);
        RowImage {
            rows: Arc::new(rows),
            row_bytes: self.row_bytes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the image has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows (`None` = an all-zeros row).
    pub fn rows(&self) -> &[Option<Arc<Vec<u8>>>] {
        &self.rows
    }
}

#[derive(Debug, Clone, Default)]
struct SubarrayState {
    rows: Arc<RowSlots>,
    buffer: Option<RowBuffer>,
}

impl SubarrayState {
    fn row_ref(&self, row: RowId) -> Option<&Arc<Vec<u8>>> {
        self.rows.get(row.0 as usize).and_then(Option::as_ref)
    }

    /// The (growable) slot for a row; bounds must already be checked.
    fn row_slot(&mut self, row: RowId) -> &mut Option<Arc<Vec<u8>>> {
        grow_slot(Arc::make_mut(&mut self.rows), row)
    }
}

/// The slot for `row` in a row table, growing the table to reach it.
fn grow_slot(rows: &mut RowSlots, row: RowId) -> &mut Option<Arc<Vec<u8>>> {
    let idx = row.0 as usize;
    if rows.len() <= idx {
        rows.resize(idx + 1, None);
    }
    &mut rows[idx]
}

/// Stores `data` into a row slot, reusing the existing allocation when
/// this array is the sole owner of the row (the copy-on-write fast path).
fn store_bytes(slot: &mut Option<Arc<Vec<u8>>>, data: &[u8]) {
    if let Some(arc) = slot {
        if let Some(v) = Arc::get_mut(arc) {
            v.clear();
            v.extend_from_slice(data);
            return;
        }
    }
    *slot = Some(Arc::new(data.to_vec()));
}

/// Sparse functional storage for the whole module.
#[derive(Debug, Clone)]
pub struct MemoryArray {
    cfg: DramConfig,
    subarrays: HashMap<(BankId, SubarrayId), SubarrayState>,
}

impl MemoryArray {
    /// Creates an all-zeros array for the given geometry.
    pub fn new(cfg: DramConfig) -> Self {
        MemoryArray {
            cfg,
            subarrays: HashMap::new(),
        }
    }

    /// The configuration this array was built for.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn check(&self, loc: RowLoc) -> Result<(), DramError> {
        if self.cfg.contains(loc) {
            Ok(())
        } else {
            Err(DramError::OutOfBounds { loc })
        }
    }

    fn sa(&mut self, bank: BankId, subarray: SubarrayId) -> &mut SubarrayState {
        self.subarrays.entry((bank, subarray)).or_default()
    }

    fn buffer_mut(&mut self, bank: BankId, subarray: SubarrayId) -> &mut RowBuffer {
        let row_bytes = self.cfg.row_bytes;
        self.sa(bank, subarray)
            .buffer
            .get_or_insert_with(|| RowBuffer::new(row_bytes))
    }

    /// Reads a row's stored contents (zeros if never written).
    pub fn row(&self, loc: RowLoc) -> Result<Vec<u8>, DramError> {
        self.check(loc)?;
        Ok(self
            .subarrays
            .get(&(loc.bank, loc.subarray))
            .and_then(|sa| sa.row_ref(loc.row))
            .map(|arc| arc.as_ref().clone())
            .unwrap_or_else(|| vec![0; self.cfg.row_bytes]))
    }

    /// Reads a row's stored contents into a caller-owned buffer (cleared
    /// and refilled), avoiding the per-read allocation of
    /// [`MemoryArray::row`] — the hot-path variant the word-parallel query
    /// engine uses.
    ///
    /// # Errors
    /// Fails if `loc` is out of bounds.
    pub fn read_row_into(&self, loc: RowLoc, out: &mut Vec<u8>) -> Result<(), DramError> {
        self.check(loc)?;
        out.clear();
        match self
            .subarrays
            .get(&(loc.bank, loc.subarray))
            .and_then(|sa| sa.row_ref(loc.row))
        {
            Some(data) => out.extend_from_slice(data),
            None => out.resize(self.cfg.row_bytes, 0),
        }
        Ok(())
    }

    /// Overwrites a row's stored contents directly (no row-buffer effects).
    ///
    /// # Errors
    /// Fails if `loc` is out of bounds or `data` is not exactly one row.
    pub fn set_row(&mut self, loc: RowLoc, data: &[u8]) -> Result<(), DramError> {
        self.check(loc)?;
        if data.len() != self.cfg.row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: self.cfg.row_bytes,
                actual: data.len(),
            });
        }
        store_bytes(self.sa(loc.bank, loc.subarray).row_slot(loc.row), data);
        Ok(())
    }

    /// Bulk zero-cost row fill from an image: row `first + i` of the
    /// subarray becomes row `i` of `image`. A subarray that holds no rows
    /// adopts the image wholesale when `first` is 0 — one handle clone,
    /// however many rows — and a subarray already holding this very image
    /// is left as it is. Otherwise the rows are filled one handle at a
    /// time. Row widths were checked when the image was built, so only
    /// the image's recorded width is compared here.
    ///
    /// # Errors
    /// Fails if the row range is out of bounds or the image's rows are not
    /// exactly one row wide.
    pub fn set_rows_shared(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        first: RowId,
        image: &RowImage,
    ) -> Result<(), DramError> {
        if image.row_bytes != self.cfg.row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: self.cfg.row_bytes,
                actual: image.row_bytes,
            });
        }
        let Some(count) = check_row_range(self, bank, subarray, first, image.len())? else {
            return Ok(());
        };
        let sa = match self.subarrays.entry((bank, subarray)) {
            Entry::Vacant(slot) if first.0 == 0 => {
                slot.insert(SubarrayState {
                    rows: Arc::clone(&image.rows),
                    buffer: None,
                });
                return Ok(());
            }
            entry => entry.or_default(),
        };
        if first.0 == 0 && (sa.rows.is_empty() || Arc::ptr_eq(&sa.rows, &image.rows)) {
            sa.rows = Arc::clone(&image.rows);
            return Ok(());
        }
        let base = first.0 as usize;
        let rows = Arc::make_mut(&mut sa.rows);
        if rows.len() < base + count {
            rows.resize(base + count, None);
        }
        rows[base..base + count].clone_from_slice(&image.rows);
        Ok(())
    }

    /// Bulk functional row copy between two subarrays of one bank: row
    /// `to_first + i` becomes a shared handle to row `from_first + i`
    /// (missing source rows clear the destination slot — both read as
    /// zeros). Copy-on-write keeps the two subarrays independent. A
    /// destination that holds no rows adopts the source's whole table
    /// when the copy starts at row 0 on both sides and covers every
    /// source row (the GSA reload of a freshly destroyed subarray).
    ///
    /// # Errors
    /// Fails if either row range is out of bounds.
    pub fn copy_rows(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        from_first: RowId,
        to: SubarrayId,
        to_first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        if check_row_range(self, bank, from, from_first, count)?.is_none()
            || check_row_range(self, bank, to, to_first, count)?.is_none()
        {
            return Ok(());
        }
        let src = self
            .subarrays
            .get(&(bank, from))
            .map(|sa| Arc::clone(&sa.rows))
            .unwrap_or_default();
        let dst = self.sa(bank, to);
        if from_first.0 == 0 && to_first.0 == 0 && count >= src.len() && dst.rows.is_empty() {
            dst.rows = src;
            return Ok(());
        }
        let rows = Arc::make_mut(&mut dst.rows);
        for i in 0..count {
            let handle = src.get(from_first.0 as usize + i).cloned().flatten();
            *grow_slot(rows, RowId(to_first.0 + i as u16)) = handle;
        }
        Ok(())
    }

    /// Bulk functional row clear: rows `first .. first + count` of the
    /// subarray revert to the never-written state (read as zeros). A clear
    /// that covers every stored row drops the subarray's table instead of
    /// copying it first.
    ///
    /// # Errors
    /// Fails if the row range is out of bounds.
    pub fn clear_rows(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        let Some(count) = check_row_range(self, bank, subarray, first, count)? else {
            return Ok(());
        };
        let sa = self.sa(bank, subarray);
        let first = first.0 as usize;
        let end = (first + count).min(sa.rows.len());
        if first >= end {
            return Ok(());
        }
        if first == 0 && end == sa.rows.len() {
            sa.rows = Arc::default();
        } else {
            Arc::make_mut(&mut sa.rows)[first..end].fill(None);
        }
        Ok(())
    }

    /// Returns the row buffer of a subarray, if it has ever been used.
    pub fn buffer(&self, bank: BankId, subarray: SubarrayId) -> Option<&RowBuffer> {
        self.subarrays
            .get(&(bank, subarray))
            .and_then(|sa| sa.buffer.as_ref())
    }

    /// Row currently open in a subarray (if any).
    pub fn open_row(&self, bank: BankId, subarray: SubarrayId) -> Option<RowId> {
        self.buffer(bank, subarray).and_then(|b| b.open_row)
    }

    /// Functional ACT: latch `loc`'s contents into the local row buffer.
    ///
    /// `allow_back_to_back` permits activating while another row is open in
    /// the same subarray — required for RowClone-FPM's second activation and
    /// for pLUTo sweep steps, which are exempt from the one-open-row rule.
    ///
    /// # Errors
    /// Fails if out of bounds, or if a row is already open and
    /// `allow_back_to_back` is false.
    pub fn activate(&mut self, loc: RowLoc, allow_back_to_back: bool) -> Result<(), DramError> {
        self.check(loc)?;
        let row_bytes = self.cfg.row_bytes;
        // Split-borrow the subarray so the row read can fill the buffer in
        // place: a row sweep activates once per LUT row, so the fresh
        // `Vec` per activation this used to allocate multiplied into
        // `lut_len` heap round-trips per query.
        let sa = self.sa(loc.bank, loc.subarray);
        let SubarrayState { rows, buffer } = sa;
        let buf = buffer.get_or_insert_with(|| RowBuffer::new(row_bytes));
        if buf.open_row.is_some() && !allow_back_to_back {
            return Err(DramError::RowAlreadyOpen {
                bank: loc.bank,
                subarray: loc.subarray,
            });
        }
        match rows.get(loc.row.0 as usize).and_then(Option::as_ref) {
            Some(data) => buf.data.clone_from(data.as_ref()),
            None => {
                buf.data.clear();
                buf.data.resize(row_bytes, 0);
            }
        }
        buf.open_row = Some(loc.row);
        buf.latched = true;
        Ok(())
    }

    /// Functional back-to-back activation used by RowClone-FPM: asserts the
    /// destination wordline while the buffer still drives the source data,
    /// so the *buffer contents overwrite the destination row*.
    ///
    /// # Errors
    /// Fails if no row is open in the subarray.
    pub fn activate_into(&mut self, loc: RowLoc) -> Result<(), DramError> {
        self.check(loc)?;
        let buf = self
            .subarrays
            .get(&(loc.bank, loc.subarray))
            .and_then(|sa| sa.buffer.as_ref());
        let Some(buf) = buf else {
            return Err(DramError::NoOpenRow {
                bank: loc.bank,
                subarray: loc.subarray,
            });
        };
        if !buf.latched {
            return Err(DramError::NoOpenRow {
                bank: loc.bank,
                subarray: loc.subarray,
            });
        }
        let data = buf.data.clone();
        *self.sa(loc.bank, loc.subarray).row_slot(loc.row) = Some(Arc::new(data));
        let buf = self.buffer_mut(loc.bank, loc.subarray);
        buf.open_row = Some(loc.row);
        Ok(())
    }

    /// Functional PRE: close the open row (buffer contents become stale).
    pub fn precharge(&mut self, bank: BankId, subarray: SubarrayId) {
        if let Some(sa) = self.subarrays.get_mut(&(bank, subarray)) {
            if let Some(buf) = sa.buffer.as_mut() {
                buf.open_row = None;
                buf.latched = false;
            }
        }
    }

    /// Writes bytes into the open row buffer at `offset`, write-through to
    /// the open row (cells stay connected while the wordline is asserted).
    ///
    /// # Errors
    /// Fails if no row is open.
    pub fn write_buffer(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), DramError> {
        let row_bytes = self.cfg.row_bytes;
        let open = self.open_row(bank, subarray);
        let Some(open) = open else {
            return Err(DramError::NoOpenRow { bank, subarray });
        };
        if offset + data.len() > row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: row_bytes,
                actual: offset + data.len(),
            });
        }
        let buf = self.buffer_mut(bank, subarray);
        buf.data[offset..offset + data.len()].copy_from_slice(data);
        let snapshot = buf.data.clone();
        *self.sa(bank, subarray).row_slot(open) = Some(Arc::new(snapshot));
        Ok(())
    }

    /// Deposits data directly into a subarray's row buffer, marking it
    /// latched without opening a row. Models a pLUTo FF buffer (or gated
    /// sense amplifiers) holding query results ready for a LISA movement.
    pub fn deposit_buffer(&mut self, bank: BankId, subarray: SubarrayId, data: &[u8]) {
        let buf = self.buffer_mut(bank, subarray);
        buf.data.clear();
        buf.data.extend_from_slice(data);
        buf.open_row = None;
        buf.latched = true;
    }

    /// LISA-RBM: deposit `from`'s latched buffer into `to`'s buffer. If `to`
    /// has an open row, the data writes through into that row.
    ///
    /// # Errors
    /// Fails if `from == to`, or `from` has no latched buffer contents.
    pub fn lisa_rbm(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        to: SubarrayId,
    ) -> Result<(), DramError> {
        if from == to {
            return Err(DramError::InvalidLisa { bank, from, to });
        }
        // Borrow the source data by temporarily taking it, so the copy
        // into the destination buffer (and its write-through row) reuses
        // existing capacity: GSA pays one LISA hop per LUT row per query,
        // so the buffer clones this used to make were a per-query
        // `2 × lut_len` allocation storm.
        let mut src = match self.subarrays.get_mut(&(bank, from)) {
            Some(sa) if sa.buffer.as_ref().is_some_and(|b| b.latched) => {
                std::mem::take(&mut sa.buffer.as_mut().expect("checked above").data)
            }
            _ => {
                return Err(DramError::NoOpenRow {
                    bank,
                    subarray: from,
                })
            }
        };
        let dst = self.buffer_mut(bank, to);
        dst.data.clone_from(&src);
        dst.latched = true;
        if let Some(open) = dst.open_row {
            let SubarrayState { rows, buffer } = self.sa(bank, to);
            let data = &buffer.as_ref().expect("buffer created above").data;
            store_bytes(grow_slot(Arc::make_mut(rows), open), data);
        }
        // Hand the (unchanged) source data back to its buffer.
        std::mem::swap(
            &mut self
                .sa(bank, from)
                .buffer
                .as_mut()
                .expect("source buffer existed")
                .data,
            &mut src,
        );
        Ok(())
    }

    /// Ambit triple-row activation: rows (and the buffer) settle to the
    /// bitwise majority of the three rows' contents.
    ///
    /// # Errors
    /// Fails if any row is out of bounds.
    pub fn triple_row_activate(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        rows: [RowId; 3],
    ) -> Result<(), DramError> {
        let locs = rows.map(|r| RowLoc {
            bank,
            subarray,
            row: r,
        });
        for l in locs {
            self.check(l)?;
        }
        let a = self.row(locs[0])?;
        let b = self.row(locs[1])?;
        let c = self.row(locs[2])?;
        let maj: Vec<u8> = a
            .iter()
            .zip(&b)
            .zip(&c)
            .map(|((&x, &y), &z)| (x & y) | (y & z) | (x & z))
            .collect();
        let shared = Arc::new(maj.clone());
        for l in locs {
            *self.sa(bank, subarray).row_slot(l.row) = Some(Arc::clone(&shared));
        }
        let buf = self.buffer_mut(bank, subarray);
        buf.data = maj;
        buf.open_row = Some(rows[0]);
        buf.latched = true;
        Ok(())
    }

    /// DRISA-style whole-row bit shift. The row is treated as one long
    /// big-endian bit string (byte 0 holds the most significant bits);
    /// "left" moves bits toward byte 0. Vacated bits fill with zeros.
    ///
    /// # Errors
    /// Fails if `loc` is out of bounds.
    pub fn shift_row_bits(
        &mut self,
        loc: RowLoc,
        left: bool,
        amount: u32,
    ) -> Result<(), DramError> {
        self.check(loc)?;
        let data = self.row(loc)?;
        let shifted = shift_bits(&data, left, amount);
        *self.sa(loc.bank, loc.subarray).row_slot(loc.row) = Some(Arc::new(shifted));
        Ok(())
    }
}

/// Validates a `count`-row range starting at `first` within one
/// subarray; `Ok(None)` means the range is empty (nothing to do).
fn check_row_range(
    arr: &MemoryArray,
    bank: BankId,
    subarray: SubarrayId,
    first: RowId,
    count: usize,
) -> Result<Option<usize>, DramError> {
    if count == 0 {
        return Ok(None);
    }
    let first_loc = RowLoc {
        bank,
        subarray,
        row: first,
    };
    let last = first.0 as usize + count - 1;
    if last > u16::MAX as usize {
        return Err(DramError::OutOfBounds { loc: first_loc });
    }
    arr.check(first_loc)?;
    arr.check(RowLoc {
        bank,
        subarray,
        row: RowId(last as u16),
    })?;
    Ok(Some(count))
}

/// Reads a `width`-bit big-endian field starting at bit `bit` of a row
/// (bit 0 is the MSB of byte 0 — the whole-row bit-string convention of
/// the DRISA shifts and the pLUTo slot layout).
///
/// The field is extracted with one aligned 64-bit window load instead of
/// a per-bit loop. This is the standalone random-access accessor for row
/// fields; `pluto-core`'s bulk slot packing streams whole rows through
/// its own 64-bit accumulator and shares only the [`MAX_FIELD_BITS`]
/// width bound. Bytes past the end of `row` read as zero, so fields
/// ending on the last bits of a row need no special casing.
///
/// # Panics
/// Panics if `width` is 0 or > 57 (the widest field whose 64-bit window
/// still covers every starting bit-in-byte offset), or if the field
/// extends past the end of the row.
pub fn word_at_bit(row: &[u8], bit: usize, width: u32) -> u64 {
    assert!(
        (1..=MAX_FIELD_BITS).contains(&width),
        "field width {width} outside 1..={MAX_FIELD_BITS}"
    );
    assert!(
        bit + width as usize <= row.len() * 8,
        "field [{bit}, {}) extends past the {}-bit row",
        bit + width as usize,
        row.len() * 8
    );
    let start = bit / 8;
    let mut window = [0u8; 8];
    let take = (row.len() - start).min(8);
    window[..take].copy_from_slice(&row[start..start + take]);
    let word = u64::from_be_bytes(window);
    let shift = 64 - (bit % 8) as u32 - width;
    (word >> shift) & field_mask(width)
}

/// Writes a `width`-bit big-endian field starting at bit `bit` of a row
/// (inverse of [`word_at_bit`]; same conventions and limits).
///
/// # Panics
/// Panics under the same conditions as [`word_at_bit`], or if `value` does
/// not fit in `width` bits.
pub fn set_word_at_bit(row: &mut [u8], bit: usize, width: u32, value: u64) {
    assert!(
        (1..=MAX_FIELD_BITS).contains(&width),
        "field width {width} outside 1..={MAX_FIELD_BITS}"
    );
    assert!(
        bit + width as usize <= row.len() * 8,
        "field [{bit}, {}) extends past the {}-bit row",
        bit + width as usize,
        row.len() * 8
    );
    assert!(
        value & !field_mask(width) == 0,
        "value {value} exceeds {width} bits"
    );
    let start = bit / 8;
    let mut window = [0u8; 8];
    let take = (row.len() - start).min(8);
    window[..take].copy_from_slice(&row[start..start + take]);
    let mut word = u64::from_be_bytes(window);
    let shift = 64 - (bit % 8) as u32 - width;
    word = (word & !(field_mask(width) << shift)) | (value << shift);
    window = word.to_be_bytes();
    row[start..start + take].copy_from_slice(&window[..take]);
}

/// Widest field [`word_at_bit`]/[`set_word_at_bit`] support: an unaligned
/// field starting up to 7 bits into its window must still fit in 64 bits.
pub const MAX_FIELD_BITS: u32 = 57;

fn field_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Shifts a byte slice as one long big-endian bit string.
pub(crate) fn shift_bits(data: &[u8], left: bool, amount: u32) -> Vec<u8> {
    let n = data.len();
    let byte_shift = (amount / 8) as usize;
    let bit_shift = amount % 8;
    let mut out = vec![0u8; n];
    if byte_shift >= n {
        return out;
    }
    if left {
        for i in 0..n - byte_shift {
            let hi = data[i + byte_shift] << bit_shift;
            let lo = if bit_shift > 0 && i + byte_shift + 1 < n {
                data[i + byte_shift + 1] >> (8 - bit_shift)
            } else {
                0
            };
            out[i] = hi | lo;
        }
    } else {
        for i in byte_shift..n {
            let lo = data[i - byte_shift] >> bit_shift;
            let hi = if bit_shift > 0 && i - byte_shift >= 1 {
                data[i - byte_shift - 1] << (8 - bit_shift)
            } else {
                0
            };
            out[i] = hi | lo;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> DramConfig {
        DramConfig {
            row_bytes: 8,
            burst_bytes: 4,
            banks: 2,
            subarrays_per_bank: 4,
            rows_per_subarray: 16,
            ..DramConfig::ddr4_2400()
        }
    }

    #[test]
    fn rows_default_to_zero() {
        let arr = MemoryArray::new(tiny_cfg());
        assert_eq!(arr.row(RowLoc::new(0, 0, 0)).unwrap(), vec![0; 8]);
    }

    #[test]
    fn activate_latches_row() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(0, 1, 2);
        arr.set_row(loc, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        arr.activate(loc, false).unwrap();
        let buf = arr.buffer(loc.bank, loc.subarray).unwrap();
        assert_eq!(buf.data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf.open_row, Some(RowId(2)));
    }

    #[test]
    fn second_activate_rejected_unless_back_to_back() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(0, 0, 0);
        arr.activate(loc, false).unwrap();
        assert!(matches!(
            arr.activate(loc.with_row(1), false),
            Err(DramError::RowAlreadyOpen { .. })
        ));
        arr.activate(loc.with_row(1), true).unwrap();
    }

    #[test]
    fn rowclone_semantics_via_activate_into() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let src = RowLoc::new(0, 0, 3);
        let dst = src.with_row(5);
        arr.set_row(src, &[9; 8]).unwrap();
        arr.activate(src, false).unwrap();
        arr.activate_into(dst).unwrap();
        arr.precharge(src.bank, src.subarray);
        assert_eq!(arr.row(dst).unwrap(), vec![9; 8]);
        assert_eq!(arr.row(src).unwrap(), vec![9; 8], "source preserved");
    }

    #[test]
    fn activate_into_requires_latched_buffer() {
        let mut arr = MemoryArray::new(tiny_cfg());
        assert!(matches!(
            arr.activate_into(RowLoc::new(0, 0, 1)),
            Err(DramError::NoOpenRow { .. })
        ));
    }

    #[test]
    fn write_buffer_writes_through_to_open_row() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(1, 0, 0);
        arr.activate(loc, false).unwrap();
        arr.write_buffer(loc.bank, loc.subarray, 2, &[0xAA, 0xBB])
            .unwrap();
        arr.precharge(loc.bank, loc.subarray);
        let row = arr.row(loc).unwrap();
        assert_eq!(&row[2..4], &[0xAA, 0xBB]);
    }

    #[test]
    fn write_buffer_requires_open_row_and_bounds() {
        let mut arr = MemoryArray::new(tiny_cfg());
        assert!(matches!(
            arr.write_buffer(BankId(0), SubarrayId(0), 0, &[1]),
            Err(DramError::NoOpenRow { .. })
        ));
        let loc = RowLoc::new(0, 0, 0);
        arr.activate(loc, false).unwrap();
        assert!(matches!(
            arr.write_buffer(BankId(0), SubarrayId(0), 6, &[1, 2, 3]),
            Err(DramError::RowSizeMismatch { .. })
        ));
    }

    #[test]
    fn lisa_moves_buffer_and_writes_through() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let src = RowLoc::new(0, 0, 1);
        let dst = RowLoc::new(0, 2, 7);
        arr.set_row(src, &[7; 8]).unwrap();
        arr.activate(dst, false).unwrap(); // open destination row first
        arr.activate(src, false).unwrap();
        arr.lisa_rbm(src.bank, src.subarray, dst.subarray).unwrap();
        arr.precharge(dst.bank, dst.subarray);
        assert_eq!(arr.row(dst).unwrap(), vec![7; 8]);
    }

    #[test]
    fn lisa_rejects_same_subarray_and_unlatched_source() {
        let mut arr = MemoryArray::new(tiny_cfg());
        assert!(matches!(
            arr.lisa_rbm(BankId(0), SubarrayId(1), SubarrayId(1)),
            Err(DramError::InvalidLisa { .. })
        ));
        assert!(matches!(
            arr.lisa_rbm(BankId(0), SubarrayId(0), SubarrayId(1)),
            Err(DramError::NoOpenRow { .. })
        ));
    }

    #[test]
    fn tra_computes_majority_into_all_three_rows() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let b = BankId(0);
        let s = SubarrayId(0);
        arr.set_row(RowLoc::new(0, 0, 0), &[0b1100; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 1), &[0b1010; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 2), &[0b0110; 8]).unwrap();
        arr.triple_row_activate(b, s, [RowId(0), RowId(1), RowId(2)])
            .unwrap();
        let expect = vec![0b1110u8; 8];
        for r in 0..3 {
            assert_eq!(arr.row(RowLoc::new(0, 0, r)).unwrap(), expect);
        }
        assert_eq!(arr.buffer(b, s).unwrap().data, expect);
    }

    #[test]
    fn tra_with_zeros_row_is_and_with_ones_row_is_or() {
        // MAJ(a, b, 0) = a AND b; MAJ(a, b, 1) = a OR b (Ambit's trick).
        let mut arr = MemoryArray::new(tiny_cfg());
        arr.set_row(RowLoc::new(0, 0, 0), &[0b1100; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 1), &[0b1010; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 2), &[0x00; 8]).unwrap();
        arr.triple_row_activate(BankId(0), SubarrayId(0), [RowId(0), RowId(1), RowId(2)])
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 0)).unwrap(), vec![0b1000u8; 8]);

        let mut arr = MemoryArray::new(tiny_cfg());
        arr.set_row(RowLoc::new(0, 0, 0), &[0b1100; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 1), &[0b1010; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 2), &[0xFF; 8]).unwrap();
        arr.triple_row_activate(BankId(0), SubarrayId(0), [RowId(0), RowId(1), RowId(2)])
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 0)).unwrap(), vec![0b1110u8; 8]);
    }

    #[test]
    fn bit_shift_left_crosses_byte_boundaries() {
        let v = shift_bits(&[0b0000_0001, 0b1000_0000], true, 1);
        assert_eq!(v, vec![0b0000_0011, 0b0000_0000]);
        let v = shift_bits(&[0xAB, 0xCD], true, 8);
        assert_eq!(v, vec![0xCD, 0x00]);
        let v = shift_bits(&[0xAB, 0xCD], true, 16);
        assert_eq!(v, vec![0, 0]);
    }

    #[test]
    fn bit_shift_right_crosses_byte_boundaries() {
        let v = shift_bits(&[0b0000_0011, 0b0000_0000], false, 1);
        assert_eq!(v, vec![0b0000_0001, 0b1000_0000]);
        let v = shift_bits(&[0xAB, 0xCD], false, 8);
        assert_eq!(v, vec![0x00, 0xAB]);
    }

    #[test]
    fn bit_shift_roundtrip_preserves_interior() {
        let data = vec![0x12, 0x34, 0x56, 0x78];
        let back = shift_bits(&shift_bits(&data, true, 5), false, 5);
        // Top 5 bits were shifted out and lost; the rest must round-trip.
        let mask_first = 0xFFu8 >> 5;
        assert_eq!(back[0] & mask_first, data[0] & mask_first);
        assert_eq!(&back[1..], &data[1..]);
    }

    #[test]
    fn word_at_bit_reads_be_fields() {
        let row = [0xAB, 0xCD, 0xEF, 0x01];
        assert_eq!(word_at_bit(&row, 0, 8), 0xAB);
        assert_eq!(word_at_bit(&row, 8, 8), 0xCD);
        assert_eq!(word_at_bit(&row, 4, 8), 0xBC, "unaligned straddle");
        assert_eq!(word_at_bit(&row, 0, 16), 0xABCD);
        assert_eq!(word_at_bit(&row, 0, 1), 1);
        assert_eq!(word_at_bit(&row, 2, 1), 1);
        assert_eq!(word_at_bit(&row, 1, 1), 0);
        // Field ending exactly at the end of the row.
        assert_eq!(word_at_bit(&row, 24, 8), 0x01);
        assert_eq!(word_at_bit(&row, 29, 3), 0x01);
    }

    #[test]
    fn set_word_at_bit_roundtrips_and_preserves_neighbors() {
        let mut row = [0xFFu8; 4];
        set_word_at_bit(&mut row, 4, 8, 0x00);
        assert_eq!(row, [0xF0, 0x0F, 0xFF, 0xFF]);
        set_word_at_bit(&mut row, 29, 3, 0b010);
        assert_eq!(word_at_bit(&row, 29, 3), 0b010);
        assert_eq!(row[..3], [0xF0, 0x0F, 0xFF]);
        // Every (offset, width) roundtrips against a bit-serial oracle.
        for width in [1u32, 3, 7, 8, 11, 13, 16, 31, 57] {
            for bit in 0..16usize {
                let mut row = vec![0u8; 12];
                let v = 0x5AA5_3CC3_0FF0_55AAu64 & ((1u64 << (width.min(63))) - 1);
                set_word_at_bit(&mut row, bit, width, v);
                let mut oracle = 0u64;
                for b in 0..width as usize {
                    let pos = bit + b;
                    oracle = (oracle << 1) | u64::from((row[pos / 8] >> (7 - pos % 8)) & 1);
                }
                assert_eq!(oracle, v, "bit {bit} width {width}");
                assert_eq!(word_at_bit(&row, bit, width), v, "bit {bit} width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "extends past")]
    fn word_at_bit_rejects_overrun() {
        word_at_bit(&[0u8; 2], 12, 8);
    }

    #[test]
    fn read_row_into_matches_row() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(0, 1, 2);
        let mut buf = vec![0xEE; 3];
        arr.read_row_into(loc, &mut buf).unwrap();
        assert_eq!(buf, vec![0; 8], "missing rows read as zeros");
        arr.set_row(loc, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        arr.read_row_into(loc, &mut buf).unwrap();
        assert_eq!(buf, arr.row(loc).unwrap());
        assert!(arr.read_row_into(RowLoc::new(9, 0, 0), &mut buf).is_err());
    }

    /// A four-row image: row `i` holds `i + 1` in every byte.
    fn image4() -> RowImage {
        RowImage::new(
            (0..4u8).map(|i| Some(Arc::new(vec![i + 1; 8]))).collect(),
            8,
        )
        .unwrap()
    }

    #[test]
    fn bulk_shared_rows_copy_clear_and_cow() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let image = image4();
        arr.set_rows_shared(BankId(0), SubarrayId(0), RowId(2), &image)
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 3)).unwrap(), vec![2; 8]);
        // Repeat loads of the same image are idempotent.
        arr.set_rows_shared(BankId(0), SubarrayId(0), RowId(2), &image)
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 5)).unwrap(), vec![4; 8]);
        // Copy into a second subarray, then mutate the copy: COW keeps
        // the source rows (and the image) intact.
        arr.copy_rows(
            BankId(0),
            SubarrayId(0),
            RowId(2),
            SubarrayId(1),
            RowId(0),
            4,
        )
        .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 1, 1)).unwrap(), vec![2; 8]);
        arr.set_row(RowLoc::new(0, 1, 1), &[9; 8]).unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 3)).unwrap(), vec![2; 8]);
        assert_eq!(image.rows()[1].as_deref(), Some(&vec![2u8; 8]));
        // Clearing reverts rows to the never-written (all-zeros) state.
        arr.clear_rows(BankId(0), SubarrayId(0), RowId(2), 4)
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 3)).unwrap(), vec![0; 8]);
        // Bounds and row-width violations are rejected.
        assert!(arr
            .set_rows_shared(BankId(0), SubarrayId(0), RowId(14), &image)
            .is_err());
        assert!(RowImage::new(vec![Some(Arc::new(vec![0; 3]))], 8).is_err());
        let narrow = RowImage::new(vec![Some(Arc::new(vec![0; 3]))], 3).unwrap();
        assert!(arr
            .set_rows_shared(BankId(0), SubarrayId(0), RowId(0), &narrow)
            .is_err());
        assert!(arr
            .copy_rows(
                BankId(0),
                SubarrayId(0),
                RowId(14),
                SubarrayId(1),
                RowId(0),
                4
            )
            .is_err());
        assert!(arr
            .clear_rows(BankId(0), SubarrayId(9), RowId(0), 1)
            .is_err());
        // Empty ranges are no-ops.
        arr.clear_rows(BankId(0), SubarrayId(0), RowId(0), 0)
            .unwrap();
    }

    #[test]
    fn segments_share_rows_and_pad_with_zeros() {
        let image = image4();
        let seg = image.segment(2..4, 4);
        assert_eq!(seg.len(), 4);
        assert!(Arc::ptr_eq(
            seg.rows()[0].as_ref().unwrap(),
            image.rows()[2].as_ref().unwrap()
        ));
        let mut arr = MemoryArray::new(tiny_cfg());
        arr.set_rows_shared(BankId(0), SubarrayId(0), RowId(0), &seg)
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 1)).unwrap(), vec![4; 8]);
        assert_eq!(arr.row(RowLoc::new(0, 0, 3)).unwrap(), vec![0; 8]);
    }

    /// One image adopted by two subarrays of one array and by a subarray
    /// of a second array. Each mutation path, applied to one holder,
    /// changes that holder only: the image and every other holder still
    /// read the image's rows.
    #[test]
    fn adopted_image_copies_on_write_per_subarray() {
        type Mutation = fn(&mut MemoryArray, SubarrayId);
        // Subarray 3 of each array is scratch: the source of the copy and
        // of the LISA movement, never a holder.
        let mutations: [(&str, Mutation); 4] = [
            ("set_row", |arr, sa| {
                arr.set_row(RowLoc::new(0, sa.0, 1), &[0xEE; 8]).unwrap();
            }),
            ("clear_rows", |arr, sa| {
                arr.clear_rows(BankId(0), sa, RowId(1), 2).unwrap();
            }),
            ("copy_rows", |arr, sa| {
                arr.set_row(RowLoc::new(0, 3, 0), &[0xCC; 8]).unwrap();
                arr.copy_rows(BankId(0), SubarrayId(3), RowId(0), sa, RowId(2), 1)
                    .unwrap();
            }),
            ("lisa write-through", |arr, sa| {
                arr.activate(RowLoc::new(0, sa.0, 3), false).unwrap();
                arr.deposit_buffer(BankId(0), SubarrayId(3), &[0xDD; 8]);
                arr.lisa_rbm(BankId(0), SubarrayId(3), sa).unwrap();
                arr.precharge(BankId(0), sa);
            }),
        ];
        let image = image4();
        let pristine: Vec<Vec<u8>> = image.rows().iter().flatten().map(|r| r.to_vec()).collect();
        let read = |arr: &MemoryArray, sa: u16| -> Vec<Vec<u8>> {
            (0..4)
                .map(|r| arr.row(RowLoc::new(0, sa, r)).unwrap())
                .collect()
        };
        let holders = [(0usize, 0u16), (0, 1), (1, 0)];
        for (name, mutate) in mutations {
            for &(target_arr, target_sa) in &holders {
                let mut arrays = [MemoryArray::new(tiny_cfg()), MemoryArray::new(tiny_cfg())];
                for &(a, sa) in &holders {
                    arrays[a]
                        .set_rows_shared(BankId(0), SubarrayId(sa), RowId(0), &image)
                        .unwrap();
                }
                mutate(&mut arrays[target_arr], SubarrayId(target_sa));
                for &(a, sa) in &holders {
                    let rows = read(&arrays[a], sa);
                    if (a, sa) == (target_arr, target_sa) {
                        assert_ne!(rows, pristine, "{name} changed its target");
                    } else {
                        assert_eq!(
                            rows, pristine,
                            "{name} on {target_arr}/{target_sa} leaked into {a}/{sa}"
                        );
                    }
                }
                let now: Vec<Vec<u8>> = image.rows().iter().flatten().map(|r| r.to_vec()).collect();
                assert_eq!(now, pristine, "{name} leaked into the image");
            }
        }
    }

    #[test]
    fn adoption_shares_the_table_and_clones_no_row_handles() {
        let image = image4();
        let row = Arc::clone(image.rows()[0].as_ref().unwrap());
        let before = Arc::strong_count(&row);
        let mut arr = MemoryArray::new(tiny_cfg());
        arr.set_rows_shared(BankId(0), SubarrayId(0), RowId(0), &image)
            .unwrap();
        arr.set_rows_shared(BankId(0), SubarrayId(1), RowId(0), &image)
            .unwrap();
        assert_eq!(Arc::strong_count(&row), before, "adoption is O(1)");
        // A full clear drops the adopted table; a whole-table copy into
        // the cleared subarray adopts the source's table again.
        arr.clear_rows(BankId(0), SubarrayId(0), RowId(0), 16)
            .unwrap();
        arr.copy_rows(
            BankId(0),
            SubarrayId(1),
            RowId(0),
            SubarrayId(0),
            RowId(0),
            4,
        )
        .unwrap();
        assert_eq!(Arc::strong_count(&row), before);
        assert_eq!(arr.row(RowLoc::new(0, 0, 2)).unwrap(), vec![3; 8]);
        // An offset fill cannot adopt, so it fills row by row.
        arr.set_rows_shared(BankId(0), SubarrayId(2), RowId(4), &image)
            .unwrap();
        assert_eq!(Arc::strong_count(&row), before + 1);
        assert_eq!(arr.row(RowLoc::new(0, 2, 4)).unwrap(), vec![1; 8]);
    }

    #[test]
    fn out_of_bounds_rejected_everywhere() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let bad = RowLoc::new(9, 0, 0);
        assert!(arr.row(bad).is_err());
        assert!(arr.set_row(bad, &[0; 8]).is_err());
        assert!(arr.activate(bad, false).is_err());
        assert!(arr.shift_row_bits(bad, true, 1).is_err());
    }
}
