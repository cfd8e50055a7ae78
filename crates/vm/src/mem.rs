//! Bounded, region-based process memory.
//!
//! Every allocation becomes a [`Region`] with hard bounds; regions are
//! separated by guard gaps so an out-of-bounds access lands in unmapped
//! space and is reported — the moral equivalent of a SIGSEGV, which is how
//! the paper's subject binaries crash on CWE-119 vulnerabilities.
//!
//! [`Memory`] is generic over its cell type: the concrete VM stores `u8`
//! and the symbolic executor stores symbolic bytes, so both machines lay
//! out allocations identically and classify faults identically — the
//! addresses directed symbolic execution observes are the addresses the
//! concrete replay produces.

use octo_ir::{RegionKind, Width};

/// Base address of the first allocation. Anything below
/// [`NULL_PAGE_END`] is the "null page": accessing it is a null-pointer
/// dereference rather than a generic out-of-bounds fault.
pub const HEAP_BASE: u64 = 0x0001_0000;
/// Upper bound of the null page.
pub const NULL_PAGE_END: u64 = 0x1000;
/// Guard gap inserted between consecutive regions.
pub const GUARD_GAP: u64 = 64;
/// Total bytes one execution may allocate (16 MiB). An allocation that
/// would pass it fails like a `malloc` returning null: it yields address
/// 0, so a later access through it faults as a null dereference. This
/// bounds what program input can make the interpreter allocate.
pub const ALLOC_CAP: u64 = 16 << 20;

/// One contiguous allocated region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region<C = u8> {
    /// First valid address.
    pub base: u64,
    /// Region size in bytes.
    pub size: u64,
    /// Heap or stack (affects crash classification only).
    pub kind: RegionKind,
    /// Backing cells (len == size).
    pub data: Vec<C>,
}

impl<C> Region<C> {
    /// Whether `addr` lies within the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }
}

/// Why a memory access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// Address in the null page.
    Null {
        /// Faulting address.
        addr: u64,
    },
    /// Address outside every region (or straddling a region end).
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Kind of the nearest region below the address, when one exists —
        /// used to classify heap vs stack overflow.
        nearest: Option<RegionKind>,
    },
}

/// Byte-addressable memory made of bounds-checked regions of `C` cells
/// (one cell per byte address).
#[derive(Debug, Clone)]
pub struct Memory<C = u8> {
    regions: Vec<Region<C>>,
    next_base: u64,
    allocated: u64,
}

impl<C: Clone + Default> Default for Memory<C> {
    fn default() -> Memory<C> {
        Memory::new()
    }
}

impl<C: Clone + Default> Memory<C> {
    /// Creates an empty memory.
    pub fn new() -> Memory<C> {
        Memory {
            regions: Vec::new(),
            next_base: HEAP_BASE,
            allocated: 0,
        }
    }

    /// Allocates `size` cells (each `C::default()`, i.e. zero) and returns
    /// the base address. Zero-size allocations still receive a unique
    /// address. Past [`ALLOC_CAP`] the allocation fails and returns 0.
    pub fn alloc(&mut self, size: u64, kind: RegionKind) -> u64 {
        if size > ALLOC_CAP - self.allocated {
            return 0;
        }
        self.allocated += size;
        let base = self.next_base;
        self.next_base = base + size.max(1) + GUARD_GAP;
        // keep 16-byte alignment for readability of addresses in reports
        self.next_base = (self.next_base + 15) & !15;
        self.regions.push(Region {
            base,
            size,
            kind,
            data: vec![C::default(); size as usize],
        });
        base
    }

    /// Allocates a region pre-filled with `cells` (used by `mmap`).
    /// An empty `cells` produces a zero-size region: it has a unique base
    /// address but no accessible bytes.
    pub fn alloc_with(&mut self, cells: &[C], kind: RegionKind) -> u64 {
        let base = self.alloc(cells.len() as u64, kind);
        if let Some(region) = self.region_of_mut(base) {
            region.data.clone_from_slice(cells);
        }
        base
    }

    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: u64) -> Option<&Region<C>> {
        match self.regions.binary_search_by(|r| cmp_region(r, addr)) {
            Ok(i) => Some(&self.regions[i]),
            Err(_) => None,
        }
    }

    fn region_of_mut(&mut self, addr: u64) -> Option<&mut Region<C>> {
        match self.regions.binary_search_by(|r| cmp_region(r, addr)) {
            Ok(i) => Some(&mut self.regions[i]),
            Err(_) => None,
        }
    }

    /// Classifies a fault at `addr` (which must not resolve to a region).
    fn fault(&self, addr: u64) -> MemFault {
        if addr < NULL_PAGE_END {
            return MemFault::Null { addr };
        }
        let nearest = self
            .regions
            .iter()
            .rfind(|r| r.base <= addr)
            .map(|r| r.kind);
        MemFault::OutOfBounds { addr, nearest }
    }

    /// Reads one cell.
    ///
    /// # Errors
    /// Faults if `addr` is unmapped.
    pub fn read_cell(&self, addr: u64) -> Result<C, MemFault> {
        match self.region_of(addr) {
            Some(r) => Ok(r.data[(addr - r.base) as usize].clone()),
            None => Err(self.fault(addr)),
        }
    }

    /// Writes one cell.
    ///
    /// # Errors
    /// Faults if `addr` is unmapped.
    pub fn write_cell(&mut self, addr: u64, value: C) -> Result<(), MemFault> {
        match self.region_of_mut(addr) {
            Some(r) => {
                let off = (addr - r.base) as usize;
                r.data[off] = value;
                Ok(())
            }
            None => Err(self.fault(addr)),
        }
    }

    /// Reads `len` consecutive cells starting at `addr`.
    ///
    /// # Errors
    /// Faults on the first unmapped byte.
    pub fn read_cells(&self, addr: u64, len: u64) -> Result<Vec<C>, MemFault> {
        (0..len)
            .map(|i| self.read_cell(addr.wrapping_add(i)))
            .collect()
    }

    /// Copies `cells` into memory at `addr`.
    ///
    /// # Errors
    /// Faults on the first unmapped byte. Cells before the fault are
    /// written (like a real partial store before the faulting access).
    pub fn write_cells(&mut self, addr: u64, cells: &[C]) -> Result<(), MemFault> {
        for (i, c) in cells.iter().enumerate() {
            self.write_cell(addr.wrapping_add(i as u64), c.clone())?;
        }
        Ok(())
    }

    /// Every allocated cell, region by region.
    pub fn cells(&self) -> impl Iterator<Item = &C> {
        self.regions.iter().flat_map(|r| &r.data)
    }

    /// Number of regions allocated so far.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total bytes allocated across all regions.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl Memory<u8> {
    /// Reads `width` bytes little-endian starting at `addr`.
    ///
    /// # Errors
    /// Faults on the first unmapped byte.
    pub fn read(&self, addr: u64, width: Width) -> Result<u64, MemFault> {
        let mut value = 0u64;
        for i in 0..width.bytes() {
            let b = self.read_cell(addr.wrapping_add(i))?;
            value |= u64::from(b) << (8 * i);
        }
        Ok(value)
    }

    /// Writes the low `width` bytes of `value` little-endian at `addr`.
    ///
    /// # Errors
    /// Faults on the first unmapped byte. Bytes before the fault are
    /// written (like a real partial store before the faulting access).
    pub fn write(&mut self, addr: u64, value: u64, width: Width) -> Result<(), MemFault> {
        for i in 0..width.bytes() {
            self.write_cell(addr.wrapping_add(i), (value >> (8 * i)) as u8)?;
        }
        Ok(())
    }
}

fn cmp_region<C>(r: &Region<C>, addr: u64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    if addr < r.base {
        Ordering::Greater
    } else if addr >= r.base + r.size {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_roundtrip() {
        let mut m: Memory = Memory::new();
        let a = m.alloc(16, RegionKind::Heap);
        m.write(a, 0x1122_3344_5566_7788, Width::W8).unwrap();
        assert_eq!(m.read(a, Width::W8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read(a, Width::W1).unwrap(), 0x88); // little-endian
        assert_eq!(m.read(a + 7, Width::W1).unwrap(), 0x11);
    }

    #[test]
    fn oob_is_detected_and_classified() {
        let mut m: Memory = Memory::new();
        let a = m.alloc(8, RegionKind::Stack);
        let err = m.read_cell(a + 8).unwrap_err();
        assert_eq!(
            err,
            MemFault::OutOfBounds {
                addr: a + 8,
                nearest: Some(RegionKind::Stack)
            }
        );
    }

    #[test]
    fn straddling_read_faults() {
        let mut m: Memory = Memory::new();
        let a = m.alloc(4, RegionKind::Heap);
        assert!(m.read(a, Width::W4).is_ok());
        assert!(m.read(a + 1, Width::W4).is_err());
    }

    #[test]
    fn null_page_faults_as_null() {
        let m: Memory = Memory::new();
        assert_eq!(m.read_cell(0).unwrap_err(), MemFault::Null { addr: 0 });
        assert_eq!(
            m.read_cell(0x20).unwrap_err(),
            MemFault::Null { addr: 0x20 }
        );
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut m: Memory = Memory::new();
        let a = m.alloc(100, RegionKind::Heap);
        let b = m.alloc(100, RegionKind::Heap);
        assert!(b >= a + 100 + GUARD_GAP);
        m.write_cell(a + 99, 1).unwrap();
        assert!(m.write_cell(a + 100, 1).is_err());
        m.write_cell(b, 2).unwrap();
    }

    #[test]
    fn alloc_with_copies_contents() {
        let mut m: Memory = Memory::new();
        let a = m.alloc_with(b"hello", RegionKind::Heap);
        assert_eq!(m.read_cell(a + 1).unwrap(), b'e');
        assert_eq!(m.allocated_bytes(), 5);
        assert_eq!(m.region_count(), 1);
    }

    #[test]
    fn allocations_past_the_cap_fail_with_address_zero() {
        let mut m: Memory = Memory::new();
        let a = m.alloc(ALLOC_CAP - 8, RegionKind::Heap);
        assert_ne!(a, 0);
        assert_eq!(m.alloc(9, RegionKind::Heap), 0, "one byte past the cap");
        assert_eq!(m.alloc(u64::MAX, RegionKind::Heap), 0);
        assert_eq!(
            m.allocated_bytes(),
            ALLOC_CAP - 8,
            "failures allocate nothing"
        );
        assert_eq!(m.region_count(), 1);
        // What is left under the cap still allocates.
        assert_ne!(m.alloc(8, RegionKind::Heap), 0);
        assert_ne!(m.alloc(0, RegionKind::Heap), 0);
        assert_eq!(m.alloc_with(b"x", RegionKind::Heap), 0);
    }

    #[test]
    fn zero_size_allocations_get_unique_addresses() {
        let mut m: Memory = Memory::new();
        let a = m.alloc(0, RegionKind::Heap);
        let b = m.alloc(0, RegionKind::Heap);
        assert_ne!(a, b);
        assert!(m.read_cell(a).is_err());
    }
}
