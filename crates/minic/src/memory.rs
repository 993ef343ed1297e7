//! The VM memory model.
//!
//! Memory is a set of *objects*, each a flat run of 64-bit cells. A pointer
//! is a packed `(object, offset)` pair stored in a single cell, so all
//! values — integers and pointers — are `i64` and every cell can carry an
//! optional *shadow* value of type `V` (unit for concrete runs, a symbolic
//! expression for concolic runs).
//!
//! Out-of-bounds accesses, null dereferences and use-after-free are
//! detected on every access and surface as crashes ("SEGV" in the paper's
//! terms) rather than undefined behaviour.

use crate::types::{FuncId, GlobalId, StrId};
use std::fmt;

/// Identifier of a memory object. `0` is reserved for the null pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    /// The null object (never valid to access).
    pub const NULL: ObjId = ObjId(0);
}

/// Packs an object id and cell offset into a pointer cell value.
pub fn pack(obj: ObjId, off: u32) -> i64 {
    ((obj.0 as i64) << 32) | off as i64
}

/// Unpacks a pointer cell value into object id and cell offset.
pub fn unpack(addr: i64) -> (ObjId, u32) {
    (ObjId((addr >> 32) as u32), addr as u32)
}

/// What a memory object represents (for diagnostics and analyses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjKind {
    /// Storage of a global variable.
    Global(GlobalId),
    /// Read-only string literal data.
    Rodata(StrId),
    /// A stack frame of the function.
    Frame(FuncId),
    /// A heap allocation from `malloc`.
    Heap,
    /// Environment-provided data (argv strings, workload buffers).
    External,
}

/// A memory access fault; becomes a crash in the VM.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MemFault {
    /// Dereference of the null pointer.
    NullDeref,
    /// Access past the end of an object.
    OutOfBounds {
        /// The object accessed.
        obj: u32,
        /// The offending offset.
        off: u32,
        /// The object's size in cells.
        size: usize,
    },
    /// Access to a freed heap object.
    UseAfterFree,
    /// Access through a pointer to a nonexistent object.
    BadObject,
    /// `free` of something that is not a live heap object.
    BadFree,
    /// Store into read-only data.
    ReadOnly,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::NullDeref => write!(f, "null pointer dereference"),
            MemFault::OutOfBounds { obj, off, size } => {
                write!(
                    f,
                    "out-of-bounds access: object {obj} offset {off} size {size}"
                )
            }
            MemFault::UseAfterFree => write!(f, "use after free"),
            MemFault::BadObject => write!(f, "wild pointer dereference"),
            MemFault::BadFree => write!(f, "invalid free"),
            MemFault::ReadOnly => write!(f, "store to read-only memory"),
        }
    }
}

/// One memory object: concrete cells plus parallel shadow cells.
#[derive(Debug, Clone)]
pub struct Object<V> {
    /// What the object represents.
    pub kind: ObjKind,
    /// Concrete cell values.
    pub cells: Vec<i64>,
    /// Shadow values, parallel to `cells`.
    pub shadow: Vec<V>,
    /// False once freed.
    pub alive: bool,
    /// True for rodata (stores fault).
    pub read_only: bool,
}

/// The whole address space of one program execution.
#[derive(Debug, Clone)]
pub struct Memory<V> {
    objects: Vec<Object<V>>,
    /// Total cells currently allocated (live objects).
    live_cells: usize,
    /// High-water mark of allocated cells.
    peak_cells: usize,
}

impl<V: Clone + Default> Memory<V> {
    /// Creates an empty memory (object 0 is the unusable null object).
    pub fn new() -> Self {
        Memory {
            objects: vec![Object {
                kind: ObjKind::External,
                cells: Vec::new(),
                shadow: Vec::new(),
                alive: false,
                read_only: true,
            }],
            live_cells: 0,
            peak_cells: 0,
        }
    }

    /// Allocates a zeroed object of `size` cells.
    pub fn alloc(&mut self, kind: ObjKind, size: usize) -> ObjId {
        self.alloc_init(kind, vec![0; size])
    }

    /// Allocates an object holding `cells`, with default shadows. This is
    /// how the loader fills rodata, which no store may write afterwards.
    pub fn alloc_init(&mut self, kind: ObjKind, cells: Vec<i64>) -> ObjId {
        let size = cells.len();
        let read_only = matches!(kind, ObjKind::Rodata(_));
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(Object {
            kind,
            cells,
            shadow: vec![V::default(); size],
            alive: true,
            read_only,
        });
        self.live_cells += size;
        self.peak_cells = self.peak_cells.max(self.live_cells);
        id
    }

    /// Frees a heap object. Only pointers to offset 0 of live heap objects
    /// are valid, as in C.
    pub fn free(&mut self, addr: i64) -> Result<(), MemFault> {
        let (obj, off) = unpack(addr);
        if obj == ObjId::NULL {
            return Ok(()); // free(NULL) is a no-op.
        }
        let o = self
            .objects
            .get_mut(obj.0 as usize)
            .ok_or(MemFault::BadFree)?;
        if off != 0 || !o.alive || !matches!(o.kind, ObjKind::Heap) {
            return Err(MemFault::BadFree);
        }
        o.alive = false;
        self.live_cells -= o.cells.len();
        Ok(())
    }

    /// Why an access at `(obj, off)` faults, checked in order: null,
    /// nonexistent object, freed object, then (for stores) read-only and
    /// finally the bounds. Called only once the fast path has failed.
    #[cold]
    fn fault(&self, obj: ObjId, off: u32, store: bool) -> MemFault {
        if obj == ObjId::NULL {
            return MemFault::NullDeref;
        }
        let Some(o) = self.objects.get(obj.0 as usize) else {
            return MemFault::BadObject;
        };
        if !o.alive {
            MemFault::UseAfterFree
        } else if store && o.read_only {
            MemFault::ReadOnly
        } else {
            MemFault::OutOfBounds {
                obj: obj.0,
                off,
                size: o.cells.len(),
            }
        }
    }

    /// Loads the cell at a packed address.
    ///
    /// A live, in-bounds access returns after one lookup. (The null
    /// object is never live, so null reads take the fault path too.)
    #[inline]
    pub fn load(&self, addr: i64) -> Result<(i64, &V), MemFault> {
        let (obj, off) = unpack(addr);
        if let Some(o) = self.objects.get(obj.0 as usize) {
            if o.alive {
                if let Some(&v) = o.cells.get(off as usize) {
                    return Ok((v, &o.shadow[off as usize]));
                }
            }
        }
        Err(self.fault(obj, off, false))
    }

    /// Stores a value and shadow at a packed address.
    #[inline]
    pub fn store(&mut self, addr: i64, val: i64, shadow: V) -> Result<(), MemFault> {
        let (obj, off) = unpack(addr);
        if let Some(o) = self.objects.get_mut(obj.0 as usize) {
            if o.alive && !o.read_only {
                if let Some(cell) = o.cells.get_mut(off as usize) {
                    *cell = val;
                    o.shadow[off as usize] = shadow;
                    return Ok(());
                }
            }
        }
        Err(self.fault(obj, off, true))
    }

    /// Reads `n` byte-cells starting at `addr` (used for syscall buffers).
    pub fn read_bytes(&self, addr: i64, n: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (v, _) = self.load(addr.wrapping_add(i as i64))?;
            out.push((v & 0xff) as u8);
        }
        Ok(out)
    }

    /// Writes bytes into byte-cells starting at `addr` with default shadows.
    pub fn write_bytes(&mut self, addr: i64, bytes: &[u8]) -> Result<(), MemFault> {
        for (i, b) in bytes.iter().enumerate() {
            self.store(addr.wrapping_add(i as i64), *b as i64, V::default())?;
        }
        Ok(())
    }

    /// Reads a NUL-terminated byte string, up to `max` bytes.
    pub fn read_cstr(&self, addr: i64, max: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let (v, _) = self.load(addr.wrapping_add(i as i64))?;
            let b = (v & 0xff) as u8;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Sets the shadow of one cell without touching the concrete value.
    /// Unlike [`store`](Memory::store), rodata is not refused.
    pub fn set_shadow(&mut self, addr: i64, shadow: V) -> Result<(), MemFault> {
        let (obj, off) = unpack(addr);
        if let Some(o) = self.objects.get_mut(obj.0 as usize) {
            if o.alive {
                if let Some(sh) = o.shadow.get_mut(off as usize) {
                    *sh = shadow;
                    return Ok(());
                }
            }
        }
        Err(self.fault(obj, off, false))
    }

    /// Marks an object dead without the heap-object checks of [`free`],
    /// used for popped stack frames so dangling pointers fault.
    ///
    /// [`free`]: Memory::free
    pub fn kill(&mut self, obj: ObjId) {
        if let Some(o) = self.objects.get_mut(obj.0 as usize) {
            if o.alive {
                o.alive = false;
                self.live_cells -= o.cells.len();
            }
        }
    }

    /// High-water mark of allocated cells.
    pub fn peak_cells(&self) -> usize {
        self.peak_cells
    }

    /// Direct read of an object's cells (analysis/test support).
    pub fn object_cells(&self, obj: ObjId) -> Option<&[i64]> {
        self.objects.get(obj.0 as usize).map(|o| &o.cells[..])
    }
}

impl<V: Clone + Default> Default for Memory<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let addr = pack(ObjId(7), 42);
        assert_eq!(unpack(addr), (ObjId(7), 42));
        assert_eq!(
            unpack(pack(ObjId(u32::MAX), u32::MAX)),
            (ObjId(u32::MAX), u32::MAX)
        );
    }

    #[test]
    fn pointer_arithmetic_on_packed_addresses() {
        let addr = pack(ObjId(3), 10);
        assert_eq!(unpack(addr + 5), (ObjId(3), 15));
        assert_eq!(unpack(addr - 10), (ObjId(3), 0));
    }

    #[test]
    fn null_is_object_zero() {
        assert_eq!(unpack(0), (ObjId::NULL, 0));
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m: Memory<()> = Memory::new();
        let o = m.alloc(ObjKind::Heap, 4);
        m.store(pack(o, 2), 99, ()).unwrap();
        assert_eq!(m.load(pack(o, 2)).unwrap().0, 99);
        assert_eq!(m.load(pack(o, 0)).unwrap().0, 0); // zero-initialized
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut m: Memory<()> = Memory::new();
        let o = m.alloc(ObjKind::Heap, 4);
        assert!(matches!(
            m.load(pack(o, 4)),
            Err(MemFault::OutOfBounds { .. })
        ));
        assert!(m.store(pack(o, 100), 1, ()).is_err());
    }

    #[test]
    fn null_deref_faults() {
        let m: Memory<()> = Memory::new();
        assert_eq!(m.load(0), Err(MemFault::NullDeref));
    }

    #[test]
    fn use_after_free_faults() {
        let mut m: Memory<()> = Memory::new();
        let o = m.alloc(ObjKind::Heap, 4);
        m.free(pack(o, 0)).unwrap();
        assert_eq!(m.load(pack(o, 0)), Err(MemFault::UseAfterFree));
    }

    #[test]
    fn double_free_faults() {
        let mut m: Memory<()> = Memory::new();
        let o = m.alloc(ObjKind::Heap, 4);
        m.free(pack(o, 0)).unwrap();
        assert_eq!(m.free(pack(o, 0)), Err(MemFault::BadFree));
    }

    #[test]
    fn free_null_is_noop() {
        let mut m: Memory<()> = Memory::new();
        assert!(m.free(0).is_ok());
    }

    #[test]
    fn interior_free_faults() {
        let mut m: Memory<()> = Memory::new();
        let o = m.alloc(ObjKind::Heap, 4);
        assert_eq!(m.free(pack(o, 1)), Err(MemFault::BadFree));
    }

    #[test]
    fn rodata_is_read_only() {
        let mut m: Memory<()> = Memory::new();
        let o = m.alloc(ObjKind::Rodata(StrId(0)), 4);
        assert_eq!(m.store(pack(o, 0), 1, ()), Err(MemFault::ReadOnly));
    }

    #[test]
    fn cstr_reading() {
        let mut m: Memory<()> = Memory::new();
        let o = m.alloc(ObjKind::External, 8);
        m.write_bytes(pack(o, 0), b"hi\0junk").unwrap();
        assert_eq!(m.read_cstr(pack(o, 0), 8).unwrap(), b"hi");
    }

    #[test]
    fn peak_cells_tracks_high_water() {
        let mut m: Memory<()> = Memory::new();
        let a = m.alloc(ObjKind::Heap, 10);
        m.alloc(ObjKind::Heap, 5);
        m.free(pack(a, 0)).unwrap();
        m.alloc(ObjKind::Heap, 2);
        assert_eq!(m.peak_cells(), 15);
    }
}
