//! # urlid-mapped
//!
//! Read-only memory mappings and typed zero-copy views for the `.urlm`
//! binary model format.
//!
//! The rest of the workspace forbids `unsafe`; this crate is the one
//! deliberate exception, and it keeps the unsafe surface as small as a
//! mapping can be: a [`Mapping`] (raw bytes acquired either from
//! `mmap(2)` — hand-rolled, the build container has no `libc` crate —
//! or from a read into an 8-byte-aligned heap buffer) and a [`Lane`]
//! (a typed `&[T]` view into a mapping, validated for alignment and
//! bounds at construction so every later access is a plain slice).
//!
//! Consumers — the interned vocabulary in `urlid-features`, the
//! compiled scoring plane in `urlid-classifiers` — store `Lane<T>`
//! where they used to store `Vec<T>`: an owned lane wraps a vector
//! (training-time behaviour, unchanged), a mapped lane borrows the
//! mapping through an [`Arc`] so the bytes stay valid for as long as
//! any view is alive.
//!
//! Byte order: a mapped lane reinterprets file bytes in native order.
//! The `.urlm` reader in `urlid` validates the file's endianness tag
//! before any lane is built, so a foreign-endian file is rejected
//! instead of mis-cast.

#![allow(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// Marker for element types a [`Lane`] may reinterpret raw bytes as.
///
/// # Safety
///
/// Implementors must be plain-old-data: `Copy`, no padding, no
/// niches/invalid bit patterns, and valid for any byte content. The
/// numeric primitives below satisfy all of that.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f64 {}

/// Why a typed view could not be built over a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// The requested range does not lie inside the mapping.
    OutOfBounds {
        /// Requested byte offset.
        offset: usize,
        /// Requested byte length.
        len: usize,
        /// Total mapping length in bytes.
        mapping_len: usize,
    },
    /// The start address of the range is not aligned for the element
    /// type.
    Misaligned {
        /// Requested byte offset.
        offset: usize,
        /// Required alignment in bytes.
        align: usize,
    },
    /// The byte length is not a whole number of elements.
    BadLength {
        /// Requested byte length.
        len: usize,
        /// Element size in bytes.
        elem: usize,
    },
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::OutOfBounds {
                offset,
                len,
                mapping_len,
            } => write!(
                f,
                "view [{offset}, {offset}+{len}) exceeds mapping of {mapping_len} bytes"
            ),
            ViewError::Misaligned { offset, align } => {
                write!(f, "view offset {offset} is not {align}-byte aligned")
            }
            ViewError::BadLength { len, elem } => {
                write!(
                    f,
                    "view length {len} is not a multiple of {elem}-byte elements"
                )
            }
        }
    }
}

impl std::error::Error for ViewError {}

/// How the bytes of a [`Mapping`] are held.
enum Backing {
    /// `mmap(2)`-acquired pages (Linux); unmapped on drop.
    #[cfg(target_os = "linux")]
    Mmap { ptr: *const u8, len: usize },
    /// An 8-byte-aligned heap buffer the file was read into — the
    /// portable fallback (and the `URLID_NO_MMAP=1` test path). The
    /// `u64` backing guarantees the base address is aligned for every
    /// [`Pod`] type.
    Heap { buf: Vec<u64>, len: usize },
}

/// A read-only byte region backing zero or more [`Lane`] views.
pub struct Mapping {
    backing: Backing,
}

// The region is immutable for the lifetime of the mapping and the
// backing pointer is never handed out mutably.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

#[cfg(target_os = "linux")]
mod mmap_sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

impl Mapping {
    /// Map (or read) a whole file.
    ///
    /// On Linux this is `mmap(2)` with `PROT_READ | MAP_PRIVATE` —
    /// loading is then O(1) in the file size, pages fault in on first
    /// access, and cold regions of a huge model never cost RAM. On
    /// other targets — and on Linux when `URLID_NO_MMAP` is set, which
    /// is how CI exercises the portable path — the file is read into
    /// an 8-byte-aligned heap buffer instead.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Mapping> {
        let path = path.as_ref();
        #[cfg(target_os = "linux")]
        {
            if std::env::var_os("URLID_NO_MMAP").is_none() {
                return Mapping::open_mmap(path);
            }
        }
        Mapping::open_heap(path)
    }

    #[cfg(target_os = "linux")]
    fn open_mmap(path: &Path) -> io::Result<Mapping> {
        use std::os::fd::AsRawFd;

        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to map",
            ));
        }
        let len = len as usize;
        // mmap of length 0 is EINVAL; an empty mapping needs no pages.
        if len == 0 {
            return Ok(Mapping {
                backing: Backing::Heap {
                    buf: Vec::new(),
                    len: 0,
                },
            });
        }
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        // The fd can be closed once the mapping exists; the pages stay.
        Ok(Mapping {
            backing: Backing::Mmap {
                ptr: ptr as *const u8,
                len,
            },
        })
    }

    fn open_heap(path: &Path) -> io::Result<Mapping> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to read",
            ));
        }
        let len = len as usize;
        let mut buf = vec![0u64; len.div_ceil(8)];
        // View the u64 buffer as bytes for the read; the base address of
        // a Vec<u64> is 8-aligned, which satisfies every Pod type.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(bytes)?;
        Ok(Mapping {
            backing: Backing::Heap { buf, len },
        })
    }

    /// An in-memory mapping over a byte buffer (copied into aligned
    /// storage) — lets the format round-trip be tested without a file.
    pub fn from_bytes(bytes: &[u8]) -> Mapping {
        let len = bytes.len();
        let mut buf = vec![0u64; len.div_ceil(8)];
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
        dst.copy_from_slice(bytes);
        Mapping {
            backing: Backing::Heap { buf, len },
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mmap { len, .. } => *len,
            Backing::Heap { len, .. } => *len,
        }
    }

    /// Is the mapping empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len)
            },
        }
    }

    /// Which backend holds the bytes: `"mmap"` or `"heap"`.
    pub fn backend(&self) -> &'static str {
        match &self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mmap { .. } => "mmap",
            Backing::Heap { .. } => "heap",
        }
    }

    fn base_addr(&self) -> usize {
        self.bytes().as_ptr() as usize
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backing::Mmap { ptr, len } = self.backing {
            unsafe {
                mmap_sys::munmap(ptr as *mut std::os::raw::c_void, len);
            }
        }
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.len())
            .field("backend", &self.backend())
            .finish()
    }
}

/// Storage of a [`Lane`].
enum Repr<T: Pod> {
    /// Training-time representation: a plain vector.
    Owned(Vec<T>),
    /// A validated window into a shared mapping. `offset`/`len` were
    /// bounds- and alignment-checked at construction, so the deref is
    /// a straight pointer cast.
    Mapped {
        map: Arc<Mapping>,
        byte_offset: usize,
        len: usize,
        _elem: PhantomData<T>,
    },
}

/// A `Vec<T>`-or-mapped-view slice: the storage type behind every
/// array the `.urlm` format serves zero-copy.
///
/// Dereferences to `&[T]`; cloning a mapped lane clones an [`Arc`],
/// not the data.
pub struct Lane<T: Pod> {
    repr: Repr<T>,
}

impl<T: Pod> Lane<T> {
    /// An owned lane over a vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        Lane {
            repr: Repr::Owned(v),
        }
    }

    /// A zero-copy view of `byte_len` bytes at `byte_offset` in `map`,
    /// validated for bounds, element granularity and alignment.
    pub fn view(
        map: &Arc<Mapping>,
        byte_offset: usize,
        byte_len: usize,
    ) -> Result<Self, ViewError> {
        let elem = std::mem::size_of::<T>();
        if !byte_len.is_multiple_of(elem) {
            return Err(ViewError::BadLength {
                len: byte_len,
                elem,
            });
        }
        let end = byte_offset
            .checked_add(byte_len)
            .ok_or(ViewError::OutOfBounds {
                offset: byte_offset,
                len: byte_len,
                mapping_len: map.len(),
            })?;
        if end > map.len() {
            return Err(ViewError::OutOfBounds {
                offset: byte_offset,
                len: byte_len,
                mapping_len: map.len(),
            });
        }
        let align = std::mem::align_of::<T>();
        if !(map.base_addr() + byte_offset).is_multiple_of(align) {
            return Err(ViewError::Misaligned {
                offset: byte_offset,
                align,
            });
        }
        Ok(Lane {
            repr: Repr::Mapped {
                map: Arc::clone(map),
                byte_offset,
                len: byte_len / elem,
                _elem: PhantomData,
            },
        })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Is the lane empty?
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::Mapped {
                map,
                byte_offset,
                len,
                ..
            } => unsafe {
                // Bounds and alignment were proven in `view`.
                std::slice::from_raw_parts(map.bytes().as_ptr().add(*byte_offset).cast::<T>(), *len)
            },
        }
    }

    /// Does the lane borrow a mapping (as opposed to owning a vector)?
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }
}

impl<T: Pod> Deref for Lane<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Default for Lane<T> {
    fn default() -> Self {
        Lane::from_vec(Vec::new())
    }
}

impl<T: Pod> Clone for Lane<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Lane::from_vec(v.clone()),
            Repr::Mapped {
                map,
                byte_offset,
                len,
                ..
            } => Lane {
                repr: Repr::Mapped {
                    map: Arc::clone(map),
                    byte_offset: *byte_offset,
                    len: *len,
                    _elem: PhantomData,
                },
            },
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Lane<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Lane({}, len {})",
            if self.is_mapped() { "mapped" } else { "owned" },
            self.len()
        )?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.as_slice())?;
        }
        Ok(())
    }
}

impl<T: Pod + PartialEq> PartialEq for Lane<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Lane<T> {
    fn from(v: Vec<T>) -> Self {
        Lane::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("urlid-mapped-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn open_reads_the_exact_bytes_back() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("roundtrip.bin", &payload);
        let map = Mapping::open(&path).unwrap();
        assert_eq!(map.len(), payload.len());
        assert_eq!(map.bytes(), payload.as_slice());
        #[cfg(target_os = "linux")]
        assert_eq!(map.backend(), "mmap");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_fallback_reads_the_exact_bytes_back() {
        let payload: Vec<u8> = (0..9_999u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("fallback.bin", &payload);
        let map = Mapping::open_heap(&path).unwrap();
        assert_eq!(map.backend(), "heap");
        assert_eq!(map.bytes(), payload.as_slice());
        // The heap base is 8-aligned, so any Pod view at an 8-aligned
        // offset works.
        assert_eq!(map.base_addr() % 8, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_an_empty_mapping() {
        let path = temp_file("empty.bin", &[]);
        let map = Mapping::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), &[] as &[u8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typed_views_reinterpret_native_endian_bytes() {
        let values = [1.5f64, -2.25, 1e300, f64::MIN_POSITIVE, 0.0];
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
        let map = Arc::new(Mapping::from_bytes(&bytes));
        let lane: Lane<f64> = Lane::view(&map, 0, bytes.len()).unwrap();
        assert!(lane.is_mapped());
        assert_eq!(lane.as_slice(), &values);
        // A u64 view of the same bytes sees the raw bit patterns.
        let bits: Lane<u64> = Lane::view(&map, 0, bytes.len()).unwrap();
        for (b, v) in bits.iter().zip(values) {
            assert_eq!(*b, v.to_bits());
        }
    }

    #[test]
    fn view_validation_rejects_bad_ranges() {
        let map = Arc::new(Mapping::from_bytes(&[0u8; 64]));
        assert!(matches!(
            Lane::<u64>::view(&map, 0, 63),
            Err(ViewError::BadLength { .. })
        ));
        assert!(matches!(
            Lane::<u64>::view(&map, 4, 8),
            Err(ViewError::Misaligned { .. })
        ));
        assert!(matches!(
            Lane::<u64>::view(&map, 64, 8),
            Err(ViewError::OutOfBounds { .. })
        ));
        assert!(matches!(
            Lane::<u8>::view(&map, usize::MAX, 2),
            Err(ViewError::OutOfBounds { .. })
        ));
        // A valid u32 view at a 4-aligned (but not 8-aligned) offset.
        let ok: Lane<u32> = Lane::view(&map, 4, 8).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn owned_and_mapped_lanes_share_one_api() {
        let owned: Lane<u32> = Lane::from_vec(vec![1, 2, 3]);
        assert!(!owned.is_mapped());
        assert_eq!(&owned[..], &[1, 2, 3]);
        let cloned = owned.clone();
        assert_eq!(cloned, owned);

        let map = Arc::new(Mapping::from_bytes(&[1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]));
        if cfg!(target_endian = "little") {
            let mapped: Lane<u32> = Lane::view(&map, 0, 12).unwrap();
            assert_eq!(mapped.as_slice(), owned.as_slice());
            let c2 = mapped.clone();
            drop(mapped);
            // The clone keeps the mapping alive through its Arc.
            assert_eq!(&c2[..], &[1, 2, 3]);
        }
        let empty: Lane<f64> = Lane::default();
        assert!(empty.is_empty());
    }
}
