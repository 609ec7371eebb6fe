//! [`CachePadded`]: a value on cache lines of its own.
//!
//! Two values written by different threads that share a cache line
//! contend in hardware even when no lock orders them: each write takes
//! the line away from the other core. Wrapping each hot value keeps
//! its writes off its neighbours' lines. The alignment is 128 bytes,
//! not 64, because adjacent-line prefetchers pull lines in pairs.
//!
//! It lives here because `dps-obs` is the one crate both `dps-lock`
//! and `dps-core` already depend on.

use std::ops::Deref;

/// `T` aligned (and so padded) to 128 bytes.
///
/// ```
/// use dps_obs::CachePadded;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let hits = CachePadded::new(AtomicU64::new(0));
/// hits.fetch_add(1, Ordering::Relaxed);
/// assert_eq!(hits.load(Ordering::Relaxed), 1);
/// assert!(std::mem::align_of_val(&hits) >= 128);
/// ```
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

const _: () = assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);

/// The alignment of the field `field` selects (the selector is never
/// called), so a crate can assert at compile time that a hot field is
/// still padded:
///
/// ```
/// use dps_obs::{field_align, CachePadded};
///
/// struct Hot {
///     head: CachePadded<u64>,
///     cold: u64,
/// }
/// const _: () = assert!(field_align(|h: &Hot| &h.head) >= 128);
/// assert_eq!(field_align(|h: &Hot| &h.cold), 8);
/// ```
pub const fn field_align<S, T>(_field: fn(&S) -> &T) -> usize {
    std::mem::align_of::<T>()
}

impl<T> CachePadded<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
