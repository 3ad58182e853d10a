//! The one walk over a scatter/gather list.
//!
//! A list is any slice of byte buffers — `[IoSlice]`, `[IoSliceMut]` — read
//! as their logical concatenation. Every store and tier that moves bytes
//! between a list and a flat buffer does it through these three functions,
//! so the skip/clamp arithmetic exists once.

use std::ops::{Deref, DerefMut};

/// Total number of bytes in a list.
pub fn total_len<B: Deref<Target = [u8]>>(bufs: &[B]) -> usize {
    bufs.iter().map(|b| b.len()).sum()
}

/// Gathers list → slice: copies bytes of the concatenation of `bufs`,
/// starting `skip` bytes in, into `dst`. Stops at the end of whichever is
/// shorter and returns the number of bytes copied.
pub fn gather<B: Deref<Target = [u8]>>(bufs: &[B], mut skip: usize, dst: &mut [u8]) -> usize {
    let mut done = 0;
    for b in bufs {
        if done == dst.len() {
            break;
        }
        if skip >= b.len() {
            skip -= b.len();
            continue;
        }
        let take = (b.len() - skip).min(dst.len() - done);
        dst[done..done + take].copy_from_slice(&b[skip..skip + take]);
        done += take;
        skip = 0;
    }
    done
}

/// Scatters slice → list: copies `src` into the concatenation of `bufs`,
/// starting `skip` bytes in (the mutable dual of [`gather`]). Stops at the
/// end of whichever is shorter and returns the number of bytes copied;
/// buffers past that point are left untouched.
pub fn scatter<B: DerefMut<Target = [u8]>>(bufs: &mut [B], mut skip: usize, src: &[u8]) -> usize {
    let mut done = 0;
    for b in bufs.iter_mut() {
        if done == src.len() {
            break;
        }
        if skip >= b.len() {
            skip -= b.len();
            continue;
        }
        let take = (b.len() - skip).min(src.len() - done);
        b[skip..skip + take].copy_from_slice(&src[done..done + take]);
        done += take;
        skip = 0;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{IoSlice, IoSliceMut};

    #[test]
    fn gather_skips_clamps_and_passes_empty_slices() {
        let (a, b, c, d) = ([1u8, 2], [0u8; 0], [3u8], [4u8, 5, 6]);
        let bufs = [
            IoSlice::new(&a),
            IoSlice::new(&b),
            IoSlice::new(&c),
            IoSlice::new(&d),
        ];
        assert_eq!(total_len(&bufs), 6);
        let mut mid = [0u8; 4];
        assert_eq!(gather(&bufs, 1, &mut mid), 4);
        assert_eq!(mid, [2, 3, 4, 5]);
        // A destination longer than what is left of the list is filled short.
        let mut long = [9u8; 4];
        assert_eq!(gather(&bufs, 4, &mut long), 2);
        assert_eq!(long, [5, 6, 9, 9]);
        assert_eq!(gather(&bufs, 6, &mut long), 0);
    }

    #[test]
    fn scatter_is_the_dual_of_gather() {
        let (mut a, mut b, mut c) = ([0u8; 2], [0u8; 0], [0u8; 3]);
        let mut bufs = [
            IoSliceMut::new(&mut a),
            IoSliceMut::new(&mut b),
            IoSliceMut::new(&mut c),
        ];
        assert_eq!(total_len(&bufs), 5);
        assert_eq!(scatter(&mut bufs, 1, &[7, 8, 9]), 3);
        // A source longer than the room left is cut at the end of the list.
        assert_eq!(scatter(&mut bufs, 4, &[1, 2, 3]), 1);
        assert_eq!(a, [0, 7]);
        assert_eq!(c, [8, 9, 1]);
    }
}
