//! Scatter-list helpers shared by the shims' vectored paths. The walk over
//! a list is `lamassu_storage::iovec`, re-exported here.

pub(crate) use lamassu_storage::iovec::{gather, total_len};
use std::io::IoSliceMut;

/// Runs `read` with a scatter list of up to three regions — optional head
/// staging, the contiguous middle, optional tail staging — built **on the
/// stack** (empty regions are skipped). This is how the span read paths
/// issue their one vectored backend call without allocating the
/// `IoSliceMut` list: the edge-staged shape is part of the steady state for
/// misaligned workloads.
pub(crate) fn with_scatter3<T>(
    head: Option<&mut [u8]>,
    mid: &mut [u8],
    tail: Option<&mut [u8]>,
    read: impl FnOnce(&mut [IoSliceMut<'_>]) -> T,
) -> T {
    let mid = (!mid.is_empty()).then_some(mid);
    match (head, mid, tail) {
        (Some(h), Some(m), Some(t)) => {
            read(&mut [IoSliceMut::new(h), IoSliceMut::new(m), IoSliceMut::new(t)])
        }
        (Some(h), Some(m), None) => read(&mut [IoSliceMut::new(h), IoSliceMut::new(m)]),
        (Some(h), None, Some(t)) => read(&mut [IoSliceMut::new(h), IoSliceMut::new(t)]),
        (None, Some(m), Some(t)) => read(&mut [IoSliceMut::new(m), IoSliceMut::new(t)]),
        (Some(h), None, None) => read(&mut [IoSliceMut::new(h)]),
        (None, Some(m), None) => read(&mut [IoSliceMut::new(m)]),
        (None, None, Some(t)) => read(&mut [IoSliceMut::new(t)]),
        (None, None, None) => read(&mut []),
    }
}
