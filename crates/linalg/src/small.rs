//! Small-buffer storage behind [`CVec`](crate::CVec), [`CMat`](crate::CMat)
//! and the LU permutation.
//!
//! Two-antenna values — a `C²` vector, a 2×2 channel, a 2-row permutation —
//! are the bulk of the alignment and decode math. Giving each its own heap
//! block made allocation the largest single cost of scoring one transmission
//! group, so up to `N` entries live in place and only longer storage falls
//! back to a `Vec`.

use crate::C64;
use std::ops::{Deref, DerefMut};

/// Entries of a `CVec` or `CMat`: a 2×2 matrix still fits inline.
pub(crate) type Entries = Small<C64, 4>;

/// At most `N` entries inline, any number on the heap.
#[derive(Clone)]
pub(crate) enum Small<T: Copy + Default, const N: usize> {
    Inline { len: usize, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Small<T, N> {
    /// `n` copies of `value`.
    pub(crate) fn filled(n: usize, value: T) -> Self {
        if n <= N {
            Self::Inline {
                len: n,
                buf: [value; N],
            }
        } else {
            Self::Heap(vec![value; n])
        }
    }

    /// Take over a `Vec`, moving short contents inline.
    pub(crate) fn from_vec(v: Vec<T>) -> Self {
        if v.len() <= N {
            v.into_iter().collect()
        } else {
            Self::Heap(v)
        }
    }

    /// Resize to `n` entries, filling new ones with `T::default()`. Heap
    /// storage stays on the heap, so a reused buffer never reallocates once
    /// it has grown.
    pub(crate) fn resize(&mut self, n: usize) {
        match self {
            Self::Inline { len, buf } if n <= N => {
                if n > *len {
                    buf[*len..n].fill(T::default());
                }
                *len = n;
            }
            Self::Inline { len, buf } => {
                let mut v = Vec::with_capacity(n);
                v.extend_from_slice(&buf[..*len]);
                v.resize(n, T::default());
                *self = Self::Heap(v);
            }
            Self::Heap(v) => v.resize(n, T::default()),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for Small<T, N> {
    fn default() -> Self {
        Self::filled(0, T::default())
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for Small<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut buf = [T::default(); N];
        for (len, slot) in buf.iter_mut().enumerate() {
            match iter.next() {
                Some(x) => *slot = x,
                None => return Self::Inline { len, buf },
            }
        }
        match iter.next() {
            None => Self::Inline { len: N, buf },
            Some(x) => {
                let mut v = Vec::with_capacity(N + 1 + iter.size_hint().0);
                v.extend_from_slice(&buf);
                v.push(x);
                v.extend(iter);
                Self::Heap(v)
            }
        }
    }
}

impl<T: Copy + Default, const N: usize> Deref for Small<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Self::Inline { len, buf } => &buf[..*len],
            Self::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for Small<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Self::Inline { len, buf } => &mut buf[..*len],
            Self::Heap(v) => v,
        }
    }
}

/// Equality looks at the live entries only: where they are stored, and
/// what the unused inline slots hold, does not matter.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for Small<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Formats as the plain list of live entries, like the `Vec` it replaces.
impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for Small<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = Small<u32, 4>;

    #[test]
    fn short_contents_stay_inline_and_long_spill() {
        let short: S = (0..4).collect();
        assert!(matches!(short, Small::Inline { len: 4, .. }));
        assert_eq!(&*short, &[0, 1, 2, 3]);
        let long: S = (0..7).collect();
        assert!(matches!(long, Small::Heap(_)));
        assert_eq!(&*long, &[0, 1, 2, 3, 4, 5, 6]);
        assert!(matches!(
            S::from_vec(vec![9, 8]),
            Small::Inline { len: 2, .. }
        ));
        assert_eq!(&*S::filled(6, 1), &[1; 6]);
    }

    #[test]
    fn equality_and_debug_ignore_dead_slots_and_placement() {
        let mut a: S = [5, 6, 7].into_iter().collect();
        a.resize(1);
        let b = S::from_vec(vec![5]);
        assert_eq!(a, b);
        assert_eq!(a, Small::Heap(vec![5]));
        assert_eq!(format!("{a:?}"), "[5]");
    }

    #[test]
    fn resize_zero_fills_and_moves_to_the_heap_once() {
        let mut a: S = [3, 4].into_iter().collect();
        a.resize(1);
        a.resize(3);
        assert_eq!(&*a, &[3, 0, 0]);
        a.resize(6);
        assert_eq!(&*a, &[3, 0, 0, 0, 0, 0]);
        a.resize(2);
        assert!(
            matches!(a, Small::Heap(_)),
            "a grown buffer keeps its heap block"
        );
        assert_eq!(&*a, &[3, 0]);
    }
}
