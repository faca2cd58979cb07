//! The solve layer's N-vectors, allocated once per run.
//!
//! A BiCGStab sweep holds six panels of N-vectors and its rollback
//! snapshots, a scattering-operator apply one more, a DBIM pass three; built
//! fresh, each is a megabyte-sized allocation whose pages the kernel zeroes
//! and faults in on first touch — once per *solve*, dozens of times per
//! outer iteration. A [`Workspace`] is a free list of such vectors owned by
//! whoever owns the run (a rank context, or a caller of the solver entry
//! points): code between the operator applies [`Workspace::lease`]s what it
//! needs and the lease hands the vectors back when it goes out of scope, so
//! after the first solve of a run nothing between the applies allocates an
//! N-vector.
//!
//! The list grows to the largest number of vectors ever out at one time and
//! no further, which is what the same code held at its peak when it built
//! them fresh. Idle vectors stay resident between iterations: a checkpoint
//! streams the loop state through one small block and needs none of their
//! memory. One rank is one thread, so the list is a `RefCell`; an operator
//! that must be `Sync` ([`crate::VerifiedBlockOp`]) keeps its own scratch
//! instead.

use ffw_numerics::C64;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// A free list of N-vectors for one run on one rank.
#[derive(Default)]
pub struct Workspace {
    free: RefCell<Vec<Vec<C64>>>,
}

impl Workspace {
    /// An empty workspace: vectors are allocated as leases first need them.
    pub fn new() -> Self {
        Self::default()
    }

    /// `width` vectors of length `n` whose contents are *unspecified* (what
    /// their last user left): a lessee overwrites before it reads.
    pub fn lease(&self, n: usize, width: usize) -> Leased<'_> {
        let mut free = self.free.borrow_mut();
        let vecs = (0..width)
            .map(|_| {
                let mut v = free.pop().unwrap_or_default();
                v.resize(n, C64::ZERO);
                v
            })
            .collect();
        Leased { vecs, ws: self }
    }

    /// [`Self::lease`], zero-filled: initial guesses and accumulators.
    pub fn lease_zeroed(&self, n: usize, width: usize) -> Leased<'_> {
        let mut vecs = self.lease(n, width);
        vecs.iter_mut().for_each(|v| v.fill(C64::ZERO));
        vecs
    }
}

/// Vectors out on lease from a [`Workspace`]; they return to it on drop.
pub struct Leased<'w> {
    vecs: Vec<Vec<C64>>,
    ws: &'w Workspace,
}

impl Deref for Leased<'_> {
    type Target = [Vec<C64>];
    fn deref(&self) -> &[Vec<C64>] {
        &self.vecs
    }
}

impl DerefMut for Leased<'_> {
    fn deref_mut(&mut self) -> &mut [Vec<C64>] {
        &mut self.vecs
    }
}

impl Drop for Leased<'_> {
    fn drop(&mut self) {
        self.ws.free.borrow_mut().append(&mut self.vecs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_returned_vector_is_the_next_one_leased() {
        let ws = Workspace::new();
        let first = {
            let mut lease = ws.lease(64, 2);
            lease[0][3] = C64::ONE;
            (lease[0].as_ptr(), lease[1].as_ptr())
        };
        let again = ws.lease(64, 3);
        assert_eq!(again.len(), 3);
        assert!(again.iter().all(|v| v.len() == 64));
        let reused = again
            .iter()
            .filter(|v| v.as_ptr() == first.0 || v.as_ptr() == first.1)
            .count();
        assert_eq!(reused, 2, "both returned vectors are handed out again");
    }

    #[test]
    fn a_lease_of_another_length_is_resized() {
        let ws = Workspace::new();
        drop(ws.lease(8, 1));
        assert_eq!(ws.lease(32, 1)[0].len(), 32);
        assert_eq!(ws.lease(4, 1)[0].len(), 4);
    }
}
