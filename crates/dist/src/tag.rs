//! Every message tag this crate sends, in one table.
//!
//! The mailbox matches a receive by source and tag, FIFO per pair, so a tag
//! may be reused across applies, but two kinds of message must never share
//! a value. The discriminants are explicit, so two tags given one value do
//! not compile (E0081), and a compile-time assertion keeps the per-level
//! far-field range below the next tag. Pairing is checked at run time, by
//! every dist test: a send nobody receives fails the trace validator as a
//! message leak, and a receive nobody sends is a deadlock the watchdog
//! reports.

/// A message tag of the distributed engine, the reduction and the
/// checkpoint gather, listed in value order.
#[repr(u32)]
pub(crate) enum Tag {
    /// Near-field halo leaves of a panel ([`crate::engine`]).
    Halo = 0x100,
    /// One peer's far-field patterns, fused over columns and levels
    /// ([`crate::engine`]).
    Farfield = 0x101,
    /// The first of one tag per tree level: the unfused far-field patterns
    /// of the ablation baseline ([`Tag::farfield_level`]).
    FarfieldLevel0 = 0x110,
    /// A member's contribution up to the reduction root ([`crate::solver`]).
    Up = 0x200,
    /// The reduced vector back down from the root ([`crate::solver`]).
    Down = 0x201,
    /// One rank's state for the checkpoint gather ([`crate::ft`]).
    Ckpt = 0x300,
}

/// Tree levels a far-field level tag can name: a level index is below the
/// bit width of the `usize` leaf count whose trailing zeros give the depth.
const LEVELS: u32 = usize::BITS;

const _: () = assert!(Tag::FarfieldLevel0 as u32 + LEVELS <= Tag::Up as u32);

impl Tag {
    /// The unfused far-field tag of tree level `li` (below [`LEVELS`]).
    pub(crate) fn farfield_level(li: usize) -> u32 {
        Tag::FarfieldLevel0 as u32 + li as u32
    }
}
