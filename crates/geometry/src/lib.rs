//! # ffw-geometry
//!
//! Geometric substrate of the FFW-Tomo inverse-scattering solver: the square
//! imaging domain with its `lambda/10` pixel grid, Morton (Z-order) indexing,
//! the MLFMA quad-tree cluster hierarchy (leaf = `0.8 lambda` = 8x8 pixels,
//! 16 sub-trees at the top computed level), and transmitter/receiver arrays.

pub mod domain;
pub mod morton;
pub mod point;
pub mod quadtree;
pub mod transducer;

pub use domain::{Domain, PIXELS_PER_WAVELENGTH};
pub use morton::{morton_child_pos, morton_decode, morton_encode, morton_parent};
pub use point::{pt, Point2};
pub use quadtree::{Offset, QuadTree, LEAF_PIXELS, LEAF_SIDE, NEAR_OFFSETS, TOP_LEVEL};
pub use transducer::TransducerArray;
