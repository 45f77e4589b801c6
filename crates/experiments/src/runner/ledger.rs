//! The old home of [`fnv64`]. It stays only because simbench imports
//! this path, and simbench changes only in a benchmark change.

pub use metrics::render::fnv64;
