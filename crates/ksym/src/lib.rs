//! Guest kernel symbol tables and the critical-service whitelist.
//!
//! The paper's central mechanism (§4.1) is *guest-transparent* detection of
//! preempted critical OS services: when a vCPU yields, the hypervisor reads
//! its instruction pointer and resolves it against the guest's kernel symbol
//! table (the `System.map` shipped with every Linux kernel), then matches
//! the symbol against a whitelist derived from Table 3 of the paper.
//!
//! This crate models exactly that pipeline:
//!
//! - [`table::SymbolTable`] — a sorted address→symbol map, built from
//!   `(address, name)` pairs.
//! - [`linux44`] — a synthetic "Linux 4.4" kernel layout containing every
//!   function of Table 3 (plus filler symbols), standing in for a real
//!   guest image per the substitution rules in `DESIGN.md`.
//! - [`whitelist`] — the Table 3 whitelist and the
//!   [`CriticalClass`] classifier the hypervisor
//!   consults on every yield and IRQ event.
//!
//! # Examples
//!
//! ```
//! use ksym::linux44::Linux44Map;
//! use ksym::whitelist::{CriticalClass, Whitelist};
//!
//! let map = Linux44Map::new();
//! let wl = Whitelist::linux44();
//! let ip = map.addr_of("smp_call_function_many").unwrap() + 0x42;
//! assert_eq!(wl.classify(map.table(), ip), CriticalClass::IpiWait);
//! ```

pub mod linux44;
pub mod table;
pub mod whitelist;

pub use linux44::Linux44Map;
pub use table::{Symbol, SymbolTable};
pub use whitelist::{CriticalClass, Whitelist};
