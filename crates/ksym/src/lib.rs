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
//! - [`linux44`] — a synthetic "Linux 4.4" kernel layout: one static table
//!   of its 64 functions (every function of Table 3 plus ordinary ones) in
//!   address order, each with its Table 3 class, standing in for a real
//!   guest image per the substitution rules in `DESIGN.md`. A function is
//!   a [`Sym`], its index in that table, named at compile time with
//!   [`sym!`].
//! - [`table::SymbolTable`] — the sorted address→symbol map that resolves
//!   an instruction pointer to its [`Sym`].
//! - [`whitelist`] — the Table 3 whitelist: the [`CriticalClass`] of each
//!   symbol, which the hypervisor consults on every yield and IRQ event.
//!
//! # Examples
//!
//! ```
//! use ksym::linux44::LINUX44;
//! use ksym::sym;
//! use ksym::whitelist::{CriticalClass, Whitelist};
//!
//! let wl = Whitelist::linux44();
//! let ip = sym!("smp_call_function_many").addr() + 0x42;
//! assert_eq!(wl.classify(LINUX44.table(), ip), CriticalClass::IpiWait);
//! ```

pub mod linux44;
pub mod table;
pub mod whitelist;

pub use linux44::{Linux44Map, Sym, LINUX44};
pub use table::SymbolTable;
pub use whitelist::{CriticalClass, Whitelist};
