//! Sorted address→symbol map in the style of `System.map`.

/// One kernel symbol: a start address and a name.
///
/// As in `System.map`, a symbol's extent runs from its own address to the
/// next symbol's address (the last symbol extends to the end of the text
/// region passed at construction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Start address of the function.
    pub addr: u64,
    /// Function name, e.g. `smp_call_function_many`.
    pub name: String,
}

/// A kernel symbol table with `O(log n)` address resolution.
///
/// # Examples
///
/// ```
/// use ksym::table::{Symbol, SymbolTable};
///
/// let table = SymbolTable::from_symbols(vec![
///     Symbol { addr: 0xffffffff8100_0000, name: "startup_64".into() },
///     Symbol { addr: 0xffffffff8100_0100, name: "do_flush_tlb_all".into() },
///     Symbol { addr: 0xffffffff8100_0200, name: "helper".into() },
/// ]);
/// assert_eq!(table.resolve(0xffffffff8100_0150).unwrap().name, "do_flush_tlb_all");
/// assert_eq!(table.addr_of("helper"), Some(0xffffffff8100_0200));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    /// Symbols sorted by address.
    symbols: Vec<Symbol>,
    /// Exclusive end of the covered text region.
    end: u64,
}

impl SymbolTable {
    /// Builds a table from `(addr, name)` pairs; sorts and deduplicates by
    /// address (keeping the first name for a duplicated address).
    pub fn from_symbols(mut symbols: Vec<Symbol>) -> Self {
        symbols.sort_by_key(|s| s.addr);
        symbols.dedup_by_key(|s| s.addr);
        let end = symbols
            .last()
            .map(|s| s.addr.saturating_add(0x1000))
            .unwrap_or(0);
        SymbolTable { symbols, end }
    }

    /// Resolves an instruction pointer to the covering symbol, or `None` if
    /// the address falls outside the mapped text region.
    pub fn resolve(&self, addr: u64) -> Option<&Symbol> {
        if self.symbols.is_empty() || addr >= self.end {
            return None;
        }
        let idx = match self.symbols.binary_search_by_key(&addr, |s| s.addr) {
            Ok(i) => i,
            Err(0) => return None, // Below the first symbol.
            Err(i) => i - 1,
        };
        Some(&self.symbols[idx])
    }

    /// Looks up a symbol's start address by exact name: a linear scan of
    /// string compares, on the simulation path.
    /// [`Linux44Map::ip_in`](crate::linux44::Linux44Map::ip_in) calls it on
    /// every `VcpuCtx::ip`, so every `DetectionEngine::classify` pays a scan
    /// of the map's 64 names before its class memo is consulted. Interning
    /// names as symbol indices when a segment is built would make it an
    /// array lookup (ROADMAP item 7).
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        self.symbols.iter().find(|s| s.name == name).map(|s| s.addr)
    }

    /// Iterates over symbols in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter()
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True if the table has no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Exclusive end of the covered text region.
    pub fn end(&self) -> u64 {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_table() -> SymbolTable {
        SymbolTable::from_symbols(vec![
            Symbol {
                addr: 0x1000,
                name: "a".into(),
            },
            Symbol {
                addr: 0x2000,
                name: "b".into(),
            },
            Symbol {
                addr: 0x3000,
                name: "c".into(),
            },
        ])
    }

    #[test]
    fn resolve_picks_covering_symbol() {
        let t = demo_table();
        assert_eq!(t.resolve(0x1000).unwrap().name, "a");
        assert_eq!(t.resolve(0x1fff).unwrap().name, "a");
        assert_eq!(t.resolve(0x2000).unwrap().name, "b");
        assert_eq!(t.resolve(0x2fff).unwrap().name, "b");
        assert_eq!(t.resolve(0x3abc).unwrap().name, "c");
    }

    #[test]
    fn resolve_outside_region_is_none() {
        let t = demo_table();
        assert!(t.resolve(0x0fff).is_none());
        assert!(t.resolve(0x3000 + 0x1000).is_none());
        assert!(SymbolTable::default().resolve(0x1000).is_none());
    }

    #[test]
    fn duplicate_addresses_are_deduped() {
        let t = SymbolTable::from_symbols(vec![
            Symbol {
                addr: 0x1000,
                name: "first".into(),
            },
            Symbol {
                addr: 0x1000,
                name: "second".into(),
            },
        ]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.resolve(0x1000).unwrap().name, "first");
    }

    proptest! {
        /// Binary-search resolution matches a naive linear scan.
        #[test]
        fn prop_resolve_matches_linear_scan(
            addrs in proptest::collection::btree_set(0u64..100_000, 1..60),
            probes in proptest::collection::vec(0u64..120_000, 1..100),
        ) {
            let symbols: Vec<Symbol> = addrs
                .iter()
                .enumerate()
                .map(|(i, &addr)| Symbol { addr, name: format!("f{i}") })
                .collect();
            let table = SymbolTable::from_symbols(symbols.clone());
            for &p in &probes {
                let expected = if p >= table.end() {
                    None
                } else {
                    symbols.iter().rev().find(|s| s.addr <= p)
                };
                prop_assert_eq!(table.resolve(p), expected);
            }
        }
    }
}
