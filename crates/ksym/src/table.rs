//! Sorted address→symbol map in the style of `System.map`.

use crate::linux44::Sym;

/// A kernel symbol table with `O(log n)` address resolution: each
/// function's start address, in address order.
///
/// As in `System.map`, a symbol's extent runs from its own address to the
/// next symbol's address; the last symbol extends to the end of the text.
///
/// # Examples
///
/// ```
/// use ksym::linux44::{LINUX44, USER_IP};
/// use ksym::sym;
///
/// let table = LINUX44.table();
/// let flush = sym!("do_flush_tlb_all");
/// assert_eq!(table.resolve(flush.addr() + 0x50), Some(flush));
/// assert_eq!(table.resolve(USER_IP), None);
/// ```
#[derive(Debug)]
pub struct SymbolTable {
    /// Start address of each function, indexed by [`Sym::index`].
    addrs: [u64; Sym::COUNT],
    /// Exclusive end of the covered text region.
    end: u64,
}

impl SymbolTable {
    /// A table whose function `i` starts at `addrs[i]` (ascending) and
    /// whose text ends at `end`.
    pub(crate) const fn new(addrs: [u64; Sym::COUNT], end: u64) -> Self {
        SymbolTable { addrs, end }
    }

    /// Resolves an instruction pointer to the covering function, or `None`
    /// if the address falls outside the mapped text region.
    pub fn resolve(&self, addr: u64) -> Option<Sym> {
        if addr >= self.end {
            return None;
        }
        // The number of functions starting at or below `addr`; none means
        // below the first symbol.
        let covering = self.addrs.partition_point(|&start| start <= addr);
        covering.checked_sub(1).map(Sym::at)
    }
}

#[cfg(test)]
mod tests {
    use crate::linux44::{Sym, KERNEL_TEXT_BASE, LINUX44, TEXT_END, USER_IP};
    use crate::sym;

    #[test]
    fn resolve_picks_covering_symbol() {
        let t = LINUX44.table();
        let (first, second) = (sym!("irq_enter"), sym!("startup_64"));
        assert_eq!(t.resolve(first.addr()), Some(first));
        assert_eq!(t.resolve(second.addr() - 1), Some(first));
        assert_eq!(t.resolve(second.addr()), Some(second));
        let last = sym!("__do_softirq");
        assert_eq!(t.resolve(TEXT_END - 1), Some(last));
    }

    #[test]
    fn resolve_outside_region_is_none() {
        let t = LINUX44.table();
        assert!(t.resolve(KERNEL_TEXT_BASE - 1).is_none());
        assert!(t.resolve(TEXT_END).is_none());
        assert!(t.resolve(u64::MAX).is_none());
    }

    /// Binary-search resolution agrees with a linear scan of the table at
    /// every symbol's first and last byte, at the bytes just outside the
    /// text and at the user-space IP.
    #[test]
    fn resolve_matches_linear_scan() {
        let t = LINUX44.table();
        let scan = |ip: u64| {
            Sym::all()
                .rev()
                .find(|s| s.addr() <= ip)
                .filter(|_| ip < TEXT_END)
        };
        let mut probes = vec![KERNEL_TEXT_BASE - 1, TEXT_END, USER_IP];
        for s in Sym::all() {
            let next = Sym::all().nth(s.index() + 1).map_or(TEXT_END, Sym::addr);
            probes.extend([s.addr(), next - 1]);
        }
        for ip in probes {
            assert_eq!(t.resolve(ip), scan(ip), "{ip:#x}");
        }
    }
}
