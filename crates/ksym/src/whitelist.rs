//! The Table 3 whitelist: symbol → critical-service classification.
//!
//! When a vCPU yields, the hypervisor resolves its instruction pointer and
//! asks this whitelist *what kind* of critical OS service (if any) was
//! preempted. The class determines the handling policy (§4.2): TLB/IPI waits
//! migrate all preempted siblings, spin waits migrate the lock holder, IRQ
//! work migrates the recipient vCPU.

use crate::linux44::Sym;
use crate::table::SymbolTable;

/// The kind of critical OS service a kernel symbol belongs to.
///
/// Derived from Table 3 of the paper plus the yield sites of §5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CriticalClass {
    /// Waiting for IPI acknowledgements (`smp_call_function_*`,
    /// `native_flush_tlb_others`) — the one-to-many TLB/function-call case.
    IpiWait,
    /// Handling a TLB flush request on the receiving side
    /// (`flush_tlb_func`, `do_flush_tlb_all`, ...).
    TlbHandler,
    /// Spinning to acquire a lock (`_raw_spin_lock`, queued-spinlock
    /// slowpath) — the PLE yield site.
    SpinWait,
    /// Inside a spinlock-protected critical section or releasing one
    /// (`__raw_spin_unlock*`, page allocator internals).
    SpinlockCritical,
    /// Scheduler wakeup / reschedule-IPI machinery (`kick_process`,
    /// `ttwu_*`, `scheduler_ipi`, ...).
    SchedWakeup,
    /// Read-write semaphore wakeup (`rwsem_wake`, `__rwsem_do_wake`).
    RwsemWake,
    /// Interrupt entry/exit and softIRQ processing (`irq_enter`,
    /// `net_rx_action`, device IRQ handlers).
    Irq,
    /// Anything else — not a critical service; never accelerated.
    NotCritical,
}

impl CriticalClass {
    /// True for every class the micro-slice mechanism accelerates.
    pub fn is_critical(self) -> bool {
        self != CriticalClass::NotCritical
    }
}

/// The whitelist: the [`CriticalClass`] of every kernel function.
///
/// # Examples
///
/// ```
/// use ksym::sym;
/// use ksym::whitelist::{CriticalClass, Whitelist};
///
/// let wl = Whitelist::linux44();
/// assert_eq!(wl.class_of(sym!("kick_process")), CriticalClass::SchedWakeup);
/// assert_eq!(wl.class_of(sym!("sys_read")), CriticalClass::NotCritical);
/// ```
#[derive(Clone, Debug)]
pub struct Whitelist {
    /// Class of each function, indexed by [`Sym::index`].
    classes: [CriticalClass; Sym::COUNT],
}

impl Whitelist {
    /// The whitelist for the synthetic Linux 4.4 guest (Table 3): each
    /// function's own class.
    pub fn linux44() -> Self {
        Whitelist {
            classes: std::array::from_fn(|i| Sym::at(i).class()),
        }
    }

    /// An empty whitelist: classifies everything as non-critical. Used for
    /// "detection disabled" baselines and ablations.
    pub fn empty() -> Self {
        Whitelist {
            classes: [CriticalClass::NotCritical; Sym::COUNT],
        }
    }

    /// Classifies a kernel function.
    pub fn class_of(&self, sym: Sym) -> CriticalClass {
        self.classes[sym.index()]
    }

    /// Classifies an instruction pointer against a symbol table — the exact
    /// operation the hypervisor performs on every yield (§4.1).
    ///
    /// Unmapped addresses (user space, modules we do not model) are
    /// [`CriticalClass::NotCritical`].
    pub fn classify(&self, table: &SymbolTable, ip: u64) -> CriticalClass {
        table
            .resolve(ip)
            .map_or(CriticalClass::NotCritical, |sym| self.class_of(sym))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linux44::{LINUX44, TEXT_END, USER_IP};
    use crate::sym;

    /// The first and last byte of a function's text.
    fn ends(s: Sym) -> [u64; 2] {
        let next = Sym::all().nth(s.index() + 1).map_or(TEXT_END, Sym::addr);
        [s.addr(), next - 1]
    }

    #[test]
    fn every_critical_function_is_whitelisted() {
        let wl = Whitelist::linux44();
        for s in Sym::all().filter(|s| s.class().is_critical()) {
            assert_eq!(wl.class_of(s), s.class(), "{s:?}");
            for ip in ends(s) {
                assert_eq!(wl.classify(LINUX44.table(), ip), s.class(), "{s:?} {ip:#x}");
            }
        }
    }

    /// No ordinary function classifies as critical anywhere in its text,
    /// even right next to a critical neighbour.
    #[test]
    fn ordinary_functions_are_not_critical() {
        let wl = Whitelist::linux44();
        for s in Sym::all().filter(|s| !s.class().is_critical()) {
            assert_eq!(wl.class_of(s), CriticalClass::NotCritical, "{s:?}");
            for ip in ends(s) {
                assert_eq!(
                    wl.classify(LINUX44.table(), ip),
                    CriticalClass::NotCritical,
                    "{s:?} {ip:#x} must not be critical"
                );
            }
        }
    }

    /// The Linux 4.4 whitelist marks exactly the table's 33 critical
    /// functions; the empty one marks none.
    #[test]
    fn whitelist_size_matches_table() {
        let marked = |wl: &Whitelist| Sym::all().filter(|&s| wl.class_of(s).is_critical()).count();
        let critical = Sym::all().filter(|s| s.class().is_critical()).count();
        assert_eq!(marked(&Whitelist::linux44()), critical);
        assert_eq!(critical, 33);
        assert_eq!(marked(&Whitelist::empty()), 0);
    }

    #[test]
    fn classify_by_instruction_pointer() {
        let wl = Whitelist::linux44();
        let cases = [
            (sym!("native_flush_tlb_others"), CriticalClass::IpiWait),
            (sym!("flush_tlb_func"), CriticalClass::TlbHandler),
            (sym!("_raw_spin_lock"), CriticalClass::SpinWait),
            (sym!("__raw_spin_unlock"), CriticalClass::SpinlockCritical),
            (sym!("ttwu_do_wakeup"), CriticalClass::SchedWakeup),
            (sym!("rwsem_wake"), CriticalClass::RwsemWake),
            (sym!("net_rx_action"), CriticalClass::Irq),
            (sym!("sys_mmap"), CriticalClass::NotCritical),
        ];
        for (sym, class) in cases {
            assert_eq!(wl.classify(LINUX44.table(), sym.ip()), class, "{sym:?}");
        }
    }

    #[test]
    fn user_space_ip_is_never_critical() {
        let wl = Whitelist::linux44();
        assert_eq!(
            wl.classify(LINUX44.table(), USER_IP),
            CriticalClass::NotCritical
        );
    }

    #[test]
    fn empty_whitelist_disables_detection() {
        let wl = Whitelist::empty();
        for sym in Sym::all() {
            assert_eq!(
                wl.classify(LINUX44.table(), sym.ip()),
                CriticalClass::NotCritical
            );
        }
    }
}
