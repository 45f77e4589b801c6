//! A synthetic "Linux 4.4" kernel text layout.
//!
//! The paper's guests run Ubuntu 14.04 with a Linux 4.4 kernel; the
//! hypervisor resolves preempted instruction pointers against that kernel's
//! `System.map`. We do not ship a real kernel image, so this module lays
//! out a synthetic-but-realistic kernel text containing every critical
//! function of Table 3, the spin/IRQ entry points the prototype hooks (§5),
//! and a spread of ordinary kernel functions that must classify as *not*
//! critical. The substitution preserves the mechanism under test:
//! address → symbol → whitelist classification.
//!
//! The layout is one static table of the 64 functions in address order,
//! each with its Table 3 class. A function is a [`Sym`], its index in that
//! table; guest models name one with [`sym!`](crate::sym), which looks the
//! name up at compile time, so an unknown name fails the build.

use crate::table::SymbolTable;
use crate::whitelist::CriticalClass::{self, *};
use core::fmt;

/// Base address of the synthetic kernel text region (the x86-64
/// direct-mapped kernel text base used by Linux).
pub const KERNEL_TEXT_BASE: u64 = 0xffff_ffff_8100_0000;

/// Synthetic size of each function's text, in bytes.
const FUNC_SIZE: u64 = 0x200;

/// An instruction-pointer value that is *not* kernel text (user space);
/// resolves to no symbol and therefore never classifies as critical.
pub const USER_IP: u64 = 0x0000_5555_dead_0000;

/// Every function of the kernel text with its Table 3 class, in address
/// order: function `i` starts at `KERNEL_TEXT_BASE + i * FUNC_SIZE`. The
/// first 47 alternate one critical function with up to two ordinary ones
/// (which guard against an over-matching whitelist); the last 17, from
/// `scheduler_ipi` on, are all critical.
const FUNCTIONS: [(&str, CriticalClass); 64] = [
    ("irq_enter", Irq),
    ("startup_64", NotCritical),
    ("do_syscall_64", NotCritical),
    ("irq_exit", Irq),
    ("sys_read", NotCritical),
    ("sys_write", NotCritical),
    ("handle_percpu_irq", Irq),
    ("sys_mmap", NotCritical),
    ("sys_munmap", NotCritical),
    ("smp_call_function_single", IpiWait),
    ("vfs_read", NotCritical),
    ("vfs_write", NotCritical),
    ("smp_call_function_many", IpiWait),
    ("do_page_fault", NotCritical),
    ("handle_mm_fault", NotCritical),
    ("do_flush_tlb_all", TlbHandler),
    ("copy_user_generic_string", NotCritical),
    ("memcpy_orig", NotCritical),
    ("flush_tlb_all", TlbHandler),
    ("schedule", NotCritical),
    ("pick_next_task_fair", NotCritical),
    ("native_flush_tlb_others", IpiWait),
    ("update_curr", NotCritical),
    ("kmem_cache_alloc", NotCritical),
    ("flush_tlb_func", TlbHandler),
    ("kmem_cache_free", NotCritical),
    ("__alloc_pages_nodemask", NotCritical),
    ("flush_tlb_current_task", TlbHandler),
    ("ext4_file_write_iter", NotCritical),
    ("generic_perform_write", NotCritical),
    ("flush_tlb_mm_range", TlbHandler),
    ("tcp_sendmsg", NotCritical),
    ("tcp_recvmsg", NotCritical),
    ("flush_tlb_page", TlbHandler),
    ("udp_sendmsg", NotCritical),
    ("do_exit", NotCritical),
    ("leave_mm", TlbHandler),
    ("do_fork", NotCritical),
    ("copy_process", NotCritical),
    ("get_page_from_freelist", SpinlockCritical),
    ("pipe_write", NotCritical),
    ("pipe_read", NotCritical),
    ("free_one_page", SpinlockCritical),
    ("mutex_lock", NotCritical),
    ("mutex_unlock", NotCritical),
    ("release_pages", SpinlockCritical),
    ("default_idle", NotCritical),
    ("scheduler_ipi", SchedWakeup),
    ("resched_curr", SchedWakeup),
    ("kick_process", SchedWakeup),
    ("sched_ttwu_pending", SchedWakeup),
    ("ttwu_do_activate", SchedWakeup),
    ("ttwu_do_wakeup", SchedWakeup),
    ("__raw_spin_unlock", SpinlockCritical),
    ("__raw_spin_unlock_irq", SpinlockCritical),
    ("_raw_spin_unlock_irqrestore", SpinlockCritical),
    ("_raw_spin_unlock_bh", SpinlockCritical),
    ("__rwsem_do_wake", RwsemWake),
    ("rwsem_wake", RwsemWake),
    ("_raw_spin_lock", SpinWait),
    ("native_queued_spin_lock_slowpath", SpinWait),
    ("e1000_intr", Irq),
    ("net_rx_action", Irq),
    ("__do_softirq", Irq),
];

/// Exclusive end of the kernel text: the last function's end.
pub(crate) const TEXT_END: u64 = KERNEL_TEXT_BASE + Sym::COUNT as u64 * FUNC_SIZE;

/// A kernel function: its index in the layout, in address order.
///
/// `Debug` renders the quoted name, so scenario renderings and messages
/// name the function.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Sym(u8);

impl Sym {
    /// Number of functions in the kernel text.
    pub const COUNT: usize = FUNCTIONS.len();

    /// The function named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no such function: at compile time when
    /// evaluated in a `const` block, as [`sym!`](crate::sym) does.
    pub const fn named(name: &str) -> Sym {
        let mut i = 0;
        while i < Self::COUNT {
            if same_bytes(FUNCTIONS[i].0.as_bytes(), name.as_bytes()) {
                return Sym(i as u8);
            }
            i += 1;
        }
        panic!("unknown kernel function");
    }

    /// Every function, in address order.
    pub fn all() -> impl DoubleEndedIterator<Item = Sym> {
        (0..Self::COUNT as u8).map(Sym)
    }

    /// The function at `index` in address order.
    pub(crate) const fn at(index: usize) -> Sym {
        Sym(index as u8)
    }

    /// This function's position in address order.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The function's name, e.g. `smp_call_function_many`.
    pub fn name(self) -> &'static str {
        FUNCTIONS[self.index()].0
    }

    /// The function's Table 3 class.
    pub fn class(self) -> CriticalClass {
        FUNCTIONS[self.index()].1
    }

    /// Start address of the function's text.
    pub const fn addr(self) -> u64 {
        KERNEL_TEXT_BASE + self.0 as u64 * FUNC_SIZE
    }

    /// An instruction-pointer value *inside* the function (mid-body), as a
    /// preempted vCPU would expose.
    pub const fn ip(self) -> u64 {
        self.addr() + FUNC_SIZE / 2
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.name(), f)
    }
}

/// Byte-wise equality, usable in a `const fn`.
const fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The [`Sym`] of the kernel function a string literal names, looked up
/// at compile time: a name the layout lacks fails the build.
///
/// ```
/// let idle = ksym::sym!("default_idle");
/// assert_eq!(idle.name(), "default_idle");
/// ```
///
/// ```compile_fail
/// let _ = ksym::sym!("no_such_function");
/// ```
#[macro_export]
macro_rules! sym {
    ($name:literal) => {
        const { $crate::linux44::Sym::named($name) }
    };
}

/// The synthetic Linux 4.4 kernel map, [`LINUX44`]: the `System.map`
/// every simulated guest ships.
///
/// # Examples
///
/// ```
/// use ksym::linux44::LINUX44;
/// use ksym::sym;
///
/// let kick = sym!("kick_process");
/// assert_eq!(LINUX44.table().resolve(kick.ip()), Some(kick));
/// ```
#[derive(Debug)]
pub struct Linux44Map {
    table: SymbolTable,
}

/// The kernel map of every simulated guest, laid out at compile time.
pub static LINUX44: Linux44Map = Linux44Map {
    table: SymbolTable::new(layout_addrs(), TEXT_END),
};

/// Each function's start address, in address order.
const fn layout_addrs() -> [u64; Sym::COUNT] {
    let mut addrs = [0; Sym::COUNT];
    let mut i = 0;
    while i < Sym::COUNT {
        addrs[i] = Sym::at(i).addr();
        i += 1;
    }
    addrs
}

impl Linux44Map {
    /// The underlying symbol table.
    pub fn table(&self) -> &SymbolTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whitelist::Whitelist;

    /// Every function's name, start address and class, pinned as the
    /// fnv64 of their `name addr class` lines, and the Linux 4.4
    /// whitelist classifying each function's instruction pointer as its
    /// class.
    #[test]
    fn layout_is_pinned() {
        let lines: String = Sym::all()
            .map(|s| format!("{} {:#x} {:?}\n", s.name(), s.addr(), s.class()))
            .collect();
        assert_eq!(
            metrics::render::fnv64(lines.as_bytes()),
            0x0a9f_2d50_8f2d_9c94,
            "{lines}"
        );
        let wl = Whitelist::linux44();
        for s in Sym::all() {
            assert_eq!(wl.classify(LINUX44.table(), s.ip()), s.class(), "{s:?}");
        }
    }

    /// Each name looks up its own function, so no two share a name, and
    /// the text holds the 33 critical functions of Table 3 and §5 next to
    /// 31 ordinary ones.
    #[test]
    fn contains_all_table3_functions() {
        for s in Sym::all() {
            assert_eq!(Sym::named(s.name()), s);
        }
        let critical = Sym::all().filter(|s| s.class().is_critical()).count();
        assert_eq!((critical, Sym::COUNT - critical), (33, 31));
    }

    #[test]
    fn ip_in_resolves_to_owner() {
        for s in Sym::all() {
            assert_eq!(LINUX44.table().resolve(s.ip()), Some(s));
        }
    }

    #[test]
    fn user_ip_is_unmapped() {
        assert!(LINUX44.table().resolve(USER_IP).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown kernel function")]
    fn ip_in_unknown_function_panics() {
        Sym::named(std::hint::black_box("no_such_function"));
    }
}
