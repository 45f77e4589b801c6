//! A synthetic "Linux 4.4" kernel text layout.
//!
//! The paper's guests run Ubuntu 14.04 with a Linux 4.4 kernel; the
//! hypervisor resolves preempted instruction pointers against that kernel's
//! `System.map`. We do not ship a real kernel image, so this module builds a
//! synthetic-but-realistic symbol table containing every critical function
//! of Table 3, the spin/IRQ entry points the prototype hooks (§5), and a
//! spread of ordinary kernel functions that must classify as *not* critical.
//! The substitution preserves the mechanism under test: address → symbol →
//! whitelist classification.

use crate::table::{Symbol, SymbolTable};
use std::sync::{Arc, OnceLock};

/// Base address of the synthetic kernel text region (the x86-64
/// direct-mapped kernel text base used by Linux).
pub const KERNEL_TEXT_BASE: u64 = 0xffff_ffff_8100_0000;

/// Synthetic size of each function's text, in bytes.
const FUNC_SIZE: u64 = 0x200;

/// An instruction-pointer value that is *not* kernel text (user space);
/// resolves to no symbol and therefore never classifies as critical.
pub const USER_IP: u64 = 0x0000_5555_dead_0000;

/// Critical functions from Table 3 of the paper, plus the lock slowpath and
/// I/O entry points discussed in §3.2/§5, in layout order.
pub const CRITICAL_FUNCTIONS: &[&str] = &[
    // Module irq (softirq.c, chip.c).
    "irq_enter",
    "irq_exit",
    "handle_percpu_irq",
    // Module kernel (smp.c).
    "smp_call_function_single",
    "smp_call_function_many",
    // Module mm (tlb.c, page_alloc.c, swap.c).
    "do_flush_tlb_all",
    "flush_tlb_all",
    "native_flush_tlb_others",
    "flush_tlb_func",
    "flush_tlb_current_task",
    "flush_tlb_mm_range",
    "flush_tlb_page",
    "leave_mm",
    "get_page_from_freelist",
    "free_one_page",
    "release_pages",
    // Module sched (core.c).
    "scheduler_ipi",
    "resched_curr",
    "kick_process",
    "sched_ttwu_pending",
    "ttwu_do_activate",
    "ttwu_do_wakeup",
    // Module spinlock (spinlock_api_smp.h).
    "__raw_spin_unlock",
    "__raw_spin_unlock_irq",
    "_raw_spin_unlock_irqrestore",
    "_raw_spin_unlock_bh",
    // Module rwsem.
    "__rwsem_do_wake",
    "rwsem_wake",
    // Lock acquisition slowpaths (the PLE yield sites; §5).
    "_raw_spin_lock",
    "native_queued_spin_lock_slowpath",
    // I/O path entry points (§3.2).
    "e1000_intr",
    "net_rx_action",
    "__do_softirq",
];

/// Ordinary kernel functions that must classify as non-critical — a guard
/// against over-matching whitelists.
pub const ORDINARY_FUNCTIONS: &[&str] = &[
    "startup_64",
    "do_syscall_64",
    "sys_read",
    "sys_write",
    "sys_mmap",
    "sys_munmap",
    "vfs_read",
    "vfs_write",
    "do_page_fault",
    "handle_mm_fault",
    "copy_user_generic_string",
    "memcpy_orig",
    "schedule",
    "pick_next_task_fair",
    "update_curr",
    "kmem_cache_alloc",
    "kmem_cache_free",
    "__alloc_pages_nodemask",
    "ext4_file_write_iter",
    "generic_perform_write",
    "tcp_sendmsg",
    "tcp_recvmsg",
    "udp_sendmsg",
    "do_exit",
    "do_fork",
    "copy_process",
    "pipe_write",
    "pipe_read",
    "mutex_lock",
    "mutex_unlock",
    "default_idle",
];

/// The synthetic Linux 4.4 kernel map used by every simulated guest.
///
/// # Examples
///
/// ```
/// use ksym::linux44::Linux44Map;
///
/// let map = Linux44Map::new();
/// let ip = map.ip_in("kick_process");
/// assert_eq!(map.table().resolve(ip).unwrap().name, "kick_process");
/// ```
#[derive(Clone, Debug)]
pub struct Linux44Map {
    table: SymbolTable,
}

impl Default for Linux44Map {
    fn default() -> Self {
        Self::new()
    }
}

impl Linux44Map {
    /// Builds the synthetic kernel symbol table.
    ///
    /// Critical and ordinary functions are interleaved so classification
    /// cannot accidentally succeed through address-range heuristics.
    pub fn new() -> Self {
        let mut names: Vec<&str> = Vec::new();
        let (mut ci, mut oi) = (0, 0);
        // Interleave: two ordinary functions between each critical one.
        while ci < CRITICAL_FUNCTIONS.len() || oi < ORDINARY_FUNCTIONS.len() {
            if ci < CRITICAL_FUNCTIONS.len() {
                names.push(CRITICAL_FUNCTIONS[ci]);
                ci += 1;
            }
            for _ in 0..2 {
                if oi < ORDINARY_FUNCTIONS.len() {
                    names.push(ORDINARY_FUNCTIONS[oi]);
                    oi += 1;
                }
            }
        }
        let symbols = names
            .iter()
            .enumerate()
            .map(|(i, name)| Symbol {
                addr: KERNEL_TEXT_BASE + i as u64 * FUNC_SIZE,
                name: (*name).to_string(),
            })
            .collect();
        Linux44Map {
            table: SymbolTable::from_symbols(symbols),
        }
    }

    /// The map every machine shares, built once per process: it is
    /// immutable and the same for every machine, and building it (one
    /// `String` per symbol) is a few microseconds of each `Machine::new`
    /// otherwise.
    pub fn shared() -> Arc<Linux44Map> {
        static SHARED: OnceLock<Arc<Linux44Map>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(Linux44Map::new())))
    }

    /// The underlying symbol table.
    pub fn table(&self) -> &SymbolTable {
        &self.table
    }

    /// Start address of a function by name.
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        self.table.addr_of(name)
    }

    /// An instruction-pointer value *inside* the named function (mid-body),
    /// as a preempted vCPU would expose. Panics if the name is unknown —
    /// guest models only reference functions this map defines.
    pub fn ip_in(&self, name: &str) -> u64 {
        self.addr_of(name)
            .unwrap_or_else(|| panic!("unknown kernel function {name:?}"))
            + FUNC_SIZE / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_all_table3_functions() {
        let map = Linux44Map::new();
        for name in CRITICAL_FUNCTIONS {
            assert!(map.addr_of(name).is_some(), "missing {name}");
        }
        for name in ORDINARY_FUNCTIONS {
            assert!(map.addr_of(name).is_some(), "missing {name}");
        }
        assert_eq!(
            map.table().len(),
            CRITICAL_FUNCTIONS.len() + ORDINARY_FUNCTIONS.len()
        );
    }

    #[test]
    fn ip_in_resolves_to_owner() {
        let map = Linux44Map::new();
        for name in CRITICAL_FUNCTIONS.iter().chain(ORDINARY_FUNCTIONS) {
            let ip = map.ip_in(name);
            assert_eq!(map.table().resolve(ip).unwrap().name, **name);
        }
    }

    #[test]
    fn user_ip_is_unmapped() {
        let map = Linux44Map::new();
        assert!(map.table().resolve(USER_IP).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown kernel function")]
    fn ip_in_unknown_function_panics() {
        Linux44Map::new().ip_in("no_such_function");
    }
}
