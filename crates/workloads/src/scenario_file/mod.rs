//! Declarative scenario files: the typed schema behind `repro --scenario`.
//!
//! A scenario file is a TOML-subset document (see [`toml`]) describing a
//! complete simulated experiment: the machine shape, the VM specs with
//! their workloads, flows and pinnings, the run parameters (mode, window,
//! policies, repeats), and an optional fault plan. `SCENARIOS.md` is the
//! schema reference manual; `examples/scenarios/` is the cookbook.
//!
//! Validation is two-layered, and the layers are deliberately different
//! in character:
//!
//! 1. **Parse + decode** (`[`parse_str`]`): syntax and types. Every
//!    failure is a typed [`ScenarioError`] with the offending token, its
//!    byte span in the file, and its line — the `FaultSpec::parse`
//!    contract, file-sized.
//! 2. **Semantic checks** ([`Scenario::validate`]): cross-field rules a
//!    token stream cannot see — pinnings within the pCPU range, micro
//!    pool sizes ≤ cores, workload/iters compatibility, completion mode
//!    requiring finite budgets. Failures are a list of human-readable
//!    messages naming the offending table.
//!
//! A validated scenario converts to the exact `(MachineConfig,
//! Vec<VmSpec>)` pair the in-repo constructors in
//! [`crate::scenarios`] build — `tests/scenario_catalog.rs` proves the
//! re-expressed catalog files byte-identical to their constructors — and
//! renders back to canonical file text via [`Scenario::to_toml`], which
//! is what the seeded [`fuzz`] generator round-trips.

pub mod fuzz;
pub mod toml;

use crate::catalog::Workload;
use guest::net::FlowCfg;
use hypervisor::{FaultSpec, MachineConfig, VmSpec};
use simcore::ids::PcpuId;
use simcore::time::SimDuration;
use toml::{Block, Entry, Value};

/// A typed scenario-file error: token, byte span, line, reason.
///
/// Shared by the syntax layer and the schema decode layer — both point
/// at exact file bytes.
pub type ScenarioError = toml::TomlError;

/// The machine shape: `[machine]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineShape {
    /// Number of physical CPUs (`pcpus`, default 12 — the paper testbed).
    pub pcpus: u16,
    /// Micro-slice length in microseconds (`micro_slice_us`, default 100).
    pub micro_slice_us: u64,
    /// Normal-pool slice length in milliseconds (`normal_slice_ms`,
    /// default 30 — the Xen credit default).
    pub normal_slice_ms: u64,
}

impl Default for MachineShape {
    fn default() -> Self {
        MachineShape {
            pcpus: 12,
            micro_slice_us: 100,
            normal_slice_ms: 30,
        }
    }
}

/// How a scenario run terminates: `[run] mode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Warm, then measure a fixed window; per-VM work is delta-measured
    /// over the window (`mode = "window"`, the default).
    Window,
    /// Run until every VM finishes (or the horizon reports a failure);
    /// requires every task to have a finite iteration budget
    /// (`mode = "completion"`).
    Completion,
}

/// A scheduling policy named in `[run] policies`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// `"baseline"` — vanilla Xen credit (BOOST, PLE).
    Baseline,
    /// `"micro:N"` — a fixed micro-sliced pool of N cores.
    Micro(u16),
    /// `"adaptive"` — the paper's dynamic pool sizing (Algorithm 1).
    Adaptive,
}

impl PolicySpec {
    /// Parses one policies-list entry.
    pub fn parse(s: &str) -> Result<PolicySpec, String> {
        match s {
            "baseline" => Ok(PolicySpec::Baseline),
            "adaptive" => Ok(PolicySpec::Adaptive),
            _ => match s.strip_prefix("micro:") {
                Some(n) => n
                    .parse::<u16>()
                    .map(PolicySpec::Micro)
                    .map_err(|_| format!("bad micro pool size {n:?} (expected micro:N)")),
                None => Err(format!(
                    "unknown policy {s:?} (expected baseline, micro:N, or adaptive)"
                )),
            },
        }
    }

    /// The canonical file syntax ([`PolicySpec::parse`] inverse).
    pub fn to_toml(self) -> String {
        match self {
            PolicySpec::Baseline => "baseline".to_string(),
            PolicySpec::Micro(n) => format!("micro:{n}"),
            PolicySpec::Adaptive => "adaptive".to_string(),
        }
    }
}

/// The run parameters: `[run]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Termination mode (`mode`, default `"window"`).
    pub mode: RunMode,
    /// Measurement window in milliseconds (`window_ms`, default 2000;
    /// quick mode scales it like every experiment window).
    pub window_ms: u64,
    /// Shared warm-up prefix in milliseconds (`warm_ms`, default 0).
    /// Cells of one repeat fork the once-warmed snapshot at this point —
    /// the `runner::Grid` contract.
    pub warm_ms: u64,
    /// Independent repeats with per-repeat derived seeds (`repeats`,
    /// default 1).
    pub repeats: u32,
    /// Policies to sweep (`policies`, default `["baseline"]`).
    pub policies: Vec<PolicySpec>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            mode: RunMode::Window,
            window_ms: 2000,
            warm_ms: 0,
            repeats: 1,
            policies: vec![PolicySpec::Baseline],
        }
    }
}

/// One explicit guest task: `[[vm.task]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskDef {
    /// Home vCPU index (`vcpu`, default 0).
    pub vcpu: u16,
    /// The workload (`workload`, required).
    pub workload: Workload,
    /// Explicit iteration budget (`iters`; default: the workload's).
    pub iters: Option<u64>,
    /// Run forever regardless of the default budget (`endless`).
    pub endless: bool,
}

impl TaskDef {
    /// The iteration budget this task actually runs with.
    pub fn effective_iters(&self) -> Option<u64> {
        effective_iters(self.workload, self.iters, self.endless)
    }
}

/// One network flow: `[[vm.flow]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowDef {
    /// `kind = "tcp"` (true) or `"udp"` (false); both model a 1 Gbit/s
    /// sender, matching the constructors' `FlowCfg::tcp_1g`/`udp_1g`.
    pub tcp: bool,
    /// vCPU receiving the vIRQ (`virq_vcpu`, default 0).
    pub virq_vcpu: u16,
    /// Task index consuming the packets (`target_task`, default 0,
    /// counted across shorthand tasks first, then `[[vm.task]]` entries).
    pub target_task: u32,
}

/// One hard vCPU→pCPU pinning: `[[vm.pin]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinDef {
    /// The pinned vCPU (`vcpu`, required).
    pub vcpu: u16,
    /// The allowed pCPUs (`pcpus`, required, non-empty).
    pub pcpus: Vec<u16>,
}

/// One VM: `[[vm]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmDef {
    /// Display name (`name`; default: the shorthand workload's name, or
    /// `"vm"`).
    pub name: Option<String>,
    /// Number of vCPUs (`vcpus`, required).
    pub vcpus: u16,
    /// Replication factor (`count`, default 1): the VM spec is
    /// instantiated this many times — overcommit ladders in one table.
    pub count: u32,
    /// Shorthand: one task of this workload per vCPU (`workload`), the
    /// constructors' `task_per_vcpu` shape. Combines with `[[vm.task]]`
    /// (shorthand tasks come first in task-index order).
    pub workload: Option<Workload>,
    /// Iteration budget for the shorthand tasks (`iters`).
    pub iters: Option<u64>,
    /// Shorthand tasks run forever (`endless`) — the mixed-co-run
    /// "always runnable" anchor.
    pub endless: bool,
    /// Explicit tasks.
    pub tasks: Vec<TaskDef>,
    /// Network flows.
    pub flows: Vec<FlowDef>,
    /// Pinnings.
    pub pins: Vec<PinDef>,
}

impl VmDef {
    /// A VM with just a vCPU count; every other field at its default.
    pub fn new(vcpus: u16) -> Self {
        VmDef {
            name: None,
            vcpus,
            count: 1,
            workload: None,
            iters: None,
            endless: false,
            tasks: Vec::new(),
            flows: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// Total task count (shorthand per-vCPU tasks + explicit tasks) —
    /// the index space `[[vm.flow]] target_task` addresses.
    pub fn total_tasks(&self) -> usize {
        (self.workload.is_some() as usize) * self.vcpus as usize + self.tasks.len()
    }

    /// The display name instances of this VM get.
    pub fn display_name(&self) -> String {
        match (&self.name, self.workload) {
            (Some(n), _) => n.clone(),
            (None, Some(w)) => w.name().to_string(),
            (None, None) => "vm".to_string(),
        }
    }
}

/// A parsed, typed scenario — the unit `repro --scenario FILE` runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (`[scenario] name`; defaults to the file stem).
    pub name: String,
    /// Machine shape.
    pub machine: MachineShape,
    /// Run parameters.
    pub run: RunSpec,
    /// Optional fault plan (`[faults] spec`, `FaultSpec::parse` syntax).
    pub faults: Option<FaultSpec>,
    /// The VMs.
    pub vms: Vec<VmDef>,
}

/// The iteration budget a `(workload, iters, endless)` triple resolves
/// to: `endless` wins, then an explicit budget, then the workload's
/// default.
fn effective_iters(workload: Workload, iters: Option<u64>, endless: bool) -> Option<u64> {
    if endless {
        None
    } else if iters.is_some() {
        iters
    } else {
        workload.default_iters()
    }
}

// ---------------------------------------------------------------------
// Decode: Document -> Scenario (layer 1b — typed errors with positions).
// ---------------------------------------------------------------------

fn err(token: &str, span: (usize, usize), line: u32, reason: impl Into<String>) -> ScenarioError {
    ScenarioError {
        token: token.chars().take(40).collect(),
        span,
        line,
        reason: reason.into(),
    }
}

fn expect_int(e: &Entry) -> Result<i64, ScenarioError> {
    match &e.value {
        Value::Int(n) => Ok(*n),
        v => Err(err(
            &e.key,
            e.value_span,
            e.line,
            format!("`{}` must be an integer, got a {}", e.key, v.type_name()),
        )),
    }
}

fn expect_ranged(e: &Entry, lo: i64, hi: i64) -> Result<i64, ScenarioError> {
    let n = expect_int(e)?;
    if n < lo || n > hi {
        return Err(err(
            &e.key,
            e.value_span,
            e.line,
            format!("`{}` must be in {lo}..={hi}, got {n}", e.key),
        ));
    }
    Ok(n)
}

fn expect_u16(e: &Entry) -> Result<u16, ScenarioError> {
    Ok(expect_ranged(e, 0, u16::MAX as i64)? as u16)
}

fn expect_u64(e: &Entry) -> Result<u64, ScenarioError> {
    Ok(expect_ranged(e, 0, i64::MAX)? as u64)
}

fn expect_str(e: &Entry) -> Result<&str, ScenarioError> {
    match &e.value {
        Value::Str(s) => Ok(s),
        v => Err(err(
            &e.key,
            e.value_span,
            e.line,
            format!("`{}` must be a string, got a {}", e.key, v.type_name()),
        )),
    }
}

fn expect_bool(e: &Entry) -> Result<bool, ScenarioError> {
    match &e.value {
        Value::Bool(b) => Ok(*b),
        v => Err(err(
            &e.key,
            e.value_span,
            e.line,
            format!("`{}` must be a boolean, got a {}", e.key, v.type_name()),
        )),
    }
}

fn expect_workload(e: &Entry) -> Result<Workload, ScenarioError> {
    let s = expect_str(e)?;
    Workload::from_name(s).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        err(
            s,
            e.value_span,
            e.line,
            format!("unknown workload (expected one of: {})", names.join(", ")),
        )
    })
}

/// Rejects duplicate keys within one block and unknown keys against the
/// block's schema, then hands each entry to `apply`.
fn decode_block(
    block: &Block,
    known: &[&str],
    mut apply: impl FnMut(&Entry) -> Result<(), ScenarioError>,
) -> Result<(), ScenarioError> {
    let mut seen: Vec<&str> = Vec::new();
    for e in &block.entries {
        if !known.contains(&e.key.as_str()) {
            return Err(err(
                &e.key,
                e.key_span,
                e.line,
                format!(
                    "unknown key in [{}] (expected one of: {})",
                    block.path_str(),
                    known.join(", ")
                ),
            ));
        }
        if seen.contains(&e.key.as_str()) {
            return Err(err(
                &e.key,
                e.key_span,
                e.line,
                format!("duplicate key in [{}]", block.path_str()),
            ));
        }
        seen.push(&e.key);
        apply(e)?;
    }
    Ok(())
}

/// Parses scenario-file text into a typed [`Scenario`].
///
/// `default_name` names the scenario when the file has no
/// `[scenario] name` (callers pass the file stem). The result is
/// type-checked but not yet semantically validated — run
/// [`Scenario::validate`] before building machines from it.
pub fn parse_str(default_name: &str, src: &str) -> Result<Scenario, ScenarioError> {
    let doc = toml::parse(src)?;
    let mut sc = Scenario {
        name: default_name.to_string(),
        machine: MachineShape::default(),
        run: RunSpec::default(),
        faults: None,
        vms: Vec::new(),
    };
    let mut singles_seen: Vec<String> = Vec::new();
    for block in &doc.blocks {
        let path = block.path_str();
        let header_tok = if block.array {
            format!("[[{path}]]")
        } else {
            format!("[{path}]")
        };
        let single = |sc_path: &str| -> Result<(), ScenarioError> {
            if block.array {
                return Err(err(
                    &header_tok,
                    block.span,
                    block.line,
                    format!("[{sc_path}] is a single table, not an array — drop one bracket pair"),
                ));
            }
            if singles_seen.contains(&path) {
                return Err(err(
                    &header_tok,
                    block.span,
                    block.line,
                    format!("[{sc_path}] appears twice"),
                ));
            }
            Ok(())
        };
        match path.as_str() {
            "" => {
                return Err(err(
                    &block.entries[0].key,
                    block.span,
                    block.line,
                    "top-level keys are not part of the schema — start with [scenario], \
                     [machine], [run], [faults], or [[vm]]",
                ));
            }
            "scenario" => {
                single("scenario")?;
                decode_block(block, &["name"], |e| {
                    sc.name = expect_str(e)?.to_string();
                    Ok(())
                })?;
            }
            "machine" => {
                single("machine")?;
                decode_block(
                    block,
                    &["pcpus", "micro_slice_us", "normal_slice_ms"],
                    |e| {
                        match e.key.as_str() {
                            "pcpus" => sc.machine.pcpus = expect_u16(e)?,
                            "micro_slice_us" => sc.machine.micro_slice_us = expect_u64(e)?,
                            _ => sc.machine.normal_slice_ms = expect_u64(e)?,
                        }
                        Ok(())
                    },
                )?;
            }
            "run" => {
                single("run")?;
                decode_block(
                    block,
                    &["mode", "window_ms", "warm_ms", "repeats", "policies"],
                    |e| {
                        match e.key.as_str() {
                            "mode" => {
                                sc.run.mode = match expect_str(e)? {
                                    "window" => RunMode::Window,
                                    "completion" => RunMode::Completion,
                                    other => {
                                        return Err(err(
                                            other,
                                            e.value_span,
                                            e.line,
                                            "mode must be \"window\" or \"completion\"",
                                        ));
                                    }
                                }
                            }
                            "window_ms" => sc.run.window_ms = expect_u64(e)?,
                            "warm_ms" => sc.run.warm_ms = expect_u64(e)?,
                            "repeats" => {
                                sc.run.repeats = expect_ranged(e, 0, u32::MAX as i64)? as u32
                            }
                            _ => {
                                let Value::List(items) = &e.value else {
                                    return Err(err(
                                        &e.key,
                                        e.value_span,
                                        e.line,
                                        "policies must be a list of strings",
                                    ));
                                };
                                let mut policies = Vec::new();
                                for item in items {
                                    let Value::Str(s) = item else {
                                        return Err(err(
                                            &e.key,
                                            e.value_span,
                                            e.line,
                                            "policies must be a list of strings",
                                        ));
                                    };
                                    let p = PolicySpec::parse(s)
                                        .map_err(|m| err(s, e.value_span, e.line, m))?;
                                    policies.push(p);
                                }
                                sc.run.policies = policies;
                            }
                        }
                        Ok(())
                    },
                )?;
            }
            "faults" => {
                single("faults")?;
                decode_block(block, &["spec"], |e| {
                    let s = expect_str(e)?;
                    let spec = FaultSpec::parse(s).map_err(|fe| {
                        // Re-anchor the fault-spec error inside the file:
                        // +1 skips the opening quote (exact as long as the
                        // spec contains no string escapes, which the spec
                        // grammar cannot produce).
                        err(
                            &fe.token,
                            (
                                e.value_span.0 + 1 + fe.span.0,
                                e.value_span.0 + 1 + fe.span.1,
                            ),
                            e.line,
                            fe.reason,
                        )
                    })?;
                    sc.faults = Some(spec);
                    Ok(())
                })?;
            }
            "vm" => {
                if !block.array {
                    return Err(err(
                        &header_tok,
                        block.span,
                        block.line,
                        "vm is an array of tables — write [[vm]]",
                    ));
                }
                let mut vm = VmDef::new(0);
                let mut has_vcpus = false;
                decode_block(
                    block,
                    &["name", "vcpus", "count", "workload", "iters", "endless"],
                    |e| {
                        match e.key.as_str() {
                            "name" => vm.name = Some(expect_str(e)?.to_string()),
                            "vcpus" => {
                                vm.vcpus = expect_u16(e)?;
                                has_vcpus = true;
                            }
                            "count" => vm.count = expect_ranged(e, 0, u32::MAX as i64)? as u32,
                            "workload" => vm.workload = Some(expect_workload(e)?),
                            "iters" => vm.iters = Some(expect_u64(e)?),
                            _ => vm.endless = expect_bool(e)?,
                        }
                        Ok(())
                    },
                )?;
                if !has_vcpus {
                    return Err(err(
                        &header_tok,
                        block.span,
                        block.line,
                        "[[vm]] requires a `vcpus` key",
                    ));
                }
                sc.vms.push(vm);
            }
            "vm.task" | "vm.flow" | "vm.pin" => {
                if !block.array {
                    return Err(err(
                        &header_tok,
                        block.span,
                        block.line,
                        format!("{path} is an array of tables — write [[{path}]]"),
                    ));
                }
                let Some(vm) = sc.vms.last_mut() else {
                    return Err(err(
                        &header_tok,
                        block.span,
                        block.line,
                        format!("[[{path}]] must follow the [[vm]] it belongs to"),
                    ));
                };
                match path.as_str() {
                    "vm.task" => {
                        let mut task = TaskDef {
                            vcpu: 0,
                            workload: Workload::Swaptions,
                            iters: None,
                            endless: false,
                        };
                        let mut has_workload = false;
                        decode_block(block, &["vcpu", "workload", "iters", "endless"], |e| {
                            match e.key.as_str() {
                                "vcpu" => task.vcpu = expect_u16(e)?,
                                "workload" => {
                                    task.workload = expect_workload(e)?;
                                    has_workload = true;
                                }
                                "iters" => task.iters = Some(expect_u64(e)?),
                                _ => task.endless = expect_bool(e)?,
                            }
                            Ok(())
                        })?;
                        if !has_workload {
                            return Err(err(
                                &header_tok,
                                block.span,
                                block.line,
                                "[[vm.task]] requires a `workload` key",
                            ));
                        }
                        vm.tasks.push(task);
                    }
                    "vm.flow" => {
                        let mut flow = FlowDef {
                            tcp: true,
                            virq_vcpu: 0,
                            target_task: 0,
                        };
                        let mut has_kind = false;
                        decode_block(block, &["kind", "virq_vcpu", "target_task"], |e| {
                            match e.key.as_str() {
                                "kind" => {
                                    flow.tcp = match expect_str(e)? {
                                        "tcp" => true,
                                        "udp" => false,
                                        other => {
                                            return Err(err(
                                                other,
                                                e.value_span,
                                                e.line,
                                                "flow kind must be \"tcp\" or \"udp\"",
                                            ));
                                        }
                                    };
                                    has_kind = true;
                                }
                                "virq_vcpu" => flow.virq_vcpu = expect_u16(e)?,
                                _ => {
                                    flow.target_task = expect_ranged(e, 0, u32::MAX as i64)? as u32
                                }
                            }
                            Ok(())
                        })?;
                        if !has_kind {
                            return Err(err(
                                &header_tok,
                                block.span,
                                block.line,
                                "[[vm.flow]] requires a `kind` key",
                            ));
                        }
                        vm.flows.push(flow);
                    }
                    _ => {
                        let mut pin = PinDef {
                            vcpu: 0,
                            pcpus: Vec::new(),
                        };
                        let mut has = (false, false);
                        decode_block(block, &["vcpu", "pcpus"], |e| {
                            match e.key.as_str() {
                                "vcpu" => {
                                    pin.vcpu = expect_u16(e)?;
                                    has.0 = true;
                                }
                                _ => {
                                    let Value::List(items) = &e.value else {
                                        return Err(err(
                                            &e.key,
                                            e.value_span,
                                            e.line,
                                            "pcpus must be a list of integers",
                                        ));
                                    };
                                    for item in items {
                                        let Value::Int(n) = item else {
                                            return Err(err(
                                                &e.key,
                                                e.value_span,
                                                e.line,
                                                "pcpus must be a list of integers",
                                            ));
                                        };
                                        if *n < 0 || *n > u16::MAX as i64 {
                                            return Err(err(
                                                &e.key,
                                                e.value_span,
                                                e.line,
                                                format!("pCPU index {n} out of range"),
                                            ));
                                        }
                                        pin.pcpus.push(*n as u16);
                                    }
                                    has.1 = true;
                                }
                            }
                            Ok(())
                        })?;
                        if !has.0 || !has.1 {
                            return Err(err(
                                &header_tok,
                                block.span,
                                block.line,
                                "[[vm.pin]] requires `vcpu` and `pcpus` keys",
                            ));
                        }
                        vm.pins.push(pin);
                    }
                }
            }
            other => {
                return Err(err(
                    &header_tok,
                    block.span,
                    block.line,
                    format!(
                        "unknown table [{other}] (expected scenario, machine, run, faults, \
                         vm, vm.task, vm.flow, or vm.pin)"
                    ),
                ));
            }
        }
        if !block.array {
            singles_seen.push(path);
        }
    }
    Ok(sc)
}

// ---------------------------------------------------------------------
// Layer 2: semantic validation.
// ---------------------------------------------------------------------

impl Scenario {
    /// Semantic checks over the typed scenario — everything the token
    /// stream cannot see. Returns every violation (not just the first),
    /// each message naming the offending table.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let m = &self.machine;
        if m.pcpus == 0 || m.pcpus > 128 {
            errs.push(format!("[machine] pcpus must be 1..=128, got {}", m.pcpus));
        }
        if m.micro_slice_us == 0 {
            errs.push("[machine] micro_slice_us must be positive".to_string());
        }
        if m.normal_slice_ms == 0 {
            errs.push("[machine] normal_slice_ms must be positive".to_string());
        }
        if m.micro_slice_us >= m.normal_slice_ms.saturating_mul(1000) {
            errs.push(format!(
                "[machine] micro_slice_us ({}) must be shorter than normal_slice_ms ({} ms)",
                m.micro_slice_us, m.normal_slice_ms
            ));
        }
        let r = &self.run;
        if r.window_ms == 0 && r.mode == RunMode::Window {
            errs.push("[run] window_ms must be positive in window mode".to_string());
        }
        if r.repeats == 0 || r.repeats > 64 {
            errs.push(format!("[run] repeats must be 1..=64, got {}", r.repeats));
        }
        if r.policies.is_empty() {
            errs.push("[run] policies must name at least one policy".to_string());
        }
        for p in &r.policies {
            if let PolicySpec::Micro(n) = p {
                if *n == 0 || *n > m.pcpus {
                    errs.push(format!(
                        "[run] micro:{n} pool exceeds the machine (pool must be 1..={})",
                        m.pcpus
                    ));
                }
            }
        }
        if self.vms.is_empty() {
            errs.push("a scenario needs at least one [[vm]]".to_string());
        }
        let total_vms: u64 = self.vms.iter().map(|v| v.count as u64).sum();
        if total_vms > 64 {
            errs.push(format!(
                "scenario instantiates {total_vms} VMs (count replication included); max 64"
            ));
        }
        for (i, vm) in self.vms.iter().enumerate() {
            let at = format!("[[vm]] #{}", i + 1);
            if vm.vcpus == 0 || vm.vcpus > 64 {
                errs.push(format!("{at}: vcpus must be 1..=64, got {}", vm.vcpus));
            }
            if vm.count == 0 || vm.count > 32 {
                errs.push(format!("{at}: count must be 1..=32, got {}", vm.count));
            }
            if vm.workload.is_none() && vm.tasks.is_empty() {
                errs.push(format!(
                    "{at}: needs a shorthand `workload` or at least one [[vm.task]]"
                ));
            }
            fn check_task(
                errs: &mut Vec<String>,
                mode: RunMode,
                ctx: &str,
                w: Workload,
                iters: Option<u64>,
                endless: bool,
            ) {
                if iters.is_some() && endless {
                    errs.push(format!(
                        "{ctx}: `iters` and `endless = true` are mutually exclusive"
                    ));
                }
                if iters == Some(0) {
                    errs.push(format!("{ctx}: iters must be positive"));
                }
                if w == Workload::IperfServer && (iters.is_some() || endless) {
                    errs.push(format!(
                        "{ctx}: iperf is packet-driven — `iters`/`endless` do not apply"
                    ));
                }
                if mode == RunMode::Completion {
                    let endless_run =
                        w == Workload::IperfServer || effective_iters(w, iters, endless).is_none();
                    if endless_run {
                        errs.push(format!(
                            "{ctx}: {} never finishes — completion mode requires a finite \
                             iteration budget (set `iters` or use window mode)",
                            w.name()
                        ));
                    }
                }
            }
            if let Some(w) = vm.workload {
                check_task(&mut errs, self.run.mode, &at, w, vm.iters, vm.endless);
            } else if vm.iters.is_some() || vm.endless {
                errs.push(format!(
                    "{at}: `iters`/`endless` need the shorthand `workload` they apply to"
                ));
            }
            for (t, task) in vm.tasks.iter().enumerate() {
                let ctx = format!("{at} [[vm.task]] #{}", t + 1);
                if task.vcpu >= vm.vcpus {
                    errs.push(format!(
                        "{ctx}: vcpu {} out of range (VM has {} vCPUs)",
                        task.vcpu, vm.vcpus
                    ));
                }
                check_task(
                    &mut errs,
                    self.run.mode,
                    &ctx,
                    task.workload,
                    task.iters,
                    task.endless,
                );
            }
            for (f, flow) in vm.flows.iter().enumerate() {
                let ctx = format!("{at} [[vm.flow]] #{}", f + 1);
                if flow.virq_vcpu >= vm.vcpus {
                    errs.push(format!(
                        "{ctx}: virq_vcpu {} out of range (VM has {} vCPUs)",
                        flow.virq_vcpu, vm.vcpus
                    ));
                }
                if flow.target_task as usize >= vm.total_tasks() {
                    errs.push(format!(
                        "{ctx}: target_task {} out of range (VM has {} tasks)",
                        flow.target_task,
                        vm.total_tasks()
                    ));
                }
            }
            for (p, pin) in vm.pins.iter().enumerate() {
                let ctx = format!("{at} [[vm.pin]] #{}", p + 1);
                if pin.vcpu >= vm.vcpus {
                    errs.push(format!(
                        "{ctx}: vcpu {} out of range (VM has {} vCPUs)",
                        pin.vcpu, vm.vcpus
                    ));
                }
                if pin.pcpus.is_empty() {
                    errs.push(format!("{ctx}: pcpus must not be empty"));
                }
                for pc in &pin.pcpus {
                    if *pc >= m.pcpus {
                        errs.push(format!(
                            "{ctx}: pCPU {pc} out of range (machine has {} pCPUs)",
                            m.pcpus
                        ));
                    }
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Builds the `(MachineConfig, Vec<VmSpec>)` pair the runner's
    /// machinery consumes — exactly the shape the constructors in
    /// [`crate::scenarios`] return. Call only on a validated scenario:
    /// out-of-range indices would trip `Vm::from_spec` assertions.
    pub fn to_parts(&self) -> (MachineConfig, Vec<VmSpec>) {
        let mut cfg = MachineConfig::paper_testbed();
        cfg.num_pcpus = self.machine.pcpus;
        cfg.micro_slice = SimDuration::from_micros(self.machine.micro_slice_us);
        cfg.normal_slice = SimDuration::from_millis(self.machine.normal_slice_ms);
        let mut specs = Vec::new();
        for vm in &self.vms {
            for _ in 0..vm.count {
                let n = vm.vcpus;
                let mut spec = VmSpec::new(vm.display_name(), n);
                if let Some(w) = vm.workload {
                    let iters = effective_iters(w, vm.iters, vm.endless);
                    spec = spec.task_per_vcpu(move |v| w.program_with_iters(v, n, iters));
                }
                for t in &vm.tasks {
                    spec = spec.task(
                        t.vcpu,
                        t.workload
                            .program_with_iters(t.vcpu, n, t.effective_iters()),
                    );
                }
                for f in &vm.flows {
                    spec = spec.flow(if f.tcp {
                        FlowCfg::tcp_1g(f.virq_vcpu, f.target_task)
                    } else {
                        FlowCfg::udp_1g(f.virq_vcpu, f.target_task)
                    });
                }
                for p in &vm.pins {
                    spec = spec.pin(p.vcpu, p.pcpus.iter().map(|&c| PcpuId(c)).collect());
                }
                specs.push(spec);
            }
        }
        (cfg, specs)
    }

    /// Renders the scenario in canonical file syntax, such that
    /// `parse_str(name, &sc.to_toml())` round-trips to an equal
    /// [`Scenario`]. The fuzz harness proves this for generated
    /// scenarios; it also serves as the constructor→file migration tool.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", toml::quote(&self.name));
        let _ = writeln!(out);
        let _ = writeln!(out, "[machine]");
        let _ = writeln!(out, "pcpus = {}", self.machine.pcpus);
        let _ = writeln!(out, "micro_slice_us = {}", self.machine.micro_slice_us);
        let _ = writeln!(out, "normal_slice_ms = {}", self.machine.normal_slice_ms);
        let _ = writeln!(out);
        let _ = writeln!(out, "[run]");
        let mode = match self.run.mode {
            RunMode::Window => "window",
            RunMode::Completion => "completion",
        };
        let _ = writeln!(out, "mode = {}", toml::quote(mode));
        let _ = writeln!(out, "window_ms = {}", self.run.window_ms);
        let _ = writeln!(out, "warm_ms = {}", self.run.warm_ms);
        let _ = writeln!(out, "repeats = {}", self.run.repeats);
        let policies: Vec<String> = self
            .run
            .policies
            .iter()
            .map(|p| toml::quote(&p.to_toml()))
            .collect();
        let _ = writeln!(out, "policies = [{}]", policies.join(", "));
        if let Some(spec) = &self.faults {
            let _ = writeln!(out);
            let _ = writeln!(out, "[faults]");
            let _ = writeln!(out, "spec = {}", toml::quote(&spec.to_string()));
        }
        for vm in &self.vms {
            let _ = writeln!(out);
            let _ = writeln!(out, "[[vm]]");
            if let Some(name) = &vm.name {
                let _ = writeln!(out, "name = {}", toml::quote(name));
            }
            let _ = writeln!(out, "vcpus = {}", vm.vcpus);
            if vm.count != 1 {
                let _ = writeln!(out, "count = {}", vm.count);
            }
            if let Some(w) = vm.workload {
                let _ = writeln!(out, "workload = {}", toml::quote(w.name()));
            }
            if let Some(iters) = vm.iters {
                let _ = writeln!(out, "iters = {iters}");
            }
            if vm.endless {
                let _ = writeln!(out, "endless = true");
            }
            for t in &vm.tasks {
                let _ = writeln!(out);
                let _ = writeln!(out, "[[vm.task]]");
                let _ = writeln!(out, "vcpu = {}", t.vcpu);
                let _ = writeln!(out, "workload = {}", toml::quote(t.workload.name()));
                if let Some(iters) = t.iters {
                    let _ = writeln!(out, "iters = {iters}");
                }
                if t.endless {
                    let _ = writeln!(out, "endless = true");
                }
            }
            for f in &vm.flows {
                let _ = writeln!(out);
                let _ = writeln!(out, "[[vm.flow]]");
                let kind = if f.tcp { "tcp" } else { "udp" };
                let _ = writeln!(out, "kind = {}", toml::quote(kind));
                let _ = writeln!(out, "virq_vcpu = {}", f.virq_vcpu);
                let _ = writeln!(out, "target_task = {}", f.target_task);
            }
            for p in &vm.pins {
                let _ = writeln!(out);
                let _ = writeln!(out, "[[vm.pin]]");
                let _ = writeln!(out, "vcpu = {}", p.vcpu);
                let pcpus: Vec<String> = p.pcpus.iter().map(|c| c.to_string()).collect();
                let _ = writeln!(out, "pcpus = [{}]", pcpus.join(", "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
[scenario]
name = "mixed"

[machine]
pcpus = 12
micro_slice_us = 100
normal_slice_ms = 30

[run]
mode = "window"
window_ms = 1500
warm_ms = 300
repeats = 2
policies = ["baseline", "micro:2", "adaptive"]

[faults]
spec = "count=8,window_ms=200,kinds=ipi|steal"

[[vm]]
name = "iperf+swaptions"
vcpus = 12
workload = "swaptions"
endless = true

[[vm.task]]
vcpu = 0
workload = "iperf"

[[vm.flow]]
kind = "tcp"
virq_vcpu = 0
target_task = 12

[[vm]]
vcpus = 12
workload = "swaptions"
"#;

    #[test]
    fn full_scenario_decodes() {
        let sc = parse_str("file-stem", FULL).unwrap();
        assert_eq!(sc.name, "mixed");
        assert_eq!(sc.machine.pcpus, 12);
        assert_eq!(sc.run.window_ms, 1500);
        assert_eq!(sc.run.repeats, 2);
        assert_eq!(
            sc.run.policies,
            vec![
                PolicySpec::Baseline,
                PolicySpec::Micro(2),
                PolicySpec::Adaptive
            ]
        );
        let faults = sc.faults.unwrap();
        assert_eq!(faults.count, 8);
        assert_eq!(sc.vms.len(), 2);
        assert_eq!(sc.vms[0].total_tasks(), 13);
        assert!(sc.vms[0].endless);
        assert_eq!(sc.vms[0].tasks[0].workload, Workload::IperfServer);
        assert_eq!(sc.vms[0].flows[0].target_task, 12);
        assert_eq!(sc.vms[1].display_name(), "swaptions");
        sc.validate().expect("FULL is semantically valid");
    }

    #[test]
    fn default_name_is_the_file_stem() {
        let sc = parse_str("my-stem", "[[vm]]\nvcpus = 1\nworkload = \"gmake\"\n").unwrap();
        assert_eq!(sc.name, "my-stem");
    }

    #[test]
    fn typed_decode_errors_point_at_file_bytes() {
        let src = "[machine]\npcpus = \"many\"\n";
        let e = parse_str("x", src).unwrap_err();
        assert!(e.reason.contains("must be an integer"), "{e}");
        assert_eq!(e.line, 2);

        let src = "[machine]\nwidth = 3\n";
        let e = parse_str("x", src).unwrap_err();
        assert_eq!(e.token, "width");
        assert_eq!(&src[e.span.0..e.span.1], "width");

        let e = parse_str("x", "[vm]\nvcpus = 1\n").unwrap_err();
        assert!(e.reason.contains("[[vm]]"), "{e}");

        let e = parse_str("x", "[[vm.task]]\nworkload = \"gmake\"\n").unwrap_err();
        assert!(e.reason.contains("must follow"), "{e}");

        let e = parse_str("x", "[typo]\nx = 1\n").unwrap_err();
        assert!(e.reason.contains("unknown table"), "{e}");

        let e = parse_str("x", "[machine]\npcpus = 4\npcpus = 8\n").unwrap_err();
        assert!(e.reason.contains("duplicate"), "{e}");

        let e = parse_str("x", "[[vm]]\nworkload = \"gmake\"\n").unwrap_err();
        assert!(e.reason.contains("vcpus"), "{e}");

        let e = parse_str("x", "[[vm]]\nvcpus = 2\nworkload = \"fortnite\"\n").unwrap_err();
        assert!(e.reason.contains("unknown workload"), "{e}");
    }

    #[test]
    fn fault_spec_errors_are_reanchored_into_the_file() {
        let src = "[faults]\nspec = \"count=nope\"\n";
        let e = parse_str("x", src).unwrap_err();
        assert_eq!(e.token, "nope");
        assert_eq!(&src[e.span.0..e.span.1], "nope");
    }

    #[test]
    fn semantic_checks_catch_cross_field_violations() {
        let mut sc = parse_str("x", FULL).unwrap();
        sc.machine.pcpus = 1; // pins/pools now exceed the machine
        sc.run.policies = vec![PolicySpec::Micro(2)];
        sc.vms[0].pins.push(PinDef {
            vcpu: 0,
            pcpus: vec![4],
        });
        sc.vms[0].flows[0].virq_vcpu = 99;
        let errs = sc.validate().unwrap_err();
        let text = errs.join("\n");
        assert!(text.contains("micro:2 pool exceeds"), "{text}");
        assert!(text.contains("pCPU 4 out of range"), "{text}");
        assert!(text.contains("virq_vcpu 99 out of range"), "{text}");
    }

    #[test]
    fn completion_mode_requires_finite_budgets() {
        let src = "[run]\nmode = \"completion\"\n[[vm]]\nvcpus = 2\nworkload = \"exim\"\n";
        let errs = parse_str("x", src).unwrap().validate().unwrap_err();
        assert!(errs[0].contains("never finishes"), "{errs:?}");
        // An explicit budget fixes it.
        let src =
            "[run]\nmode = \"completion\"\n[[vm]]\nvcpus = 2\nworkload = \"exim\"\niters = 500\n";
        parse_str("x", src).unwrap().validate().unwrap();
    }

    #[test]
    fn iperf_rejects_iteration_budgets() {
        let src = "[[vm]]\nvcpus = 1\nworkload = \"iperf\"\niters = 5\n";
        let errs = parse_str("x", src).unwrap().validate().unwrap_err();
        assert!(errs[0].contains("packet-driven"), "{errs:?}");
    }

    #[test]
    fn to_parts_matches_the_solo_constructor_shape() {
        let src = "[[vm]]\nvcpus = 12\nworkload = \"gmake\"\n";
        let sc = parse_str("solo-gmake", src).unwrap();
        sc.validate().unwrap();
        let (cfg, specs) = sc.to_parts();
        let (ccfg, cspecs) = crate::scenarios::solo(Workload::Gmake);
        assert_eq!(cfg.num_pcpus, ccfg.num_pcpus);
        assert_eq!(cfg.micro_slice, ccfg.micro_slice);
        assert_eq!(specs.len(), cspecs.len());
        assert_eq!(specs[0].name, cspecs[0].name);
        assert_eq!(specs[0].tasks.len(), cspecs[0].tasks.len());
    }

    #[test]
    fn to_toml_round_trips() {
        let mut sc = parse_str("x", FULL).unwrap();
        // Rust's `{:?}` renders the last three names with `\r` and `\u{..}`
        // escapes, which the parser rejects.
        for name in [
            "mixed",
            "q\"b\\s\nt\t",
            "a\rb",
            "a\u{18}b",
            "zero\u{200b}width",
        ] {
            sc.name = name.to_string();
            sc.vms[0].name = Some(name.to_string());
            let text = sc.to_toml();
            let back = parse_str("x", &text).unwrap_or_else(|e| panic!("{name:?}: {e}"));
            assert_eq!(sc, back, "canonical text must decode to an equal scenario");
        }
    }

    #[test]
    fn count_replication_expands_vm_specs() {
        let src = "[[vm]]\nvcpus = 2\ncount = 3\nworkload = \"swaptions\"\n";
        let sc = parse_str("x", src).unwrap();
        sc.validate().unwrap();
        let (_, specs) = sc.to_parts();
        assert_eq!(specs.len(), 3);
        assert!(specs.iter().all(|s| s.name == "swaptions"));
    }

    #[test]
    fn policy_spec_parse_and_render() {
        assert_eq!(PolicySpec::parse("baseline"), Ok(PolicySpec::Baseline));
        assert_eq!(PolicySpec::parse("micro:4"), Ok(PolicySpec::Micro(4)));
        assert_eq!(PolicySpec::parse("adaptive"), Ok(PolicySpec::Adaptive));
        assert!(PolicySpec::parse("micro:x").is_err());
        assert!(PolicySpec::parse("turbo").is_err());
        assert_eq!(PolicySpec::Micro(4).to_toml(), "micro:4");
    }
}
