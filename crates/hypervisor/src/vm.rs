//! Virtual machines: specification and runtime state.

use guest::kernel::VmKernel;
use guest::net::FlowCfg;
use guest::segment::Program;
use guest::task::Task;
use guest::tlb::VcpuSet;
use simcore::ids::{PcpuId, TaskId, VmId};
use simcore::rng::SimRng;
use simcore::time::SimTime;

/// Specification of one guest task.
#[derive(Debug)]
pub struct TaskSpec {
    /// Home vCPU index.
    pub home_vcpu: u16,
    /// The workload program.
    pub program: Box<dyn Program>,
}

/// Specification of one VM.
#[derive(Debug)]
pub struct VmSpec {
    /// Human-readable name (the workload, e.g. `"gmake"`).
    pub name: String,
    /// Number of vCPUs.
    pub num_vcpus: u16,
    /// Guest tasks.
    pub tasks: Vec<TaskSpec>,
    /// Network flows terminating in this VM.
    pub flows: Vec<FlowCfg>,
    /// Hard vCPU→pCPU pinnings applied at machine construction.
    pub pins: Vec<(u16, Vec<PcpuId>)>,
}

impl VmSpec {
    /// Creates a spec with no tasks or flows.
    pub fn new(name: impl Into<String>, num_vcpus: u16) -> Self {
        VmSpec {
            name: name.into(),
            num_vcpus,
            tasks: Vec::new(),
            flows: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// Adds a task pinned to `home_vcpu`, builder-style.
    pub fn task(mut self, home_vcpu: u16, program: Box<dyn Program>) -> Self {
        self.tasks.push(TaskSpec { home_vcpu, program });
        self
    }

    /// Adds one task per vCPU, produced by `make` (the common
    /// one-worker-per-vCPU PARSEC/MOSBENCH shape).
    pub fn task_per_vcpu(mut self, mut make: impl FnMut(u16) -> Box<dyn Program>) -> Self {
        for v in 0..self.num_vcpus {
            self.tasks.push(TaskSpec {
                home_vcpu: v,
                program: make(v),
            });
        }
        self
    }

    /// Adds a network flow, builder-style.
    pub fn flow(mut self, cfg: FlowCfg) -> Self {
        self.flows.push(cfg);
        self
    }

    /// Pins a vCPU to a set of pCPUs, builder-style (the Figure 9 setup
    /// pins both VMs' single vCPUs to the same pCPU).
    pub fn pin(mut self, vcpu: u16, pcpus: Vec<PcpuId>) -> Self {
        assert!(!pcpus.is_empty(), "empty affinity set");
        self.pins.push((vcpu, pcpus));
        self
    }
}

/// Runtime state of one VM (excluding its vCPUs, which the machine owns).
///
/// Cloning snapshots the guest mid-flight — kernel model, every task's
/// program (with any buffered segments) and RNG position — which is what
/// [`crate::Machine`] snapshotting relies on.
#[derive(Clone)]
pub struct Vm {
    /// Identity.
    pub id: VmId,
    /// Workload name.
    pub name: String,
    /// Number of vCPUs.
    pub num_vcpus: u16,
    /// Guest kernel model (locks, shootdowns, flows, stats).
    pub kernel: VmKernel,
    /// Guest tasks, indexed by task index.
    pub tasks: Vec<Task>,
    /// When the last task finished, if all have.
    pub finished_at: Option<SimTime>,
}

impl Vm {
    /// Builds VM runtime state from a spec.
    pub fn from_spec(id: VmId, spec: VmSpec, rng: &mut SimRng) -> Self {
        assert!(
            spec.num_vcpus <= VcpuSet::MAX_VCPUS,
            "VM has more than 64 vCPUs"
        );
        let mut kernel = VmKernel::new(spec.num_vcpus);
        for flow_cfg in &spec.flows {
            assert!(
                flow_cfg.virq_vcpu < spec.num_vcpus,
                "flow vIRQ vCPU out of range"
            );
            assert!(
                (flow_cfg.target_task as usize) < spec.tasks.len(),
                "flow target task out of range"
            );
            kernel
                .flows
                .push(guest::net::FlowState::new(*flow_cfg, SimTime::ZERO));
        }
        let tasks = spec
            .tasks
            .into_iter()
            .enumerate()
            .map(|(i, ts)| {
                assert!(ts.home_vcpu < spec.num_vcpus, "task vCPU out of range");
                Task::new(
                    TaskId::new(id, i as u32),
                    ts.home_vcpu,
                    ts.program,
                    rng.fork(i as u64),
                )
            })
            .collect();
        Vm {
            id,
            name: spec.name,
            num_vcpus: spec.num_vcpus,
            kernel,
            tasks,
            finished_at: None,
        }
    }

    /// Total work units completed across all tasks.
    pub fn work_done(&self) -> u64 {
        self.tasks.iter().map(|t| t.work_done).sum()
    }

    /// True once every task has finished.
    pub fn all_finished(&self) -> bool {
        !self.tasks.is_empty()
            && self
                .tasks
                .iter()
                .all(|t| t.state == guest::task::TaskState::Finished)
    }

    /// The flow whose packets `task` consumes, if any.
    pub fn flow_of_task(&self, task: u32) -> Option<u32> {
        self.kernel
            .flows
            .iter()
            .position(|f| f.cfg.target_task == task)
            .map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest::segment::{ScriptedProgram, Segment};

    fn prog() -> Box<dyn Program> {
        Box::new(ScriptedProgram::new("p", vec![Segment::WorkUnit]))
    }

    #[test]
    fn spec_builders() {
        let spec = VmSpec::new("gmake", 4)
            .task(0, prog())
            .task_per_vcpu(|_| prog());
        assert_eq!(spec.tasks.len(), 5);
        assert_eq!(spec.tasks[1].home_vcpu, 0);
        assert_eq!(spec.tasks[4].home_vcpu, 3);
    }

    #[test]
    fn from_spec_wires_everything() {
        let mut rng = SimRng::new(1);
        let spec = VmSpec::new("test", 2).task(1, prog());
        let vm = Vm::from_spec(VmId(0), spec, &mut rng);
        assert_eq!(vm.tasks.len(), 1);
        assert_eq!(vm.tasks[0].home_vcpu, 1);
        assert_eq!(vm.kernel.locks.len() as u16, vm.kernel.layout.total());
        assert!(!vm.all_finished());
        assert_eq!(vm.work_done(), 0);
        assert_eq!(vm.flow_of_task(0), None);
    }

    #[test]
    fn flows_map_to_tasks() {
        let mut rng = SimRng::new(1);
        let spec = VmSpec::new("iperf", 1)
            .task(0, prog())
            .flow(guest::net::FlowCfg::tcp_1g(0, 0));
        let vm = Vm::from_spec(VmId(0), spec, &mut rng);
        assert_eq!(vm.kernel.flows.len(), 1);
        assert_eq!(vm.flow_of_task(0), Some(0));
        assert_eq!(vm.flow_of_task(5), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn task_vcpu_out_of_range_panics() {
        let mut rng = SimRng::new(1);
        let spec = VmSpec::new("bad", 2).task(2, prog());
        Vm::from_spec(VmId(0), spec, &mut rng);
    }

    #[test]
    #[should_panic(expected = "more than 64 vCPUs")]
    fn more_than_64_vcpus_panics() {
        let mut rng = SimRng::new(1);
        Vm::from_spec(VmId(0), VmSpec::new("wide", 65), &mut rng);
    }

    #[test]
    fn exactly_64_vcpus_is_accepted() {
        let mut rng = SimRng::new(1);
        let vm = Vm::from_spec(VmId(0), VmSpec::new("wide", 64), &mut rng);
        assert_eq!(vm.num_vcpus, 64);
    }

    #[test]
    fn vm_without_tasks_is_never_finished() {
        let mut rng = SimRng::new(1);
        let vm = Vm::from_spec(VmId(0), VmSpec::new("empty", 1), &mut rng);
        assert!(!vm.all_finished());
    }
}
