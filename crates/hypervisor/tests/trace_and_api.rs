//! Tests for the machine's trace buffer and policy-facing API surface.

use guest::segment::{Program, ScriptedProgram, Segment};
use hypervisor::{crash, BaselinePolicy, Machine, MachineConfig, PoolId, TraceEvent, VmSpec};
use simcore::ids::{VcpuId, VmId};
use simcore::time::{SimDuration, SimTime};

fn hog(_v: u16) -> Box<dyn Program> {
    Box::new(ScriptedProgram::looping(
        "hog",
        vec![Segment::User {
            dur: SimDuration::from_millis(10),
        }],
    ))
}

fn overcommitted(pcpus: u16) -> Machine {
    Machine::new(
        MachineConfig::small(pcpus).with_seed(21),
        vec![
            VmSpec::new("a", pcpus).task_per_vcpu(hog),
            VmSpec::new("b", pcpus).task_per_vcpu(hog),
        ],
        Box::new(BaselinePolicy),
    )
}

#[test]
fn trace_is_disabled_by_default_and_records_when_enabled() {
    let mut m = overcommitted(2);
    m.run_until(SimTime::from_millis(100)).unwrap();
    assert!(m.trace().is_empty(), "tracing must default off");
    assert_eq!(m.trace().total(), 0, "outside a crash session");

    m.enable_trace(4096);
    m.run_until(SimTime::from_millis(400)).unwrap();
    let dispatches = m
        .trace()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Dispatch { .. }))
        .count();
    assert!(dispatches > 5, "slice rotations should record dispatches");
    // Timestamps are monotonic.
    let mut last = SimTime::ZERO;
    for r in m.trace().iter() {
        assert!(r.at >= last);
        last = r.at;
    }
    // Draining empties the ring.
    let drained = m.trace_mut().drain();
    assert!(!drained.is_empty());
    assert!(m.trace().is_empty());
}

#[test]
fn crash_sessions_arm_the_ring_with_events_and_decisions() {
    let mut m = crash::with_session(|| overcommitted(2));
    m.run_until(SimTime::from_millis(1000)).unwrap();
    let ring = m.trace();
    assert!(
        ring.total() > crash::DEFAULT_RING as u64,
        "one second wraps the ring"
    );
    assert_eq!(ring.len(), crash::DEFAULT_RING);
    assert!(ring
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Handled(_))));
    assert!(ring
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Dispatch { .. })));
}

#[test]
fn trace_records_pool_resizes_and_migrations() {
    let mut m = overcommitted(4);
    m.enable_trace(4096);
    m.set_micro_cores(1);
    assert!(m
        .trace()
        .iter()
        .any(|r| r.event == TraceEvent::PoolResize { micro_cores: 1 }));
    let victim = m
        .siblings(VmId(0))
        .chain(m.siblings(VmId(1)))
        .find(|&v| m.vcpu(v).is_preempted())
        .expect("someone is waiting at 2:1");
    assert!(m.try_accelerate(victim));
    assert!(m
        .trace()
        .iter()
        .any(|r| r.event == TraceEvent::MicroMigration { vcpu: victim }));
}

#[test]
fn sticky_micro_residents_stay_until_unpinned() {
    let mut m = overcommitted(4);
    m.set_micro_cores(1);
    let v = VcpuId::new(VmId(0), 0);
    // Find it off-CPU, pin it sticky, and accelerate it.
    m.run_until(SimTime::from_millis(50)).unwrap();
    let target = m
        .siblings(VmId(0))
        .find(|&x| m.vcpu(x).is_preempted())
        .unwrap_or(v);
    m.set_sticky_micro(target, true);
    assert!(m.try_accelerate(target) || m.vcpu(target).pool == PoolId::Micro);
    // Many slices later it still lives in the micro pool.
    m.run_until(SimTime::from_millis(120)).unwrap();
    assert_eq!(
        m.vcpu(target).pool,
        PoolId::Micro,
        "sticky resident evicted"
    );
    // Unpin: it returns to the normal pool.
    m.set_sticky_micro(target, false);
    m.run_until(SimTime::from_millis(180)).unwrap();
    assert_eq!(m.vcpu(target).pool, PoolId::Normal);
}

#[test]
fn resize_to_zero_evicts_everyone() {
    let mut m = overcommitted(4);
    m.set_micro_cores(2);
    m.run_until(SimTime::from_millis(40)).unwrap();
    let victims: Vec<VcpuId> = m
        .siblings(VmId(1))
        .filter(|&x| m.vcpu(x).is_preempted())
        .take(2)
        .collect();
    for &x in &victims {
        m.try_accelerate(x);
    }
    m.set_micro_cores(0);
    assert_eq!(m.micro_cores(), 0);
    for vm in 0..2u16 {
        for x in m.siblings(VmId(vm)) {
            assert_eq!(m.vcpu(x).pool, PoolId::Normal, "{x} stranded");
        }
    }
    // The machine keeps running fine afterwards.
    m.run_until(SimTime::from_millis(120)).unwrap();
    assert!(m.stats.vm(VmId(0)).cpu_time > SimDuration::from_millis(50));
}

#[test]
fn request_acceleration_of_running_vcpu_defers_to_deschedule() {
    let mut m = overcommitted(2);
    m.set_micro_cores(1);
    m.run_until(SimTime::from_millis(20)).unwrap();
    let running = m
        .siblings(VmId(0))
        .chain(m.siblings(VmId(1)))
        .find(|&x| m.vcpu(x).is_running() && m.vcpu(x).pool == PoolId::Normal)
        .expect("someone is running in the normal pool");
    assert!(m.request_acceleration(running));
    assert_eq!(
        m.vcpu(running).pool,
        PoolId::Normal,
        "not moved while running"
    );
    // After its slice ends it lands in the micro pool (then is evicted on
    // the next deschedule, so check the migration counter instead).
    m.run_until(SimTime::from_millis(80)).unwrap();
    assert!(m.stats.counters.get("micro_migrations") >= 1);
}
