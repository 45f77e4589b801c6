//! Figure 9: I/O performance of mixed-behaviour vCPUs.
//!
//! Two single-vCPU VMs pinned to the same pCPU; VM-1 hosts iPerf and a
//! CPU hog on its one vCPU (so BOOST never fires for it), VM-2 hosts a
//! hog. The reproduction targets: the baseline's jitter is milliseconds
//! and its bandwidth roughly halves; the micro-sliced scheme restores
//! bandwidth and drives jitter toward zero.

use crate::runner::{fail_row, run_cells, CellError, CellResult, Grid, PolicyKind, RunOptions};
use metrics::render::{fmt_f64, Table};
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::scenarios;

/// Shared warm-up prefix (full budget). Flow statistics are
/// delta-measured over the post-warm window (the warm share of the
/// packet counters and latency summary is subtracted out), so the
/// prefix length never dilutes the contrast between cells; 800 ms is
/// enough to reach the steady queue depths the paper measures.
pub const WARM: SimDuration = SimDuration::from_millis(800);

/// One measured configuration.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// `"TCP"` or `"UDP"`.
    pub transport: &'static str,
    /// Policy used.
    pub policy: PolicyKind,
    /// Goodput in Mbit/s.
    pub bandwidth_mbps: f64,
    /// Jitter in milliseconds.
    pub jitter_ms: f64,
    /// Packets dropped at the receive buffer.
    pub dropped: u64,
}

/// Runs one transport × policy cell, forking the transport's warm
/// checkpoint from `grid`. `compare` shows the TCP cells too, so each
/// window is simulated once per invocation (see [`Grid::window`]).
pub fn measure_one(
    opts: &RunOptions,
    grid: &Grid,
    tcp: bool,
    policy: PolicyKind,
) -> CellResult<Row> {
    let window = opts.window(SimDuration::from_secs(4));
    let (warm, end) = grid.window(opts, scenarios::fig9_mixed_pinned(tcp), policy, window)?;
    let warm_flow = &warm.vm(VmId(0)).kernel.flows[0];
    let flow = &end.vm(VmId(0)).kernel.flows[0];
    Ok(Row {
        transport: transport(tcp),
        policy,
        bandwidth_mbps: flow.throughput_mbps_since(warm_flow, window),
        jitter_ms: flow.jitter_ms_since(warm_flow),
        dropped: flow.dropped - warm_flow.dropped,
    })
}

const POLICIES: [PolicyKind; 2] = [PolicyKind::Baseline, PolicyKind::Fixed(1)];

fn transport(tcp: bool) -> &'static str {
    if tcp {
        "TCP"
    } else {
        "UDP"
    }
}

/// Cell label for failure reports: names the (scenario, policy, seed).
pub(crate) fn label(opts: &RunOptions, tcp: bool, policy: PolicyKind) -> String {
    format!(
        "fig9[{} x {}, seed {:#x}]",
        transport(tcp),
        policy.label(),
        opts.seed
    )
}

/// Runs the full Figure 9 grid (TCP/UDP × baseline/micro-sliced), fanned
/// across `opts.jobs` workers in grid order. Failed cells come back as
/// labelled errors.
pub fn measure(opts: &RunOptions) -> Vec<Result<Row, CellError>> {
    let plan = Grid::new(opts, WARM);
    run_cells(
        opts,
        4,
        |i| label(opts, i / 2 == 0, POLICIES[i % 2]),
        |i| measure_one(opts, &plan, i / 2 == 0, POLICIES[i % 2]),
    )
}

/// Renders Figure 9a. Failed cells render as `ERR` rows.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec![
        "transport",
        "config",
        "bandwidth (Mbit/s)",
        "jitter (ms)",
        "drops",
    ])
    .with_title("Figure 9: mixed co-run iPerf (two pinned single-vCPU VMs)");
    for (i, r) in measure(opts).into_iter().enumerate() {
        let config = match POLICIES[i % 2] {
            PolicyKind::Baseline => "baseline".to_string(),
            _ => "u-sliced".to_string(),
        };
        match r {
            Ok(r) => t.row(vec![
                r.transport.to_string(),
                config,
                fmt_f64(r.bandwidth_mbps),
                fmt_f64(r.jitter_ms),
                r.dropped.to_string(),
            ]),
            Err(e) => {
                let mut row = fail_row(transport(i / 2 == 0).to_string(), 4, &e.failure);
                row[1] = config;
                t.row(row);
            }
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microslicing_restores_tcp_bandwidth_and_jitter() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, WARM);
        let base = measure_one(&opts, &grid, true, PolicyKind::Baseline).unwrap();
        let fast = measure_one(&opts, &grid, true, PolicyKind::Fixed(1)).unwrap();
        assert!(
            fast.bandwidth_mbps > base.bandwidth_mbps * 1.2,
            "bandwidth: {} vs {}",
            fast.bandwidth_mbps,
            base.bandwidth_mbps
        );
        assert!(
            fast.jitter_ms < base.jitter_ms * 0.5,
            "jitter: {} vs {}",
            fast.jitter_ms,
            base.jitter_ms
        );
        assert!(
            base.jitter_ms > 1.0,
            "baseline jitter {} ms",
            base.jitter_ms
        );
    }
}
