//! Network flow bookkeeping for the iPerf experiments.
//!
//! The I/O path of §3.2 spans the hypervisor (physical IRQ → virtual IRQ
//! relay) and the guest (IRQ handler → softIRQ → user wakeup). This module
//! owns the per-flow state: packet queues, TCP-window / UDP-rate pacing,
//! delivery statistics, and jitter (the standard deviation of per-packet
//! latency) — the measurements behind Table 4c and Figure 9.
//!
//! Packet processing follows the NAPI shape: physical arrivals accumulate
//! in a NIC backlog, a single virtual IRQ is outstanding per flow at a
//! time, and the softIRQ drains the backlog in budgeted batches. This both
//! matches Linux and keeps simulation event counts bounded when a vCPU is
//! descheduled for a 30 ms slice while packets keep arriving.

use metrics::summary::Summary;
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Transport kind of a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Window-limited: at most `window` packets outstanding (sent but not
    /// consumed by the receiving application).
    Tcp {
        /// Congestion/receive window, in packets.
        window: u32,
    },
    /// Rate-limited: the sender transmits one packet every `gap`,
    /// regardless of receiver progress; excess packets are dropped once
    /// the receive buffer fills.
    Udp {
        /// Inter-packet send gap.
        gap: SimDuration,
    },
}

/// Static flow configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlowCfg {
    /// Transport kind.
    pub kind: FlowKind,
    /// Minimum wire spacing between arrivals (serialization delay; 1500 B
    /// at 1 Gbit/s ≈ 12 µs).
    pub wire_gap: SimDuration,
    /// One-way network delay from sender to receiver NIC.
    pub one_way_delay: SimDuration,
    /// Payload bytes per packet.
    pub bytes_per_pkt: u32,
    /// vCPU index that receives the virtual IRQ.
    pub virq_vcpu: u16,
    /// Guest task that consumes the packets (the iPerf server process).
    pub target_task: u32,
    /// Receive buffer capacity in packets (NIC backlog + softIRQ queue).
    pub buffer_cap: u32,
    /// Max packets one softIRQ invocation drains (NAPI budget).
    pub napi_budget: u32,
}

impl FlowCfg {
    /// A 1 Gbit/s-class TCP flow, the paper's Table 4c / Figure 9 setup.
    pub fn tcp_1g(virq_vcpu: u16, target_task: u32) -> Self {
        FlowCfg {
            kind: FlowKind::Tcp { window: 96 },
            wire_gap: SimDuration::from_nanos(12_300),
            one_way_delay: SimDuration::from_micros(60),
            bytes_per_pkt: 1500,
            virq_vcpu,
            target_task,
            buffer_cap: 512,
            napi_budget: 64,
        }
    }

    /// A 1 Gbit/s-class UDP flow sending just below line rate.
    pub fn udp_1g(virq_vcpu: u16, target_task: u32) -> Self {
        FlowCfg {
            kind: FlowKind::Udp {
                gap: SimDuration::from_nanos(13_500),
            },
            wire_gap: SimDuration::from_nanos(12_300),
            one_way_delay: SimDuration::from_micros(60),
            bytes_per_pkt: 1500,
            virq_vcpu,
            target_task,
            buffer_cap: 384,
            napi_budget: 64,
        }
    }
}

/// What the machine should do about a packet arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalAction {
    /// Packet buffered; a virtual IRQ must be injected (none outstanding).
    DeliverVirq,
    /// Packet buffered; an IRQ is already outstanding (coalesced).
    Coalesced,
    /// Receive buffer full; the packet was dropped.
    Dropped,
}

/// Dynamic state and statistics of one flow.
#[derive(Clone, Debug)]
pub struct FlowState {
    /// Static configuration.
    pub cfg: FlowCfg,
    /// Arrival timestamps awaiting softIRQ processing (NIC backlog).
    backlog: VecDeque<SimTime>,
    /// Arrival timestamps processed by softIRQ, awaiting app consumption.
    app_queue: VecDeque<SimTime>,
    /// True while a virtual IRQ is pending or being handled for this flow.
    pub virq_outstanding: bool,
    /// Last scheduled arrival time (wire spacing).
    last_arrival: SimTime,
    /// Packets delivered to the application.
    pub delivered: u64,
    /// Packets dropped at the receive buffer.
    pub dropped: u64,
    /// Per-packet latency samples, µs (pIRQ → application consumption).
    pub latency_us: Summary,
    /// When the flow started (throughput accounting).
    pub started: SimTime,
}

impl FlowState {
    /// Creates a flow starting at `start`.
    pub fn new(cfg: FlowCfg, start: SimTime) -> Self {
        FlowState {
            cfg,
            backlog: VecDeque::new(),
            app_queue: VecDeque::new(),
            virq_outstanding: false,
            last_arrival: start,
            delivered: 0,
            dropped: 0,
            latency_us: Summary::new(),
            started: start,
        }
    }

    /// The initial packet arrival times the machine should schedule.
    ///
    /// TCP launches a full window; UDP is self-clocking, so a single
    /// arrival seeds the stream and each arrival schedules the next.
    pub fn initial_arrivals(&mut self, start: SimTime) -> Vec<SimTime> {
        match self.cfg.kind {
            FlowKind::Tcp { window } => (0..window)
                .map(|i| {
                    let t = start + self.cfg.one_way_delay + self.cfg.wire_gap * i as u64;
                    self.last_arrival = t;
                    t
                })
                .collect(),
            FlowKind::Udp { .. } => {
                let t = start + self.cfg.one_way_delay;
                self.last_arrival = t;
                vec![t]
            }
        }
    }

    /// Handles a packet arriving at the (virtual) NIC. Returns the action
    /// for the machine plus, for UDP, the next arrival to schedule.
    pub fn on_arrival(&mut self, now: SimTime) -> (ArrivalAction, Option<SimTime>) {
        let next = match self.cfg.kind {
            FlowKind::Udp { gap } => Some(now + gap.max(self.cfg.wire_gap)),
            FlowKind::Tcp { .. } => None,
        };
        let queued = self.backlog.len() + self.app_queue.len();
        if queued as u32 >= self.cfg.buffer_cap {
            self.dropped += 1;
            return (ArrivalAction::Dropped, next);
        }
        self.backlog.push_back(now);
        let action = if self.virq_outstanding {
            ArrivalAction::Coalesced
        } else {
            self.virq_outstanding = true;
            ArrivalAction::DeliverVirq
        };
        (action, next)
    }

    /// Drains up to the NAPI budget from the NIC backlog into the
    /// application queue. Returns the number of packets moved.
    ///
    /// The caller (the softIRQ handler in the machine) must re-inject a
    /// virtual IRQ if [`FlowState::backlog_len`] is still non-zero, and
    /// must clear `virq_outstanding` otherwise — mirroring NAPI re-arm.
    pub fn softirq_drain(&mut self) -> u32 {
        let n = (self.cfg.napi_budget as usize).min(self.backlog.len());
        for _ in 0..n {
            let t = self.backlog.pop_front().expect("counted above");
            self.app_queue.push_back(t);
        }
        n as u32
    }

    /// The application consumes one packet. Records its latency and
    /// returns the next TCP arrival to schedule (window slot freed), if
    /// any.
    ///
    /// Returns `None` if the app queue is empty (spurious wakeup).
    pub fn consume(&mut self, now: SimTime) -> Option<Option<SimTime>> {
        let arrived = self.app_queue.pop_front()?;
        self.delivered += 1;
        let lat_us = now.saturating_since(arrived).as_micros_f64();
        self.latency_us.add(lat_us);
        let next = match self.cfg.kind {
            FlowKind::Tcp { .. } => {
                // The freed window slot lets the sender transmit one more
                // packet: it arrives after the ACK travels back and the
                // packet travels forward (≈ 2 × one-way delay), no earlier
                // than the wire allows.
                let t = (now + self.cfg.one_way_delay + self.cfg.one_way_delay)
                    .max(self.last_arrival + self.cfg.wire_gap);
                self.last_arrival = t;
                Some(t)
            }
            FlowKind::Udp { .. } => None,
        };
        Some(next)
    }

    /// Packets waiting in the NIC backlog.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Packets processed by softIRQ, waiting for the application.
    pub fn app_queue_len(&self) -> usize {
        self.app_queue.len()
    }

    /// The flow's delivery counters now.
    pub fn counters(&self) -> FlowCounters {
        FlowCounters {
            delivered: self.delivered,
            dropped: self.dropped,
            latency_us: self.latency_us.clone(),
            bytes_per_pkt: self.cfg.bytes_per_pkt,
        }
    }

    /// Jitter in milliseconds since the flow started (see
    /// [`FlowCounters::jitter_ms`]).
    pub fn jitter_ms(&self) -> f64 {
        self.counters().jitter_ms()
    }

    /// Goodput in Mbit/s over `[started, now]`.
    pub fn throughput_mbps(&self, now: SimTime) -> f64 {
        self.counters()
            .throughput_mbps(now.saturating_since(self.started))
    }
}

/// A flow's delivery counters, cumulative since it started: what a
/// measurement reads of it.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowCounters {
    /// Packets delivered to the application.
    pub delivered: u64,
    /// Packets dropped at the receive buffer.
    pub dropped: u64,
    /// Per-packet latency samples, µs (pIRQ → application consumption).
    pub latency_us: Summary,
    /// Payload bytes per packet.
    pub bytes_per_pkt: u32,
}

impl FlowCounters {
    /// The counters accrued since `earlier`, an earlier reading of the
    /// same flow: for delta-measuring a window. The latency summary keeps
    /// the cumulative extrema ([`Summary::since`]).
    pub fn since(&self, earlier: &FlowCounters) -> FlowCounters {
        FlowCounters {
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            latency_us: self.latency_us.since(&earlier.latency_us),
            bytes_per_pkt: self.bytes_per_pkt,
        }
    }

    /// Jitter in milliseconds, reported as the standard deviation of
    /// per-packet latency.
    ///
    /// This matches the magnitudes iPerf reports in the paper (Table 4c:
    /// 0.0043 ms solo vs 9.25 ms mixed co-run): descheduling the receiving
    /// vCPU for a 30 ms slice spreads latencies uniformly over `[0, 30 ms]`,
    /// whose standard deviation is ≈ 8.7 ms, whereas RFC 3550's 1/16
    /// smoothing decays between bursts and under-reports bursty delay.
    pub fn jitter_ms(&self) -> f64 {
        self.latency_us.std_dev() / 1_000.0
    }

    /// Goodput in Mbit/s, the delivered packets spread over `span`.
    pub fn throughput_mbps(&self, span: SimDuration) -> f64 {
        let secs = span.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.delivered as f64 * self.bytes_per_pkt as f64 * 8.0) / secs / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_flow() -> FlowState {
        FlowState::new(FlowCfg::tcp_1g(0, 0), SimTime::ZERO)
    }

    fn udp_flow() -> FlowState {
        FlowState::new(FlowCfg::udp_1g(0, 0), SimTime::ZERO)
    }

    #[test]
    fn tcp_initial_window_is_scheduled() {
        let mut f = tcp_flow();
        let arrivals = f.initial_arrivals(SimTime::ZERO);
        assert_eq!(arrivals.len(), 96);
        // Wire spacing is respected.
        for w in arrivals.windows(2) {
            assert!(w[1] - w[0] >= f.cfg.wire_gap);
        }
    }

    #[test]
    fn udp_seeds_single_arrival_and_self_clocks() {
        let mut f = udp_flow();
        let arrivals = f.initial_arrivals(SimTime::ZERO);
        assert_eq!(arrivals.len(), 1);
        let (action, next) = f.on_arrival(arrivals[0]);
        assert_eq!(action, ArrivalAction::DeliverVirq);
        let next = next.expect("UDP schedules the next arrival");
        assert!(next > arrivals[0]);
    }

    #[test]
    fn virq_coalescing() {
        let mut f = tcp_flow();
        let (a1, _) = f.on_arrival(SimTime::from_micros(10));
        let (a2, _) = f.on_arrival(SimTime::from_micros(22));
        assert_eq!(a1, ArrivalAction::DeliverVirq);
        assert_eq!(a2, ArrivalAction::Coalesced);
        assert_eq!(f.backlog_len(), 2);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut f = udp_flow();
        for i in 0..f.cfg.buffer_cap + 5 {
            f.on_arrival(SimTime::from_micros(i as u64));
        }
        assert_eq!(f.dropped, 5);
        assert_eq!(f.backlog_len() as u32, f.cfg.buffer_cap);
    }

    #[test]
    fn softirq_drains_napi_budget() {
        let mut f = udp_flow();
        for i in 0..100 {
            f.on_arrival(SimTime::from_micros(i));
        }
        let moved = f.softirq_drain();
        assert_eq!(moved, f.cfg.napi_budget);
        assert_eq!(f.app_queue_len(), 64);
        assert_eq!(f.backlog_len(), 36);
        let moved2 = f.softirq_drain();
        assert_eq!(moved2, 36);
    }

    #[test]
    fn consume_records_latency_and_refills_tcp_window() {
        let mut f = tcp_flow();
        f.on_arrival(SimTime::from_micros(100));
        f.softirq_drain();
        let next = f
            .consume(SimTime::from_micros(150))
            .expect("one packet queued")
            .expect("TCP refills the window");
        assert!(next >= SimTime::from_micros(150));
        assert_eq!(f.delivered, 1);
        assert!((f.latency_us.mean() - 50.0).abs() < 1e-9);
        // Spurious wakeup.
        assert!(f.consume(SimTime::from_micros(151)).is_none());
    }

    #[test]
    fn jitter_tracks_latency_variation() {
        let mut f = udp_flow();
        // Two packets with identical latency: jitter stays zero.
        for (arrive, consume) in [(0u64, 10u64), (20, 30)] {
            f.on_arrival(SimTime::from_micros(arrive));
            f.softirq_drain();
            f.consume(SimTime::from_micros(consume));
        }
        assert_eq!(f.jitter_ms(), 0.0);
        // A 10 ms latency spike moves the estimate.
        f.on_arrival(SimTime::from_micros(40));
        f.softirq_drain();
        f.consume(SimTime::from_micros(40) + SimDuration::from_millis(10));
        assert!(f.jitter_ms() > 0.5, "jitter {} too small", f.jitter_ms());
    }

    #[test]
    fn throughput_accounts_delivered_bytes() {
        let mut f = udp_flow();
        for i in 0..1000u64 {
            f.on_arrival(SimTime::from_micros(i * 12));
            f.softirq_drain();
            f.consume(SimTime::from_micros(i * 12 + 5));
        }
        let mbps = f.throughput_mbps(SimTime::from_millis(12));
        assert!((900.0..=1100.0).contains(&mbps), "got {mbps}");
        assert_eq!(f.throughput_mbps(SimTime::ZERO), 0.0);
    }
}
