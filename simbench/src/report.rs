//! The result line and the span log.
//!
//! A run prints one JSON object as the last line of stdout:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. An
//! untraced run carries every end-to-end metric, a traced run every
//! per-layer metric — always the full declared list, in declaration order,
//! so each workload reports the same names (a layer a workload does not
//! exercise reads 0).

use crate::timed::HOOKS;
use experiments::ALL_EXPERIMENTS;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics (host time, tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Deterministic work counts: metric name and the `MachineStats` counter
/// it sums over the traced cells.
pub(crate) const WORK_COUNTS: [(&str, &str); 11] = [
    ("hypervisor.sched.ctx_switches", "ctx_switches"),
    ("hypervisor.sched.steals", "steals"),
    ("hypervisor.sched.preemptions", "preemptions"),
    ("hypervisor.sched.boosts", "boosts"),
    ("guest.spinlock.ple_exits", "ple_exits"),
    ("guest.tlb.shootdowns", "tlb_shootdowns"),
    ("guest.tlb.ipis_sent", "ipis_sent"),
    ("guest.tlb.ipi_yields", "ipi_yields"),
    ("guest.net.virqs", "virqs"),
    ("guest.net.resched_ipis", "resched_ipis"),
    ("guest.task.halt_yields", "halt_yields"),
];

/// Per-layer metrics (the traced pass): name and unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("workloads.scenario_file.load_us".into(), "us"),
        ("hypervisor.machine.new_us".into(), "us"),
        ("hypervisor.machine.snapshot_fork_us".into(), "us"),
    ];
    for id in ALL_EXPERIMENTS {
        m.push((format!("experiments.runner.{id}_s"), "s"));
    }
    m.push(("experiments.runner.serial_s".into(), "s"));
    m.push(("experiments.runner.parallel_efficiency".into(), "ratio"));
    for hook in HOOKS {
        m.push((format!("microslice.policy.{hook}.calls"), "count"));
        m.push((format!("microslice.policy.{hook}.ns_mean"), "ns"));
        m.push((format!("microslice.policy.{hook}.share"), "ratio"));
    }
    m.push(("microslice.policy.accel_success_ratio".into(), "ratio"));
    m.push(("microslice.adaptive.pool_resizes".into(), "count"));
    m.push(("ksym.whitelist.classify_ns".into(), "ns"));
    m.push(("ksym.whitelist.critical_ratio".into(), "ratio"));
    m.push(("metrics.counters.incrs".into(), "count"));
    m.push(("metrics.counters.incr_ns".into(), "ns"));
    m.push(("metrics.counters.share".into(), "ratio"));
    for (name, _) in WORK_COUNTS {
        m.push((name.into(), "count"));
    }
    m.push(("hypervisor.machine.unattributed_share".into(), "ratio"));
    m.push(("host.calibration_ms".into(), "ms"));
    m.push(("trace.overhead_pct".into(), "%"));
    m
}

/// One run's result: correctness, operation counts, and metric values.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations run: cells, or for `paper-suite` rendered data rows.
    pub attempted: u64,
    /// Operations that failed: a cell that returned a `SimError` or
    /// panicked, or a rendered `ERR`/`HUNG` cell or `FAIL` verdict.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn with(names: impl IntoIterator<Item = (String, &'static str)>) -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: names.into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    }

    /// A report carrying the end-to-end metrics, all 0 until set.
    pub fn end_to_end() -> Self {
        Self::with(END_TO_END.map(|(n, u)| (n.to_string(), u)))
    }

    /// A report carrying the per-layer metrics, all 0 until set.
    pub fn per_layer() -> Self {
        Self::with(per_layer_metrics())
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or `value` is not finite — both
    /// are bugs in the benchmark, never outcomes of a run.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        let slot = self
            .metrics
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        slot.1 = value;
    }

    /// Records `attempted` operations of which `failed` failed; any
    /// failure makes the run incorrect.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.correct = false;
        }
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Spans of the traced pass, kept in memory and written out as JSON lines
/// when the run ends. Times are nanoseconds since the log was created.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    lines: Vec<String>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            lines: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Records a span `[start, end)` named `name`, with `fields` (already
    /// rendered as `"key": value` pairs) appended to the object.
    pub fn span(
        &mut self,
        name: &str,
        parent: Option<&str>,
        start: Instant,
        end: Instant,
        fields: &str,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let parent = parent.map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        let mut line = format!(
            "{{\"span\": \"{name}\", \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}",
            at(start),
            end.saturating_duration_since(start).as_nanos()
        );
        if !fields.is_empty() {
            line.push_str(", ");
            line.push_str(fields);
        }
        line.push('}');
        self.lines.push(line);
    }

    /// The recorded spans, one JSON object per line.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Writes the spans to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text)
    }
}
