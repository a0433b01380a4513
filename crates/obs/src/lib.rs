//! `xac-obs`: the dependency-free observability substrate for the
//! xmlac workspace.
//!
//! Three pieces, plus the shared [`mix`] primitives (FNV-1a, the
//! splitmix64 step):
//!
//! - [`trace`] — hierarchical span tracing: a thread-local span stack,
//!   monotonic-clock timings, and a bounded ring-buffer event log.
//!   Off by default; one relaxed atomic load per call site when off.
//! - [`metrics`] — typed instruments (counters, gauges, log₂
//!   histograms) and a name-keyed [`Registry`].
//! - [`export`] — Prometheus text exposition and Chrome trace-event
//!   JSON, written from scratch, plus validators for both formats.
//!
//! Pipeline crates record into the process-wide [`registry`] under
//! `xac_*` names; per-engine state (like `xac-serve`'s `Metrics`)
//! builds on the same primitives but stays engine-local so each
//! engine's accounting identity holds independently.

pub mod export;
pub mod flight;
pub mod metrics;
pub mod mix;
pub mod trace;

pub use export::{
    chrome_trace, json_escape, prometheus_render, sample_key, validate_flow_pairing,
    validate_json, validate_prometheus,
};
pub use flight::{flight_recorder, FlightRecord, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{
    bucket_index, Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, Registry, BUCKETS,
};
pub use mix::{fnv1a, splitmix64, FNV_OFFSET};
pub use trace::{
    instant, span, span_stats, take_events, SpanGuard, SpanStat, TraceBuffer, TraceContext,
    TraceEvent, TraceKind,
};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide metrics registry.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Get-or-create a counter in the global [`registry`].
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    registry().counter(name)
}

/// Get-or-create a gauge in the global [`registry`].
pub fn gauge(name: &str) -> std::sync::Arc<Gauge> {
    registry().gauge(name)
}

/// Get-or-create a histogram in the global [`registry`].
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    registry().histogram(name)
}

/// Render the global registry as Prometheus text, with per-span
/// aggregates appended as `xac_span_total{span="…"}` and
/// `xac_span_seconds_total{span="…"}` so phase timings survive even
/// when the event ring has wrapped.
pub fn prometheus_global() -> String {
    use std::fmt::Write as _;
    let mut out = prometheus_render(registry());
    let stats = trace::span_stats();
    if !stats.is_empty() {
        let _ = writeln!(out, "# TYPE xac_span_total counter");
        for s in &stats {
            let _ = writeln!(out, "{} {}", sample_key("xac_span_total", &[("span", s.name)]), s.count);
        }
        let _ = writeln!(out, "# TYPE xac_span_seconds_total counter");
        for s in &stats {
            let _ = writeln!(
                out,
                "{} {:.9}",
                sample_key("xac_span_seconds_total", &[("span", s.name)]),
                s.total_ns as f64 / 1e9
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared_and_renders() {
        counter("xac_obs_selftest_total").add(2);
        counter("xac_obs_selftest_total").inc();
        assert_eq!(registry().counter("xac_obs_selftest_total").get(), 3);
        let text = prometheus_global();
        validate_prometheus(&text).expect("global exposition must validate");
        assert!(text.contains("xac_obs_selftest_total 3"));
    }
}
