// Trace views of the simulated node.
//
// A Machine with an attached obs::SpanStore records every kernel, host
// task and DMA transfer with its virtual start/end times
// (Machine::set_span_store). These helpers turn that record into:
//   * Chrome tracing JSON ("catapult" format) — open in
//     chrome://tracing or https://ui.perfetto.dev to see the GPU
//     streams, copy engines and host lane as a real timeline, including
//     how POTF2 hides under the trailing GEMM and how Opt-1's recalc
//     kernels fan out across streams.
//   * a compact per-lane ASCII utilization summary for terminals.
//   * resource-occupancy gauge series for the windowed time series.
// The Chrome counter tracks and the time series share one step-function
// derivation of SM, copy-engine and verification occupancy.
// Telemetry events captured through the obs layer can be merged into
// the same timeline: semantic events (fault injections, verifications,
// detections, corrections, placement decisions, recovery) appear as
// instant events on their lane, and each injection -> detection ->
// correction chain is connected with Chrome flow arrows keyed by the
// injection id, so a fault's latency window is visible as an arrow
// across the timeline.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"

namespace ftla::sim {

/// Writes the recorded spans as Chrome tracing JSON, merged with
/// telemetry events: semantic events become instant events ("ph":"i")
/// with their fields as args, and correlated fault chains become flow
/// arrows ("ph":"s"/"t"/"f"). Kernel/copy/sync events from the obs
/// stream are skipped — the spans already provide those.
void write_chrome_trace(const obs::SpanStore& spans, std::ostream& os,
                        const std::vector<obs::Event>& events = {});

/// Convenience: writes the JSON to a file; returns false on I/O error.
bool write_chrome_trace_file(const obs::SpanStore& spans,
                             const std::string& path,
                             const std::vector<obs::Event>& events = {});

/// Prints a per-lane summary (op count, busy time, utilization) plus an
/// ASCII occupancy strip per lane, and notes spans dropped at the
/// store's cap.
void print_trace_summary(const Machine& machine, const obs::SpanStore& spans,
                         std::ostream& os, int strip_width = 72);

/// Derives resource-occupancy gauge series from a finished run's spans
/// and appends them to `out`: timeseries.sim.sm_units_in_use,
/// timeseries.sim.h2d_copies_in_flight,
/// timeseries.sim.d2h_copies_in_flight and
/// timeseries.sim.outstanding_verifications, each sampled at every
/// level change and closed with a final sample at the makespan.
/// Deterministic: the spans are replayed in a canonical sorted order.
void append_machine_timeseries(const Machine& machine,
                               const obs::SpanStore& spans,
                               obs::TimeSeriesStore* out);

}  // namespace ftla::sim
