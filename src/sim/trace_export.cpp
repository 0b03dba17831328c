#include "sim/trace_export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "obs/event_sink.hpp"  // json_escape

namespace ftla::sim {

namespace {

std::string lane_name(int lane) {
  switch (lane) {
    case kHostLane: return "host CPU";
    case kH2dLane: return "H2D engine";
    case kD2hLane: return "D2H engine";
    default: return "stream " + std::to_string(lane);
  }
}

// Chrome tracing sorts lanes by tid; map our lanes to stable ids.
int lane_tid(int lane) {
  switch (lane) {
    case kHostLane: return 0;
    case kH2dLane: return 1;
    case kD2hLane: return 2;
    default: return 10 + lane;
  }
}

/// Resource occupancy over virtual time: one step function per tracked
/// resource, as (instant, level) at every level change in time order.
struct Occupancy {
  using Steps = std::vector<std::pair<double, long long>>;
  Steps sm_units;       ///< SM units held by GPU-pool work (kernels, d2d)
  Steps h2d_copies;     ///< copies in flight on the H2D engine
  Steps d2h_copies;     ///< copies in flight on the D2H engine
  Steps verifications;  ///< recalc/verify spans in flight
};

/// Sorts start/end deltas and folds them, in place, into the running
/// level at each distinct instant.
void fold_steps(Occupancy::Steps& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  long long level = 0;
  for (std::size_t i = 0; i < v.size();) {
    const double t = v[i].first;
    for (; i < v.size() && v[i].first == t; ++i) level += v[i].second;
    v[out++] = {t, level};
  }
  v.resize(out);
}

Occupancy occupancy(const std::vector<obs::Span>& spans) {
  Occupancy o;
  for (const auto& r : spans) {
    if (r.lane >= 0) {  // GPU pool work: kernels and d2d copies
      o.sm_units.emplace_back(r.start, r.units);
      o.sm_units.emplace_back(r.end, -r.units);
    } else if (r.lane == kH2dLane) {
      o.h2d_copies.emplace_back(r.start, 1);
      o.h2d_copies.emplace_back(r.end, -1);
    } else if (r.lane == kD2hLane) {
      o.d2h_copies.emplace_back(r.start, 1);
      o.d2h_copies.emplace_back(r.end, -1);
    }
    if (r.name.rfind("verify", 0) == 0 || r.name.rfind("recalc", 0) == 0) {
      o.verifications.emplace_back(r.start, 1);
      o.verifications.emplace_back(r.end, -1);
    }
  }
  fold_steps(o.sm_units);
  fold_steps(o.h2d_copies);
  fold_steps(o.d2h_copies);
  fold_steps(o.verifications);
  return o;
}

/// True for obs kinds that duplicate the recorded spans — the merger
/// skips them.
bool is_machine_span(obs::EventKind k) {
  return k == obs::EventKind::Kernel || k == obs::EventKind::HostTask ||
         k == obs::EventKind::Copy || k == obs::EventKind::Sync;
}

void write_event_args(std::ostream& os, const obs::Event& e) {
  os << "{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  if (!e.op.empty()) {
    sep();
    os << "\"op\":\"";
    obs::json_escape(e.op, os);
    os << "\"";
  }
  if (e.iteration >= 0) {
    sep();
    os << "\"iter\":" << e.iteration;
  }
  if (e.block_row >= 0 || e.block_col >= 0) {
    sep();
    os << "\"block_row\":" << e.block_row << ",\"block_col\":" << e.block_col;
  }
  if (e.row >= 0 || e.col >= 0) {
    sep();
    os << "\"row\":" << e.row << ",\"col\":" << e.col;
  }
  if (e.kind == obs::EventKind::Verification ||
      e.kind == obs::EventKind::Detection) {
    sep();
    os << "\"pass\":" << (e.pass ? "true" : "false");
  }
  if (e.flops != 0) {
    sep();
    os << "\"flops\":" << e.flops;
  }
  if (e.bytes != 0) {
    sep();
    os << "\"bytes\":" << e.bytes;
  }
  if (e.units != 0) {
    sep();
    os << "\"units\":" << e.units;
  }
  if (e.value != 0.0 || e.kind == obs::EventKind::Detection ||
      e.kind == obs::EventKind::Placement) {
    sep();
    os << "\"value\":" << e.value;
  }
  if (e.value2 != 0.0 || e.kind == obs::EventKind::Placement) {
    sep();
    os << "\"value2\":" << e.value2;
  }
  if (e.correlation >= 0) {
    sep();
    os << "\"injection_id\":" << e.correlation;
  }
  if (!e.detail.empty()) {
    sep();
    os << "\"detail\":\"";
    obs::json_escape(e.detail, os);
    os << "\"";
  }
  os << "}";
}

}  // namespace

void write_chrome_trace(const obs::SpanStore& spans, std::ostream& os,
                        const std::vector<obs::Event>& events) {
  const std::vector<obs::Span> trace = spans.snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  // Lane naming metadata.
  std::map<int, bool> lanes;
  for (const auto& r : trace) lanes[r.lane] = true;
  for (const auto& e : events) {
    if (!is_machine_span(e.kind)) lanes[e.lane] = true;
  }
  for (const auto& [lane, _] : lanes) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << lane_tid(lane) << ",\"args\":{\"name\":\"";
    obs::json_escape(lane_name(lane), os);
    os << "\"}}";
  }
  // Complete events; virtual seconds -> microseconds.
  for (const auto& r : trace) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    obs::json_escape(r.name, os);
    os << "\",\"cat\":\"" << r.cls
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane_tid(r.lane)
       << ",\"ts\":" << r.start * 1e6 << ",\"dur\":" << (r.end - r.start) * 1e6
       << ",\"args\":{\"sm_units\":" << r.units;
    if (r.flops != 0) os << ",\"flops\":" << r.flops;
    os << "}}";
  }

  // Counter tracks ("ph":"C"): SM occupancy, copy-engine busy and
  // outstanding verification work over time.
  const Occupancy occ = occupancy(trace);
  auto counter_track = [&](const char* name, const char* key,
                           const Occupancy::Steps& steps) {
    for (const auto& [t, level] : steps) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"pid\":1,\"ts\":"
         << t * 1e6 << ",\"args\":{\"" << key << "\":" << level << "}}";
    }
  };
  counter_track("sm_units_in_use", "units", occ.sm_units);
  counter_track("h2d_engine_busy", "copies", occ.h2d_copies);
  counter_track("d2h_engine_busy", "copies", occ.d2h_copies);
  counter_track("outstanding_verifications", "spans", occ.verifications);

  // Semantic telemetry events as thread-scoped instant events.
  for (const auto& e : events) {
    if (is_machine_span(e.kind)) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    obs::json_escape(e.name.empty() ? to_string(e.kind) : e.name, os);
    os << "\",\"cat\":\"" << to_string(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
       << lane_tid(e.lane) << ",\"ts\":" << e.time * 1e6 << ",\"args\":";
    write_event_args(os, e);
    os << "}";
  }

  // Flow arrows for each correlated fault chain. A flow needs at least
  // two points, so arrows are emitted only for injections that were
  // detected; the detection is the flow's end unless a correction or
  // checksum repair continues the chain.
  struct Chain {
    const obs::Event* injection = nullptr;
    const obs::Event* detection = nullptr;
    const obs::Event* repair = nullptr;  // first correction / chk repair
  };
  std::map<std::int64_t, Chain> chains;
  for (const auto& e : events) {
    if (e.correlation < 0) continue;
    Chain& c = chains[e.correlation];
    switch (e.kind) {
      case obs::EventKind::FaultInjected:
        if (c.injection == nullptr) c.injection = &e;
        break;
      case obs::EventKind::Detection:
        if (c.detection == nullptr) c.detection = &e;
        break;
      case obs::EventKind::Correction:
      case obs::EventKind::ChecksumRepair:
        if (c.repair == nullptr) c.repair = &e;
        break;
      default: break;
    }
  }
  auto flow = [&](const obs::Event& e, char ph, std::int64_t id) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"fault\",\"cat\":\"fault\",\"ph\":\"" << ph
       << "\",\"id\":" << id << ",\"pid\":1,\"tid\":" << lane_tid(e.lane)
       << ",\"ts\":" << e.time * 1e6 << "}";
  };
  for (const auto& [id, c] : chains) {
    if (c.injection == nullptr || c.detection == nullptr) continue;
    flow(*c.injection, 's', id);
    flow(*c.detection, c.repair != nullptr ? 't' : 'f', id);
    if (c.repair != nullptr) flow(*c.repair, 'f', id);
  }
  os << "]}";
}

bool write_chrome_trace_file(const obs::SpanStore& spans,
                             const std::string& path,
                             const std::vector<obs::Event>& events) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(spans, f, events);
  return static_cast<bool>(f);
}

void print_trace_summary(const Machine& machine, const obs::SpanStore& spans,
                         std::ostream& os, int strip_width) {
  const std::vector<obs::Span> trace = spans.snapshot();
  const double span = machine.makespan();
  struct LaneStat {
    long long count = 0;
    double busy = 0.0;
    std::vector<char> strip;
  };
  std::map<int, LaneStat> lanes;
  for (const auto& r : trace) {
    auto& ls = lanes[r.lane];
    ++ls.count;
    ls.busy += r.end - r.start;
    if (ls.strip.empty()) ls.strip.assign(strip_width, '.');
    if (span > 0.0) {
      int from = static_cast<int>(r.start / span * strip_width);
      int to = static_cast<int>(r.end / span * strip_width);
      from = std::clamp(from, 0, strip_width - 1);
      to = std::clamp(to, from, strip_width - 1);
      for (int i = from; i <= to; ++i) ls.strip[i] = '#';
    }
  }
  os << "trace summary — makespan " << span << " s, " << trace.size()
     << " ops";
  if (spans.dropped() > 0) {
    os << " (" << spans.dropped() << " records dropped at the trace cap of "
       << spans.limit() << ")";
  }
  os << "\n";
  for (const auto& [lane, ls] : lanes) {
    const double util = span > 0.0 ? ls.busy / span : 0.0;
    os << "  " << lane_name(lane) << ": " << ls.count << " ops, busy "
       << ls.busy << " s (" << static_cast<int>(util * 100.0) << "%)\n    ["
       << std::string(ls.strip.begin(), ls.strip.end()) << "]\n";
  }
}

void append_machine_timeseries(const Machine& machine,
                               const obs::SpanStore& spans,
                               obs::TimeSeriesStore* out) {
  const Occupancy occ = occupancy(spans.snapshot());
  const double makespan = machine.makespan();
  const auto series = [&](const char* name, const Occupancy::Steps& steps) {
    if (steps.empty()) return;
    for (const auto& [t, level] : steps) {
      out->sample_gauge(name, t, static_cast<double>(level));
    }
    // Close the series at the makespan so the final (idle) level is
    // visible in the last rollup window.
    if (steps.back().first < makespan) {
      out->sample_gauge(name, makespan,
                        static_cast<double>(steps.back().second));
    }
  };
  series("timeseries.sim.sm_units_in_use", occ.sm_units);
  series("timeseries.sim.h2d_copies_in_flight", occ.h2d_copies);
  series("timeseries.sim.d2h_copies_in_flight", occ.d2h_copies);
  series("timeseries.sim.outstanding_verifications", occ.verifications);
}

}  // namespace ftla::sim
