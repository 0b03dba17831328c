#include "sim/profiler.hpp"

#include <map>
#include <string>

namespace ftla::sim {

obs::ProfileReport build_profile(const Machine& machine,
                                 const obs::SpanStore& spans, int top_k) {
  const SimStats& stats = machine.stats();
  std::map<std::string, obs::ResourceProfile> resources;
  resources["gpu_sm"] = obs::ResourceProfile{
      machine.gpu_busy_sm_seconds(),
      static_cast<double>(machine.profile().sm_count +
                          machine.profile().coexec_spare_units)};
  resources["h2d_engine"] = obs::ResourceProfile{stats.h2d_seconds, 1.0};
  resources["d2h_engine"] = obs::ResourceProfile{stats.d2h_seconds, 1.0};
  resources["host_cpu"] = obs::ResourceProfile{stats.host_busy_seconds, 1.0};
  return obs::build_profile(spans.snapshot(), machine.makespan(), resources,
                            spans.dropped(), top_k);
}

}  // namespace ftla::sim
