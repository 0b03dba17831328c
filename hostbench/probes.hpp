// Per-layer ledger of the traced invocation.
#pragma once

#include <vector>

#include "ledger.hpp"
#include "workloads.hpp"

namespace hostbench {

/// The per-layer metrics, named <module>.<what>, in a fixed order. Rates
/// and times come from probes: the same fixed inputs on every workload
/// and seed, so they compare layer speed rather than input mix. Fault,
/// service and trace-overhead figures come from `loop`, the workload's
/// own traced ops. Each probe call is recorded as a span in `spans`.
[[nodiscard]] std::vector<Metric> layer_metrics(const OpLoop& loop,
                                                SpanRecorder& spans);

}  // namespace hostbench
