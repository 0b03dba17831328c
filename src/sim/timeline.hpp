// Capacity timeline: the discrete-event allocator behind the simulated
// GPU's SM pool.
//
// A ResourceTimeline models a resource with integer capacity C. Each
// allocation requests `units <= C` for a duration and an earliest start;
// the allocator returns the earliest start time at which the request fits
// without ever exceeding capacity (space-sharing, no preemption, no
// slowdown under contention — contention delays starts instead, which is
// how SMs behave for co-resident kernels).
#pragma once

#include <map>

#include "common/error.hpp"

namespace ftla::sim {

class ResourceTimeline {
 public:
  explicit ResourceTimeline(int capacity) : capacity_(capacity) {
    FTLA_CHECK(capacity > 0);
  }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }

  /// Reserves `units` for [start, start + duration) where start is the
  /// earliest feasible time >= earliest. Returns start.
  double allocate(double earliest, double duration, int units);

  /// Usage at time t (counting an allocation as active on [start, end)).
  [[nodiscard]] int usage_at(double t) const;

  /// Total allocated unit-seconds so far (for utilization reports).
  [[nodiscard]] double busy_unit_seconds() const noexcept {
    return busy_unit_seconds_;
  }

  /// Latest end time of any allocation made so far.
  [[nodiscard]] double last_end() const noexcept { return last_end_; }

  /// Drops breakpoints at or before `t` (all future allocations must
  /// have earliest >= t). Keeps the timeline small over long runs.
  void prune(double t);

 private:
  // Finds or inserts the breakpoint at `t`, seeded with the level just
  // before it, so the level function is unchanged by the insertion.
  std::map<double, int>::iterator breakpoint_at(double t);

  int capacity_;
  int base_usage_ = 0;  // usage before the first breakpoint
  // level_[t] is the usage on [t, next breakpoint). Storing levels
  // rather than deltas makes the usage at any time one lookup, however
  // deep the queued backlog is.
  std::map<double, int> level_;
  double busy_unit_seconds_ = 0.0;
  double last_end_ = 0.0;
  double prune_horizon_ = 0.0;
};

}  // namespace ftla::sim
