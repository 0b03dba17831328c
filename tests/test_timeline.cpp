// ResourceTimeline tests: capacity packing, delayed starts, window
// conflicts, pruning, a randomized never-exceeds-capacity property, and
// a differential test against the original delta-map allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "sim/timeline.hpp"

namespace ftla::sim {
namespace {

TEST(Timeline, ImmediateStartWhenEmpty) {
  ResourceTimeline t(4);
  EXPECT_DOUBLE_EQ(t.allocate(5.0, 2.0, 3), 5.0);
  EXPECT_DOUBLE_EQ(t.last_end(), 7.0);
}

TEST(Timeline, ConcurrentAllocationsShareCapacity) {
  ResourceTimeline t(4);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 10.0, 2), 0.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 10.0, 2), 0.0);  // fits alongside
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 5.0, 1), 10.0);  // must wait
}

TEST(Timeline, FullWidthSerializes) {
  ResourceTimeline t(4);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 4), 3.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 4), 6.0);
}

TEST(Timeline, StartsAtReleasePoint) {
  ResourceTimeline t(2);
  t.allocate(0.0, 4.0, 2);
  t.allocate(0.0, 2.0, 1);  // starts at 4
  EXPECT_DOUBLE_EQ(t.allocate(1.0, 1.0, 2), 6.0);  // needs both units
}

TEST(Timeline, WindowConflictPushesPastLaterBusyPeriod) {
  ResourceTimeline t(2);
  // Busy [5, 8) with full capacity.
  t.allocate(5.0, 3.0, 2);
  // A long job that would overlap [5,8) cannot start at 0.
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 6.0, 1), 8.0);
  // A short one fits before.
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 5.0, 1), 0.0);
}

TEST(Timeline, GapFitting) {
  ResourceTimeline t(1);
  t.allocate(0.0, 2.0, 1);   // [0,2)
  t.allocate(6.0, 2.0, 1);   // [6,8)
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 1), 2.0);  // fits the [2,6) gap
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 2.0, 1), 8.0);  // gap now too small
}

TEST(Timeline, UsageAt) {
  ResourceTimeline t(8);
  t.allocate(1.0, 4.0, 3);
  t.allocate(2.0, 1.0, 2);
  EXPECT_EQ(t.usage_at(0.5), 0);
  EXPECT_EQ(t.usage_at(1.5), 3);
  EXPECT_EQ(t.usage_at(2.5), 5);
  EXPECT_EQ(t.usage_at(3.5), 3);
  EXPECT_EQ(t.usage_at(10.0), 0);
}

TEST(Timeline, UsageAtHalfOpenBoundaries) {
  // Allocations are active on the half-open interval [start, end): the
  // start instant counts, the end instant does not. The profiler's
  // utilization tracks depend on exactly this convention.
  ResourceTimeline t(4);
  t.allocate(1.0, 2.0, 3);  // [1, 3)
  EXPECT_EQ(t.usage_at(1.0), 3);  // closed at start
  EXPECT_EQ(t.usage_at(3.0), 0);  // open at end
  // Back-to-back allocations at a shared breakpoint never double-count:
  // at the handoff instant only the starting job is active.
  t.allocate(3.0, 2.0, 4);  // [3, 5)
  EXPECT_EQ(t.usage_at(3.0), 4);
  EXPECT_EQ(t.usage_at(5.0), 0);
  // A zero-duration allocation occupies no instant at all.
  ResourceTimeline z(1);
  z.allocate(2.0, 0.0, 1);
  EXPECT_EQ(z.usage_at(2.0), 0);
}

TEST(Timeline, BusyUnitSecondsAccumulates) {
  ResourceTimeline t(4);
  t.allocate(0.0, 2.0, 3);
  t.allocate(0.0, 4.0, 1);
  EXPECT_DOUBLE_EQ(t.busy_unit_seconds(), 10.0);
}

TEST(Timeline, BusyUnitSecondsUnderContentionDelayedStarts) {
  // Contention delays starts but never shrinks or stretches work:
  // busy_unit_seconds must equal sum(units * duration) over the
  // *requested* jobs regardless of where they were pushed to start.
  ResourceTimeline t(2);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 4.0, 2), 0.0);   // [0, 4) full width
  EXPECT_DOUBLE_EQ(t.allocate(1.0, 3.0, 1), 4.0);   // delayed to [4, 7)
  EXPECT_DOUBLE_EQ(t.allocate(2.0, 3.0, 1), 4.0);   // co-runs on [4, 7)
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 1.0, 2), 7.0);   // delayed to [7, 8)
  EXPECT_DOUBLE_EQ(t.busy_unit_seconds(),
                   2 * 4.0 + 1 * 3.0 + 1 * 3.0 + 2 * 1.0);
  // The accounting matches the integral of usage_at over the horizon.
  double integral = 0.0;
  for (double at = 0.005; at < 8.0; at += 0.01) {
    integral += t.usage_at(at) * 0.01;
  }
  EXPECT_NEAR(integral, t.busy_unit_seconds(), 1e-6);
}

TEST(Timeline, PrunePreservesActiveAllocations) {
  ResourceTimeline t(2);
  t.allocate(0.0, 100.0, 1);  // long-running, active across the prune
  t.allocate(0.0, 1.0, 1);    // finished before the prune
  t.prune(50.0);
  // Capacity still reflects the long-running allocation.
  EXPECT_DOUBLE_EQ(t.allocate(50.0, 1.0, 2), 100.0);
}

TEST(Timeline, ZeroDurationAllocation) {
  ResourceTimeline t(1);
  EXPECT_DOUBLE_EQ(t.allocate(3.0, 0.0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 5.0, 1), 0.0);
}

TEST(TimelineProperty, NeverExceedsCapacityUnderRandomLoad) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const int cap = rng.uniform_int(2, 8);
    ResourceTimeline t(cap);
    struct Alloc {
      double start, end;
      int units;
    };
    std::vector<Alloc> allocs;
    double earliest = 0.0;
    for (int i = 0; i < 200; ++i) {
      earliest += rng.next_double() * 0.1;
      const double dur = 0.01 + rng.next_double();
      const int units = rng.uniform_int(1, cap);
      const double start = t.allocate(earliest, dur, units);
      EXPECT_GE(start, earliest);
      allocs.push_back({start, start + dur, units});
    }
    // Check usage at every interval boundary.
    for (const auto& probe : allocs) {
      for (double at : {probe.start, probe.start + 1e-9}) {
        int usage = 0;
        for (const auto& a : allocs) {
          if (a.start <= at && at < a.end) usage += a.units;
        }
        EXPECT_LE(usage, cap) << "seed " << seed;
      }
    }
  }
}

TEST(TimelineProperty, WorkConservingForUnitJobs) {
  // With unit-width jobs and a single unit of capacity, the timeline
  // must behave exactly like a FIFO queue: total busy time equals the
  // sum of durations and there are no overlaps.
  Rng rng(99);
  ResourceTimeline t(1);
  double total = 0.0;
  double prev_end = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double dur = 0.1 + rng.next_double();
    const double start = t.allocate(0.0, dur, 1);
    EXPECT_DOUBLE_EQ(start, prev_end);
    prev_end = start + dur;
    total += dur;
  }
  EXPECT_NEAR(t.busy_unit_seconds(), total, 1e-9);
  EXPECT_NEAR(t.last_end(), total, 1e-9);
}

// The allocator as it was before ResourceTimeline stored levels: a map
// of usage deltas summed from the front on every query. Kept only as a
// reference; the level map must return the same start times bit for bit.
class DeltaTimeline {
 public:
  explicit DeltaTimeline(int capacity) : capacity_(capacity) {}

  double allocate(double earliest, double duration, int units) {
    const int avail = capacity_ - units;
    double t = earliest;
    int usage = base_usage_;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= t; ++it) usage += it->second;
    while (true) {
      if (usage > avail) {
        usage += it->second;
        t = it->first;
        ++it;
        continue;
      }
      bool fits = true;
      int scan_usage = usage;
      for (auto jt = it; jt != delta_.end() && jt->first < t + duration;
           ++jt) {
        scan_usage += jt->second;
        if (scan_usage > avail) {
          usage = scan_usage;
          t = jt->first;
          it = std::next(jt);
          fits = false;
          break;
        }
      }
      if (fits) break;
    }
    delta_[t] += units;
    delta_[t + duration] -= units;
    busy_unit_seconds_ += duration * units;
    last_end_ = std::max(last_end_, t + duration);
    return t;
  }

  [[nodiscard]] int usage_at(double t) const {
    if (t < prune_horizon_) return 0;
    int usage = base_usage_;
    for (const auto& [time, d] : delta_) {
      if (time > t) break;
      usage += d;
    }
    return usage;
  }

  void prune(double t) {
    if (t <= prune_horizon_) return;
    auto it = delta_.begin();
    while (it != delta_.end() && it->first <= t) {
      base_usage_ += it->second;
      it = delta_.erase(it);
    }
    prune_horizon_ = t;
  }

  [[nodiscard]] std::vector<double> breakpoints() const {
    std::vector<double> out;
    for (const auto& entry : delta_) out.push_back(entry.first);
    return out;
  }
  [[nodiscard]] double busy_unit_seconds() const { return busy_unit_seconds_; }
  [[nodiscard]] double last_end() const { return last_end_; }

 private:
  int capacity_;
  int base_usage_ = 0;
  std::map<double, int> delta_;
  double busy_unit_seconds_ = 0.0;
  double last_end_ = 0.0;
  double prune_horizon_ = 0.0;
};

// usage_at must agree at every breakpoint, between each pair of
// neighbours, and on both sides of the stored range.
void expect_same_usage(const ResourceTimeline& got, const DeltaTimeline& want,
                       double horizon, std::uint64_t seed, int step) {
  const std::vector<double> bps = want.breakpoints();
  std::vector<double> probes = {0.0, horizon, want.last_end() + 1.0};
  for (std::size_t i = 0; i < bps.size(); ++i) {
    probes.push_back(bps[i]);
    if (i + 1 < bps.size()) probes.push_back(0.5 * (bps[i] + bps[i + 1]));
  }
  for (double at : probes) {
    ASSERT_EQ(got.usage_at(at), want.usage_at(at))
        << "seed " << seed << " step " << step << " at " << at;
  }
}

TEST(TimelineDifferential, LevelMapMatchesDeltaMapReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int cap = rng.uniform_int(1, 16);
    ResourceTimeline got(cap);
    DeltaTimeline want(cap);
    double horizon = 0.0;  // every future `earliest` stays at or past it
    for (int step = 0; step < 400; ++step) {
      const int op = rng.uniform_int(0, 9);
      if (op < 8) {
        // Quarter-unit grids make starts and ends coincide often (and
        // so zero-net breakpoints); some seeds use arbitrary doubles.
        const bool grid = seed % 3 != 0;
        const auto draw = [&](double span) {
          return grid ? 0.25 * rng.uniform_int(0, static_cast<int>(span * 4))
                      : rng.uniform(0.0, span);
        };
        // Behind the backlog (anywhere from the horizon on) or ahead
        // of it (past the last queued end).
        const double base = rng.uniform_int(0, 3) == 0
                                ? std::max(horizon, want.last_end())
                                : horizon;
        const double earliest = base + draw(4.0);
        const double duration = rng.uniform_int(0, 7) == 0 ? 0.0 : draw(3.0);
        const int units = rng.uniform_int(1, cap);
        const double a = got.allocate(earliest, duration, units);
        const double b = want.allocate(earliest, duration, units);
        ASSERT_EQ(a, b) << "seed " << seed << " step " << step;
      } else if (op < 9) {
        // Prune like the machine does: never past the last end, and
        // sometimes at or behind the current horizon (a no-op).
        const double t = std::min(horizon + rng.uniform(-0.5, 2.0),
                                  want.last_end());
        got.prune(t);
        want.prune(t);
        horizon = std::max(horizon, t);
      } else {
        expect_same_usage(got, want, horizon, seed, step);
        if (HasFatalFailure()) return;
      }
    }
    expect_same_usage(got, want, horizon, seed, -1);
    if (HasFatalFailure()) return;
    EXPECT_EQ(got.busy_unit_seconds(), want.busy_unit_seconds());
    EXPECT_EQ(got.last_end(), want.last_end());
  }
}

}  // namespace
}  // namespace ftla::sim
