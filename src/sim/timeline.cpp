#include "sim/timeline.hpp"

#include <algorithm>
#include <iterator>

namespace ftla::sim {

std::map<double, int>::iterator ResourceTimeline::breakpoint_at(double t) {
  auto it = level_.lower_bound(t);
  if (it != level_.end() && it->first == t) return it;
  const int before = it == level_.begin() ? base_usage_ : std::prev(it)->second;
  return level_.emplace_hint(it, t, before);
}

double ResourceTimeline::allocate(double earliest, double duration,
                                  int units) {
  FTLA_CHECK(units > 0 && units <= capacity_);
  FTLA_CHECK(duration >= 0.0);
  FTLA_CHECK_MSG(earliest >= prune_horizon_,
                 "allocation starts before the pruned horizon");
  const int avail = capacity_ - units;

  // Usage just after `earliest` (a breakpoint at exactly `earliest`
  // included).
  double t = earliest;
  auto it = level_.upper_bound(t);
  int usage = it == level_.begin() ? base_usage_ : std::prev(it)->second;

  // Slide the candidate start forward until [t, t+duration) fits.
  // `it` always points at the first breakpoint strictly after t, and
  // `usage` is the usage on [t, it->first).
  while (true) {
    if (usage > avail) {
      // Cannot start at t: advance to the next point where usage drops.
      FTLA_CHECK_MSG(it != level_.end(),
                     "timeline invariant broken: usage exceeds capacity "
                     "with no future release");
      usage = it->second;
      t = it->first;
      ++it;
      continue;
    }
    // t is feasible now; verify the whole window [t, t+duration).
    bool fits = true;
    for (auto jt = it; jt != level_.end() && jt->first < t + duration; ++jt) {
      if (jt->second > avail) {
        // Conflict inside the window: restart from this breakpoint.
        usage = jt->second;
        t = jt->first;
        it = std::next(jt);
        fits = false;
        break;
      }
    }
    if (fits) break;
  }

  // Split the level function at both ends of the reservation, then raise
  // every level inside it.
  const auto first = breakpoint_at(t);
  const auto last = breakpoint_at(t + duration);
  for (auto jt = first; jt != last; ++jt) jt->second += units;
  busy_unit_seconds_ += duration * units;
  last_end_ = std::max(last_end_, t + duration);
  return t;
}

int ResourceTimeline::usage_at(double t) const {
  if (t < prune_horizon_) return 0;  // history discarded
  const auto it = level_.upper_bound(t);
  return it == level_.begin() ? base_usage_ : std::prev(it)->second;
}

void ResourceTimeline::prune(double t) {
  if (t <= prune_horizon_) return;
  const auto keep = level_.upper_bound(t);
  if (keep != level_.begin()) {
    base_usage_ = std::prev(keep)->second;
    level_.erase(level_.begin(), keep);
  }
  prune_horizon_ = t;
}

}  // namespace ftla::sim
