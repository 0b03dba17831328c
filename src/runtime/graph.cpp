#include "runtime/graph.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/rng.hpp"

namespace ftla::runtime {

namespace {

// Min-heap entry for the ready set: (priority, seq), lowest first.
struct Ready {
  int priority;
  int seq;
  friend bool operator>(const Ready& a, const Ready& b) noexcept {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }
};

}  // namespace

void TaskGraph::link(int from, int to) {
  if (from == to) return;
  auto& preds = nodes_[static_cast<std::size_t>(to)].preds;
  int& stamp = last_linked_to_[static_cast<std::size_t>(from)];
  if (to == size() - 1) {
    if (stamp == to) return;
    stamp = to;
  } else if (std::find(preds.begin(), preds.end(), from) != preds.end()) {
    return;
  }
  preds.push_back(from);
  nodes_[static_cast<std::size_t>(from)].succs.push_back(to);
  ++edges_;
}

int TaskGraph::add_task(std::string name, std::vector<Footprint> footprint,
                        TaskBody body, TaskOptions opts) {
  const int id = static_cast<int>(nodes_.size());
  TaskNode node;
  node.name = std::move(name);
  node.footprint = std::move(footprint);
  node.body = std::move(body);
  node.opts = opts;
  nodes_.push_back(std::move(node));
  last_linked_to_.push_back(-1);

  for (const Footprint& f : nodes_.back().footprint) {
    TileState& state = tiles_[f.tile];
    switch (f.access) {
      case Access::Read:
        if (state.last_writer >= 0) link(state.last_writer, id);
        state.readers_since_write.push_back(id);
        break;
      case Access::Write:
      case Access::ReadWrite:
        if (state.last_writer >= 0) link(state.last_writer, id);
        for (int r : state.readers_since_write) link(r, id);
        state.readers_since_write.clear();
        state.last_writer = id;
        break;
    }
  }
  return id;
}

void TaskGraph::add_edge(int from, int to) {
  FTLA_CHECK_MSG(from >= 0 && from < size(), "add_edge: from out of range");
  FTLA_CHECK_MSG(to >= 0 && to < size(), "add_edge: to out of range");
  FTLA_CHECK_MSG(from != to, "add_edge: self-edge");
  link(from, to);
}

std::vector<int> TaskGraph::schedule() const {
  const int n = size();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (int id = 0; id < n; ++id) {
    indegree[static_cast<std::size_t>(id)] =
        static_cast<int>(nodes_[static_cast<std::size_t>(id)].preds.size());
  }
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready;
  for (int id = 0; id < n; ++id) {
    if (indegree[static_cast<std::size_t>(id)] == 0) {
      ready.push({nodes_[static_cast<std::size_t>(id)].opts.priority, id});
    }
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int id = ready.top().seq;
    ready.pop();
    order.push_back(id);
    for (int s : nodes_[static_cast<std::size_t>(id)].succs) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) {
        ready.push({nodes_[static_cast<std::size_t>(s)].opts.priority, s});
      }
    }
  }
  if (static_cast<int>(order.size()) != n) {
    throw CycleError(n - static_cast<int>(order.size()));
  }
  return order;
}

std::vector<int> TaskGraph::random_schedule(std::uint64_t seed) const {
  // Start from the deterministic order (throws on cycle) and split it
  // at the sequence points (empty-footprint tasks). Each segment is
  // then re-drawn as a random topological order of its own tasks: every
  // edge between two segment members is respected, every edge across a
  // fence keeps its direction because segments run in order, so the
  // result is a valid topological order of the whole graph with each
  // sequence point preceded by exactly the task set that precedes it
  // deterministically.
  const std::vector<int> det = schedule();
  Rng rng(seed);
  std::vector<int> order;
  order.reserve(det.size());

  std::vector<int> segment;
  std::vector<int> pending;  // scratch for the per-segment ready draw
  const auto flush = [&] {
    if (segment.empty()) return;
    // indexed by position in `segment`
    std::vector<int> indegree(segment.size(), 0);
    std::vector<int> pos_of(static_cast<std::size_t>(size()), -1);
    for (std::size_t i = 0; i < segment.size(); ++i) {
      pos_of[static_cast<std::size_t>(segment[i])] = static_cast<int>(i);
    }
    for (std::size_t i = 0; i < segment.size(); ++i) {
      for (const int p : nodes_[static_cast<std::size_t>(segment[i])].preds) {
        if (pos_of[static_cast<std::size_t>(p)] >= 0) ++indegree[i];
      }
    }
    pending.clear();
    for (std::size_t i = 0; i < segment.size(); ++i) {
      if (indegree[i] == 0) pending.push_back(static_cast<int>(i));
    }
    while (!pending.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(pending.size())));
      const int at = pending[pick];
      pending[pick] = pending.back();
      pending.pop_back();
      const int id = segment[static_cast<std::size_t>(at)];
      order.push_back(id);
      for (const int s : nodes_[static_cast<std::size_t>(id)].succs) {
        const int sp = pos_of[static_cast<std::size_t>(s)];
        if (sp >= 0 && --indegree[static_cast<std::size_t>(sp)] == 0) {
          pending.push_back(sp);
        }
      }
    }
    segment.clear();
  };

  for (const int id : det) {
    if (nodes_[static_cast<std::size_t>(id)].footprint.empty()) {
      flush();
      order.push_back(id);  // sequence point: keep its deterministic slot
    } else {
      segment.push_back(id);
    }
  }
  flush();
  return order;
}

std::vector<std::vector<int>> TaskGraph::waves() const {
  if (size() == 0) return {};
  const std::vector<int> order = schedule();  // throws on cycle
  std::vector<int> depth(static_cast<std::size_t>(size()), 0);
  int max_depth = 0;
  for (int id : order) {
    int d = 0;
    for (int p : nodes_[static_cast<std::size_t>(id)].preds) {
      d = std::max(d, depth[static_cast<std::size_t>(p)] + 1);
    }
    depth[static_cast<std::size_t>(id)] = d;
    max_depth = std::max(max_depth, d);
  }
  std::vector<std::vector<int>> waves(static_cast<std::size_t>(max_depth + 1));
  for (int id = 0; id < size(); ++id) {
    waves[static_cast<std::size_t>(depth[static_cast<std::size_t>(id)])]
        .push_back(id);
  }
  // Node ids are scanned in insertion order, so each wave already is.
  return waves;
}

}  // namespace ftla::runtime
