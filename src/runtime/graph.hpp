// Dependency-driven task graph: the runtime's core data structure.
//
// A TaskGraph is a DAG of named tasks, each declaring the tiles it
// reads and writes (its *footprint*). Dependencies are not wired by
// hand: add_task infers them from footprint overlap with the classic
// hazard rules —
//
//   * RAW: a Read of tile T depends on T's last writer;
//   * WAW: a Write of T depends on T's last writer;
//   * WAR: a Write of T depends on every reader of T since that writer.
//
// Inference edges always point from an earlier-inserted task to a
// later-inserted one, so inference alone can never create a cycle;
// only explicit add_edge can, and schedule() rejects it.
//
// Determinism contract: schedule() runs Kahn's algorithm with a fixed
// (priority, insertion-sequence) tie-break over the ready set, so the
// issue order is a pure function of the graph — no pointer values, no
// hash iteration order, no wall clock. waves() groups tasks by
// longest-path depth; tasks in one wave are mutually independent, which
// is what lets the host executor run a wave's tasks concurrently and
// still produce bit-identical results at any thread count.
//
// The graph itself is execution-agnostic: bodies are opaque callables
// and `Where` only tells an executor which issue protocol a task needs
// (device stream, host, or inline). See docs/runtime.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace ftla::runtime {

class AccessTracker;  // sanitizer.hpp — opt-in dynamic footprint checker

/// Thrown by schedule()/waves() when explicit edges made the graph
/// cyclic. Carries the number of tasks left unordered.
class CycleError : public Error {
 public:
  explicit CycleError(int unordered)
      : Error("task graph contains a cycle (" + std::to_string(unordered) +
              " tasks unorderable)"),
        unordered_(unordered) {}
  [[nodiscard]] int unordered() const noexcept { return unordered_; }

 private:
  int unordered_;
};

/// A tile is any unit of data a task can depend on: a block of the
/// factor matrix, a checksum strip, a host staging buffer, a scratch
/// slot. `matrix` namespaces independent arrays so (row, col) spaces
/// never collide across them.
struct TileKey {
  int matrix = 0;
  int row = 0;
  int col = 0;

  friend bool operator==(const TileKey& a, const TileKey& b) noexcept {
    return a.matrix == b.matrix && a.row == b.row && a.col == b.col;
  }
  friend bool operator<(const TileKey& a, const TileKey& b) noexcept {
    if (a.matrix != b.matrix) return a.matrix < b.matrix;
    if (a.row != b.row) return a.row < b.row;
    return a.col < b.col;
  }
};

enum class Access {
  Read,       ///< consumes the tile's current contents
  Write,      ///< fully overwrites the tile
  ReadWrite,  ///< updates in place (both hazard directions)
};

struct Footprint {
  TileKey tile;
  Access access = Access::Read;
};

/// Convenience builders, so driver code reads like the math.
[[nodiscard]] inline Footprint read(TileKey t) { return {t, Access::Read}; }
[[nodiscard]] inline Footprint write(TileKey t) { return {t, Access::Write}; }
[[nodiscard]] inline Footprint rw(TileKey t) { return {t, Access::ReadWrite}; }

/// Which issue protocol a task needs from an executor.
enum class Where {
  Device,  ///< issues kernels/copies on an executor-chosen stream
  Host,    ///< runs host-side work; executor syncs device predecessors
  Inline,  ///< runs at issue time with no machine interaction
};

/// Checked tile handle passed to task bodies via TaskContext. When the
/// graph has an AccessTracker armed (TaskGraph::set_access_tracker /
/// FTLA_DAG_SANITIZE), every call records the dynamic access so the
/// sanitizer can verify it against the declared footprint and the
/// inferred happens-before order; with no tracker armed the calls are
/// no-ops, so instrumented bodies cost nothing in production runs.
struct TileAccessor {
  AccessTracker* tracker = nullptr;
  int task = -1;

  void read(TileKey t) const;   ///< body consumed the tile's contents
  void write(TileKey t) const;  ///< body fully overwrote the tile
  void rw(TileKey t) const;     ///< body updated the tile in place
};

/// Handed to the body at execution time.
struct TaskContext {
  int task = -1;    ///< node id in the graph
  int stream = -1;  ///< chosen sim stream (Where::Device only)
  int worker = 0;   ///< host-executor worker index
  /// Dynamic-footprint recording handle (inert unless a sanitizer
  /// tracker is armed on the graph).
  TileAccessor tiles;
};

using TaskBody = std::function<void(const TaskContext&)>;

struct TaskOptions {
  obs::Phase phase = obs::Phase::Base;
  int iteration = -1;
  Where where = Where::Device;
  /// Ready-queue rank: lower runs first; ties break on insertion order.
  int priority = 0;
};

struct TaskNode {
  std::string name;
  std::vector<Footprint> footprint;
  TaskBody body;
  TaskOptions opts;
  std::vector<int> preds;  ///< deduplicated, insertion order
  std::vector<int> succs;
};

class TaskGraph {
 public:
  /// Appends a task and infers RAW/WAR/WAW edges from its footprint.
  /// Returns the node id (dense, starting at 0).
  int add_task(std::string name, std::vector<Footprint> footprint,
               TaskBody body, TaskOptions opts = {});

  /// Explicit ordering edge (`from` before `to`), for constraints the
  /// footprints cannot express. Self-edges are rejected.
  void add_edge(int from, int to);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] const TaskNode& node(int id) const { return nodes_.at(id); }
  [[nodiscard]] std::int64_t edge_count() const noexcept { return edges_; }

  /// Deterministic topological order: Kahn's algorithm, ready set
  /// ordered by (priority, insertion sequence). Throws CycleError.
  [[nodiscard]] std::vector<int> schedule() const;

  /// Tasks grouped by longest-path depth (wave 0 has no predecessors).
  /// Tasks within a wave are pairwise independent; each wave is sorted
  /// by insertion sequence. Throws CycleError.
  [[nodiscard]] std::vector<std::vector<int>> waves() const;

  /// A seeded random valid topological order, for the schedule-
  /// permutation fuzzer. Tasks with an *empty* footprint are treated as
  /// sequence points and keep exactly the position (same preceding task
  /// set) they have in the deterministic schedule(): an empty footprint
  /// opted out of dependency inference (the fault hooks use it to pin a
  /// program point), so no reordering across one can be proven safe.
  /// All other tasks are permuted freely within those fences, subject
  /// to the graph's edges. seed selects the permutation; the result is
  /// a pure function of (graph, seed). Throws CycleError.
  [[nodiscard]] std::vector<int> random_schedule(std::uint64_t seed) const;

  /// Arms (or disarms, with nullptr) the dynamic footprint sanitizer.
  /// Executors call tracker->begin_run/begin_task and hand bodies a
  /// recording TileAccessor; see sanitizer.hpp. Not owned.
  void set_access_tracker(AccessTracker* tracker) noexcept {
    tracker_ = tracker;
  }
  [[nodiscard]] AccessTracker* access_tracker() const noexcept {
    return tracker_;
  }

 private:
  struct TileState {
    int last_writer = -1;
    std::vector<int> readers_since_write;
  };
  struct TileHash {
    std::size_t operator()(const TileKey& k) const noexcept {
      std::uint64_t h = static_cast<std::uint32_t>(k.matrix);
      h = (h << 32) ^ static_cast<std::uint32_t>(k.row);
      h = h * 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint32_t>(k.col);
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ULL;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  void link(int from, int to);

  std::vector<TaskNode> nodes_;
  // Per node: the target of its latest edge into the then-newest node
  // (-1 for none). Every edge into the newest node passes through this
  // stamp, so such an edge is a duplicate exactly when the stamp names
  // it, and inference dedupes without scanning `preds`.
  std::vector<int> last_linked_to_;
  // Hashed: add_task only looks tiles up, nothing walks them in order.
  std::unordered_map<TileKey, TileState, TileHash> tiles_;
  std::int64_t edges_ = 0;
  AccessTracker* tracker_ = nullptr;  // not owned
};

}  // namespace ftla::runtime
