// Task-graph core (src/runtime): dependency inference, deterministic
// scheduling, cycle rejection, wave construction, and executor
// semantics on both backends (docs/runtime.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "runtime/graph.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "test_util.hpp"

namespace ftla::runtime {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

TileKey t(int m, int r, int c) { return TileKey{m, r, c}; }

TaskBody noop() {
  return [](const TaskContext&) {};
}

// --------------------------- inference ---------------------------------

TEST(GraphInference, RawEdgeFromWriterToReader) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  ASSERT_EQ(g.node(r).preds.size(), 1u);
  EXPECT_EQ(g.node(r).preds[0], w);
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(GraphInference, WarEdgeFromReaderToWriter) {
  TaskGraph g;
  const int w0 = g.add_task("w0", {write(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  const int w1 = g.add_task("w1", {write(t(0, 0, 0))}, noop());
  // w1 must wait for the reader (WAR) and the previous writer (WAW).
  auto preds = g.node(w1).preds;
  std::sort(preds.begin(), preds.end());
  EXPECT_EQ(preds, (std::vector<int>{w0, r}));
}

TEST(GraphInference, WawChainsWriters) {
  TaskGraph g;
  const int w0 = g.add_task("w0", {write(t(0, 0, 0))}, noop());
  const int w1 = g.add_task("w1", {write(t(0, 0, 0))}, noop());
  const int w2 = g.add_task("w2", {write(t(0, 0, 0))}, noop());
  EXPECT_EQ(g.node(w1).preds, std::vector<int>{w0});
  EXPECT_EQ(g.node(w2).preds, std::vector<int>{w1});
}

TEST(GraphInference, IndependentReadersShareNoEdge) {
  TaskGraph g;
  g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r0 = g.add_task("r0", {read(t(0, 0, 0))}, noop());
  const int r1 = g.add_task("r1", {read(t(0, 0, 0))}, noop());
  EXPECT_EQ(g.node(r1).preds, g.node(r0).preds);  // both depend on w only
  EXPECT_EQ(g.node(r0).succs, std::vector<int>{});
}

TEST(GraphInference, ReadWriteActsAsBoth) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int u = g.add_task("u", {rw(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  EXPECT_EQ(g.node(u).preds, std::vector<int>{w});
  EXPECT_EQ(g.node(r).preds, std::vector<int>{u});
}

TEST(GraphInference, DisjointTilesNoEdges) {
  TaskGraph g;
  g.add_task("a", {write(t(0, 0, 0)), read(t(0, 1, 0))}, noop());
  g.add_task("b", {write(t(0, 1, 1)), read(t(1, 0, 0))}, noop());
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(GraphInference, DuplicateEdgesCollapse) {
  TaskGraph g;
  const int w = g.add_task(
      "w", {write(t(0, 0, 0)), write(t(0, 1, 0))}, noop());
  const int r = g.add_task(
      "r", {read(t(0, 0, 0)), read(t(0, 1, 0))}, noop());
  ASSERT_EQ(g.node(r).preds.size(), 1u);
  EXPECT_EQ(g.node(r).preds[0], w);
  EXPECT_EQ(g.edge_count(), 1);
}

// Naive reference for inference: before footprint k of task j touches
// tile T, rescan every earlier access to T (all earlier tasks, then
// j's own earlier footprints). The last writer precedes j; for a write,
// so does every reader after that writer. Edges dedupe by scanning
// preds, as the graph did before it kept a hashed tile table.
struct NaiveGraph {
  std::vector<std::vector<Footprint>> footprints;
  std::vector<std::vector<int>> preds;
  std::vector<std::vector<int>> succs;
  std::int64_t edges = 0;

  void link(int from, int to) {
    auto& p = preds[static_cast<std::size_t>(to)];
    if (from == to || std::find(p.begin(), p.end(), from) != p.end()) return;
    p.push_back(from);
    succs[static_cast<std::size_t>(from)].push_back(to);
    ++edges;
  }

  void add_task(const std::vector<Footprint>& fp) {
    const int j = static_cast<int>(footprints.size());
    footprints.push_back(fp);
    preds.emplace_back();
    succs.emplace_back();
    for (std::size_t k = 0; k < fp.size(); ++k) {
      int last_writer = -1;
      std::vector<int> readers;
      for (int i = 0; i <= j; ++i) {
        const auto& other = footprints[static_cast<std::size_t>(i)];
        const std::size_t end = i == j ? k : other.size();
        for (std::size_t q = 0; q < end; ++q) {
          if (!(other[q].tile == fp[k].tile)) continue;
          if (other[q].access == Access::Read) {
            readers.push_back(i);
          } else {
            last_writer = i;
            readers.clear();
          }
        }
      }
      if (last_writer >= 0) link(last_writer, j);
      if (fp[k].access != Access::Read) {
        for (int r : readers) link(r, j);
      }
    }
  }
};

TEST(GraphInference, HashedTileTableMatchesNaiveReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TaskGraph g;
    NaiveGraph ref;
    // A small pool, so tiles are shared often; some keys far from the
    // origin and negative, as namespaced matrix ids can be.
    const auto tile = [&] {
      const int m = rng.uniform_int(0, 3) == 0 ? -7 : rng.uniform_int(0, 2);
      return t(m, rng.uniform_int(0, 4), rng.uniform_int(0, 3) * 100003);
    };
    for (int j = 0; j < 300; ++j) {
      std::vector<Footprint> fp;
      const int len = rng.uniform_int(0, 5);
      for (int k = 0; k < len; ++k) {
        const auto access = static_cast<Access>(rng.uniform_int(0, 2));
        // Repeat an earlier footprint tile of this task now and then.
        const TileKey key = (k > 0 && rng.uniform_int(0, 3) == 0)
                                ? fp[static_cast<std::size_t>(
                                         rng.uniform_int(0, k - 1))]
                                      .tile
                                : tile();
        fp.push_back({key, access});
      }
      ASSERT_EQ(g.add_task("t", fp, noop()), j);
      ref.add_task(fp);
      // Explicit edges into the newest node, which may repeat an edge
      // inference just made, and into an older node.
      if (j > 0 && rng.uniform_int(0, 2) == 0) {
        const int from = rng.uniform_int(0, j - 1);
        g.add_edge(from, j);
        ref.link(from, j);
      }
      if (j > 1 && rng.uniform_int(0, 3) == 0) {
        const int to = rng.uniform_int(1, j - 1);
        const int from = rng.uniform_int(0, to - 1);
        g.add_edge(from, to);
        ref.link(from, to);
      }
    }
    ASSERT_EQ(g.size(), static_cast<int>(ref.preds.size()));
    EXPECT_EQ(g.edge_count(), ref.edges) << "seed " << seed;
    for (int id = 0; id < g.size(); ++id) {
      ASSERT_EQ(g.node(id).preds, ref.preds[static_cast<std::size_t>(id)])
          << "seed " << seed << " node " << id;
      ASSERT_EQ(g.node(id).succs, ref.succs[static_cast<std::size_t>(id)])
          << "seed " << seed << " node " << id;
    }
  }
}

// --------------------------- scheduling --------------------------------

TEST(GraphSchedule, InsertionOrderWhenPrioritiesEqual) {
  // The driver-conformance cornerstone: uniform priorities + forward
  // edges => schedule order == insertion order.
  TaskGraph g;
  for (int i = 0; i < 32; ++i) {
    g.add_task("n", {rw(t(0, i % 3, 0))}, noop());
  }
  const auto order = g.schedule();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(GraphSchedule, PriorityBreaksTiesDeterministically) {
  TaskGraph g;
  const int a = g.add_task("a", {}, noop());           // priority 0
  TaskOptions hot;
  hot.priority = -1;                                   // lower = earlier
  const int b = g.add_task("b", {}, noop(), hot);
  const int c = g.add_task("c", {}, noop());
  const auto order = g.schedule();
  EXPECT_EQ(order, (std::vector<int>{b, a, c}));
}

TEST(GraphSchedule, CycleRejected) {
  TaskGraph g;
  const int a = g.add_task("a", {}, noop());
  const int b = g.add_task("b", {}, noop());
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.schedule(), CycleError);
  EXPECT_THROW(g.waves(), CycleError);
}

TEST(GraphSchedule, WavesGroupByDepth) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r0 = g.add_task("r0", {read(t(0, 0, 0))}, noop());
  const int r1 = g.add_task("r1", {read(t(0, 0, 0))}, noop());
  const int f = g.add_task("f", {rw(t(0, 0, 0))}, noop());
  const auto waves = g.waves();
  ASSERT_EQ(waves.size(), 3u);
  EXPECT_EQ(waves[0], std::vector<int>{w});
  EXPECT_EQ(waves[1], (std::vector<int>{r0, r1}));
  EXPECT_EQ(waves[2], std::vector<int>{f});
}

TEST(GraphSchedule, EmptyGraph) {
  TaskGraph g;
  EXPECT_EQ(g.schedule(), std::vector<int>{});
  EXPECT_TRUE(g.waves().empty());
}

// --------------------------- host executor -----------------------------

// Build a tile-Cholesky task graph over a host matrix with real BLAS
// bodies. Same-wave tasks write disjoint tiles, so any thread count
// must produce bit-identical factors.
Matrix<double> host_dag_cholesky(const Matrix<double>& a0, int b,
                                 common::ThreadPool* pool) {
  Matrix<double> a = a0;
  const int n = a.rows();
  const int nb = (n + b - 1) / b;
  auto bs = [&](int i) { return std::min(b, n - i * b); };
  auto blk = [&](int i, int k) {
    return a.block(i * b, k * b, bs(i), bs(k));
  };

  TaskGraph g;
  for (int j = 0; j < nb; ++j) {
    for (int k = 0; k < j; ++k) {
      g.add_task("syrk",
                 {read(t(0, j, k)), rw(t(0, j, j))},
                 [blk, j, k](const TaskContext&) {
                   auto c = blk(j, j);
                   blas::gemm(Trans::No, Trans::Yes, -1.0,
                              ConstMatrixView<double>(blk(j, k)),
                              ConstMatrixView<double>(blk(j, k)), 1.0, c);
                 });
    }
    g.add_task("potf2", {rw(t(0, j, j))}, [blk, j](const TaskContext&) {
      auto d = blk(j, j);
      blas::potf2(d);
      for (int c = 1; c < d.cols(); ++c)
        for (int r = 0; r < c; ++r) d(r, c) = 0.0;
    });
    for (int i = j + 1; i < nb; ++i) {
      for (int k = 0; k < j; ++k) {
        g.add_task("gemm",
                   {read(t(0, i, k)), read(t(0, j, k)), rw(t(0, i, j))},
                   [blk, i, j, k](const TaskContext&) {
                     auto c = blk(i, j);
                     blas::gemm(Trans::No, Trans::Yes, -1.0,
                                ConstMatrixView<double>(blk(i, k)),
                                ConstMatrixView<double>(blk(j, k)), 1.0, c);
                   });
      }
      g.add_task("trsm", {read(t(0, j, j)), rw(t(0, i, j))},
                 [blk, i, j](const TaskContext&) {
                   auto p = blk(i, j);
                   blas::trsm(Side::Right, Uplo::Lower, Trans::Yes,
                              Diag::NonUnit, 1.0,
                              ConstMatrixView<double>(blk(j, j)), p);
                 });
    }
  }
  HostRunOptions opts;
  opts.pool = pool;
  run_on_host(g, opts);
  return a;
}

TEST(HostExecutor, TileCholeskyBitIdenticalAcrossThreadCounts) {
  const int n = 96;
  const auto a0 = test::random_spd(n, 1234);

  common::ThreadPool serial(1);
  common::ThreadPool wide(4);
  const auto f1 = host_dag_cholesky(a0, 16, &serial);
  const auto f4 = host_dag_cholesky(a0, 16, &wide);

  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(f1(i, j), f4(i, j)) << "thread-count divergence at (" << i
                                    << ", " << j << ")";

  auto ref = a0;
  blas::potrf(ref.view(), 16);
  EXPECT_LE(test::lower_max_diff(f1, ref), 1e-9);
}

TEST(HostExecutor, RunsEveryTaskOnce) {
  TaskGraph g;
  std::atomic<int> hits{0};
  for (int i = 0; i < 64; ++i) {
    g.add_task("n", {rw(t(0, i % 5, 0))},
               [&hits](const TaskContext&) { ++hits; });
  }
  common::ThreadPool pool(4);
  obs::MetricsRegistry metrics;
  HostRunOptions opts;
  opts.pool = &pool;
  opts.metrics = &metrics;
  run_on_host(g, opts);
  EXPECT_EQ(hits.load(), 64);
  EXPECT_EQ(metrics.counter("runtime.host.tasks"), 64);
}

// --------------------------- stream executor ---------------------------

TEST(StreamExecutor, IssuesInScheduleOrderAndFencesDeps) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  const sim::StreamId extra = m.create_stream();

  TaskGraph g;
  std::vector<int> issued;
  auto body = [&issued](int id) {
    return [&issued, id](const TaskContext&) { issued.push_back(id); };
  };
  g.add_task("a", {write(t(0, 0, 0))}, body(0));
  g.add_task("b", {read(t(0, 0, 0)), write(t(0, 1, 0))}, body(1));
  g.add_task("c", {read(t(0, 0, 0)), write(t(0, 2, 0))}, body(2));
  g.add_task("d", {read(t(0, 1, 0)), read(t(0, 2, 0))}, body(3));

  StreamRunOptions opts;
  opts.streams = {m.default_stream(), extra};
  const StreamRunStats stats = run_on_streams(g, m, opts);
  m.sync_all();

  EXPECT_EQ(issued, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(stats.tasks, 4);
  EXPECT_EQ(stats.device_tasks, 4);
  EXPECT_EQ(stats.edges, 4);
  // The bodies issue no machine work, so every stream-end tie breaks to
  // the pool head: all four tasks share one stream and every edge rides
  // same-stream FIFO order — no fence is ever issued.
  EXPECT_EQ(stats.stream_waits, 0);
  EXPECT_EQ(stats.host_syncs, 0);
}

TEST(StreamExecutor, HostAndInlineTasksOrderViaHostClock) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  TaskGraph g;
  std::vector<int> issued;
  TaskOptions dev;
  TaskOptions host;
  host.where = Where::Host;
  TaskOptions inl;
  inl.where = Where::Inline;
  g.add_task("launch", {write(t(0, 0, 0))},
             [&](const TaskContext& c) {
               issued.push_back(0);
               sim::KernelDesc d{"k", sim::KernelClass::Blas3, 1000, 0};
               m.launch(c.stream, d, {});
             },
             dev);
  g.add_task("host", {read(t(0, 0, 0)), write(t(1, 0, 0))},
             [&](const TaskContext&) {
               issued.push_back(1);
               sim::KernelDesc d{"h", sim::KernelClass::HostPotf2, 1000, 0};
               m.host_compute(d, {});
             },
             host);
  g.add_task("hook", {}, [&](const TaskContext&) { issued.push_back(2); },
             inl);
  g.add_task("launch2", {read(t(1, 0, 0))},
             [&](const TaskContext& c) {
               issued.push_back(3);
               sim::KernelDesc d{"k2", sim::KernelClass::Blas3, 1000, 0};
               m.launch(c.stream, d, {});
             },
             dev);

  const StreamRunStats stats = run_on_streams(g, m, {});
  m.sync_all();
  EXPECT_EQ(issued, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(stats.host_tasks, 1);
  EXPECT_EQ(stats.inline_tasks, 1);
  EXPECT_EQ(stats.device_tasks, 2);
  EXPECT_GT(m.host_now(), 0.0);
}

TEST(StreamExecutor, BodyExceptionPropagates) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  TaskGraph g;
  g.add_task("boom", {},
             [](const TaskContext&) { throw UnrecoverableCorruptionError("x"); });
  EXPECT_THROW(run_on_streams(g, m, {}), UnrecoverableCorruptionError);
}

}  // namespace
}  // namespace ftla::runtime
