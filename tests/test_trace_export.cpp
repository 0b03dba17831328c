// Tests for the trace exporter: Chrome-tracing JSON structure and the
// per-lane ASCII summary.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "obs/span.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/trace_export.hpp"

namespace ftla::sim {
namespace {

/// A machine with an attached span store, after a short workload that
/// touches every lane.
struct Traced {
  Traced() : m(test_rig(), ExecutionMode::Numeric) {
    m.set_span_store(&spans);
    auto buf = m.alloc(64);
    std::vector<double> host(64, 1.0);
    m.memcpy_h2d(buf, 0, host.data(), 64, 0);
    m.launch(0, KernelDesc{"work", KernelClass::Blas3, 40'000'000'000LL, 0},
             {});
    m.host_compute(KernelDesc{"hwork", KernelClass::HostPotf2,
                              10'000'000'000LL, 0},
                   {});
    m.memcpy_d2h(host.data(), buf, 0, 64, 0);
    m.sync_all();
  }
  obs::SpanStore spans;
  Machine m;
};

TEST(ChromeTrace, EmitsValidEventSkeleton) {
  Traced t;
  std::ostringstream os;
  write_chrome_trace(t.spans, os);
  const std::string s = os.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '}');
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"hwork\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"h2d\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  // Lane metadata present.
  EXPECT_NE(s.find("host CPU"), std::string::npos);
  EXPECT_NE(s.find("H2D engine"), std::string::npos);
}

TEST(ChromeTrace, BalancedBracesAndQuotes) {
  Traced t;
  std::ostringstream os;
  write_chrome_trace(t.spans, os);
  const std::string s = os.str();
  int depth = 0;
  int quotes = 0;
  for (char c : s) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '"') ++quotes;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0);
}

TEST(ChromeTrace, FileRoundTrip) {
  Traced t;
  const std::string path = ::testing::TempDir() + "/ftla_trace.json";
  ASSERT_TRUE(write_chrome_trace_file(t.spans, path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
}

TEST(ChromeTrace, WriteToBadPathFails) {
  Traced t;
  EXPECT_FALSE(write_chrome_trace_file(t.spans, "/nonexistent-dir/x/y.json"));
}

TEST(TraceSummary, ReportsEveryLane) {
  Traced t;
  std::ostringstream os;
  print_trace_summary(t.m, t.spans, os, 40);
  const std::string s = os.str();
  EXPECT_NE(s.find("host CPU"), std::string::npos);
  EXPECT_NE(s.find("stream 0"), std::string::npos);
  EXPECT_NE(s.find("H2D engine"), std::string::npos);
  EXPECT_NE(s.find("D2H engine"), std::string::npos);
  EXPECT_NE(s.find("makespan"), std::string::npos);
  // Occupancy strips are the requested width.
  const auto pos = s.find('[');
  ASSERT_NE(pos, std::string::npos);
  const auto end = s.find(']', pos);
  EXPECT_EQ(end - pos - 1, 40u);
}

TEST(TraceSummary, EmptyTraceIsSafe) {
  Machine m(test_rig(), ExecutionMode::Numeric);
  obs::SpanStore spans;
  m.set_span_store(&spans);
  std::ostringstream os;
  print_trace_summary(m, spans, os);
  EXPECT_NE(os.str().find("0 ops"), std::string::npos);
}

TEST(Trace, DisabledByDefault) {
  // Recording needs an attached store: nothing is recorded before one
  // is attached or after it is detached.
  Machine m(test_rig(), ExecutionMode::Numeric);
  obs::SpanStore spans;
  m.launch(0, KernelDesc{"before", KernelClass::Blas3, 1000, 0}, {});
  m.set_span_store(&spans);
  m.launch(0, KernelDesc{"k", KernelClass::Blas3, 1000, 0}, {});
  m.set_span_store(nullptr);
  m.launch(0, KernelDesc{"after", KernelClass::Blas3, 1000, 0}, {});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.snapshot()[0].name, "k");
}

TEST(TraceCap, DropsBeyondLimitAndCounts) {
  Machine m(test_rig(), ExecutionMode::Numeric);
  obs::SpanStore spans(4);
  m.set_span_store(&spans);
  for (int i = 0; i < 10; ++i) {
    m.launch(0, KernelDesc{"k" + std::to_string(i), KernelClass::Blas3,
                           1000, 0},
             {});
  }
  m.sync_all();
  const std::vector<obs::Span> kept = spans.snapshot();
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_EQ(spans.dropped(), 6u);
  EXPECT_EQ(spans.limit(), 4u);
  // The earliest records are the ones retained.
  EXPECT_EQ(kept[0].name, "k0");
  EXPECT_EQ(kept[3].name, "k3");
}

TEST(TraceCap, SummaryReportsDroppedRecords) {
  Machine m(test_rig(), ExecutionMode::Numeric);
  obs::SpanStore spans(2);
  m.set_span_store(&spans);
  for (int i = 0; i < 5; ++i) {
    m.launch(0, KernelDesc{"k", KernelClass::Blas3, 1000, 0}, {});
  }
  m.sync_all();
  std::ostringstream os;
  print_trace_summary(m, spans, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("3 records dropped at the trace cap of 2"),
            std::string::npos);
}

TEST(TraceCap, NoDropMessageUnderLimit) {
  Traced t;
  std::ostringstream os;
  print_trace_summary(t.m, t.spans, os);
  EXPECT_EQ(os.str().find("dropped"), std::string::npos);
}

TEST(ChromeTrace, MergesObsInstantEvents) {
  Traced t;
  std::vector<obs::Event> events;
  obs::Event v;
  v.kind = obs::EventKind::Verification;
  v.time = 1e-6;
  v.lane = kHostLane;
  v.op = "syrk";
  v.iteration = 3;
  v.pass = false;
  events.push_back(v);
  std::ostringstream os;
  write_chrome_trace(t.spans, os, events);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"cat\":\"verification\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(s.find("\"pass\":false"), std::string::npos);
  EXPECT_NE(s.find("\"op\":\"syrk\""), std::string::npos);
  // Machine spans still present alongside the instants.
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTrace, ObsKernelEventsAreNotDuplicated) {
  // Kernel/Copy obs events mirror the machine's own trace records; the
  // merger must render spans from the trace only.
  Traced t;
  std::vector<obs::Event> events;
  obs::Event k;
  k.kind = obs::EventKind::Kernel;
  k.name = "work";
  k.time = 0.0;
  k.end = 1e-3;
  events.push_back(k);
  std::ostringstream os;
  write_chrome_trace(t.spans, os, events);
  const std::string s = os.str();
  std::size_t hits = 0;
  for (auto p = s.find("\"name\":\"work\""); p != std::string::npos;
       p = s.find("\"name\":\"work\"", p + 1)) {
    ++hits;
  }
  EXPECT_EQ(hits, 1u);
}

TEST(ChromeTrace, EscapesControlCharacters) {
  // Event names and details are free text: control bytes must leave as
  // JSON escapes, never raw, or strict parsers reject the document.
  Traced t;
  std::vector<obs::Event> events;
  obs::Event note;
  note.kind = obs::EventKind::Note;
  note.lane = kHostLane;
  note.name = "note\x01";
  note.detail = "a\nb\tc";
  events.push_back(note);
  std::ostringstream os;
  write_chrome_trace(t.spans, os, events);
  const std::string s = os.str();
  for (unsigned char c : s) EXPECT_GE(c, 0x20) << "raw control byte";
  EXPECT_NE(s.find(R"("detail":"a\nb\tc")"), std::string::npos);
  EXPECT_NE(s.find(R"("name":"note\u0001")"), std::string::npos);
}

TEST(ChromeTrace, FlowNeedsInjectionAndDetection) {
  Traced t;
  std::vector<obs::Event> events;
  obs::Event inj;
  inj.kind = obs::EventKind::FaultInjected;
  inj.time = 1e-6;
  inj.lane = kHostLane;
  inj.correlation = 0;
  events.push_back(inj);
  // Injection alone: no flow arrows.
  {
    std::ostringstream os;
    write_chrome_trace(t.spans, os, events);
    EXPECT_EQ(os.str().find("\"ph\":\"s\""), std::string::npos);
  }
  obs::Event det;
  det.kind = obs::EventKind::Detection;
  det.time = 2e-6;
  det.lane = kHostLane;
  det.correlation = 0;
  events.push_back(det);
  {
    std::ostringstream os;
    write_chrome_trace(t.spans, os, events);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"f\""), std::string::npos);
  }
}

}  // namespace
}  // namespace ftla::sim
