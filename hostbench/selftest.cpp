// Self-tests of the host wall-clock benchmark. Each check tests one
// thing; the program exits 1 if any fails.
//
//   host_bench_selftest [BENCHMARK.json]   (default: ./BENCHMARK.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace hostbench;

int failures = 0;

// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long.
bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Runs a real workload's op list with every op replaced by a sleep of
// `delay`, logging the ops in the order the loop asks for them.
class Paced final : public Workload {
 public:
  Paced(std::unique_ptr<Workload> inner, std::chrono::microseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  int size() const override { return inner_->size(); }
  std::string describe(int i) const override { return inner_->describe(i); }
  void prepare(SpanRecorder*) override {}
  OpOutcome warm_up(SpanRecorder*) override { return {}; }
  OpOutcome run(int i, SpanRecorder*) override {
    std::this_thread::sleep_for(delay_);
    log.push_back(describe(i));
    return {};
  }

  std::vector<std::string> log;

 private:
  std::unique_ptr<Workload> inner_;
  std::chrono::microseconds delay_;
};

std::vector<std::string> executed(const std::string& name,
                                  std::chrono::microseconds delay) {
  Paced w(make_workload(name, 7, 1), delay);
  OpLoop loop;
  for (int pass = 0; pass < kPasses; ++pass) time_pass(w, pass, nullptr, loop);
  return w.log;
}

void op_list_ignores_speed() {
  for (const std::string& name : workload_names()) {
    const std::vector<std::string> fast = executed(name, std::chrono::microseconds(0));
    const std::vector<std::string> slow = executed(name, std::chrono::microseconds(500));
    const auto w = make_workload(name, 7, 1);
    bool in_list_order = fast.size() == static_cast<std::size_t>(kPasses * w->size());
    for (std::size_t i = 0; in_list_order && i < fast.size(); ++i) {
      in_list_order = fast[i] == w->describe(static_cast<int>(i % w->size()));
    }
    check(!fast.empty() && fast == slow && in_list_order,
          name + ": op list for a seed is identical however fast ops run");
  }
}

void p90_needs_100_ops() {
  const std::vector<double> few(kMinOpsForP90 - 1, 0.5);
  const std::vector<double> enough(kMinOpsForP90, 0.5);
  check(p90_line(few).find("omitted") != std::string::npos &&
            p90_line(few).find(std::to_string(few.size()) + " ops") != std::string::npos,
        "op_s.p90 is omitted below 100 ops, with the op count printed");
  check(p90_line(enough).rfind("op_s.p90 0.5 s", 0) == 0,
        "op_s.p90 is reported from 100 ops");
}

std::vector<std::string> names(const std::vector<Metric>& metrics) {
  std::vector<std::string> out;
  for (const Metric& m : metrics) out.push_back(m.name);
  return out;
}

void metric_names_valid(const std::vector<std::string>& e2e,
                        const std::vector<std::string>& layer) {
  for (const auto* list : {&e2e, &layer}) {
    bool ok = true;
    for (const std::string& n : *list) ok = ok && valid_metric_name(n);
    const std::set<std::string> unique(list->begin(), list->end());
    check(ok && unique.size() == list->size(),
          std::string(list == &e2e ? "end-to-end" : "per-layer") +
              " metric names match [A-Za-z0-9_.-]+ and are unique");
  }
  check(!valid_metric_name("bad name") && !valid_metric_name(".dot") &&
            !valid_metric_name(""),
        "metric-name check rejects spaces, a leading dot and the empty name");
}

// The "name" values of the array under "key" in BENCHMARK.json.
std::vector<std::string> declared(const std::string& json, const std::string& key) {
  std::vector<std::string> out;
  std::size_t pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return out;
  const std::size_t end = json.find(']', pos);
  const std::string tag = "\"name\": \"";
  while ((pos = json.find(tag, pos)) != std::string::npos && pos < end) {
    pos += tag.size();
    out.push_back(json.substr(pos, json.find('"', pos) - pos));
  }
  return out;
}

void output_keys_stable(const std::string& path, const std::vector<std::string>& e2e,
                        const std::vector<std::string>& layer) {
  check(result_json(true, 3, 1, {{"a", 1.5, "s"}}) ==
            R"({"correct": true, "attempted": 3, "failed": 1, "metrics": {"a": {"value": 1.5, "unit": "s"}}})",
        "result line has exactly correct, attempted, failed and metrics");
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  check(!json.empty(), "read " + path);
  check(declared(json, "end_to_end") == e2e,
        "end-to-end metrics match BENCHMARK.json, in order");
  check(declared(json, "per_layer") == layer,
        "per-layer metrics match BENCHMARK.json, in order");
  check(declared(json, "workloads") == workload_names(),
        "workloads match BENCHMARK.json, in order");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCHMARK.json";
  op_list_ignores_speed();
  p90_needs_100_ops();
  const std::vector<std::string> e2e = names(end_to_end_metrics({}));
  SpanRecorder spans;
  const std::vector<std::string> layer = names(layer_metrics(OpLoop{}, spans));
  metric_names_valid(e2e, layer);
  output_keys_stable(path, e2e, layer);
  std::printf("%d failed\n", failures);
  return failures == 0 ? 0 : 1;
}
