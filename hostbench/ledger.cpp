#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace hostbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would include the launching process's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::vector<Metric> end_to_end_metrics(const RunTimes& t) {
  const double ops = static_cast<double>(t.op_s.size());
  double busy_s = 0.0;
  for (double s : t.op_s) busy_s += s;
  return {
      {"setup_s", quantile(t.setup_s, 0.5), "s"},
      {"ops_per_s", busy_s > 0.0 ? ops / busy_s : 0.0, "1/s"},
      {"op_s.p50", quantile(t.op_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"virtual_s_per_op", ops > 0.0 ? t.virtual_s / ops : 0.0, "sim_s"},
  };
}

std::string p90_line(const std::vector<double>& op_s) {
  char buf[160];
  if (static_cast<int>(op_s.size()) >= kMinOpsForP90) {
    std::snprintf(buf, sizeof buf, "op_s.p90 %.9g s (%zu ops)",
                  quantile(op_s, 0.9), op_s.size());
  } else {
    std::snprintf(buf, sizeof buf,
                  "op_s.p90 omitted: %zu ops, fewer than %d", op_s.size(),
                  kMinOpsForP90);
  }
  return buf;
}

namespace {

std::string json_number(double v) {
  // JSON has no NaN or infinity; a metric is never meant to be either.
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_string(metrics[i].name) << ": {\"value\": "
       << json_number(metrics[i].value)
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

int SpanRecorder::open(std::string name, int op) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op >= 0 || s.parent < 0 ? op : spans_[static_cast<std::size_t>(s.parent)].op;
  s.start_s = seconds_since(origin_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
  // Spans close innermost first (ScopedSpan is the only closer).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  // Serial execution nests children strictly inside their parent, so
  // the covered part of a parent is the sum of its children.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  return self;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_s\": " << json_number(s.start_s)
        << ", \"end_s\": " << json_number(s.end_s)
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out.flush());
}

std::vector<SelfTime> self_time_table(const SpanRecorder& rec) {
  const std::vector<double> self = rec.self_seconds();
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    SelfTime& row = by_name[rec.spans()[i].name];
    row.name = rec.spans()[i].name;
    row.self_s += self[i];
    ++row.calls;
  }
  std::vector<SelfTime> out;
  for (auto& [name, row] : by_name) out.push_back(row);
  return out;
}

}  // namespace hostbench
