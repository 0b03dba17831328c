#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/stats.hpp"
#include "obs/json.hpp"

namespace ftla::obs {

void TimeSeriesStore::sample_counter(const std::string& name, double time,
                                     double delta) {
  common::MutexLock lk(mu_);
  double& total = totals_[name];
  total += delta;
  if (size_ >= limit_) {
    ++dropped_;
    return;
  }
  series_[name].push_back(TimeSeriesSample{time, total});
  ++size_;
}

void TimeSeriesStore::sample_gauge(const std::string& name, double time,
                                   double value) {
  common::MutexLock lk(mu_);
  if (size_ >= limit_) {
    ++dropped_;
    return;
  }
  series_[name].push_back(TimeSeriesSample{time, value});
  ++size_;
}

std::map<std::string, std::vector<TimeSeriesSample>> TimeSeriesStore::snapshot()
    const {
  common::MutexLock lk(mu_);
  return series_;
}

std::size_t TimeSeriesStore::size() const {
  common::MutexLock lk(mu_);
  return size_;
}

std::size_t TimeSeriesStore::dropped() const {
  common::MutexLock lk(mu_);
  return dropped_;
}

namespace {

TimeSeriesWindow fold_window(double start, double end,
                             const std::vector<double>& sorted_values) {
  TimeSeriesWindow w;
  w.start = start;
  w.end = end;
  w.samples = static_cast<long long>(sorted_values.size());
  w.min = sorted_values.front();
  w.max = sorted_values.back();
  double sum = 0.0;
  for (const double v : sorted_values) sum += v;
  w.mean = sum / static_cast<double>(sorted_values.size());
  w.p50 = common::nearest_rank(sorted_values, 50.0);
  w.p99 = common::nearest_rank(sorted_values, 99.0);
  return w;
}

}  // namespace

TimeSeriesReport build_timeseries_report(const TimeSeriesStore& store,
                                         double window_seconds) {
  TimeSeriesReport report;
  report.window_seconds = window_seconds > 0.0 ? window_seconds : 0.0;
  report.samples_recorded = static_cast<long long>(store.size());
  report.samples_dropped = static_cast<long long>(store.dropped());

  for (auto& [name, raw] : store.snapshot()) {
    // Sort by (time, value) so the rollup is independent of recording
    // interleaving: any thread schedule yields the same sorted order,
    // hence the same summation order, mean, and percentiles.
    std::vector<TimeSeriesSample> samples = raw;
    std::sort(samples.begin(), samples.end(),
              [](const TimeSeriesSample& a, const TimeSeriesSample& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.value < b.value;
              });

    TimeSeriesRollup rollup;
    rollup.samples = static_cast<long long>(samples.size());
    if (!samples.empty()) {
      if (report.window_seconds <= 0.0) {
        // One window spanning the series.
        std::vector<double> values;
        values.reserve(samples.size());
        for (const auto& s : samples) values.push_back(s.value);
        std::sort(values.begin(), values.end());
        rollup.windows.push_back(fold_window(
            samples.front().time, samples.back().time, values));
      } else {
        const double w = report.window_seconds;
        std::size_t i = 0;
        while (i < samples.size()) {
          const auto k =
              static_cast<long long>(std::floor(samples[i].time / w));
          const double start = static_cast<double>(k) * w;
          const double end = static_cast<double>(k + 1) * w;
          std::vector<double> values;
          while (i < samples.size() && samples[i].time < end) {
            values.push_back(samples[i].value);
            ++i;
          }
          std::sort(values.begin(), values.end());
          rollup.windows.push_back(fold_window(start, end, values));
        }
      }
    }
    report.series.emplace(name, std::move(rollup));
  }
  return report;
}

void write_timeseries_json(const TimeSeriesReport& report, std::ostream& os) {
  os << "{\"meta\":{";
  bool first = true;
  for (const auto& [k, v] : report.meta) {
    if (!first) os << ',';
    first = false;
    write_json_string(k, os);
    os << ':';
    write_json_string(v, os);
  }
  os << "},\"samples_dropped\":" << report.samples_dropped
     << ",\"samples_recorded\":" << report.samples_recorded << ",\"series\":{";
  first = true;
  for (const auto& [name, rollup] : report.series) {
    if (!first) os << ',';
    first = false;
    write_json_string(name, os);
    os << ":{\"samples\":" << rollup.samples << ",\"windows\":[";
    bool first_w = true;
    for (const auto& w : rollup.windows) {
      if (!first_w) os << ',';
      first_w = false;
      os << "{\"end\":" << fmt_double(w.end) << ",\"max\":"
         << fmt_double(w.max) << ",\"mean\":" << fmt_double(w.mean)
         << ",\"min\":" << fmt_double(w.min) << ",\"p50\":"
         << fmt_double(w.p50) << ",\"p99\":" << fmt_double(w.p99)
         << ",\"samples\":" << w.samples << ",\"start\":"
         << fmt_double(w.start) << '}';
    }
    os << "]}";
  }
  os << "},\"timeseries_version\":" << TimeSeriesReport::kTimeseriesVersion
     << ",\"window_seconds\":" << fmt_double(report.window_seconds) << "}\n";
}

bool write_timeseries_json_file(const TimeSeriesReport& report,
                                const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_timeseries_json(report, os);
  return static_cast<bool>(os);
}

bool read_timeseries_json(std::istream& is, TimeSeriesReport* out) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  if (!parse_json(text, &root) || root.type != JsonValue::Type::Object) {
    return false;
  }
  long long version = 0;
  if (!json_get_count(root, "timeseries_version", &version) ||
      version != TimeSeriesReport::kTimeseriesVersion) {
    return false;
  }

  TimeSeriesReport report;
  if (const JsonValue* meta = root.find("meta");
      meta != nullptr && meta->type == JsonValue::Type::Object) {
    for (const auto& [k, v] : meta->members) {
      if (v.type != JsonValue::Type::String) return false;
      report.meta[k] = v.str;
    }
  }
  if (!json_get_number(root, "window_seconds", &report.window_seconds) ||
      !json_get_count(root, "samples_recorded", &report.samples_recorded) ||
      !json_get_count(root, "samples_dropped", &report.samples_dropped)) {
    return false;
  }

  const JsonValue* series = root.find("series");
  if (series == nullptr || series->type != JsonValue::Type::Object) {
    return false;
  }
  for (const auto& [name, body] : series->members) {
    if (body.type != JsonValue::Type::Object) return false;
    TimeSeriesRollup rollup;
    if (!json_get_count(body, "samples", &rollup.samples)) return false;
    const JsonValue* windows = body.find("windows");
    if (windows == nullptr || windows->type != JsonValue::Type::Array) {
      return false;
    }
    for (const auto& wv : windows->elements) {
      if (wv.type != JsonValue::Type::Object) return false;
      TimeSeriesWindow w;
      if (!json_get_number(wv, "start", &w.start) ||
          !json_get_number(wv, "end", &w.end) ||
          !json_get_count(wv, "samples", &w.samples) ||
          !json_get_number(wv, "min", &w.min) ||
          !json_get_number(wv, "max", &w.max) ||
          !json_get_number(wv, "mean", &w.mean) ||
          !json_get_number(wv, "p50", &w.p50) ||
          !json_get_number(wv, "p99", &w.p99)) {
        return false;
      }
      rollup.windows.push_back(w);
    }
    report.series.emplace(name, std::move(rollup));
  }

  *out = std::move(report);
  return true;
}

bool read_timeseries_json_file(const std::string& path,
                               TimeSeriesReport* out) {
  std::ifstream is(path);
  if (!is) return false;
  return read_timeseries_json(is, out);
}

}  // namespace ftla::obs
