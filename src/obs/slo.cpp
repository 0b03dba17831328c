#include "obs/slo.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"

namespace ftla::obs {

const char* to_string(SloKind k) {
  switch (k) {
    case SloKind::Availability: return "availability";
    case SloKind::LatencyP99: return "latency_p99";
    case SloKind::ZeroSdc: return "zero_sdc";
  }
  return "unknown";
}

double SloState::burn_rate() const {
  const double bad_frac = bad_fraction();
  if (bad_frac <= 0.0) return 0.0;
  const double budget = 1.0 - spec.objective;
  if (budget <= 0.0) return kMaxBurnRate;
  return std::min(bad_frac / budget, kMaxBurnRate);
}

std::vector<SloSpec> SloEngine::default_fleet_slos(
    double latency_threshold_s) {
  std::vector<SloSpec> specs;
  SloSpec avail;
  avail.name = "availability";
  avail.kind = SloKind::Availability;
  avail.objective = 0.99;
  specs.push_back(avail);
  SloSpec lat;
  lat.name = "job_latency";
  lat.kind = SloKind::LatencyP99;
  lat.objective = 0.99;
  lat.latency_threshold_s = latency_threshold_s;
  specs.push_back(lat);
  SloSpec sdc;
  sdc.name = "zero_sdc";
  sdc.kind = SloKind::ZeroSdc;
  sdc.objective = 1.0;
  specs.push_back(sdc);
  return specs;
}

void SloEngine::add(const SloSpec& spec) {
  common::MutexLock lk(mu_);
  SloState st;
  st.spec = spec;
  states_.push_back(st);
}

void SloEngine::record_job(double time, bool success, bool sdc,
                           double latency_s) {
  std::vector<Event> alerts;
  {
    common::MutexLock lk(mu_);
    latencies_.push_back(latency_s);
    for (SloState& st : states_) {
      bool is_bad = false;
      switch (st.spec.kind) {
        case SloKind::Availability: is_bad = !success; break;
        case SloKind::LatencyP99:
          is_bad = latency_s > st.spec.latency_threshold_s;
          break;
        case SloKind::ZeroSdc: is_bad = sdc; break;
      }
      ++st.total;
      if (is_bad) ++st.bad;
      const bool over = st.burn_rate() > st.spec.alert_burn_rate;
      if (over && !st.alerting) {
        // Threshold crossing: latch and emit one alert event. The
        // latch only releases if the burn rate later drops back under
        // the threshold, so a steady burn fires exactly once.
        st.alerting = true;
        st.alert_time = time;
        ++alerts_;
        Event e;
        e.kind = EventKind::Alert;
        e.time = time;
        e.end = time;
        e.name = std::string("slo:") + st.spec.name;
        e.value = st.burn_rate();
        e.value2 = st.spec.alert_burn_rate;
        e.detail = std::string("burn rate crossed threshold (") +
                   to_string(st.spec.kind) + ")";
        alerts.push_back(e);
      } else if (!over && st.alerting) {
        st.alerting = false;
      }
    }
  }
  if (sink_ != nullptr) {
    for (const Event& e : alerts) sink_->post(e);
  }
}

std::vector<SloState> SloEngine::states() const {
  common::MutexLock lk(mu_);
  return states_;
}

double SloEngine::latency_p99() const {
  common::MutexLock lk(mu_);
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  return common::nearest_rank(sorted, 99.0);
}

void SloEngine::export_metrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  const std::vector<SloState> states = this->states();
  for (const SloState& st : states) {
    const std::string base = "slo." + st.spec.name;
    metrics->add_counter(base + ".total", st.total);
    metrics->add_counter(base + ".bad", st.bad);
    metrics->set_gauge(base + ".objective", st.spec.objective);
    metrics->set_gauge(base + ".burn_rate", st.burn_rate());
    metrics->set_gauge(base + ".alerting", st.alerting ? 1.0 : 0.0);
  }
  metrics->set_gauge("slo.latency_p99_s", latency_p99());
  metrics->add_counter("slo.alerts", alerts_fired());
}

std::int64_t SloEngine::alerts_fired() const {
  common::MutexLock lk(mu_);
  return alerts_;
}

}  // namespace ftla::obs
