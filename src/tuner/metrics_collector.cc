#include "tuner/metrics_collector.h"

#include <sstream>
#include <string>

#include "util/check.h"

namespace cdbtune::tuner {

MetricsCollector::MetricsCollector()
    : standardizer_(env::kNumInternalMetrics) {}

std::vector<double> MetricsCollector::ProcessRaw(
    const env::StressResult& result) const {
  CDBTUNE_CHECK(result.duration_s > 0.0) << "zero-length stress interval";
  std::vector<double> state(env::kNumInternalMetrics);
  for (size_t i = 0; i < env::kNumInternalMetrics; ++i) {
    if (env::InternalMetricKind(i) == env::MetricKind::kState) {
      // Gauges: the environment reports the interval-average value in the
      // closing snapshot.
      state[i] = result.after[i];
    } else {
      // Counters: difference across the interval, per second.
      state[i] = (result.after[i] - result.before[i]) / result.duration_s;
    }
  }
  return state;
}

std::vector<double> MetricsCollector::Process(const env::StressResult& result) {
  std::vector<double> raw = ProcessRaw(result);
  standardizer_.Observe(raw);
  return standardizer_.Transform(raw);
}

std::vector<double> MetricsCollector::Standardize(
    const std::vector<double>& raw) const {
  return standardizer_.Transform(raw);
}

PerfPoint MetricsCollector::ToPerfPoint(const env::ExternalMetrics& external) {
  PerfPoint p;
  p.throughput = external.throughput_tps;
  p.latency = external.latency_p99_ms;
  return p;
}

void MetricsCollector::SaveBinary(persist::Encoder& enc) const {
  std::ostringstream os;
  standardizer_.SaveState(os);
  enc.WriteString(os.str());
}

util::Status MetricsCollector::LoadBinary(persist::Decoder& dec) {
  std::string text;
  if (!dec.ReadString(&text)) return dec.status();
  std::istringstream is(text);
  return standardizer_.LoadState(is);
}

}  // namespace cdbtune::tuner
