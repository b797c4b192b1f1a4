#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_request_;
}

uint64_t Tracer::Begin(std::string_view name, uint64_t parent,
                       uint64_t request) {
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void Tracer::End(uint64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t Tracer::Add(std::string_view name, uint64_t parent, uint64_t request,
                     int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::string(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::clamp(start, lo, hi);
    end = std::clamp(end, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t covered_to = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, covered_to);
    if (end > from) {
      total += end - from;
      covered_to = end;
    }
  }
  return total;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.duration_ns() -
              UnionLengthNs(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

double UnattributedFraction(const std::vector<Span>& spans,
                            const std::vector<int64_t>& self_ns) {
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) has_child[s.parent - 1] = true;
  }
  double self_total = 0.0;
  double duration_total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 || !has_child[i]) continue;
    self_total += static_cast<double>(self_ns[i]);
    duration_total += static_cast<double>(spans[i].duration_ns());
  }
  return duration_total > 0.0 ? self_total / duration_total : 0.0;
}

}  // namespace servebench
