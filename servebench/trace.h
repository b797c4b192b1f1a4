// In-memory span recorder and self-time reducer for the serving benchmark's
// traced run. Spans are recorded only by the benchmark, around its calls into
// each layer of the tuning server; they stay in memory and are written out
// once, when the run ends.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace servebench {

/// One timed interval. `id` is 1-based (its index in the recorder plus one);
/// `parent` 0 marks a root. Spans of one request share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// Thread-safe span recorder. Begin/End may be called from any thread; a
/// span's End must follow its Begin.
class Tracer {
 public:
  uint64_t NewRequest();
  uint64_t Begin(std::string_view name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  /// Records an already-measured interval.
  uint64_t Add(std::string_view name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  /// Copy of every span recorded so far, in id order.
  std::vector<Span> Snapshot() const;

  /// Writes the spans as a JSON array, one object per line.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 0;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

/// Length of the union of [start, end) intervals, each first clipped to
/// [lo, hi). Overlapping intervals are counted once.
int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

/// Self time of every span (index-aligned with `spans`, whose ids must be
/// 1..n in order): its duration minus the union of its children's
/// intervals, so children that overlap (a parallel fan-out) are not
/// subtracted twice.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Share of root time that no child span covers: sum of root self time over
/// sum of root duration, over the roots that have children. 0 when there
/// are none.
double UnattributedFraction(const std::vector<Span>& spans,
                            const std::vector<int64_t>& self_ns);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
