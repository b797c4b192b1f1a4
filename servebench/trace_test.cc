// Checks the self-time reducer on a synthetic span tree whose children
// overlap (a fan-out) and reach past their parent. Exits non-zero on the
// first failed expectation.
//
//   .bench_build/servebench/trace_test
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

servebench::Span MakeSpan(uint64_t id, uint64_t parent, int64_t start,
                          int64_t end) {
  servebench::Span span;
  span.id = id;
  span.parent = parent;
  span.request = 1;
  span.name = "s" + std::to_string(id);
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

}  // namespace

int main() {
  using servebench::Span;
  // root [0,100)
  //   fanout [10,90)
  //     task A [10,60), task B [20,70), task C [65,80) — A and B overlap
  //       A's child [15,25)
  //   late child [95,120) — runs past the root's end, clipped to 5
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),  MakeSpan(2, 1, 10, 90), MakeSpan(3, 2, 10, 60),
      MakeSpan(4, 2, 20, 70),  MakeSpan(5, 2, 65, 80), MakeSpan(6, 3, 15, 25),
      MakeSpan(7, 1, 95, 120),
  };
  const std::vector<int64_t> self = servebench::SelfTimesNs(spans);
  // root: 100 - |[10,90) u [95,100)| = 100 - 85.
  Expect(self[0] == 15, "root self time subtracts the union of its children");
  // fanout: 80 - |[10,70) u [65,80)| = 80 - 70; a plain sum would give -5.
  Expect(self[1] == 10, "overlapping children are subtracted once");
  Expect(self[2] == 40, "task A subtracts its own child");
  Expect(self[3] == 50 && self[4] == 15, "leaves keep their duration");
  Expect(self[6] == 25, "a span's own self time is not clipped");

  Expect(servebench::UnionLengthNs({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25,
         "union of partly overlapping intervals");
  Expect(servebench::UnionLengthNs({{0, 10}, {2, 4}}, 0, 100) == 10,
         "a contained interval adds nothing");
  Expect(servebench::UnionLengthNs({}, 0, 100) == 0, "empty union");

  // One root with children: unattributed = 15 / 100.
  const double frac = servebench::UnattributedFraction(spans, self);
  Expect(frac > 0.1499 && frac < 0.1501, "unattributed fraction of roots");

  // The recorder assigns 1-based ids and links parents.
  servebench::Tracer tracer;
  const uint64_t request = tracer.NewRequest();
  uint64_t root = 0;
  {
    servebench::ScopedSpan outer(tracer, "outer", 0, request);
    root = outer.id();
    servebench::ScopedSpan inner(tracer, "inner", outer.id(), request);
  }
  const std::vector<Span> recorded = tracer.Snapshot();
  Expect(recorded.size() == 2 && recorded[0].id == root &&
             recorded[1].parent == root && recorded[1].request == request,
         "recorder links child to parent under one request");
  Expect(recorded.size() == 2 && recorded[1].start_ns >= recorded[0].start_ns &&
             recorded[1].end_ns <= recorded[0].end_ns,
         "a scoped child ends inside its parent");

  if (failures == 0) std::printf("trace_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
