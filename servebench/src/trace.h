// In-memory span recorder of the benchmark's traced run.
//
// Every span has a name, a start and an end (microseconds on the steady
// clock since the recorder was created), the id of the span that caused it
// and the id of the replayed request it belongs to. Spans stay in memory
// while the benchmark runs and are written out once, at exit, as JSON lines.
// A span's self time is its duration minus the part of its interval that its
// children cover; summing self times over a request therefore accounts for
// exactly the request span's duration, and the root's own self time is the
// part no timer covered.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace servebench {

struct Span {
  std::string name;
  std::uint64_t request = 0;
  int id = 0;
  int parent = -1;  // -1: a root span
  double start_us = 0.0;
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

class Trace {
 public:
  /// Opens a span and returns its id.
  int Begin(std::string name, std::uint64_t request, int parent);
  void End(int id);

  /// Runs `fn` inside a span named `name` and returns what it returns.
  template <class Fn>
  auto Time(std::string name, std::uint64_t request, int parent, Fn&& fn) {
    const int id = Begin(std::move(name), request, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(id);
    } else {
      auto result = fn();
      End(id);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<double> SelfTimesUs() const;

  /// Writes one JSON object per span.
  void WriteJsonLines(const std::string& path) const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace servebench
