#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace servebench {

int Trace::Begin(std::string name, std::uint64_t request, int parent) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = NowUs();
}

std::vector<double> Trace::SelfTimesUs() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>>& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = s.start_us;
    for (const auto& [b, e] : iv) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, s.end_us);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end_us));
    }
    self[i] = s.duration_us() - covered;
  }
  return self;
}

void Trace::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%d,\"parent\":%d,\"request\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.request),
                 s.name.c_str(), s.start_us, s.end_us);
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error("error closing trace file " + path);
  }
}

}  // namespace servebench
