#include "trace.hpp"

#include <cstdio>

#include "scenario/json.hpp"

namespace perfbench {

SpanRecorder::Id SpanRecorder::begin(std::string name, Id parent) {
  if (!enabled_) return 0;
  spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
  return static_cast<Id>(spans_.size());
}

void SpanRecorder::end(Id id) {
  if (id == 0) return;
  spans_[id - 1].end = Clock::now();
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%u}}\n",
                 i == 0 ? "" : ",",
                 annoc::scenario::json_quote(s.name).c_str(), us(s.start),
                 us(s.end) - us(s.start), i + 1, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::uint64_t CountingSink::total() const {
  std::uint64_t n = commands + arbitrations + gss_events + requests + forks +
                    joins + subpackets + dpq_grants + dpq_retires + other;
  for (const std::uint64_t s : stalls) n += s;
  return n;
}

}  // namespace perfbench
