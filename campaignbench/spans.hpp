// In-memory span log for the traced pass of the campaign benchmark.
//
// Spans are opened and closed only by the benchmark's own code, around
// calls into the libraries' public functions. Each span records its name,
// host start/end (steady clock, ns), its parent span and the trial it
// belongs to. Nothing is written while the pass runs; write_jsonl() dumps
// the whole log at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace campaignbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 for a root
    std::uint64_t trial;
  };

  /// Runs `fn` inside a span named `name` (a string literal) and returns
  /// what it returns.
  template <class Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    const std::int32_t id = open(name);
    struct Closer {
      SpanLog* log;
      std::int32_t id;
      ~Closer() { log->close(id); }
    } closer{this, id};
    return std::forward<Fn>(fn)();
  }

  void set_trial(std::uint64_t trial) { trial_ = trial; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Self time in ms per span name: duration minus the time its direct
  /// children cover.
  std::map<std::string, double> self_ms() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                     1e6;
    }
    return out;
  }

  /// Total (inclusive) time in ms per span name.
  std::map<std::string, double> total_ms() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
    return out;
  }

  /// One JSON object per span, in open order.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"trial\":%llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.trial));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t open(const char* name) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, trial_});
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t trial_ = 0;
};

}  // namespace campaignbench
