// In-memory span log of the traced run. Each span records its name, start,
// end and parent span name; spans of one request (or one ledger batch)
// share an id. Nothing is written until the run ends.
#pragma once

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

#include "openloop.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;  ///< request or batch id shared by related spans
  const char* name = "";
  const char* parent = "";  ///< "" for a root span
  double start_s = 0.0;     ///< seconds since the log's epoch
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] double now_s() const { return seconds_between(epoch_, Clock::now()); }
  [[nodiscard]] std::uint64_t next_id() noexcept { return next_id_++; }

  void add(std::uint64_t id, const char* name, const char* parent,
           double start_s, double end_s) {
    if (enabled_) spans_.push_back({id, name, parent, start_s, end_s});
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// One JSON object per line: {"id","name","parent","start_s","end_s"}.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    os << std::setprecision(9);
    for (const Span& s : spans_) {
      os << "{\"id\":" << s.id << ",\"name\":\"" << s.name
         << "\",\"parent\":\"" << s.parent << "\",\"start_s\":" << s.start_s
         << ",\"end_s\":" << s.end_s << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
