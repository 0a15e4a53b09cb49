// Machine-readable benchmark report sections.
//
// Each bench binary owns one top-level section of a shared JSON file
// (BENCH.json by default, overridable via ITV_BENCH_REPORT). A binary
// builds its ReportSection, then WriteMerged() reads the existing file,
// replaces only that binary's section, and writes the merged object back —
// so CI can run the bench binaries in any order and end up with one
// artifact. Parsing reuses json::SplitTopLevelObject; no JSON library.

#ifndef BENCH_BENCH_REPORT_H_
#define BENCH_BENCH_REPORT_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"

namespace itv::bench {

inline std::string ReportPath() {
  const char* env = std::getenv("ITV_BENCH_REPORT");
  return env != nullptr ? std::string(env) : std::string("BENCH.json");
}

class ReportSection {
 public:
  explicit ReportSection(std::string name) : name_(std::move(name)) {}

  void Set(const std::string& key, double value) {
    char buf[64];
    if (!std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "0");
    } else {
      std::snprintf(buf, sizeof(buf), "%.6g", value);
    }
    Put(key, buf);
  }

  void SetInt(const std::string& key, uint64_t value) {
    Put(key, std::to_string(value));
  }

  void SetText(const std::string& key, const std::string& value) {
    Put(key, "\"" + json::Escape(value) + "\"");
  }

  // Renders this section as a JSON object (insertion order preserved).
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += "\n    \"" + json::Escape(entries_[i].first) +
             "\": " + entries_[i].second;
    }
    out += entries_.empty() ? "}" : "\n  }";
    return out;
  }

  // Merges this section into the shared report file. A missing or corrupt
  // existing file starts fresh rather than failing the bench run.
  bool WriteMerged(const std::string& path = ReportPath()) const {
    std::map<std::string, std::string> members;
    std::string existing = ReadWholeFile(path);
    if (!existing.empty()) {
      if (!json::SplitTopLevelObject(existing, &members)) {
        members.clear();
      }
    }
    members[name_] = Render();
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : members) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "  \"" + json::Escape(key) + "\": " + value;
    }
    out += "\n}\n";
    if (!json::ValidateSyntax(out)) {
      std::fprintf(stderr, "bench_report: refusing to write invalid JSON\n");
      return false;
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_report: cannot open %s\n", path.c_str());
      return false;
    }
    size_t written = std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    if (written != out.size()) {
      return false;
    }
    std::fprintf(stderr, "[report] wrote section \"%s\" to %s\n", name_.c_str(),
                 path.c_str());
    return true;
  }

 private:
  void Put(const std::string& key, std::string rendered) {
    for (auto& entry : entries_) {
      if (entry.first == key) {
        entry.second = std::move(rendered);
        return;
      }
    }
    entries_.emplace_back(key, std::move(rendered));
  }

  static std::string ReadWholeFile(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return {};
    }
    std::string data;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.append(buf, n);
    }
    std::fclose(f);
    return data;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Wall-clock ns/op for a closure, self-calibrating to ~100ms of work.
// Used for the report numbers so they exist even when a binary's main
// harness (google-benchmark, cluster sim) reports in other units.
template <typename F>
double MeasureNsPerOp(F&& fn) {
  using Clock = std::chrono::steady_clock;
  uint64_t iters = 1;
  for (;;) {
    auto start = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) {
      fn();
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start)
                       .count();
    if (elapsed >= 100'000'000 || iters >= (uint64_t{1} << 30)) {
      return static_cast<double>(elapsed) / static_cast<double>(iters);
    }
    uint64_t next = (elapsed <= 0) ? iters * 16
                                   : static_cast<uint64_t>(
                                         iters * (110'000'000.0 /
                                                  static_cast<double>(elapsed)));
    iters = next > iters ? next : iters * 2;
  }
}

}  // namespace itv::bench

#endif  // BENCH_BENCH_REPORT_H_
