// Shared helpers of the benchmark harness: argument lookup, file I/O,
// clocks, order statistics, a flat JSON object writer and the span
// recorder of the traced run.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// "--name=value" or "--name value" from argv; `fallback` when absent.
inline std::string Arg(int argc, char** argv, const std::string& name,
                       const std::string& fallback = "") {
  const std::string flag = "--" + name;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
    if (a == flag && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

inline int64_t IntArg(int argc, char** argv, const std::string& name,
                      int64_t fallback) {
  const std::string v = Arg(argc, argv, name);
  return v.empty() ? fallback : std::strtoll(v.c_str(), nullptr, 10);
}

inline bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

inline bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile q in [0, 1] of `values` (copied, then sorted).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// A flat JSON object of numbers, strings and number lists.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    fields_.emplace_back(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (c == '\n') {
        quoted += "\\n";
        continue;
      }
      quoted += c;
    }
    fields_.emplace_back(key, quoted + "\"");
  }
  void Bool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void List(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", values[i]);
      out += buf;
    }
    fields_.emplace_back(key, out + "]");
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", \"" : "\"") + fields_[i].first + "\": " +
             fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Records spans (name, start, end, parent) in memory. Code that takes
/// a Tracer* runs untraced when handed null.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(const std::string& name) {
    spans_.push_back({name, Now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int id) {
    spans_[id].end = Now();
    open_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (the name's text before the first '.'): each
  /// span's duration minus the part its direct children cover.
  std::map<std::string, double> LayerSelfSeconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const std::string& name = spans_[i].name;
      out[name.substr(0, name.find('.'))] +=
          spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  /// Chrome trace-event JSON of every span.
  std::string ChromeJson() const {
    std::string out = "{\"traceEvents\": [\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %zu, \"parent\": %d}}",
                    i ? ",\n" : "", spans_[i].name.c_str(),
                    spans_[i].start * 1e6,
                    (spans_[i].end - spans_[i].start) * 1e6, i,
                    spans_[i].parent);
      out += buf;
    }
    return out + "\n]}\n";
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span; a no-op when `tracer` is null.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Subcommands (one translation unit each).
int RunPhylo(int argc, char** argv);
int RunSession(int argc, char** argv);
int RunTrace(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
