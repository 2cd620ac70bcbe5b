#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "util/parallel.h"
#include "util/string_util.h"

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Exact ranks and equal neighbours return the sample itself, so an
  // infinite sample (a failed request) gives inf, never 0 * inf = NaN.
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double SupportedTail(const std::vector<double>& v, double* q_used) {
  for (double q : {0.99, 0.95, 0.90}) {
    if ((1.0 - q) * static_cast<double>(v.size()) >= 10.0) {
      if (q_used != nullptr) *q_used = q;
      return Quantile(v, q);
    }
  }
  if (q_used != nullptr) *q_used = 0.5;
  return Quantile(v, 0.5);
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HostStealFrac() {
  static uint64_t last_steal = 0, last_total = 0;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[10] = {0};
  stat >> cpu;
  for (uint64_t& x : v) stat >> x;
  uint64_t total = 0;
  for (int i = 0; i < 8; ++i) total += v[i];  // guest time is already in user
  const uint64_t steal = v[7];
  const double frac =
      total > last_total
          ? static_cast<double>(steal - last_steal) /
                static_cast<double>(total - last_total)
          : 0.0;
  last_steal = steal;
  last_total = total;
  return frac;
}

double StreamProbeGBps() {
  std::vector<double> buf(4u << 20, 1.0);  // 32 MiB
  double sum = 0.0;
  const int64_t start = NowNs();
  for (int rep = 0; rep < 4; ++rep) {
    for (double x : buf) sum += x;
  }
  const double s = SecondsBetween(start, NowNs());
  // The sum is always 4 * size; comparing it keeps the loop alive.
  return sum == 4.0 * static_cast<double>(buf.size())
             ? 4.0 * static_cast<double>(buf.size() * sizeof(double)) / s * 1e-9
             : 0.0;
}

// ------------------------------------------------------------------ spans ---

int SpanLog::Open(const std::string& name, int parent, int64_t request) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, -1, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int SpanLog::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int parent, int64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) out.push_back(s.Micros());
  }
  return out;
}

std::vector<double> SpanLog::SelfMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.Micros();
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && spans_[i].end_ns >= 0) {
      out.push_back(spans_[i].Micros() - child_us[i]);
    }
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%lld}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

// --------------------------------------------------------- registry deltas ---

HistogramMark MarkHistogram(const std::string& name) {
  HistogramMark m;
  const bsg::obs::RegistrySnapshot snap =
      bsg::obs::MetricsRegistry::Global().Snapshot();
  if (const bsg::obs::HistogramSnapshot* h = snap.FindHistogram(name)) {
    m.bounds = h->bounds;
    m.buckets = h->buckets;
    m.count = h->count;
    m.sum = h->sum;
  }
  return m;
}

double DeltaQuantile(const HistogramMark& before, const HistogramMark& after,
                     double q, uint64_t* count) {
  std::vector<uint64_t> delta(after.buckets.size(), 0);
  uint64_t total = 0;
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    const uint64_t b = i < before.buckets.size() ? before.buckets[i] : 0;
    delta[i] = after.buckets[i] - b;
    total += delta[i];
  }
  if (count != nullptr) *count = total;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    seen += delta[i];
    if (static_cast<double>(seen) >= rank && delta[i] > 0) {
      return i < after.bounds.size() ? after.bounds[i] : after.bounds.back();
    }
  }
  return after.bounds.empty() ? 0.0 : after.bounds.back();
}

// ------------------------------------------------------------------ result ---

namespace {

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += bsg::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  return bsg::StrFormat("%.17g", v);
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += bsg::StrFormat(
        "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", \"samples\": %llu}",
        first ? "" : ",", Escaped(name).c_str(), Num(metric.value).c_str(),
        Escaped(metric.unit).c_str(),
        static_cast<unsigned long long>(metric.samples));
    first = false;
  }
  return out + "\n  }";
}

}  // namespace

void RunResult::Meta(const std::string& key, const std::string& value) {
  meta.emplace_back(key, value);
}

void RunResult::MetaNum(const std::string& key, double value) {
  meta.emplace_back(key, bsg::StrFormat("%.17g", value));
}

bool RunResult::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.emplace_back(name, ok);
  if (!ok) {
    ++failed;
    check_details.push_back(name + ": " + detail);
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                 detail.c_str());
  }
  return ok;
}

bool RunResult::correct() const {
  if (checks.empty()) return false;
  for (const auto& c : checks) {
    if (!c.second) return false;
  }
  return true;
}

std::string RunResult::ToJson() const {
  std::string out = "{\n";
  out += bsg::StrFormat("  \"workload\": \"%s\",\n  \"trace\": %d,\n",
                        Escaped(workload).c_str(), trace);
  out += bsg::StrFormat("  \"seed\": %llu,\n",
                        static_cast<unsigned long long>(seed));
  out += "  \"meta\": {";
  for (size_t i = 0; i < meta.size(); ++i) {
    out += bsg::StrFormat("%s\n    \"%s\": \"%s\"", i ? "," : "",
                          Escaped(meta[i].first).c_str(),
                          Escaped(meta[i].second).c_str());
  }
  out += "\n  },\n  \"checks\": {";
  for (size_t i = 0; i < checks.size(); ++i) {
    out += bsg::StrFormat("%s\n    \"%s\": %s", i ? "," : "",
                          Escaped(checks[i].first).c_str(),
                          checks[i].second ? "true" : "false");
  }
  out += "\n  },\n  \"check_failures\": [";
  for (size_t i = 0; i < check_details.size(); ++i) {
    out += bsg::StrFormat("%s\"%s\"", i ? ", " : "",
                          Escaped(check_details[i]).c_str());
  }
  out += bsg::StrFormat(
      "],\n  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
      correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  out += "  \"end_to_end\": " + MetricsJson(end_to_end) + ",\n";
  out += "  \"workload_metrics\": " + MetricsJson(workload_metrics) + ",\n";
  out += "  \"per_layer\": " + MetricsJson(per_layer) + "\n}\n";
  return out;
}

bool RunResult::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  f << ToJson();
  return static_cast<bool>(f);
}

void RunResult::Print() const {
  std::printf("== %s (seed %llu, trace %d)\n", workload.c_str(),
              static_cast<unsigned long long>(seed), trace);
  for (const auto& [k, v] : meta) {
    std::printf("  meta %-28s %s\n", k.c_str(), v.c_str());
  }
  auto print = [](const char* title, const std::map<std::string, Metric>& m) {
    if (m.empty()) return;
    std::printf("  -- %s\n", title);
    for (const auto& [name, metric] : m) {
      std::printf("  %-44s %14.6g %-8s n=%llu\n", name.c_str(), metric.value,
                  metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    }
  };
  print("workload metrics", workload_metrics);
  print("end-to-end (gated)", end_to_end);
  print("per-layer", per_layer);
  for (const auto& [name, ok] : checks) {
    std::printf("  check %-40s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  std::printf("  verdict: %s (attempted %llu, failed %llu)\n",
              correct() ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
}

void RecordSetups(const std::vector<double>& setups, RunResult* r) {
  r->end_to_end["setup_s"] = Metric{Median(setups), "s", setups.size()};
  r->workload_metrics["setup_s"] = r->end_to_end["setup_s"];
  std::string reps;
  for (double x : setups) {
    reps += bsg::StrFormat("%s%.3f", reps.empty() ? "" : " ", x);
  }
  r->Meta("run.setup_reps_s", reps);
}

void StampMachineMeta(RunResult* r) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) affinity = CPU_COUNT(&set);
  r->MetaNum("machine.nproc", affinity);
  r->MetaNum("machine.hardware_concurrency",
             static_cast<double>(std::thread::hardware_concurrency()));
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  r->Meta("machine.cpu_model", model);
#if defined(__clang__)
  r->Meta("machine.compiler", "clang " __clang_version__);
#else
  r->Meta("machine.compiler", "gcc " __VERSION__);
#endif
  std::string simd;
#ifdef __SSE2__
  simd += "sse2 ";
#endif
#ifdef __SSE4_2__
  simd += "sse4.2 ";
#endif
#ifdef __AVX__
  simd += "avx ";
#endif
#ifdef __AVX2__
  simd += "avx2 ";
#endif
#ifdef __FMA__
  simd += "fma ";
#endif
#ifdef __AVX512F__
  simd += "avx512f ";
#endif
  if (!simd.empty()) simd.pop_back();
  r->Meta("machine.simd", simd);
  r->Meta("machine.cxx_flags", PERFBENCH_CXX_FLAGS);
  r->MetaNum("machine.intra_op_threads", bsg::NumThreads());
}

}  // namespace perfbench
