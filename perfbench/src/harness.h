// Shared machinery of the canonical benchmark: sample statistics, the span
// recorder used by traced runs, the result document, and run metadata.
//
// Nothing here instruments the program: spans are recorded by the
// benchmark's own code around calls into the library's public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process's benchmark epoch (first call).
int64_t NowNs();
/// Seconds between two NowNs() stamps.
inline double SecondsBetween(int64_t a, int64_t b) { return (b - a) * 1e-9; }

/// Linear-interpolated quantile of `v` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
double Mean(const std::vector<double>& v);
/// The highest of p99/p95/p90/p50 with at least ten samples beyond it
/// (choosing-metrics §1); returns the quantile used through `q_used`.
double SupportedTail(const std::vector<double>& v, double* q_used);

/// Process peak resident set size in MiB (getrusage ru_maxrss).
double PeakRssMiB();

/// Share of all CPU time the host stole from this machine's CPUs since the
/// previous call (or process start): a noise diagnostic stamped on results.
double HostStealFrac();

/// Memory bandwidth of one thread summing a 32 MiB buffer, in GB/s: a
/// diagnostic of how contended the host's memory system was during a run.
double StreamProbeGBps();

// ------------------------------------------------------------------ spans ---

/// One recorded interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same log (-1 for a root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  int parent = -1;
  int64_t request = -1;
  double Micros() const { return (end_ns - start_ns) * 1e-3; }
};

/// In-memory span log, written out once at the end of a traced run.
/// Thread-safe: the front-end and engine replays record from client threads.
class SpanLog {
 public:
  /// Opens a span starting now and returns its index.
  int Open(const std::string& name, int parent, int64_t request);
  /// Closes span `id` now.
  void Close(int id);
  /// Records a finished span with explicit stamps.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, int64_t request);

  /// Durations (us) of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Per-span self time (us): duration minus the union of its children,
  /// for every closed span called `name`. Children of one span never
  /// overlap in the serial replay, so the union is their sum.
  std::vector<double> SelfMicros(const std::string& name) const;

  /// Writes every span as one JSON array to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span for serial replays.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent,
             int64_t request)
      : log_(log), id_(log->Open(name, parent, request)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --------------------------------------------------------- registry deltas ---

/// Bucket counts of one registry histogram at an instant; subtracting two
/// gives the distribution of the observations made in between.
struct HistogramMark {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;
};
HistogramMark MarkHistogram(const std::string& name);
/// Quantile (bucket upper bound, like the registry's own estimate) and count
/// of the observations between `before` and `after`.
double DeltaQuantile(const HistogramMark& before, const HistogramMark& after,
                     double q, uint64_t* count = nullptr);

// ------------------------------------------------------------------ result ---

/// One metric as reported: value, unit and how many samples it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Everything one run reports. Serialised to the result file that
/// run.py turns into the summary line.
struct RunResult {
  std::string workload;
  int trace = 0;
  uint64_t seed = 0;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<std::pair<std::string, bool>> checks;  ///< name -> passed
  std::vector<std::string> check_details;            ///< failures only
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed + shed + timed-out + check-failed
  std::map<std::string, Metric> end_to_end;  ///< the gated role metrics
  std::map<std::string, Metric> workload_metrics;  ///< the 11 named ones
  std::map<std::string, Metric> per_layer;

  void Meta(const std::string& key, const std::string& value);
  void MetaNum(const std::string& key, double value);
  /// Records a correctness check; a failure counts one failed operation.
  bool Check(const std::string& name, bool ok, const std::string& detail = "");
  bool correct() const;

  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;
  /// Human-readable report on stdout.
  void Print() const;
};

/// Reports setup_s as the median of a run's set-ups and records each one
/// in the meta (run.setup_reps_s).
void RecordSetups(const std::vector<double>& setups, RunResult* r);

/// Machine fields stamped on every result (compare.py refuses to diff two
/// results whose machine fields differ).
void StampMachineMeta(RunResult* r);

}  // namespace perfbench
