// The two serving workloads.
//
// backfill: every account of the serving graph scored once per pass with
//   f64 precision, closed loop (one engine-width batch outstanding per
//   client). Every target is a cache miss, so assembly and cache writes
//   dominate; logits must be bit-identical to Bsg4Bot::PredictLogits.
// lookup: single-target f32 requests, open loop on a seeded Poisson
//   schedule over a Zipf-popular hot set that fits the cache. Queueing,
//   per-call engine overhead and the serialised forward dominate.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <tuple>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

using namespace bsg;

namespace {

// --- lookup constants, frozen: never computed at run time ------------------
// lo/hi are 1/3 and 2/3 of 6.6k req/s, the low end of the open-loop
// capacity (the highest Poisson rate meeting the p99 limit without
// shedding) that a rate search found on the commit that introduced this
// benchmark; see perfbench/README.md.
constexpr double kLoRps = 2200.0;
constexpr double kHiRps = 4400.0;
constexpr double kP99LimitMs = 20.0;  ///< lookup latency limit
constexpr int kHotSet = 2048;        ///< < default cache capacity (4096)
constexpr double kZipfExponent = 1.0;
/// Requests per block of the block quantiles (see MedianBlockQuantile).
constexpr size_t kTailBlock = 1000;
/// Window of the capacity phase's completion rate (see RunClosedPhase).
constexpr double kWindowS = 0.25;
/// Capacity phase: closed-loop clients, each keeping this many requests
/// outstanding (32 in all, far below the queue capacity).
constexpr int kSaturationClients = 2;
constexpr int kSaturationDepth = 16;
/// Slices of the unloaded phase (see RunLookup).
constexpr int kIdleSlices = 4;

/// Latency recorded for a failed, shed or timed-out request: it misses
/// every latency limit, so it lands in the tail and never pulls it down.
constexpr double kFailedLatencyMs = std::numeric_limits<double>::infinity();

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void StampServingMeta(const ServingWorld& w, int clients, RunResult* r) {
  const HeteroGraph& g = *w.built.graph;
  r->MetaNum("graph.nodes", g.num_nodes);
  r->MetaNum("graph.relations", g.num_relations());
  size_t edges = 0;
  for (const Csr& c : g.relations) edges += c.num_edges();
  r->MetaNum("graph.edges", static_cast<double>(edges));
  r->MetaNum("serve.frontend_workers", w.frontend->config().workers);
  r->MetaNum("serve.queue_capacity",
             static_cast<double>(w.frontend->config().queue_capacity));
  r->MetaNum("serve.cache_capacity",
             static_cast<double>(w.engine->cache().capacity()));
  r->MetaNum("serve.engine_batch", w.engine->batch_size());
  r->MetaNum("serve.clients", clients);
}

void AddRssMetric(double rss_mb, RunResult* r) {
  r->end_to_end["peak_rss_mb"] = Metric{rss_mb, "MiB", 1};
  r->workload_metrics["peak_rss_mb"] = r->end_to_end["peak_rss_mb"];
}

/// Every request of the workload was served. A failure is also counted in
/// `failed`; this check makes the run incorrect as well.
void CheckNoFailures(const char* name, uint64_t failed, uint64_t attempted,
                     RunResult* r) {
  r->Check(name, failed == 0,
           StrFormat("%llu of %llu requests failed, shed or timed out",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted)));
}

void AddFailedFrac(RunResult* r) {
  r->workload_metrics["failed_frac"] =
      Metric{r->attempted == 0 ? 1.0
                               : static_cast<double>(r->failed) /
                                     static_cast<double>(r->attempted),
             "ratio", r->attempted};
}

/// Checks exact request and target conservation of the front-end against
/// what the clients submitted.
void CheckConservation(const FrontendStats& fs, uint64_t requests,
                       uint64_t targets, uint64_t client_ok,
                       RunResult* r) {
  r->Check("conservation.requests",
           fs.submitted_requests == requests &&
               fs.AccountedRequests() == fs.submitted_requests &&
               fs.served_requests == client_ok,
           StrFormat("submitted %llu (clients %llu), accounted %llu, served "
                     "%llu (clients ok %llu)",
                     static_cast<unsigned long long>(fs.submitted_requests),
                     static_cast<unsigned long long>(requests),
                     static_cast<unsigned long long>(fs.AccountedRequests()),
                     static_cast<unsigned long long>(fs.served_requests),
                     static_cast<unsigned long long>(client_ok)));
  r->Check("conservation.targets",
           fs.targets_submitted == targets &&
               fs.AccountedTargets() == fs.targets_submitted,
           StrFormat("targets submitted %llu (clients %llu), accounted %llu",
                     static_cast<unsigned long long>(fs.targets_submitted),
                     static_cast<unsigned long long>(targets),
                     static_cast<unsigned long long>(fs.AccountedTargets())));
}

std::unique_ptr<ServingWorld> SetUpRepeatedly(const RunOptions& opts,
                                              EngineConfig::Precision p,
                                              std::vector<double>* setups) {
  std::unique_ptr<ServingWorld> w;
  double total = 0.0;
  for (int rep = 0; rep < kSetupReps || total < kSetupMinSeconds; ++rep) {
    w.reset();
    w = SetUpServing(opts.ckpt_path, p);
    setups->push_back(w->setup_s);
    total += w->setup_s;
  }
  return w;
}

void FillSetupLayers(const ServingWorld& w, LayerInputs* in) {
  in->generate_s = w.built.generate_s;
  in->build_graph_s = w.built.build_graph_s;
  in->load_s = w.load_s;
  in->restore_s = w.restore_s;
  in->has_load = true;
}

// ================================================================ backfill ==

std::vector<std::vector<int>> BackfillBatches(int n, int width,
                                              uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xBAC0F111ULL);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.UniformInt(i + 1)]);
  }
  std::vector<std::vector<int>> batches;
  for (size_t b = 0; b < order.size(); b += static_cast<size_t>(width)) {
    const size_t end = std::min(order.size(), b + static_cast<size_t>(width));
    batches.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(b),
                         order.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

struct ClosedPass {
  double seconds = 0.0;
  std::vector<double> batch_us;  ///< by batch index; +inf when it failed
  std::vector<std::vector<Score>> scores;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

/// `clients` threads each keep one batch outstanding until every batch is
/// scored. `call(b, &scores)` scores batch b and returns success.
template <typename Call>
ClosedPass RunClosedLoop(size_t num_batches, int clients, Call call,
                         SpanLog* spans, const char* span_name) {
  ClosedPass p;
  p.batch_us.assign(num_batches, 0.0);
  p.scores.assign(num_batches, {});
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok{0}, failed{0};
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t b = next++; b < num_batches; b = next++) {
        const int64_t t0 = NowNs();
        const bool success = call(b, &p.scores[b]);
        const int64_t t1 = NowNs();
        p.batch_us[b] = success ? (t1 - t0) * 1e-3 : kFailedLatencyMs * 1e3;
        (success ? ok : failed).fetch_add(1);
        if (spans != nullptr) {
          spans->Add(span_name, t0, t1, -1, static_cast<int64_t>(b));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  p.seconds = SecondsBetween(start, NowNs());
  p.ok = ok.load();
  p.failed = failed.load();
  return p;
}

ClosedPass FrontendPass(ServingWorld* w,
                        const std::vector<std::vector<int>>& batches,
                        int clients, SpanLog* spans) {
  w->engine->cache().Clear();
  return RunClosedLoop(
      batches.size(), clients,
      [&](size_t b, std::vector<Score>* out) {
        FrontendResult res = w->frontend->Submit(batches[b]).get();
        *out = std::move(res.scores);
        return res.status == RequestStatus::kOk;
      },
      spans, "serve.frontend.request");
}

/// True when two passes produced bit-identical logits for every batch.
bool SameLogits(const ClosedPass& a, const ClosedPass& b, size_t batches) {
  for (size_t i = 0; i < batches; ++i) {
    if (a.scores[i].size() != b.scores[i].size()) return false;
    for (size_t j = 0; j < a.scores[i].size(); ++j) {
      if (!BitEqual(a.scores[i][j].logit_human, b.scores[i][j].logit_human) ||
          !BitEqual(a.scores[i][j].logit_bot, b.scores[i][j].logit_bot)) {
        return false;
      }
    }
  }
  return true;
}

/// The oracle: PredictLogits over the same targets in the same order (and
/// therefore the same batch composition).
void CheckAgainstPredictLogits(ServingWorld* w,
                               const std::vector<std::vector<int>>& batches,
                               const ClosedPass& pass, RunResult* r) {
  std::vector<int> flat;
  for (const auto& b : batches) flat.insert(flat.end(), b.begin(), b.end());
  w->model->Prepare();
  const Matrix oracle = w->model->PredictLogits(flat);
  size_t row = 0, mismatches = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (size_t j = 0; j < batches[b].size(); ++j, ++row) {
      const bool same =
          j < pass.scores[b].size() &&
          BitEqual(pass.scores[b][j].logit_human,
                   oracle(static_cast<int>(row), 0)) &&
          BitEqual(pass.scores[b][j].logit_bot,
                   oracle(static_cast<int>(row), 1));
      if (!same) ++mismatches;
    }
  }
  r->Check("backfill.bit_identical_to_PredictLogits", mismatches == 0,
           StrFormat("%zu of %zu logits differ", mismatches, flat.size()));
}

}  // namespace

void RunBackfill(const RunOptions& opts, RunResult* r) {
  std::vector<double> setups;
  std::unique_ptr<ServingWorld> w =
      SetUpRepeatedly(opts, EngineConfig::Precision::kF64, &setups);
  const int n = w->built.graph->num_nodes;
  const std::vector<std::vector<int>> batches =
      BackfillBatches(n, w->engine->batch_size(), opts.seed);
  const int clients = ServingWorkers();
  StampServingMeta(*w, clients, r);
  r->Meta("serve.precision", "f64");
  r->MetaNum("backfill.batches_per_pass", static_cast<double>(batches.size()));

  if (opts.trace == 0) {
    std::vector<double> pass_rates, batch_ms;
    ClosedPass first;
    int passes = 0;
    uint64_t served = 0, failed = 0;
    bool repeat_identical = true;
    WallTimer measured;
    while (passes < 2 || (measured.Seconds() < opts.seconds && passes < 50)) {
      ClosedPass p = FrontendPass(w.get(), batches, clients, nullptr);
      ++passes;
      r->attempted += batches.size();
      failed += p.failed;
      served += p.ok;
      // Only served targets count towards throughput.
      uint64_t scored = 0;
      for (size_t b = 0; b < batches.size(); ++b) {
        if (std::isfinite(p.batch_us[b])) scored += batches[b].size();
      }
      pass_rates.push_back(static_cast<double>(scored) / p.seconds);
      for (double us : p.batch_us) batch_ms.push_back(us * 1e-3);
      if (passes == 1) {
        first = std::move(p);
      } else {
        repeat_identical =
            repeat_identical && SameLogits(first, p, batches.size());
      }
    }
    AddRssMetric(PeakRssMiB(), r);
    r->failed += failed;
    CheckNoFailures("backfill.no_failed_requests", failed, r->attempted, r);
    r->Check("backfill.passes_bit_identical", repeat_identical,
             "a pass produced different logits than the first");
    CheckConservation(w->frontend->Stats(),
                      static_cast<uint64_t>(passes) * batches.size(),
                      static_cast<uint64_t>(passes) * static_cast<uint64_t>(n),
                      served, r);
    CheckAgainstPredictLogits(w.get(), batches, first, r);

    double q = 0.0;
    const double tail = SupportedTail(batch_ms, &q);
    r->MetaNum("backfill.passes", passes);
    std::string rates;
    for (double x : pass_rates) {
      rates += StrFormat("%s%.0f", rates.empty() ? "" : " ", x);
    }
    r->Meta("backfill.pass_targets_per_s", rates);
    r->MetaNum("backfill.tail_quantile", q);
    r->workload_metrics["targets_per_s"] =
        Metric{Median(pass_rates), "1/s", pass_rates.size()};
    r->end_to_end["throughput_per_s"] = r->workload_metrics["targets_per_s"];
    r->end_to_end["latency_p50_ms"] =
        Metric{Median(batch_ms), "ms", batch_ms.size()};
    r->end_to_end["latency_tail_ms"] = Metric{tail, "ms", batch_ms.size()};
    AddFailedFrac(r);
    w.reset();
    SetUpRepeatedly(opts, EngineConfig::Precision::kF64, &setups);
    RecordSetups(setups, r);
    return;
  }

  // --- traced run: the same passes, one layer down at a time -------------
  RecordSetups(setups, r);
  SpanLog spans;
  LayerInputs in;
  FillSetupLayers(*w, &in);
  in.pool0 = BufferPool::Global().Stats();
  PoolSampler sampler;

  ClosedPass untraced = FrontendPass(w.get(), batches, clients, nullptr);
  in.untraced_s = untraced.seconds;

  in.has_frontend = true;
  in.fe0 = w->frontend->Stats();
  in.queue_wait0 = MarkHistogram(obs::metric::kQueueWaitMs);
  in.assemble0 = MarkHistogram(obs::metric::kAssembleMs);
  in.forward0 = MarkHistogram(obs::metric::kForwardMs);
  ClosedPass traced = FrontendPass(w.get(), batches, clients, &spans);
  in.queue_wait1 = MarkHistogram(obs::metric::kQueueWaitMs);
  in.assemble1 = MarkHistogram(obs::metric::kAssembleMs);
  in.forward1 = MarkHistogram(obs::metric::kForwardMs);
  in.fe1 = w->frontend->Stats();
  in.traced_s = traced.seconds;
  in.frontend_us = traced.batch_us;

  w->engine->cache().Clear();
  ClosedPass engine_pass = RunClosedLoop(
      batches.size(), clients,
      [&](size_t b, std::vector<Score>* out) {
        return w->engine->TryScoreBatch(batches[b], ScoreOptions::None(), out)
            .ok();
      },
      &spans, "serve.engine.call");
  in.engine_us = engine_pass.batch_us;

  // The serial component replay covers a prefix of the pass: enough
  // batches for stable per-call figures without a whole serial sweep.
  const size_t prefix = std::min<size_t>(batches.size(), 40);
  const std::vector<std::vector<int>> head(batches.begin(),
                                           batches.begin() + prefix);
  in.has_components = true;
  in.components = ReplayComponents(w->model.get(), head, 0, false, &spans);
  in.pool1 = BufferPool::Global().Stats();
  in.pool_sampled_peak = sampler.PeakBytes();
  in.pool_samples = sampler.samples();

  r->attempted = 3 * batches.size() + prefix;
  const uint64_t failed = untraced.failed + traced.failed + engine_pass.failed;
  r->failed += failed;
  CheckNoFailures("backfill.no_failed_requests", failed, r->attempted, r);
  r->Check("backfill.traced_pass_bit_identical",
           SameLogits(untraced, traced, batches.size()),
           "tracing changed the served logits");
  r->Check("backfill.engine_replay_bit_identical",
           SameLogits(untraced, engine_pass, batches.size()),
           "the engine replay differs from the front-end pass");
  size_t replay_mismatch = 0;
  for (size_t b = 0; b < prefix; ++b) {
    const Matrix& m = in.components.logits[b];
    for (size_t j = 0; j < head[b].size(); ++j) {
      const std::vector<Score>& got = traced.scores[b];
      if (j >= got.size() ||
          !BitEqual(m(static_cast<int>(j), 0), got[j].logit_human) ||
          !BitEqual(m(static_cast<int>(j), 1), got[j].logit_bot)) {
        ++replay_mismatch;
      }
    }
  }
  r->Check("backfill.component_replay_bit_identical", replay_mismatch == 0,
           StrFormat("%zu replayed logits differ", replay_mismatch));
  CheckConservation(in.fe1, 2 * batches.size(),
                    2 * static_cast<uint64_t>(n),
                    untraced.ok + traced.ok, r);
  CheckAgainstPredictLogits(w.get(), batches, untraced, r);
  FillPerLayer(in, spans, r);
  r->Meta("trace.span_file", WriteSpans(opts, spans));
}

// ================================================================== lookup ==

namespace {

struct Arrival {
  int64_t due_ns = 0;  ///< offset from the phase start
  int target = 0;
};

/// Zipf popularity over a seeded hot set, and seeded Poisson schedules.
class HotSetSampler {
 public:
  HotSetSampler(int num_nodes, uint64_t seed) : seed_(seed) {
    Rng rng(seed ^ 0x5EEDF00DULL);
    std::vector<int> all(static_cast<size_t>(num_nodes));
    std::iota(all.begin(), all.end(), 0);
    for (int i = 0; i < kHotSet; ++i) {
      std::swap(all[static_cast<size_t>(i)],
                all[static_cast<size_t>(i) +
                    rng.UniformInt(all.size() - static_cast<size_t>(i))]);
    }
    hot_.assign(all.begin(), all.begin() + kHotSet);
    double total = 0.0;
    for (int k = 1; k <= kHotSet; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  const std::vector<int>& hot() const { return hot_; }

  /// A Poisson schedule at `rate` per second lasting `seconds`, drawn from
  /// stream `stream` of the seed. Arrivals are drawn at unit rate and
  /// scaled, so one stream gives the same targets in the same order at
  /// every rate: the inputs depend on the seed and stream only.
  std::vector<Arrival> Schedule(double rate, double seconds,
                                uint64_t stream) const {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1);
    std::vector<Arrival> out;
    double t_unit = 0.0;
    for (;;) {
      t_unit += -std::log(1.0 - rng.Uniform());
      if (t_unit >= rate * seconds) break;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform()) -
          cdf_.begin());
      out.push_back(Arrival{static_cast<int64_t>(t_unit / rate * 1e9),
                            hot_[std::min(rank, hot_.size() - 1)]});
    }
    return out;
  }

 private:
  uint64_t seed_;
  std::vector<int> hot_;
  std::vector<double> cdf_;
};

/// Per-request record of one lookup phase.
struct Phase {
  size_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<double> lat_ms;   ///< per sent request, from due (or send)
                                ///< time; +inf when it failed
  std::vector<double> due_s;    ///< per sent request, offset in the phase
  std::vector<double> late_ms;  ///< open loop: how late each was sent
  std::vector<int> targets;     ///< per sent request
  std::vector<Score> scores;    ///< per sent request (ok ones)
  std::vector<uint8_t> status_ok;
};

/// Sends `sched` on time from two submitter threads; two collector threads
/// wait on the futures in submission order and time each request from its
/// due time.
Phase RunOpenLoop(ServingFrontend* fe, const std::vector<Arrival>& sched,
                  SpanLog* spans) {
  constexpr int kLanes = 2;
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::future<FrontendResult>>> q;
    bool done = false;
  };
  Lane lanes[kLanes];
  const size_t n = sched.size();
  std::vector<int64_t> completion(n, -1), sent_at(n, -1);
  std::vector<Score> scores(n);
  std::vector<uint8_t> ok(n, 0);
  const int64_t start = NowNs() + 2'000'000;  // let the threads start

  std::vector<std::thread> threads;
  for (int lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([&, lane] {  // submitter
      Lane& l = lanes[lane];
      for (size_t i = static_cast<size_t>(lane); i < n; i += kLanes) {
        const int64_t due = start + sched[i].due_ns;
        const int64_t wait = due - NowNs();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        }
        sent_at[i] = NowNs();
        std::future<FrontendResult> f = fe->SubmitOne(sched[i].target);
        {
          std::lock_guard<std::mutex> lock(l.mu);
          l.q.emplace_back(i, std::move(f));
        }
        l.cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(l.mu);
        l.done = true;
      }
      l.cv.notify_one();
    });
    threads.emplace_back([&, lane] {  // collector
      Lane& l = lanes[lane];
      for (;;) {
        std::pair<size_t, std::future<FrontendResult>> item;
        {
          std::unique_lock<std::mutex> lock(l.mu);
          l.cv.wait(lock, [&] { return !l.q.empty() || l.done; });
          if (l.q.empty()) return;
          item = std::move(l.q.front());
          l.q.pop_front();
        }
        FrontendResult res = item.second.get();
        const int64_t t = NowNs();
        const size_t i = item.first;
        completion[i] = t;
        ok[i] = res.status == RequestStatus::kOk && res.scores.size() == 1;
        if (ok[i]) scores[i] = res.scores[0];
        if (spans != nullptr) {
          spans->Add("serve.frontend.request", start + sched[i].due_ns, t, -1,
                     static_cast<int64_t>(i));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Phase p;
  for (size_t i = 0; i < n; ++i) {
    if (completion[i] < 0) continue;
    const int64_t due = start + sched[i].due_ns;
    ++p.sent;
    p.lat_ms.push_back(ok[i] ? (completion[i] - due) * 1e-6 : kFailedLatencyMs);
    p.due_s.push_back(sched[i].due_ns * 1e-9);
    p.late_ms.push_back((sent_at[i] - due) * 1e-6);
    p.targets.push_back(sched[i].target);
    p.scores.push_back(scores[i]);
    p.status_ok.push_back(ok[i]);
    (ok[i] ? p.ok : p.failed) += 1;
  }
  return p;
}

/// Median over consecutive blocks of kTailBlock requests (in due order) of
/// each block's `q` quantile latency. A host stall moves the quantile of the
/// block it hits, not the median over blocks.
double MedianBlockQuantile(const Phase& p, double q) {
  std::vector<size_t> order(p.lat_ms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return p.due_s[a] < p.due_s[b]; });
  std::vector<double> per_block, block;
  for (size_t k = 0; k < order.size(); ++k) {
    block.push_back(p.lat_ms[order[k]]);
    if (block.size() == kTailBlock) {
      per_block.push_back(Quantile(block, q));
      block.clear();
    }
  }
  return per_block.empty() ? Quantile(p.lat_ms, q) : Median(per_block);
}

/// Closed loop: `clients` clients each keep `depth` SubmitOne requests
/// outstanding for `seconds`, drawing targets from `stream` in order.
/// Latency runs from send to resolve; `window_rps` gets the rate of served
/// completions in each kWindowS window after the first (ramp-up).
Phase RunClosedPhase(ServingFrontend* fe, const std::vector<Arrival>& stream,
                     double seconds, int clients, int depth,
                     std::vector<double>* window_rps) {
  struct Done {
    int64_t sent_ns, done_ns;
    size_t index;
    bool ok;
    Score score;
  };
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::atomic<size_t> next{0};
  std::vector<std::vector<Done>> done(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::deque<std::tuple<int64_t, size_t, std::future<FrontendResult>>> q;
      auto submit = [&] {
        const size_t i = next++;
        if (i >= stream.size()) return;
        q.emplace_back(NowNs(), i, fe->SubmitOne(stream[i].target));
      };
      for (int k = 0; k < depth; ++k) submit();
      while (!q.empty()) {
        auto [sent, i, f] = std::move(q.front());
        q.pop_front();
        FrontendResult res = f.get();
        const int64_t t = NowNs();
        const bool ok =
            res.status == RequestStatus::kOk && res.scores.size() == 1;
        done[static_cast<size_t>(c)].push_back(
            Done{sent, t, i, ok, ok ? res.scores[0] : Score{}});
        if (t < end) submit();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Phase p;
  std::vector<uint64_t> per_window(
      static_cast<size_t>(std::ceil(seconds / kWindowS)), 0);
  for (const auto& per_client : done) {
    for (const Done& d : per_client) {
      ++p.sent;
      (d.ok ? p.ok : p.failed) += 1;
      p.lat_ms.push_back(d.ok ? (d.done_ns - d.sent_ns) * 1e-6
                              : kFailedLatencyMs);
      p.due_s.push_back(SecondsBetween(start, d.sent_ns));
      p.targets.push_back(stream[d.index].target);
      p.scores.push_back(d.score);
      p.status_ok.push_back(d.ok);
      const size_t w =
          static_cast<size_t>(SecondsBetween(start, d.done_ns) / kWindowS);
      if (d.ok && d.done_ns < end && w < per_window.size()) ++per_window[w];
    }
  }
  for (size_t w = 1; w < per_window.size(); ++w) {
    window_rps->push_back(static_cast<double>(per_window[w]) / kWindowS);
  }
  return p;
}

/// Appends `slice` to `into`, after everything `into` already holds: the
/// slice's send offsets continue past the latest one, so block quantiles
/// keep slices apart.
void AppendPhase(const Phase& slice, Phase* into) {
  const double offset =
      into->due_s.empty()
          ? 0.0
          : *std::max_element(into->due_s.begin(), into->due_s.end()) + 1.0;
  into->sent += slice.sent;
  into->ok += slice.ok;
  into->failed += slice.failed;
  auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(into->lat_ms, slice.lat_ms);
  for (double d : slice.due_s) into->due_s.push_back(offset + d);
  append(into->late_ms, slice.late_ms);
  append(into->targets, slice.targets);
  append(into->scores, slice.scores);
  append(into->status_ok, slice.status_ok);
}

/// Per-target f64 single-target scores: the oracle of the f32 path.
std::vector<Score> F64Oracle(Bsg4Bot* model, const std::vector<int>& hot,
                             int num_nodes) {
  EngineConfig ecfg;
  ecfg.trim_pool_on_start = false;
  DetectionEngine oracle(model, ecfg);
  std::vector<Score> by_node(static_cast<size_t>(num_nodes));
  for (int t : hot) by_node[static_cast<size_t>(t)] = oracle.ScoreOne(t);
  return by_node;
}

/// Every served f32 score within the README tolerance of the f64 oracle,
/// with the same argmax.
void CheckF32Parity(const std::vector<const Phase*>& phases,
                    const std::vector<Score>& oracle, RunResult* r) {
  constexpr double kTol = 5e-3;  // README "Mixed-precision serving"
  uint64_t checked = 0, outside = 0, flips = 0;
  double max_dev = 0.0;
  for (const Phase* p : phases) {
    for (size_t i = 0; i < p->sent; ++i) {
      if (!p->status_ok[i]) continue;
      const Score& got = p->scores[i];
      const Score& want = oracle[static_cast<size_t>(p->targets[i])];
      const double dh = std::abs(got.logit_human - want.logit_human);
      const double db = std::abs(got.logit_bot - want.logit_bot);
      max_dev = std::max({max_dev, dh / (1.0 + std::abs(want.logit_human)),
                          db / (1.0 + std::abs(want.logit_bot))});
      if (dh > kTol * (1.0 + std::abs(want.logit_human)) ||
          db > kTol * (1.0 + std::abs(want.logit_bot))) {
        ++outside;
      }
      if (got.label != want.label) ++flips;
      ++checked;
    }
  }
  r->MetaNum("lookup.f32_max_rel_dev", max_dev);
  r->Check("lookup.f32_within_tolerance", checked > 0 && outside == 0,
           StrFormat("%llu of %llu scores outside 5e-3 (max rel dev %.3g)",
                     static_cast<unsigned long long>(outside),
                     static_cast<unsigned long long>(checked), max_dev));
  r->Check("lookup.f32_zero_argmax_flips", flips == 0,
           StrFormat("%llu argmax flips",
                     static_cast<unsigned long long>(flips)));
}

/// Scores every hot account once; returns how many were served.
uint64_t WarmUp(ServingWorld* w, const std::vector<int>& hot, int clients) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < hot.size(); i = next++) {
        if (w->frontend->SubmitOne(hot[i]).get().status == RequestStatus::kOk) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok.load();
}

}  // namespace

void RunLookup(const RunOptions& opts, RunResult* r) {
  std::vector<double> setups;
  std::unique_ptr<ServingWorld> w =
      SetUpRepeatedly(opts, EngineConfig::Precision::kF32, &setups);
  const int n = w->built.graph->num_nodes;
  const int clients = 4;  // 2 submitters + 2 collectors
  StampServingMeta(*w, clients, r);
  r->Meta("serve.precision", "f32");
  r->MetaNum("lookup.lo_rps", kLoRps);
  r->MetaNum("lookup.hi_rps", kHiRps);
  r->MetaNum("lookup.p99_limit_ms", kP99LimitMs);
  r->MetaNum("lookup.hot_set", kHotSet);
  r->MetaNum("lookup.zipf_exponent", kZipfExponent);

  HotSetSampler sampler(n, opts.seed);
  // Untimed warm-up: load the hot set, then a short burst at the hi rate.
  // Warm-up requests are checked for conservation but not measured.
  uint64_t warm_sent = sampler.hot().size();
  uint64_t warm_ok = WarmUp(w.get(), sampler.hot(), ServingWorkers());
  {
    const Phase burst = RunOpenLoop(
        w->frontend.get(), sampler.Schedule(kHiRps, 0.3, 1), nullptr);
    warm_sent += burst.sent;
    warm_ok += burst.ok;
  }

  // lo, hi and the unloaded phase 20% each, the capacity phase 40% of the
  // run.
  const double lo_s = std::max(0.5, 0.2 * opts.seconds);
  const double phase_s = std::max(0.5, 0.2 * opts.seconds);
  const double cap_s = std::max(0.5, 0.4 * opts.seconds);
  const double idle_s = std::max(0.5, 0.2 * opts.seconds);
  if (opts.trace == 0) {
    // Unloaded latency: one client, one request outstanding. It runs in
    // kIdleSlices slices spread over the run, so that it samples the host's
    // speed, which drifts within seconds, over the whole run.
    Phase idle;
    std::vector<double> idle_windows;
    uint64_t idle_stream = 5;
    auto idle_slice = [&] {
      const Phase slice = RunClosedPhase(
          w->frontend.get(), sampler.Schedule(1.0, 2e5, idle_stream++),
          idle_s / kIdleSlices, 1, 1, &idle_windows);
      AppendPhase(slice, &idle);
    };
    idle_slice();
    Phase lo = RunOpenLoop(w->frontend.get(),
                           sampler.Schedule(kLoRps, lo_s, 2), nullptr);
    idle_slice();
    Phase hi = RunOpenLoop(w->frontend.get(),
                           sampler.Schedule(kHiRps, phase_s, 3), nullptr);
    idle_slice();

    // Capacity: the saturation throughput of the front-end.
    std::vector<double> window_rps;
    Phase sat = RunClosedPhase(w->frontend.get(), sampler.Schedule(1.0, 4e5, 4),
                               cap_s, kSaturationClients, kSaturationDepth,
                               &window_rps);
    idle_slice();
    AddRssMetric(PeakRssMiB(), r);

    std::vector<const Phase*> all = {&lo, &hi, &sat, &idle};
    uint64_t sent = 0, ok = 0;
    for (const Phase* p : all) {
      sent += p->sent;
      ok += p->ok;
      r->failed += p->failed;
    }
    r->attempted = sent;
    CheckNoFailures("lookup.no_failed_requests",
                    r->failed + (warm_sent - warm_ok), warm_sent + sent, r);
    CheckConservation(w->frontend->Stats(), warm_sent + sent,
                      warm_sent + sent, warm_ok + ok, r);
    CheckF32Parity(all, F64Oracle(w->model.get(), sampler.hot(), n), r);

    double q_lo = 0.0, q_hi = 0.0;
    const double lo_tail = SupportedTail(lo.lat_ms, &q_lo);
    const double hi_tail = SupportedTail(hi.lat_ms, &q_hi);
    r->MetaNum("lookup.tail_quantile", q_hi);
    const double sat_p99 = MedianBlockQuantile(sat, 0.99);
    r->MetaNum("lookup.saturation_block_p99_ms", sat_p99);
    r->MetaNum("lookup.saturation_meets_p99_limit", sat_p99 <= kP99LimitMs);
    r->MetaNum("lookup.warmup_requests", static_cast<double>(warm_sent));
    auto& wm = r->workload_metrics;
    wm["lo_p50_ms"] = Metric{Median(lo.lat_ms), "ms", lo.sent};
    wm["lo_p99_ms"] = Metric{lo_tail, "ms", lo.sent};
    wm["hi_p50_ms"] = Metric{Median(hi.lat_ms), "ms", hi.sent};
    wm["hi_p99_ms"] = Metric{hi_tail, "ms", hi.sent};
    wm["max_rate_rps"] = Metric{Median(window_rps), "1/s", window_rps.size()};
    std::vector<double> late = lo.late_ms;
    late.insert(late.end(), hi.late_ms.begin(), hi.late_ms.end());
    r->MetaNum("harness.gen_late_p99_ms", Quantile(late, 0.99));
    r->end_to_end["throughput_per_s"] = wm["max_rate_rps"];
    // Gated latencies come from the unloaded phase. An open-loop request
    // is charged for every host stall that falls between its due time and
    // its answer, so under stolen CPU the lo and hi figures jumped 20- to
    // 80-fold; in the unloaded phase a stall delays only the one request in
    // flight. The tail is the median of 1000-request block p99s, so one
    // stall moves one block. See perfbench/README.md.
    r->end_to_end["latency_p50_ms"] =
        Metric{Median(idle.lat_ms), "ms", idle.sent};
    r->end_to_end["latency_tail_ms"] =
        Metric{MedianBlockQuantile(idle, 0.99), "ms", idle.sent};
    r->MetaNum("lookup.hi_block_p99_ms", MedianBlockQuantile(hi, 0.99));
    AddFailedFrac(r);
    w.reset();
    SetUpRepeatedly(opts, EngineConfig::Precision::kF32, &setups);
    RecordSetups(setups, r);
    return;
  }

  // --- traced run: the hi phase, one layer down at a time -----------------
  RecordSetups(setups, r);
  SpanLog spans;
  LayerInputs in;
  FillSetupLayers(*w, &in);
  in.pool0 = BufferPool::Global().Stats();
  PoolSampler pool_sampler;
  const std::vector<Arrival> sched = sampler.Schedule(kHiRps, phase_s, 3);

  Phase untraced =
      RunOpenLoop(w->frontend.get(), sched, nullptr);
  in.untraced_s = Mean(untraced.lat_ms) * 1e-3;

  in.has_frontend = true;
  in.fe0 = w->frontend->Stats();
  in.queue_wait0 = MarkHistogram(obs::metric::kQueueWaitMs);
  in.assemble0 = MarkHistogram(obs::metric::kAssembleMs);
  in.forward0 = MarkHistogram(obs::metric::kForwardMs);
  Phase traced =
      RunOpenLoop(w->frontend.get(), sched, &spans);
  in.queue_wait1 = MarkHistogram(obs::metric::kQueueWaitMs);
  in.assemble1 = MarkHistogram(obs::metric::kAssembleMs);
  in.forward1 = MarkHistogram(obs::metric::kForwardMs);
  in.fe1 = w->frontend->Stats();
  in.traced_s = Mean(traced.lat_ms) * 1e-3;
  for (double ms : traced.lat_ms) in.frontend_us.push_back(ms * 1e3);
  in.gen_late_ms = traced.late_ms;

  // Engine replay: the same schedule from four client threads calling the
  // engine directly (each sends its share on time, or at once if behind).
  {
    const int64_t start = NowNs() + 2'000'000;
    std::vector<std::vector<double>> per_thread(4);
    std::atomic<uint64_t> failed{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < 4; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < sched.size(); i += 4) {
          const int64_t wait = start + sched[i].due_ns - NowNs();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          }
          Score s;
          const int64_t t0 = NowNs();
          const bool ok =
              w->engine->TryScoreOne(sched[i].target, ScoreOptions::None(), &s)
                  .ok();
          const int64_t t1 = NowNs();
          if (!ok) failed.fetch_add(1);
          per_thread[static_cast<size_t>(c)].push_back(
              ok ? (t1 - t0) * 1e-3 : kFailedLatencyMs * 1e3);
          spans.Add("serve.engine.call", t0, t1, -1, static_cast<int64_t>(i));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& v : per_thread) {
      in.engine_us.insert(in.engine_us.end(), v.begin(), v.end());
    }
    r->failed += failed.load();
  }

  // Component replay: the warm-up (every hot account once) then the first
  // 10k requests of the hi schedule, each request a batch of one.
  std::vector<std::vector<int>> requests;
  for (int t : sampler.hot()) requests.push_back({t});
  for (size_t i = 0; i < std::min<size_t>(sched.size(), 10000); ++i) {
    requests.push_back({sched[i].target});
  }
  in.has_components = true;
  in.components = ReplayComponents(w->model.get(), requests,
                                   sampler.hot().size(), true, &spans);
  in.pool1 = BufferPool::Global().Stats();
  in.pool_sampled_peak = pool_sampler.PeakBytes();
  in.pool_samples = pool_sampler.samples();

  r->attempted = untraced.sent + traced.sent + sched.size() +
                 requests.size();
  r->failed += untraced.failed + traced.failed;
  CheckNoFailures("lookup.no_failed_requests",
                  r->failed + (warm_sent - warm_ok), r->attempted + warm_sent,
                  r);
  const uint64_t fe_sent = warm_sent + untraced.sent + traced.sent;
  CheckConservation(in.fe1, fe_sent, fe_sent,
                    warm_ok + untraced.ok + traced.ok, r);
  CheckF32Parity({&untraced, &traced},
                 F64Oracle(w->model.get(), sampler.hot(), n), r);
  FillPerLayer(in, spans, r);
  r->Meta("trace.span_file", WriteSpans(opts, spans));
}

}  // namespace perfbench
