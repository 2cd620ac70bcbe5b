// The three workloads and the traced-run machinery they share.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/bsg4bot.h"
#include "harness.h"
#include "serve/frontend.h"
#include "serve/subgraph_cache.h"
#include "util/buffer_pool.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir;    ///< result, span and scratch checkpoint files
  std::string ckpt_path;  ///< the cached serving checkpoint
};

/// A run sets up in two rounds, one before and one after the measured part,
/// so that setup_s samples the host's speed over the whole run rather than
/// its first seconds. Each round sets up at least kSetupReps times, and more
/// until it took kSetupMinSeconds (retrain's set-up takes about 0.1 s).
/// setup_s reports the median of both rounds; a traced run reports the
/// first round only.
constexpr int kSetupReps = 3;
constexpr double kSetupMinSeconds = 1.0;

void RunBackfill(const RunOptions& opts, RunResult* r);
void RunLookup(const RunOptions& opts, RunResult* r);
void RunRetrain(const RunOptions& opts, RunResult* r);

// ------------------------------------------------------- traced-run pieces ---

/// What the serial component replay observed (its own cache, stacker and
/// PPR workspace, so the serving stack's counters stay untouched).
struct ComponentStats {
  bsg::SubgraphCacheStats cache;
  bsg::BatchStackerStats stacker;
  uint64_t ppr_calls = 0;
  uint64_t ppr_touched = 0;        ///< result entries over all PPR calls
  uint64_t ppr_warm_growths = 0;   ///< buffer growths after the first call
  uint64_t forward_targets = 0;
  int num_relations = 0;
  // Totals over the timed requests only (warm-up excluded).
  uint64_t timed_requests = 0;
  double timed_total_us = 0.0;    ///< root spans
  double timed_probe_us = 0.0;    ///< GetOrBuild spans (probe + any build)
  double timed_forward_us = 0.0;  ///< forward spans
  /// Logits of every replayed request, in request order.
  std::vector<bsg::Matrix> logits;
};

/// Replays `requests` one layer down, serially: per target
/// SubgraphCache::GetOrBuild with a builder that runs PprWorkspace per
/// relation and Bsg4Bot::AssembleSubgraph, then BatchStacker::Stack and
/// ScoreBatch (or ScoreBatchF32). Requests whose id is below `first_timed`
/// are recorded under the root "component.warmup" instead of
/// "component.request" and are left out of the cache hit ratio.
ComponentStats ReplayComponents(bsg::Bsg4Bot* model,
                                const std::vector<std::vector<int>>& requests,
                                size_t first_timed, bool f32, SpanLog* spans);

/// Samples the global BufferPool's resident bytes (live + free) every few
/// milliseconds on a background thread; PeakBytes() is the highest seen.
class PoolSampler {
 public:
  PoolSampler();
  ~PoolSampler();
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;
  uint64_t PeakBytes() const { return peak_.load(); }
  uint64_t samples() const { return samples_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> samples_{0};
  std::thread thread_;
};

/// Inputs of the per-layer table, gathered by each workload's traced run.
/// Layers a workload does not reach keep their zero defaults and report
/// zero samples.
struct LayerInputs {
  // Front-end phase (registry deltas + front-end counters over the phase).
  bool has_frontend = false;
  HistogramMark queue_wait0, queue_wait1, assemble0, assemble1, forward0,
      forward1;
  bsg::FrontendStats fe0, fe1;
  std::vector<double> frontend_us;  ///< submit (or due) -> resolved
  // Engine replay.
  std::vector<double> engine_us;
  // Component replay.
  bool has_components = false;
  ComponentStats components;
  // Pool / governor (process-wide).
  bsg::BufferPoolStats pool0, pool1;
  uint64_t pool_sampled_peak = 0;
  uint64_t pool_samples = 0;
  // Training (retrain only).
  bool has_train = false;
  double prepare_s = 0.0, pretrain_s = 0.0, epoch_s = 0.0,
         train_pool_hit_rate = 0.0;
  int epochs = 0;
  double train_rep_s = 0.0;  ///< traced retrain rep, Prepare + Fit + save
  // Checkpoint io and set-up stages.
  double load_s = 0.0, restore_s = 0.0, save_s = 0.0;
  bool has_load = false, has_save = false;
  double generate_s = 0.0, build_graph_s = 0.0;
  // Harness.
  std::vector<double> gen_late_ms;
  double traced_s = 0.0, untraced_s = 0.0;  ///< same work, traced vs not
};

/// Fills r->per_layer with every per-layer metric from `in` and `spans`.
void FillPerLayer(const LayerInputs& in, const SpanLog& spans, RunResult* r);

/// Writes the span file next to the result; returns its path.
std::string WriteSpans(const RunOptions& opts, const SpanLog& spans);

}  // namespace perfbench
