// DetectionEngine: batched scores bit-identical to PredictLogits, on-demand
// cache-backed subgraph assembly (no precomputed store), warm-cache hit
// rate, the startup pool-Trim policy, single-target scoring, a randomised
// differential check of the one scoring path across chunk-boundary request
// lengths, and concurrent callers sharing one engine.
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "serve/engine.h"
#include "test_common.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace bsg {
namespace {

using testing::SameBits;
using testing::SmallGraph;

Bsg4BotConfig EngineModelConfig() {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 8;
  cfg.subgraph.k = 10;
  cfg.hidden = 12;
  cfg.batch_size = 48;  // several chunks over the test split
  cfg.max_epochs = 3;
  cfg.min_epochs = 3;
  cfg.seed = 21;
  return cfg;
}

// Bitwise double equality (distinguishes -0.0 from 0.0, unlike ==).
bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameLogits(const Score& a, const Score& b) {
  return a.target == b.target && SameDouble(a.logit_human, b.logit_human) &&
         SameDouble(a.logit_bot, b.logit_bot);
}

// `len` distinct node ids in random order (a partial Fisher-Yates shuffle).
std::vector<int> DrawTargets(Rng& rng, int num_nodes, size_t len) {
  std::vector<int> ids(static_cast<size_t>(num_nodes));
  std::iota(ids.begin(), ids.end(), 0);
  for (size_t i = 0; i < len; ++i) {
    const size_t j = i + rng.UniformInt(ids.size() - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(len);
  return ids;
}

// One trained model per binary; every test builds its own engine on top.
Bsg4Bot& TrainedModel() {
  static Bsg4Bot* model = [] {
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), EngineModelConfig());
    m->Fit();
    return m;
  }();
  return *model;
}

TEST(DetectionEngine, BatchedScoresMatchPredictLogitsBitwise) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  ASSERT_GT(targets.size(), static_cast<size_t>(model.config().batch_size));
  Matrix oracle = model.PredictLogits(targets);

  DetectionEngine engine(&model, EngineConfig{});
  EXPECT_EQ(engine.batch_size(), model.config().batch_size);
  std::vector<Score> scores = engine.ScoreBatch(targets);
  ASSERT_EQ(scores.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(scores[i].target, targets[i]);
    // Same chunking, same stacking, dropout off -> the engine's on-demand
    // cache-assembled subgraphs must reproduce the stored-subgraph logits
    // exactly.
    EXPECT_EQ(scores[i].logit_human, oracle(static_cast<int>(i), 0)) << i;
    EXPECT_EQ(scores[i].logit_bot, oracle(static_cast<int>(i), 1)) << i;
    EXPECT_EQ(scores[i].label,
              scores[i].logit_bot > scores[i].logit_human ? 1 : 0);
    EXPECT_GE(scores[i].bot_prob, 0.0);
    EXPECT_LE(scores[i].bot_prob, 1.0);
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.targets_scored, targets.size());
  EXPECT_GT(stats.batches_run, 1u);
  EXPECT_EQ(stats.cache.lookups, targets.size());
  EXPECT_EQ(stats.cache.misses, targets.size());  // cold cache
}

TEST(DetectionEngine, WarmCacheServesRepeatTrafficFromMemory) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  EngineConfig cfg;
  cfg.cache_capacity = targets.size() + 8;
  DetectionEngine engine(&model, cfg);

  std::vector<Score> cold = engine.ScoreBatch(targets);
  std::vector<Score> warm = engine.ScoreBatch(targets);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].logit_bot, warm[i].logit_bot);
  }
  EngineStats stats = engine.Stats();
  // Pass 2 hits on every probe, so the overall rate is ~0.5 and the warm
  // pass alone is 1.0.
  EXPECT_EQ(stats.cache.hits, targets.size());
  EXPECT_GE(stats.cache.HitRate(), 0.45);
  EXPECT_EQ(stats.cache.entries, targets.size());
}

TEST(DetectionEngine, BoundedCacheEvictsButStaysCorrect) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  EngineConfig cfg;
  cfg.cache_capacity = 8;  // far below the working set
  DetectionEngine engine(&model, cfg);
  std::vector<Score> through_tiny_cache = engine.ScoreBatch(targets);

  Matrix oracle = model.PredictLogits(targets);
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(through_tiny_cache[i].logit_bot, oracle(static_cast<int>(i), 1));
  }
  EngineStats stats = engine.Stats();
  EXPECT_LE(stats.cache.entries, 8u);
  EXPECT_GT(stats.cache.evictions, 0u);
}

TEST(DetectionEngine, ScoreOneMatchesBatchOfOne) {
  Bsg4Bot& model = TrainedModel();
  const int target = SmallGraph().test_idx.front();
  DetectionEngine engine(&model, EngineConfig{});
  Score one = engine.ScoreOne(target);
  std::vector<Score> batch = engine.ScoreBatch({target});
  ASSERT_EQ(batch.size(), 1u);
  // Identical batch composition (a single centre) -> identical logits; the
  // second call is also the cache's first hit.
  EXPECT_EQ(one.logit_human, batch[0].logit_human);
  EXPECT_EQ(one.logit_bot, batch[0].logit_bot);
  EXPECT_EQ(one.bot_prob, batch[0].bot_prob);
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.single_requests, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(DetectionEngine, StartupTrimReleasesColdSlabsAndIsCounted) {
  Bsg4Bot& model = TrainedModel();
  // Park some slabs so the startup trim has something to release.
  { Matrix scratch(256, 256, 1.0); }
  BufferPoolStats before = BufferPool::Global().Stats();
  ASSERT_GT(before.free_bytes, 0u);

  DetectionEngine engine(&model, EngineConfig{});
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.pool_trimmed_bytes, before.free_bytes);
  BufferPoolStats after = BufferPool::Global().Stats();
  EXPECT_EQ(after.free_bytes, 0u);
  EXPECT_EQ(after.trims, before.trims + 1);
  EXPECT_EQ(after.trimmed_bytes, before.trimmed_bytes + before.free_bytes);

  // Opting out leaves the pool alone.
  { Matrix scratch(128, 128, 1.0); }
  BufferPoolStats parked = BufferPool::Global().Stats();
  EngineConfig no_trim;
  no_trim.trim_pool_on_start = false;
  DetectionEngine engine2(&model, no_trim);
  EXPECT_EQ(engine2.Stats().pool_trimmed_bytes, 0u);
  EXPECT_EQ(BufferPool::Global().Stats().free_bytes, parked.free_bytes);
}

TEST(DetectionEngine, ServingForwardPassesRecycleThroughThePool) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& targets = SmallGraph().test_idx;
  DetectionEngine engine(&model, EngineConfig{});
  engine.ScoreBatch(targets);  // cold: shapes enter the pool
  engine.ScoreBatch(targets);  // warm: slabs recycle
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.pool_acquires, 0u);
  // The zero-allocation hot path carries over to serving: warm forward
  // passes run almost entirely on pool hits.
  EXPECT_GE(stats.PoolHitRate(), 0.45);
}

TEST(DetectionEngine, RandomisedRequestsMatchPredictLogitsBitwise) {
  Bsg4Bot& model = TrainedModel();
  const int num_nodes = SmallGraph().num_nodes;
  DetectionEngine engine(&model, EngineConfig{});
  const size_t w = static_cast<size_t>(engine.batch_size());
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Chunk-boundary lengths around the width, then k*w + r (k >= 2, r in
    // [1, w)) for a request that streams several chunks plus a ragged one.
    const size_t k = 2 + rng.UniformInt(2);
    const size_t r = 1 + rng.UniformInt(w - 1);
    for (size_t len : {size_t{1}, w - 1, w, w + 1, k * w + r}) {
      SCOPED_TRACE("length " + std::to_string(len));
      const std::vector<int> targets = DrawTargets(rng, num_nodes, len);
      const Matrix oracle = model.PredictLogits(targets);
      std::vector<Score> batch;
      ASSERT_TRUE(
          engine.TryScoreBatch(targets, ScoreOptions::None(), &batch).ok());
      ASSERT_EQ(batch.size(), len);
      for (size_t i = 0; i < len; ++i) {
        const int row = static_cast<int>(i);
        EXPECT_EQ(batch[i].target, targets[i]) << i;
        EXPECT_TRUE(SameDouble(batch[i].logit_human, oracle(row, 0))) << i;
        EXPECT_TRUE(SameDouble(batch[i].logit_bot, oracle(row, 1))) << i;
      }
      // A single-target call is a request of one chunk of one: it must
      // agree bitwise with the batch path given the same composition.
      for (int t : targets) {
        Score one;
        std::vector<Score> of_one;
        ASSERT_TRUE(engine.TryScoreOne(t, ScoreOptions::None(), &one).ok());
        ASSERT_TRUE(
            engine.TryScoreBatch({t}, ScoreOptions::None(), &of_one).ok());
        ASSERT_EQ(of_one.size(), 1u);
        EXPECT_TRUE(SameLogits(one, of_one[0])) << "target " << t;
      }
    }
  }
}

TEST(DetectionEngine, ConcurrentCallersMatchSerialResultsBitwise) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& pool = SmallGraph().test_idx;
  const size_t w = static_cast<size_t>(model.config().batch_size);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  constexpr size_t kSingles = 6;
  // Per thread: a multi-chunk batch (2 full chunks + a ragged one) starting
  // at a thread-specific offset, so the threads' targets overlap and their
  // cold misses coalesce in the shared cache.
  std::vector<std::vector<int>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < 2 * w + 5; ++i) {
      batches[static_cast<size_t>(t)].push_back(
          pool[(static_cast<size_t>(t) * 11 + i) % pool.size()]);
    }
  }

  // Serial reference on its own engine.
  std::vector<std::vector<Score>> want_batch(kThreads);
  std::vector<std::vector<Score>> want_one(kThreads);
  {
    DetectionEngine serial(&model, EngineConfig{});
    for (int t = 0; t < kThreads; ++t) {
      const std::vector<int>& b = batches[static_cast<size_t>(t)];
      want_batch[static_cast<size_t>(t)] = serial.ScoreBatch(b);
      for (size_t i = 0; i < kSingles; ++i) {
        want_one[static_cast<size_t>(t)].push_back(serial.ScoreOne(b[i]));
      }
    }
  }

  DetectionEngine engine(&model, EngineConfig{});
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t ti = static_cast<size_t>(t);
      const std::vector<int>& b = batches[ti];
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Score> got;
        if (!engine.TryScoreBatch(b, ScoreOptions::None(), &got).ok()) {
          ++errors[ti];
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (!SameLogits(got[i], want_batch[ti][i])) ++mismatches[ti];
        }
        for (size_t i = 0; i < kSingles; ++i) {
          Score one;
          if (!engine.TryScoreOne(b[i], ScoreOptions::None(), &one).ok()) {
            ++errors[ti];
          } else if (!SameLogits(one, want_one[ti][i])) {
            ++mismatches[ti];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[static_cast<size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.batch_requests, static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_EQ(stats.single_requests,
            static_cast<uint64_t>(kThreads * kRounds) * kSingles);
  EXPECT_EQ(stats.score_failures + stats.deadline_failures, 0u);
}

}  // namespace
}  // namespace bsg
