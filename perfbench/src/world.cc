#include "world.h"

#include <sched.h>
#include <sys/stat.h>

#include <cstdio>
#include <thread>

#include "datagen/generator.h"
#include "features/feature_pipeline.h"
#include "io/checkpoint.h"
#include "util/timer.h"

namespace perfbench {

using namespace bsg;

DatasetConfig ServingDataset() {
  // Large enough that one all-accounts backfill pass takes seconds on a
  // 4-core box, so a run measures several passes.
  DatasetConfig dc = Twibot20Sim();
  dc.num_users = 20000;
  dc.tweets_per_user = 12;
  dc.seed = 20201;
  return dc;
}

Bsg4BotConfig ServingModelConfig() {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 30;
  cfg.subgraph.k = 24;
  cfg.hidden = 32;
  cfg.max_epochs = 3;
  cfg.min_epochs = cfg.max_epochs;
  cfg.seed = 7;
  return cfg;
}

DatasetConfig RetrainDataset() {
  DatasetConfig dc = Twibot20Sim();
  dc.num_users = 3000;
  dc.tweets_per_user = 12;
  dc.seed = 30001;
  return dc;
}

Bsg4BotConfig RetrainModelConfig(uint64_t seed) {
  Bsg4BotConfig cfg = ServingModelConfig();
  cfg.max_epochs = 4;
  cfg.min_epochs = cfg.max_epochs;
  cfg.seed = seed;
  return cfg;
}

int ServingWorkers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

BuiltGraph GenerateGraph(const DatasetConfig& cfg) {
  BuiltGraph out;
  WallTimer t;
  RawDataset raw = SocialNetworkGenerator(cfg).Generate();
  out.generate_s = t.Seconds();
  t.Restart();
  out.graph = std::make_unique<HeteroGraph>(
      BuildGraph(raw, FeaturePipelineConfig()));
  out.build_graph_s = t.Seconds();
  return out;
}

Status EnsureServingCheckpoint(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) return Status::OK();
  std::printf("training the serving checkpoint once: %s\n", path.c_str());
  WallTimer t;
  BuiltGraph built = GenerateGraph(ServingDataset());
  Bsg4Bot model(*built.graph, ServingModelConfig());
  TrainResult tr = model.Fit();
  // SaveCheckpoint writes and renames, so an interrupted run never leaves a
  // truncated checkpoint under the cache key.
  BSG_RETURN_NOT_OK(model.SaveCheckpoint(path));
  std::printf("serving checkpoint trained in %.1f s (test F1 %.4f)\n",
              t.Seconds(), tr.test.f1);
  return Status::OK();
}

std::unique_ptr<ServingWorld> SetUpServing(
    const std::string& ckpt_path, EngineConfig::Precision precision) {
  WallTimer total;
  auto w = std::make_unique<ServingWorld>();
  w->built = GenerateGraph(ServingDataset());

  WallTimer t;
  Result<Checkpoint> ckpt = LoadCheckpoint(ckpt_path);
  BSG_CHECK(ckpt.ok(), ("cannot load the serving checkpoint " + ckpt_path +
                         ": " + ckpt.status().ToString())
                            .c_str());
  w->load_s = t.Seconds();

  t.Restart();
  Result<Bsg4BotConfig> cfg = Bsg4Bot::CheckpointConfig(ckpt.ValueOrDie());
  BSG_CHECK(cfg.ok(),
            ("bad checkpoint config: " + cfg.status().ToString()).c_str());
  w->model = std::make_unique<Bsg4Bot>(*w->built.graph, cfg.ValueOrDie());
  Status st = w->model->RestoreFromCheckpoint(ckpt.ValueOrDie());
  BSG_CHECK(st.ok(), ("checkpoint restore failed: " + st.ToString()).c_str());
  w->restore_s = t.Seconds();

  EngineConfig ecfg;
  ecfg.precision = precision;
  w->engine = std::make_unique<DetectionEngine>(w->model.get(), ecfg);
  FrontendConfig fcfg;
  fcfg.workers = ServingWorkers();
  fcfg.queue_capacity = kServingQueueCapacity;
  w->frontend = std::make_unique<ServingFrontend>(w->engine.get(), fcfg);
  w->setup_s = total.Seconds();
  return w;
}

}  // namespace perfbench
