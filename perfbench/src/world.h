// The benchmark's fixed subjects: the serving world (a large synthetic graph
// plus a checkpoint trained on it once and cached by code identity) and the
// retraining world (a mid-sized graph trained from scratch every run).
#pragma once

#include <memory>
#include <string>

#include "core/bsg4bot.h"
#include "datagen/config.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "util/status.h"

namespace perfbench {

/// Dataset of the serving workloads. Fixed (not seeded by --seed): the
/// cached checkpoint's pre-classifier state covers exactly these nodes.
bsg::DatasetConfig ServingDataset();
/// Model recipe of the cached serving checkpoint.
bsg::Bsg4BotConfig ServingModelConfig();

/// Dataset of `retrain`. Fixed, so every seed retrains the same amount of
/// work; the seed drives the model (initialisation, batch order, dropout).
bsg::DatasetConfig RetrainDataset();
/// Model recipe of `retrain`, seeded: fixed epoch count (min == max).
bsg::Bsg4BotConfig RetrainModelConfig(uint64_t seed);

/// Front-end workers used by every serving workload: one per usable core.
int ServingWorkers();

/// Front-end queue capacity of the serving workloads. The library default
/// (256) holds 58 ms of `lookup` arrivals at its hi rate, and host stalls of
/// 60-80 ms on the reference VM shed requests with it; a deeper queue turns
/// a stall into latency, which the benchmark reports, instead of failures.
constexpr size_t kServingQueueCapacity = 4096;

/// Trains the serving model and saves it to `path` unless a checkpoint is
/// already there. One-off work, never part of a measured run.
bsg::Status EnsureServingCheckpoint(const std::string& path);

/// A graph built from a generated dataset, with the two stage timings.
struct BuiltGraph {
  std::unique_ptr<bsg::HeteroGraph> graph;
  double generate_s = 0.0;
  double build_graph_s = 0.0;
};
BuiltGraph GenerateGraph(const bsg::DatasetConfig& cfg);

/// Everything a serving workload runs against, ready to take requests.
/// Member order is teardown order in reverse: the front-end goes first.
struct ServingWorld {
  BuiltGraph built;
  std::unique_ptr<bsg::Bsg4Bot> model;
  std::unique_ptr<bsg::DetectionEngine> engine;
  std::unique_ptr<bsg::ServingFrontend> frontend;
  double load_s = 0.0;     ///< LoadCheckpoint
  double restore_s = 0.0;  ///< CheckpointConfig + model + RestoreFromCheckpoint
  double setup_s = 0.0;    ///< all of the above, plus engine + front-end start
};

/// Process start to ready: generate + featurise the serving graph, load and
/// restore the checkpoint, start the engine and front-end with library
/// defaults (except `precision`, and workers = ServingWorkers()).
std::unique_ptr<ServingWorld> SetUpServing(
    const std::string& ckpt_path, bsg::EngineConfig::Precision precision);

}  // namespace perfbench
