// End-to-end command-line driver: generate (or load) a benchmark, train a
// detector, report metrics, optionally export the graph.
//
//   ./build/examples/detect_cli --dataset=mgtab --model=BSG4Bot --k=32
//   ./build/examples/detect_cli --dataset=twibot22 --model=BotRGCN
//   ./build/examples/detect_cli --dataset=twibot20 --users=2000 \
//       --export=/tmp/tw20      # write TSVs for external tooling
//   ./build/examples/detect_cli --load=/tmp/tw20 --model=MLP
#include <cstdio>

#include "core/bsg4bot.h"
#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "graph/graph_io.h"
#include "models/model_factory.h"
#include "train/trainer.h"
#include "util/flags.h"

using namespace bsg;

namespace {

void PrintUsage() {
  std::printf(
      "detect_cli — train a bot detector on a synthetic Twitter benchmark\n"
      "  --dataset=twibot20|twibot22|mgtab   preset (default twibot20)\n"
      "  --users=N                           override user count\n"
      "  --model=NAME                        BSG4Bot (default) or any\n"
      "                                      Table II baseline\n"
      "  --k=N --hidden=N --epochs=N --seed=N\n"
      "  --export=DIR                        save the graph as TSVs\n"
      "  --load=DIR                          load a graph instead of\n"
      "                                      generating one\n");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }

  // --- dataset ---
  HeteroGraph graph;
  if (flags.Has("load")) {
    Result<HeteroGraph> loaded = LoadGraph(flags.GetString("load", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = loaded.MoveValueOrDie();
  } else {
    const std::string preset = flags.GetString("dataset", "twibot20");
    Result<DatasetConfig> found = DatasetPreset(preset);
    if (!found.ok()) {
      std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
      PrintUsage();
      return 1;
    }
    DatasetConfig cfg = found.MoveValueOrDie();
    // Per-preset default sizes for a quick run.
    const int default_users =
        preset == "twibot22" ? 3000 : preset == "mgtab" ? 1600 : 2000;
    cfg.num_users = flags.GetInt("users", default_users);
    cfg.tweets_per_user = 16;
    graph = BuildBenchmarkGraph(cfg);
  }
  std::printf("Dataset %s: %d users (%d bots), %lld edges, %d relations\n",
              graph.name.c_str(), graph.num_nodes, graph.NumBots(),
              static_cast<long long>(graph.TotalEdges()),
              graph.num_relations());

  if (flags.Has("export")) {
    Status st = SaveGraph(graph, flags.GetString("export", ""));
    if (!st.ok()) {
      std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("Exported to %s\n", flags.GetString("export", "").c_str());
  }

  // --- model ---
  std::string model_name = flags.GetString("model", "BSG4Bot");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  if (model_name == "BSG4Bot") {
    Bsg4BotConfig cfg;
    cfg.subgraph.k = flags.GetInt("k", 32);
    cfg.hidden = flags.GetInt("hidden", 32);
    cfg.max_epochs = flags.GetInt("epochs", 60);
    cfg.seed = seed;
    Bsg4Bot model(graph, cfg);
    TrainResult res = model.Fit();
    std::printf("BSG4Bot: %d epochs (%.2fs + %.2fs prepare)\n",
                res.epochs_run, res.total_seconds, model.prepare_seconds());
    std::printf("Test accuracy %.4f  F1 %.4f\n", res.test.accuracy,
                res.test.f1);
  } else {
    ModelConfig mc;
    mc.hidden = flags.GetInt("hidden", 32);
    auto model = CreateModel(model_name, graph, mc, seed);
    if (model == nullptr) {
      std::fprintf(stderr, "unknown model '%s'\n", model_name.c_str());
      return 1;
    }
    TrainConfig tc;
    tc.max_epochs = flags.GetInt("epochs", 120);
    tc.min_epochs = 60;
    TrainResult res = TrainModel(model.get(), tc);
    std::printf("%s: %d epochs (%.2fs)\n", model_name.c_str(), res.epochs_run,
                res.total_seconds);
    std::printf("Test accuracy %.4f  F1 %.4f\n", res.test.accuracy,
                res.test.f1);
  }
  return 0;
}
