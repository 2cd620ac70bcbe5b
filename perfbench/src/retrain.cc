// The retrain workload: Bsg4Bot::Prepare() (pre-training plus the all-node
// subgraph build), Fit() for a fixed number of epochs, then a checkpoint
// save, on a fixed mid-sized graph; the seed drives the model. It shares
// PPR and assembly with backfill but adds the f64 autograd forward/backward
// and the optimiser; the inference forward is not on its path.
#include <algorithm>
#include <cstring>
#include <memory>

#include "core/pretrain.h"
#include "io/checkpoint.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

using namespace bsg;

namespace {

/// Quantile of train_s reported as retrain's latency tail.
constexpr double kRetrainTailQuantile = 0.75;

struct Rep {
  double train_s = 0.0;  ///< Prepare + Fit + save
  double fit_s = 0.0;
  TrainResult result;
  std::unique_ptr<Bsg4Bot> model;
};

/// One retrain: construct, Prepare, Fit, save. With `spans`, each call is
/// recorded under a "train.rep" root.
Rep RunRep(const HeteroGraph& g, const Bsg4BotConfig& cfg,
           const std::string& ckpt, SpanLog* spans) {
  Rep rep;
  const int64_t start = NowNs();
  const int root = spans != nullptr ? spans->Open("train.rep", -1, 0) : -1;
  auto timed = [&](const char* name, auto&& fn) {
    if (spans == nullptr) return fn();
    ScopedSpan s(spans, name, root, 0);
    return fn();
  };
  rep.model = std::make_unique<Bsg4Bot>(g, cfg);
  timed("train.prepare", [&] {
    rep.model->Prepare();
    return 0;
  });
  const int64_t fit_start = NowNs();
  rep.result = timed("train.fit", [&] { return rep.model->Fit(); });
  rep.fit_s = SecondsBetween(fit_start, NowNs());
  const Status st = timed("io.checkpoint.save",
                          [&] { return rep.model->SaveCheckpoint(ckpt); });
  BSG_CHECK(st.ok(),
            ("retrain checkpoint save failed: " + st.ToString()).c_str());
  if (spans != nullptr) spans->Close(root);
  rep.train_s = SecondsBetween(start, NowNs());
  return rep;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  }
  return true;
}

/// Reloads the saved checkpoint into a fresh model and checks it reproduces
/// the trained model's test logits bit for bit. Returns (load_s, restore_s).
std::pair<double, double> CheckCheckpointRoundTrip(const HeteroGraph& g,
                                                   const std::string& path,
                                                   const TrainResult& trained,
                                                   SpanLog* spans,
                                                   RunResult* r) {
  const int64_t t0 = NowNs();
  Result<Checkpoint> ckpt = LoadCheckpoint(path);
  const int64_t t1 = NowNs();
  if (!r->Check("retrain.checkpoint_loads", ckpt.ok(),
                ckpt.status().ToString())) {
    return {0.0, 0.0};
  }
  Result<Bsg4BotConfig> cfg = Bsg4Bot::CheckpointConfig(ckpt.ValueOrDie());
  if (!r->Check("retrain.checkpoint_config", cfg.ok(),
                cfg.status().ToString())) {
    return {0.0, 0.0};
  }
  Bsg4Bot restored(g, cfg.ValueOrDie());
  const Status st = restored.RestoreFromCheckpoint(ckpt.ValueOrDie());
  const int64_t t2 = NowNs();
  if (spans != nullptr) {
    spans->Add("io.checkpoint.load", t0, t1, -1, 0);
    spans->Add("io.checkpoint.restore", t1, t2, -1, 0);
  }
  if (r->Check("retrain.checkpoint_restores", st.ok(), st.ToString())) {
    restored.Prepare();
    r->Check("retrain.checkpoint_reproduces_test_logits",
             SameBits(restored.PredictLogits(g.test_idx), trained.best_logits),
             "reloaded model scores the test split differently");
  }
  return {SecondsBetween(t0, t1), SecondsBetween(t1, t2)};
}

/// One round of retrain set-ups (see kSetupReps); returns the last graph.
BuiltGraph SetUpRepeatedly(std::vector<double>* setups) {
  BuiltGraph built;
  double total = 0.0;
  for (int rep = 0; rep < kSetupReps || total < kSetupMinSeconds; ++rep) {
    built = GenerateGraph(RetrainDataset());
    setups->push_back(built.generate_s + built.build_graph_s);
    total += setups->back();
  }
  return built;
}

}  // namespace

void RunRetrain(const RunOptions& opts, RunResult* r) {
  std::vector<double> setups;
  const BuiltGraph built = SetUpRepeatedly(&setups);
  const HeteroGraph& g = *built.graph;
  const Bsg4BotConfig cfg = RetrainModelConfig(opts.seed);
  const std::string ckpt = opts.out_dir + "/retrain-" +
                           std::to_string(opts.seed) + ".ckpt";
  r->MetaNum("graph.nodes", g.num_nodes);
  r->MetaNum("graph.relations", g.num_relations());
  size_t edges = 0;
  for (const Csr& c : g.relations) edges += c.num_edges();
  r->MetaNum("graph.edges", static_cast<double>(edges));
  r->MetaNum("retrain.epochs", cfg.max_epochs);
  r->MetaNum("retrain.train_nodes", static_cast<double>(g.train_idx.size()));
  const double trained_targets =
      static_cast<double>(g.train_idx.size()) * cfg.max_epochs;

  if (opts.trace == 0) {
    std::vector<double> train_s, fit_s;
    Rep first;
    bool repeat = true;
    WallTimer measured;
    while (train_s.size() < 2 ||
           (measured.Seconds() < opts.seconds && train_s.size() < 20)) {
      Rep rep = RunRep(g, cfg, ckpt, nullptr);
      train_s.push_back(rep.train_s);
      fit_s.push_back(rep.fit_s);
      ++r->attempted;
      if (train_s.size() == 1) {
        first = std::move(rep);
      } else {
        repeat = repeat &&
                 SameBits(first.result.loss_history, rep.result.loss_history) &&
                 first.result.test.f1 == rep.result.test.f1;
      }
    }
    const double rss = PeakRssMiB();
    r->Check("retrain.loss_history_repeats", repeat,
             "a repeated retrain produced a different loss history");
    r->Check("retrain.ran_all_epochs",
             first.result.epochs_run == cfg.max_epochs,
             StrFormat("ran %d of %d epochs", first.result.epochs_run,
                       cfg.max_epochs));
    CheckCheckpointRoundTrip(g, ckpt, first.result, nullptr, r);

    std::vector<double> ms;
    for (double s : train_s) ms.push_back(s * 1e3);
    auto& wm = r->workload_metrics;
    wm["train_s"] = Metric{Median(train_s), "s", train_s.size()};
    wm["test_f1"] = Metric{first.result.test.f1, "ratio", g.test_idx.size()};
    wm["peak_rss_mb"] = Metric{rss, "MiB", 1};
    r->end_to_end["peak_rss_mb"] = wm["peak_rss_mb"];
    // Throughput is the training loop alone (Fit); the two latencies are
    // the whole retrain (Prepare + Fit + save). A 20 s run holds about seven
    // retrains, too few for a p90, so the tail is their upper quartile
    // (the slowest retrain spread 34% between runs of one commit).
    r->end_to_end["throughput_per_s"] =
        Metric{trained_targets / Median(fit_s), "1/s", fit_s.size()};
    r->end_to_end["latency_p50_ms"] = Metric{Median(ms), "ms", ms.size()};
    r->end_to_end["latency_tail_ms"] =
        Metric{Quantile(ms, kRetrainTailQuantile), "ms", ms.size()};
    r->MetaNum("retrain.tail_quantile", kRetrainTailQuantile);
    wm["failed_frac"] = Metric{static_cast<double>(r->failed) /
                                   static_cast<double>(r->attempted),
                               "ratio", r->attempted};
    SetUpRepeatedly(&setups);
    RecordSetups(setups, r);
    return;
  }

  RecordSetups(setups, r);

  // --- traced run ------------------------------------------------------
  SpanLog spans;
  LayerInputs in;
  in.generate_s = built.generate_s;
  in.build_graph_s = built.build_graph_s;
  in.pool0 = BufferPool::Global().Stats();
  PoolSampler sampler;

  Rep untraced = RunRep(g, cfg, ckpt, nullptr);
  in.untraced_s = untraced.train_s;
  Rep traced = RunRep(g, cfg, ckpt, &spans);
  in.traced_s = traced.train_s;
  r->attempted = 2;
  r->Check("retrain.loss_history_repeats",
           SameBits(untraced.result.loss_history, traced.result.loss_history),
           "the traced retrain produced a different loss history");

  in.has_train = true;
  in.prepare_s = Mean(spans.Durations("train.prepare")) * 1e-6;
  in.epoch_s = traced.result.seconds_per_epoch;
  in.epochs = traced.result.epochs_run;
  in.train_pool_hit_rate = traced.result.pool_hit_rate;
  in.save_s = Mean(spans.Durations("io.checkpoint.save")) * 1e-6;
  in.has_save = true;
  const auto [load_s, restore_s] =
      CheckCheckpointRoundTrip(g, ckpt, traced.result, &spans, r);
  in.load_s = load_s;
  in.restore_s = restore_s;
  in.has_load = true;

  // One layer down: pre-training alone, replayed with Prepare()'s config.
  {
    ScopedSpan s(&spans, "train.pretrain", -1, 0);
    const PretrainResult pre =
        PretrainClassifier(g, traced.model->config().pretrain);
    r->Check("retrain.pretrain_replay_matches",
             SameBits(pre.hidden_reps,
                      traced.model->pretrain_result().hidden_reps),
             "replayed pre-training differs from Prepare()'s");
  }
  in.pretrain_s = Mean(spans.Durations("train.pretrain")) * 1e-6;

  // Components over the test split in the trained model's batch width:
  // the same batches PredictLogits scored for best_logits.
  std::vector<std::vector<int>> batches;
  const size_t width = static_cast<size_t>(cfg.batch_size);
  for (size_t b = 0; b < g.test_idx.size(); b += width) {
    const size_t end = std::min(g.test_idx.size(), b + width);
    batches.emplace_back(g.test_idx.begin() + static_cast<std::ptrdiff_t>(b),
                         g.test_idx.begin() + static_cast<std::ptrdiff_t>(end));
  }
  in.has_components = true;
  in.components =
      ReplayComponents(traced.model.get(), batches, 0, false, &spans);
  size_t row = 0, mismatches = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    const Matrix& m = in.components.logits[b];
    for (size_t j = 0; j < batches[b].size(); ++j, ++row) {
      for (int c = 0; c < 2; ++c) {
        const double x = m(static_cast<int>(j), c);
        const double y = traced.result.best_logits(static_cast<int>(row), c);
        if (std::memcmp(&x, &y, sizeof x) != 0) ++mismatches;
      }
    }
  }
  r->Check("retrain.component_replay_bit_identical", mismatches == 0,
           StrFormat("%zu replayed test logits differ", mismatches));
  in.pool1 = BufferPool::Global().Stats();
  in.pool_sampled_peak = sampler.PeakBytes();
  in.pool_samples = sampler.samples();
  FillPerLayer(in, spans, r);
  r->Meta("trace.span_file", WriteSpans(opts, spans));
}

}  // namespace perfbench
