// Traced-run machinery: the serial component replay, the pool sampler and
// the per-layer table.
#include <chrono>
#include <cstdio>
#include <memory>

#include "ppr/ppr_workspace.h"
#include "serve/engine.h"
#include "util/resource_governor.h"
#include "workloads.h"

namespace perfbench {

using namespace bsg;

ComponentStats ReplayComponents(Bsg4Bot* model,
                                const std::vector<std::vector<int>>& requests,
                                size_t first_timed, bool f32, SpanLog* spans) {
  ComponentStats out;
  const HeteroGraph& g = model->graph();
  const PprConfig& ppr_cfg = model->config().subgraph.ppr;
  out.num_relations = g.num_relations();
  // The serving defaults, owned by the replay.
  SubgraphCache cache(EngineConfig{}.cache_capacity);
  BatchStacker stacker(g.num_relations(), f32);
  PprWorkspace ppr;
  uint64_t growths_after_first = 0;
  bool first_ppr = true;
  uint64_t timed_lookups = 0, timed_hits = 0;
  // The PPR spans replay work AssembleSubgraph repeats internally; the
  // serving path does it once, so the timed totals leave them out.
  double timed_ppr_us = 0.0;

  for (size_t req = 0; req < requests.size(); ++req) {
    const bool timed = req >= first_timed;
    const std::vector<int>& targets = requests[req];
    const int64_t id = static_cast<int64_t>(req);
    const int root =
        spans->Open(timed ? "component.request" : "component.warmup", -1, id);
    std::vector<std::shared_ptr<const BiasedSubgraph>> held;
    std::vector<const BiasedSubgraph*> subs;
    const SubgraphCacheStats before = cache.Stats();
    const int64_t probe_start = NowNs();
    for (int t : targets) {
      ScopedSpan probe(spans, "serve.subgraph_cache.get_or_build", root, id);
      held.push_back(cache.GetOrBuild(t, 0, [&](int target) {
        ScopedSpan build(spans, "component.build", probe.id(), id);
        const int64_t ppr_start = NowNs();
        for (int rel = 0; rel < g.num_relations(); ++rel) {
          ScopedSpan s(spans, "ppr", build.id(), id);
          const SparseVec& res =
              ppr.ApproximatePpr(g.relations[static_cast<size_t>(rel)],
                                 target, ppr_cfg);
          out.ppr_touched += res.size();
          ++out.ppr_calls;
          if (first_ppr) {
            first_ppr = false;
            growths_after_first = ppr.buffer_growths();
          }
        }
        if (timed) timed_ppr_us += (NowNs() - ppr_start) * 1e-3;
        ScopedSpan s(spans, "core.assemble", build.id(), id);
        return model->AssembleSubgraph(target);
      }));
      subs.push_back(held.back().get());
    }
    if (timed) {
      out.timed_probe_us += (NowNs() - probe_start) * 1e-3;
      const SubgraphCacheStats after = cache.Stats();
      timed_lookups += after.lookups - before.lookups;
      timed_hits += after.hits - before.hits;
    }
    SubgraphBatch batch;
    {
      ScopedSpan s(spans, "core.stack", root, id);
      batch = stacker.Stack(subs, targets);
    }
    const int64_t forward_start = NowNs();
    {
      ScopedSpan s(spans, "core.forward", root, id);
      out.logits.push_back(f32 ? model->ScoreBatchF32(batch)
                               : model->ScoreBatch(batch));
    }
    if (timed) out.timed_forward_us += (NowNs() - forward_start) * 1e-3;
    out.forward_targets += targets.size();
    stacker.Recycle(std::move(batch));
    spans->Close(root);
  }
  if (!first_ppr) {
    out.ppr_warm_growths = ppr.buffer_growths() - growths_after_first;
  }
  out.cache = cache.Stats();
  // Report the hit ratio of the timed requests only.
  out.cache.lookups = timed_lookups;
  out.cache.hits = timed_hits;
  out.stacker = stacker.Stats();

  // Per-request totals of the timed part, for the cross-checks.
  const std::vector<double> roots = spans->Durations("component.request");
  out.timed_requests = roots.size();
  for (double us : roots) out.timed_total_us += us;
  out.timed_total_us -= timed_ppr_us;
  out.timed_probe_us -= timed_ppr_us;
  return out;
}

PoolSampler::PoolSampler() {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const BufferPoolStats s = BufferPool::Global().Stats();
      const uint64_t resident = s.live_bytes + s.free_bytes;
      if (resident > peak_.load()) peak_.store(resident);
      samples_.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

PoolSampler::~PoolSampler() {
  stop_.store(true);
  thread_.join();
}

namespace {

void Layer(RunResult* r, const std::string& name, double value,
           const std::string& unit, uint64_t samples) {
  r->per_layer[name] = Metric{value, unit, samples};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Mean of the observations (in the histogram's unit) between two marks.
double DeltaMean(const HistogramMark& a, const HistogramMark& b,
                 uint64_t* count) {
  *count = b.count - a.count;
  return *count == 0 ? 0.0 : (b.sum - a.sum) / static_cast<double>(*count);
}

}  // namespace

void FillPerLayer(const LayerInputs& in, const SpanLog& spans, RunResult* r) {
  const ComponentStats& cs = in.components;

  // --- serve.frontend ---------------------------------------------------
  uint64_t qn = 0;
  const double qw50 =
      in.has_frontend ? DeltaQuantile(in.queue_wait0, in.queue_wait1, 0.5, &qn)
                      : 0.0;
  const double qw99 =
      in.has_frontend ? DeltaQuantile(in.queue_wait0, in.queue_wait1, 0.99)
                      : 0.0;
  Layer(r, "serve.frontend.queue_wait_p50_ms", qw50, "ms", qn);
  Layer(r, "serve.frontend.queue_wait_p99_ms", qw99, "ms", qn);
  const uint64_t submitted =
      in.fe1.submitted_requests - in.fe0.submitted_requests;
  Layer(r, "serve.frontend.queue_depth_peak",
        static_cast<double>(in.fe1.queue_depth_peak), "count", submitted);
  Layer(r, "serve.frontend.shed_frac",
        Ratio(static_cast<double>(in.fe1.shed_requests - in.fe0.shed_requests),
              static_cast<double>(submitted)),
        "ratio", submitted);

  // --- serve.engine -----------------------------------------------------
  const double timed_component_us =
      Ratio(cs.timed_total_us, static_cast<double>(cs.timed_requests));
  Layer(r, "serve.engine.call_p50_us", Quantile(in.engine_us, 0.5), "us",
        in.engine_us.size());
  Layer(r, "serve.engine.call_p99_us", Quantile(in.engine_us, 0.99), "us",
        in.engine_us.size());
  Layer(r, "serve.engine.self_us_per_call",
        in.engine_us.empty() ? 0.0 : Mean(in.engine_us) - timed_component_us,
        "us", in.engine_us.size());
  const uint64_t pool_acq =
      in.fe1.engine.pool_acquires - in.fe0.engine.pool_acquires;
  Layer(r, "serve.engine.pool_hit_rate",
        Ratio(static_cast<double>(in.fe1.engine.pool_hits -
                                  in.fe0.engine.pool_hits),
              static_cast<double>(pool_acq)),
        "ratio", pool_acq);

  // --- serve.subgraph_cache: the serving cache over the front-end phase,
  // or the replay's own cache where no front-end ran ----------------------
  SubgraphCacheStats cache;
  if (in.has_frontend) {
    const SubgraphCacheStats& a = in.fe0.engine.cache;
    const SubgraphCacheStats& b = in.fe1.engine.cache;
    cache.lookups = b.lookups - a.lookups;
    cache.hits = b.hits - a.hits;
    cache.inserts = b.inserts - a.inserts;
    cache.evictions = b.evictions - a.evictions;
    cache.coalesced_misses = b.coalesced_misses - a.coalesced_misses;
  } else if (in.has_components) {
    cache = cs.cache;
  }
  Layer(r, "serve.subgraph_cache.hit_ratio", cache.HitRate(), "ratio",
        cache.lookups);
  const std::vector<double> probe_self =
      spans.SelfMicros("serve.subgraph_cache.get_or_build");
  Layer(r, "serve.subgraph_cache.probe_p50_us", Quantile(probe_self, 0.5),
        "us", probe_self.size());
  Layer(r, "serve.subgraph_cache.inserts", static_cast<double>(cache.inserts),
        "count", cache.lookups);
  Layer(r, "serve.subgraph_cache.evictions",
        static_cast<double>(cache.evictions), "count", cache.lookups);
  Layer(r, "serve.subgraph_cache.coalesced",
        static_cast<double>(cache.coalesced_misses), "count", cache.lookups);

  // --- core.assemble / ppr ----------------------------------------------
  const std::vector<double> asm_us = spans.Durations("core.assemble");
  Layer(r, "core.assemble.calls", static_cast<double>(asm_us.size()), "count",
        asm_us.size());
  Layer(r, "core.assemble.p50_us", Quantile(asm_us, 0.5), "us", asm_us.size());
  Layer(r, "core.assemble.p99_us", Quantile(asm_us, 0.99), "us",
        asm_us.size());
  Layer(r, "core.assemble.busy_s", Sum(asm_us) * 1e-6, "s", asm_us.size());
  const std::vector<double> ppr_us = spans.Durations("ppr");
  Layer(r, "ppr.calls", static_cast<double>(cs.ppr_calls), "count",
        cs.ppr_calls);
  Layer(r, "ppr.p50_us", Quantile(ppr_us, 0.5), "us", ppr_us.size());
  Layer(r, "ppr.touched_nodes_per_call",
        Ratio(static_cast<double>(cs.ppr_touched),
              static_cast<double>(cs.ppr_calls)),
        "count", cs.ppr_calls);
  Layer(r, "ppr.warm_buffer_growths", static_cast<double>(cs.ppr_warm_growths),
        "count", cs.ppr_calls);

  // --- core.stack / core.forward ----------------------------------------
  const std::vector<double> stack_us = spans.Durations("core.stack");
  Layer(r, "core.stack.p50_us_per_batch", Quantile(stack_us, 0.5), "us",
        stack_us.size());
  const double csr_slots = static_cast<double>(cs.stacker.batches_stacked) *
                           static_cast<double>(cs.num_relations);
  Layer(r, "core.stack.csr_reuse_ratio",
        Ratio(static_cast<double>(cs.stacker.csr_reuses), csr_slots), "ratio",
        cs.stacker.batches_stacked);
  const std::vector<double> fwd_us = spans.Durations("core.forward");
  Layer(r, "core.forward.p50_us_per_batch", Quantile(fwd_us, 0.5), "us",
        fwd_us.size());
  Layer(r, "core.forward.us_per_target",
        Ratio(Sum(fwd_us), static_cast<double>(cs.forward_targets)), "us",
        cs.forward_targets);
  Layer(r, "core.forward.busy_s", Sum(fwd_us) * 1e-6, "s", fwd_us.size());

  // --- util: pool and governor (process-wide) ----------------------------
  const uint64_t acquires = in.pool1.acquires - in.pool0.acquires;
  Layer(r, "util.buffer_pool.hit_rate",
        Ratio(static_cast<double>(in.pool1.hits - in.pool0.hits),
              static_cast<double>(acquires)),
        "ratio", acquires);
  Layer(r, "util.buffer_pool.contended_frac",
        Ratio(static_cast<double>(in.pool1.lock_contention -
                                  in.pool0.lock_contention),
              static_cast<double>(acquires)),
        "ratio", acquires);
  Layer(r, "util.buffer_pool.peak_bytes",
        static_cast<double>(in.pool_sampled_peak), "bytes", in.pool_samples);
  const ResourceGovernorStats gov = ResourceGovernor::Global().Stats();
  uint64_t peak_pool = 0, peak_cache = 0;
  for (const GovernorAccountStats& a : gov.accounts) {
    if (a.name == "pool") peak_pool = a.peak_bytes;
    if (a.name == "serve.cache") peak_cache = a.peak_bytes;
  }
  Layer(r, "util.resource_governor.peak_pool_bytes",
        static_cast<double>(peak_pool), "bytes", 1);
  Layer(r, "util.resource_governor.peak_cache_bytes",
        static_cast<double>(peak_cache), "bytes", 1);

  // --- train ----------------------------------------------------------
  const uint64_t tn = in.has_train ? 1 : 0;
  Layer(r, "train.prepare_s", in.prepare_s, "s", tn);
  Layer(r, "train.pretrain_s", in.pretrain_s, "s", tn);
  Layer(r, "train.epoch_s", in.epoch_s, "s",
        in.has_train ? static_cast<uint64_t>(in.epochs) : 0);
  Layer(r, "train.pool_hit_rate", in.train_pool_hit_rate, "ratio", tn);

  // --- io / datagen / features -----------------------------------------
  Layer(r, "io.checkpoint.load_s", in.load_s, "s", in.has_load ? 1 : 0);
  Layer(r, "io.checkpoint.restore_s", in.restore_s, "s", in.has_load ? 1 : 0);
  Layer(r, "io.checkpoint.save_s", in.save_s, "s", in.has_save ? 1 : 0);
  Layer(r, "datagen.generate_s", in.generate_s, "s", 1);
  Layer(r, "features.build_graph_s", in.build_graph_s, "s", 1);

  // --- harness and cross-checks ----------------------------------------
  Layer(r, "harness.gen_late_p99_ms", Quantile(in.gen_late_ms, 0.99), "ms",
        in.gen_late_ms.size());
  Layer(r, "harness.trace_overhead_frac",
        in.untraced_s > 0.0 ? in.traced_s / in.untraced_s - 1.0 : 0.0, "ratio",
        2);

  // Part of the per-request time that no span explains. On the serving
  // workloads this doubles as the cross-check of the outside spans against
  // the registry's queue-wait histogram: whatever the registry's queue wait
  // and the engine replay leave of the front-end latency.
  double unexplained = 0.0;
  uint64_t unexplained_n = 0;
  uint64_t q_count = 0;
  const double q_mean_us =
      in.has_frontend
          ? DeltaMean(in.queue_wait0, in.queue_wait1, &q_count) * 1e3
          : 0.0;
  const double fe_mean_us = Mean(in.frontend_us);
  const double eng_mean_us = Mean(in.engine_us);
  if (in.has_frontend && fe_mean_us > 0.0) {
    // Front-end latency = queue wait (registry) + engine call (replay) +
    // whatever neither covers.
    unexplained = 1.0 - (q_mean_us + eng_mean_us) / fe_mean_us;
    unexplained_n = in.frontend_us.size();
  } else if (in.has_train) {
    const std::vector<double> rep = spans.Durations("train.rep");
    const std::vector<double> self = spans.SelfMicros("train.rep");
    unexplained = Ratio(Sum(self), Sum(rep));
    unexplained_n = rep.size();
  }
  Layer(r, "harness.unexplained_frac", unexplained, "ratio", unexplained_n);

  // Outside spans against the program's own registry histograms.
  uint64_t an = 0, fn = 0;
  const double reg_asm_us =
      in.has_frontend ? DeltaMean(in.assemble0, in.assemble1, &an) * 1e3 : 0.0;
  const double reg_fwd_us =
      in.has_frontend ? DeltaMean(in.forward0, in.forward1, &fn) * 1e3 : 0.0;
  const double outside_fwd_us = Ratio(
      cs.timed_forward_us, static_cast<double>(cs.timed_requests));
  Layer(r, "xcheck.assemble_outside_over_registry",
        Ratio(Ratio(cs.timed_probe_us, static_cast<double>(cs.timed_requests)),
              reg_asm_us),
        "ratio", an);
  Layer(r, "xcheck.forward_outside_over_registry",
        Ratio(outside_fwd_us, reg_fwd_us), "ratio", fn);
}

std::string WriteSpans(const RunOptions& opts, const SpanLog& spans) {
  const std::string path = opts.out_dir + "/spans-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (!spans.WriteJson(path)) {
    std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
  }
  return path;
}

}  // namespace perfbench
