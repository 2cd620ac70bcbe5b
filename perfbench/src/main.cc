// perfbench: the canonical serving + retraining benchmark binary.
//
//   perfbench --prepare-checkpoint=PATH
//       Trains the serving checkpoint once if PATH does not exist.
//   perfbench --workload=backfill|lookup|retrain --seed=N --seconds=S
//             --trace=0|1 --out-dir=DIR --ckpt=PATH [--code-id=X]
//             [--git-sha=Y]
//       Runs one workload and writes DIR/result-<workload>-<seed>-t<trace>.json
//       (plus the span file when traced). Exit code 0 iff every
//       correctness check passed.
//
// perfbench/run.py builds this binary and is the command to use.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "util/flags.h"
#include "workloads.h"
#include "world.h"

using namespace perfbench;

int main(int argc, char** argv) {
  bsg::FlagParser flags(argc, argv);
  NowNs();  // pin the span epoch at process start
  HostStealFrac();

  if (flags.Has("prepare-checkpoint")) {
    const bsg::Status st =
        EnsureServingCheckpoint(flags.GetString("prepare-checkpoint", ""));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }

  RunOptions opts;
  opts.workload = flags.GetString("workload", "");
  opts.seed = std::strtoull(flags.GetString("seed", "1").c_str(), nullptr, 10);
  opts.seconds = flags.GetDouble("seconds", 10.0);
  opts.trace = flags.GetInt("trace", 0);
  opts.out_dir = flags.GetString("out-dir", ".");
  opts.ckpt_path = flags.GetString("ckpt", "");
  if (opts.seconds <= 0.0 || (opts.trace != 0 && opts.trace != 1)) {
    std::fprintf(stderr, "bad --seconds or --trace\n");
    return 2;
  }

  RunResult r;
  r.workload = opts.workload;
  r.trace = opts.trace;
  r.seed = opts.seed;
  StampMachineMeta(&r);
  r.Meta("code.git_sha", flags.GetString("git-sha", "unknown"));
  r.Meta("code.id", flags.GetString("code-id", "unknown"));
  r.MetaNum("run.seed", static_cast<double>(opts.seed));
  r.MetaNum("run.seconds", opts.seconds);

  if (opts.workload == "backfill") {
    RunBackfill(opts, &r);
  } else if (opts.workload == "lookup") {
    RunLookup(opts, &r);
  } else if (opts.workload == "retrain") {
    RunRetrain(opts, &r);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", opts.workload.c_str());
    return 2;
  }

  r.MetaNum("run.host_steal_frac", HostStealFrac());
  r.MetaNum("run.host_stream_gbps", StreamProbeGBps());
  r.Print();
  const std::string path = opts.out_dir + "/result-" + opts.workload + "-" +
                           std::to_string(opts.seed) + "-t" +
                           std::to_string(opts.trace) + ".json";
  if (!r.WriteJson(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("result: %s\n", path.c_str());
  return r.correct() ? 0 : 1;
}
