// perfbench — the repository benchmark's workload runner.
//
//   perfbench --workload=<cell-xu3|campaign-launch|serve-mix> --seed=N
//             --seconds=S --trace=<0|1> --work-dir=DIR --plan=PLAN
//             [--smoke=1]
//
// With --trace=0 it runs one workload untraced and reports its
// end-to-end metrics.  With --trace=1 it runs the traced layer
// breakdown of all three workloads (the per-layer metrics).  The last
// stdout line is one JSON object: correct, attempted, failed, metrics
// ({name: {value, unit}}), info and failures.  run.py builds this
// binary, drives it and reshapes that line; see README.md.
#include <sys/resource.h>

#include <cstring>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "moo/hypervolume.hpp"
#include "orchestrate/subprocess.hpp"
#include "serde/plan.hpp"

namespace perfbench {

bool same_bits(const std::vector<num::Vec>& a,
               const std::vector<num::Vec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

double normalized_phv(const std::vector<num::Vec>& front) {
  double box = 1.0;
  for (double r : kPhvReference) box *= r;
  return parmis::moo::hypervolume(front, kPhvReference) / box;
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (include_children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kb = std::max(kb, kids.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

std::string write_seeded_plan(const Options& opt) {
  parmis::serde::CampaignPlan plan = parmis::serde::load_plan(opt.plan_path);
  plan.seeds_per_cell = opt.smoke ? 1 : 12;
  plan.base_seed = opt.seed;
  plan.cache.dir.clear();
  const std::string path = opt.work_dir + "/plan.json";
  parmis::serde::save_plan(path, plan);
  return path;
}

void run_campaign_cli(const Options& opt, const std::string& plan_path,
                      const std::string& report_path,
                      const std::vector<std::string>& extra_args) {
  parmis::orchestrate::SpawnSpec spec;
  spec.argv = {opt.campaign_bin, "--plan=" + plan_path,
               "--json=" + report_path};
  spec.argv.insert(spec.argv.end(), extra_args.begin(), extra_args.end());
  spec.stdout_path = report_path + ".log";
  spec.stderr_path = spec.stdout_path;
  parmis::orchestrate::ChildProcess child;
  child.spawn(spec);
  const int status = child.wait();
  if (status != 0) {
    throw std::runtime_error("perfbench: campaign CLI exited with status " +
                             std::to_string(status) + " (log " +
                             spec.stdout_path + ")");
  }
}

}  // namespace perfbench

namespace {

using parmis::json::Value;

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::runtime_error("perfbench: expected --key=value, got " + a);
    }
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  return args;
}

std::string need(const std::map<std::string, std::string>& args,
                 const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) {
    throw std::runtime_error("perfbench: --" + key + " is required");
  }
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Result out;
  try {
    const auto args = parse_args(argc, argv);
    Options opt;
    opt.workload = need(args, "workload");
    opt.seed = std::stoull(need(args, "seed"));
    opt.seconds = std::stod(need(args, "seconds"));
    opt.trace = need(args, "trace") == "1";
    opt.smoke = args.count("smoke") != 0 && args.at("smoke") == "1";
    opt.work_dir = need(args, "work-dir");
    opt.plan_path = need(args, "plan");
    opt.campaign_bin = PERFBENCH_CAMPAIGN_BIN;
    parmis::set_log_level(parmis::LogLevel::Warn);
    parmis::make_directories(opt.work_dir);

    if (opt.workload != "cell-xu3" && opt.workload != "campaign-launch" &&
        opt.workload != "serve-mix") {
      throw std::runtime_error("perfbench: unknown workload " + opt.workload);
    }
    if (opt.trace) {
      // The per-layer breakdown covers every layer, so every traced run
      // measures all three workloads' layers from the same seed.
      const std::string report = opt.work_dir + "/traced_launch.json";
      trace_cell(opt, out);
      trace_launch(opt, out, report);
      trace_serve(opt, out, report);
    } else if (opt.workload == "cell-xu3") {
      run_cell_workload(opt, out);
    } else if (opt.workload == "campaign-launch") {
      run_launch_workload(opt, out);
    } else {
      run_serve_workload(opt, out);
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  Value metrics = Value::object();
  for (const auto& m : out.metrics) {
    Value v = Value::object();
    v.set("value", Value::number(m.value));
    v.set("unit", Value::string(m.unit));
    metrics.set(m.name, std::move(v));
  }
  Value info = Value::object();
  for (const auto& [k, v] : out.info) info.set(k, Value::string(v));
  info.set("compiler", Value::string(PERFBENCH_COMPILER));
  info.set("build_type", Value::string(PERFBENCH_BUILD_TYPE));
  info.set("PARMIS_OBS", Value::string(PERFBENCH_PARMIS_OBS));
  info.set("PARMIS_BATCH_SIMD", Value::string(PERFBENCH_PARMIS_BATCH_SIMD));
  Value failures = Value::array();
  for (const auto& f : out.failures) failures.push_back(Value::string(f));

  Value doc = Value::object();
  doc.set("correct", Value::boolean(out.failed == 0 && out.attempted > 0));
  doc.set("attempted", Value::number(static_cast<double>(out.attempted)));
  doc.set("failed", Value::number(static_cast<double>(out.failed)));
  doc.set("metrics", std::move(metrics));
  doc.set("info", std::move(info));
  doc.set("failures", std::move(failures));
  std::cout << parmis::json::dump_compact(doc) << std::endl;
  return 0;
}
