// perfbench: the VoroNet benchmark binary.
//
//   perfbench --workload W --seed S [--seconds T] [--trace 0|1]
//             [--small] [--fault views] [--out result.json]
//             [--trace-out trace.json]
//
// Runs one workload (sim_grow_churn, sim_serve_zipf_writes), prints every
// metric by name with its unit, and writes the result document to --out.
// With --trace 1 it also runs the per-layer probes and writes the span
// trace to --trace-out.  --fault injects a fault the correctness gate
// must catch (see Options::fault).  Exit status 1 means a wrong answer;
// 2 means the run could not complete.
// perfbench/run.py builds this binary, runs it, checks the metric set
// against BENCHMARK.json and prints the one-line result.
#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"
#include "common/flags.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) try {
  using namespace perfbench;
  voronet::Flags flags(argc, argv);
  const std::string workload = flags.get_string("workload", "");
  Options opt;
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 30.0);
  opt.traced = flags.get_int("trace", 0) != 0;
  opt.small = flags.get_bool("small", false);
  opt.fault = flags.get_string("fault", "");
  const std::string out = flags.get_string("out", "");
  const std::string trace_out = flags.get_string("trace-out", "");
  flags.reject_unconsumed();
  if (!opt.fault.empty() && opt.fault != "views") {
    std::cerr << "perfbench: unknown --fault '" << opt.fault << "'\n";
    return 2;
  }

  steady_now();  // start the clock every span is stamped against
  Report report;
  SpanLog log(opt.traced);
  {
    Span run(log, workload);
    if (workload == "sim_grow_churn") {
      run_sim_grow_churn(opt, report, log);
    } else if (workload == "sim_serve_zipf_writes") {
      run_sim_serve_zipf_writes(opt, report, log);
    } else {
      std::cerr << "perfbench: unknown --workload '" << workload << "'\n";
      return 2;
    }
  }
  report.set("ok_frac",
             report.attempted() == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted()),
             "ratio");
  report.set("trace.spans", static_cast<double>(log.size()), "count");
  report.set("host.speed", host_speed(), "ratio");
  if (opt.traced && !trace_out.empty()) log.write(trace_out);

  const Json doc = report.to_json();
  for (const auto& [name, m] : doc.at("metrics").children()) {
    std::printf("%-34s %16.6g %s\n", name.c_str(), m.at("value").as_double(),
                m.at("unit").as_string().c_str());
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              report.correct() ? "yes" : "NO");
  for (const auto& w : doc.at("wrong").children()) {
    std::printf("WRONG: %s\n", w.second.as_string().c_str());
  }
  std::fflush(stdout);
  voronet::write_json_file(out, doc);
  return report.correct() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "perfbench: " << e.what() << "\n";
  return 2;
}
