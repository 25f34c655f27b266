// perfbench: the end-to-end benchmark of the asura library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --workload NAME --seed N --counts
//
// Workloads (why each was chosen, and which layers it leaves idle). The
// end-to-end set is mw_mini_sn and service_fleet; sn_storm_p4 stays
// runnable, and its distributed and sub-step layers are measured by a
// section appended to mw_mini_sn's traced run: under hypervisor steal its
// four ranks' collectives stretch a step up to 3x, far past any bound a
// run-to-run comparison could hold.
//
//   mw_mini_sn    The paper's scheme at P=1: fixed global step, U-Net
//                 surrogate on one pool worker. Tree build, gravity and SPH
//                 kernels and surrogate inference dominate; comm and service
//                 do nothing.
//   sn_storm_p4   SN-storm fixture on 4 in-process ranks with hierarchical
//                 rungs, the limiter, weighted Morton decomposition and
//                 direct feedback. Exchange, LET/ghost caching, rebalancing
//                 and the sub-step cadence dominate; the surrogate and
//                 service do nothing.
//   service_fleet A scenario service hosting 8 quiet gas balls driven by one
//                 closed-loop client (ROI queries, clone/start/archive
//                 cycles). Hosting overhead, the fairness quantum and
//                 snapshot writes beside ROI reads dominate; the surrogate
//                 and comm do nothing.
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it first repeats a shorter untraced window (the baseline
// of trace.overhead_ms), then measures the per-layer metrics with spans on
// and writes the spans as Chrome trace-event JSON into --out-dir.
// --counts runs one fixed-length episode and prints only the exact work
// counts, for the determinism self-test.
//
// The last stdout line is one JSON report with the metrics the workload
// measured and the layers it leaves idle; perfbench/run.py checks them
// against BENCHMARK.json and turns the report into the benchmark's result
// line and a fingerprinted record.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.hpp"
#include "kernels/registry.hpp"
#include "trace.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string metricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", " : "") + jsonString(ms[i].name) + ": {\"value\": " +
         jsonNumber(ms[i].value) + ", \"unit\": " + jsonString(ms[i].unit) + "}";
  }
  return s + "}";
}

/// Layers mw_mini_sn leaves idle (one rank, global steps) that its traced
/// run measures on an appended sn_storm_p4 section instead: the distributed
/// exchange and the hierarchical sub-step cadence with its limiter.
bool fromStormSection(const std::string& name) {
  return name.rfind("comm.", 0) == 0 || name.rfind("core.distributed.", 0) == 0 ||
         name == "core.substeps_per_step" || name == "core.limiter_wakes_per_step";
}

void appendStormSection(const Options& opt, Report& rep) {
  Options section = opt;
  section.workload = "sn_storm_p4";
  section.layers_only = true;
  Report storm = perfbench::runSnStormP4(section);
  std::erase_if(rep.per_layer, [](const Metric& m) { return fromStormSection(m.name); });
  for (const auto& m : storm.per_layer) {
    if (fromStormSection(m.name)) rep.per_layer.push_back(m);
  }
  rep.attempted += storm.attempted;
  rep.failed += storm.failed;
  for (const auto& f : storm.failures) rep.failures.push_back("sn_storm_p4 section: " + f);
  rep.info.push_back({"distributed_layers_from", "\"sn_storm_p4 section, 4 ranks, one round\""});
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mw_mini_sn|sn_storm_p4|service_fleet --seed N\n"
               "          [--seconds S] [--trace 0|1] [--out-dir DIR] [--counts]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (a == "--counts") {
      opt.counts_only = true;
    } else {
      return usage(argv[0]);
    }
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1.0;

  Report rep;
  try {
    if (opt.workload == "mw_mini_sn") {
      rep = perfbench::runMwMiniSn(opt);
      if (opt.trace) appendStormSection(opt, rep);
    } else if (opt.workload == "sn_storm_p4") {
      rep = perfbench::runSnStormP4(opt);
    } else if (opt.workload == "service_fleet") {
      rep = perfbench::runServiceFleet(opt);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::string trace_path;
  if (opt.trace) {
    std::filesystem::create_directories(opt.out_dir);
    trace_path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".json";
    if (!perfbench::Tracer::instance().writeChrome(trace_path)) {
      rep.fail(0, "could not write " + trace_path);
    }
    rep.info.push_back({"trace_file", jsonString(trace_path)});
    rep.info.push_back({"trace_spans", std::to_string(perfbench::Tracer::instance().size())});
    rep.layer("fail_rate",
              rep.attempted > 0 ? static_cast<double>(rep.failed) / rep.attempted : 0.0,
              "ratio");
  }

  const bool correct = rep.failures.empty();
  std::string s = "{\"workload\": " + jsonString(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"trace\": " + (opt.trace ? "1" : "0") +
                  ", \"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(rep.attempted) +
                  ", \"failed\": " + std::to_string(rep.failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    s += (i ? ", " : "") + jsonString(rep.failures[i]);
  }
  s += "]";
  if (opt.counts_only) {
    s += ", \"counts\": {";
    for (std::size_t i = 0; i < rep.counts.size(); ++i) {
      s += (i ? ", " : "") + jsonString(rep.counts[i].first) + ": " +
           std::to_string(rep.counts[i].second);
    }
    s += "}";
  } else {
    s += ", \"end_to_end\": " + metricsJson(rep.end_to_end) +
         ", \"per_layer\": " + metricsJson(opt.trace ? rep.per_layer : std::vector<Metric>{}) +
         ", \"idle_layers\": [";
    for (std::size_t i = 0; i < rep.idle.size(); ++i) {
      s += (i ? ", " : "") + jsonString(rep.idle[i]);
    }
    s += "]";
  }
  s += ", \"info\": {";
  for (std::size_t i = 0; i < rep.info.size(); ++i) {
    s += (i ? ", " : "") + jsonString(rep.info[i].first) + ": " + rep.info[i].second;
  }
  s += "}, \"fingerprint\": {\"nproc\": " + std::to_string(perfbench::hostThreads()) +
       ", \"cpu_model\": " + jsonString(cpuModel()) + ", \"pikg_isa\": " +
       jsonString(asura::pikg::isaName(asura::pikg::resolveIsa(asura::pikg::Isa::Auto))) +
       ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
       ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
       ", \"loadavg_1m_at_start\": " + jsonNumber(load[0]) + "}}";
  std::printf("%s\n", s.c_str());
  return correct ? 0 : 1;
}
