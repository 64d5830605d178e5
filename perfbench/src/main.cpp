// pipeline_bench: runs one workload of the end-to-end OCD pipeline
// benchmark — build instance → sim::run to completion (and
// shard::run_sharded) → lower bounds → validation — for a fixed wall
// time, checks every output, and prints the metrics as one JSON object
// on its last stdout line.
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                  [--trace-out <file>] [--commit <id>] [--allow-debug]
//
// The library's worker pool runs with one worker, so in-process shards
// take turns: on a shared 4-vCPU host, more workers made every timing
// too noisy to gate, and the default of nproc was also slower.
// --trace 0 reports the end-to-end metrics from unwrapped planners.
// --trace 1 alternates bare and traced rounds over the instances: traced
// passes wrap every planner and the loss model in timing wrappers and
// record spans, and the per-layer metrics are their self times.  Every
// traced run is also the wrapper self-test: each wrapped planner run
// must reproduce the bare run's schedule and RunStats bit for bit.
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on a
// usage error or a refused build.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ocd/core/bounds.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/faults/reliable.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/partition.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/util/error.hpp"
#include "ocd/util/parallel.hpp"
#include "ocd/util/simd.hpp"
#include "timed.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef OCD_BENCH_BUILD_TYPE
#define OCD_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace ocd;

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> m = {
      {"pipeline_s", "s"},       {"setup_s", "s"},
      {"steps_per_s", "1/s"},    {"peak_rss_mb", "MB"},
      {"makespan_gap", "ratio"}, {"bandwidth_gap", "ratio"},
  };
  return m;
}

std::string metric_label(std::string name) {
  std::replace(name.begin(), name.end(), '+', '-');
  return name;
}

/// The same list for every workload, so every run reports every metric;
/// layers a workload never enters read 0.
std::vector<Metric> make_per_layer_metrics() {
  std::vector<Metric> m = {
      {"topology.build_s", "s"}, {"core.scenario_s", "s"},
      {"sim.precompute_s", "s"}, {"sim.step_self_s", "s"},
      {"sim.useful_ratio", "ratio"},
  };
  std::vector<std::string> seen;
  for (const Workload& w : workloads()) {
    for (const std::string& planner : w.planners) {
      if (std::find(seen.begin(), seen.end(), planner) != seen.end()) continue;
      seen.push_back(planner);
      const std::string h = "heuristics." + metric_label(planner);
      m.push_back({h + ".reset_s", "s"});
      m.push_back({h + ".plan_s", "s"});
      m.push_back({h + ".plan_ms_per_step", "ms"});
      m.push_back({h + ".steps", "steps"});
    }
  }
  const std::vector<Metric> rest = {
      {"core.bounds_s", "s"},          {"core.makespan_lb", "steps"},
      {"core.validate_s", "s"},        {"faults.lost_s", "s"},
      {"faults.reliable_self_s", "s"}, {"faults.lost_moves", "count"},
      {"faults.retransmit_ratio", "ratio"},
      {"shard.partition_s", "s"},      {"shard.run_s", "s"},
      {"shard.speedup", "ratio"},      {"shard.bytes_per_step", "B"},
      {"shard.cut_arcs", "count"},     {"bench.self_s", "s"},
      {"bench.trace_overhead_s", "s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m = make_per_layer_metrics();
  return m;
}

// ---------------------------------------------------------------- checks

/// Order-sensitive 64-bit digest; equal digests stand in for bit-equal
/// schedules and stats without keeping every schedule of every pass.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ = (h_ ^ (h_ >> 31)) * 0xbf58476d1ce4e5b9ULL;
  }
  void add(const std::vector<std::int64_t>& values) {
    add(values.size());
    for (std::int64_t v : values) add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc908ULL;
};

/// Digest of everything a run produces except timings and the fields
/// only shard::run_sharded fills (barrier bytes, crash accounting).
std::uint64_t fingerprint(const sim::RunResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.success));
  d.add(static_cast<std::uint64_t>(r.steps));
  d.add(static_cast<std::uint64_t>(r.bandwidth));
  d.add(static_cast<std::uint64_t>(r.termination));
  d.add(r.schedule.steps().size());
  for (const core::Timestep& step : r.schedule.steps()) {
    d.add(step.sends().size());
    for (const core::ArcSend& send : step.sends()) {
      d.add(static_cast<std::uint64_t>(send.arc));
      const TokenSetView tokens(send.tokens);
      for (std::size_t w = 0; w < tokens.num_words(); ++w)
        d.add(tokens.word(w));
    }
  }
  const sim::RunStats& s = r.stats;
  d.add(s.moves_per_step);
  d.add(s.lost_per_step);
  d.add(s.completion_step);
  d.add(s.sent_by_vertex);
  for (std::int64_t v : {s.useful_moves, s.redundant_moves, s.lost_moves,
                         s.retransmissions, s.adapter_dropped_moves})
    d.add(static_cast<std::uint64_t>(v));
  return d.value();
}

// ---------------------------------------------------------------- passes

struct RunRecord {
  std::string label;  ///< planner name; "@shards" suffix for run_sharded
  std::string error;  ///< empty when every check on this run passed
  std::int64_t steps = 0;
  std::int64_t bandwidth = 0;
  std::uint64_t fingerprint = 0;
  double seconds = 0.0;  ///< wall time of the sim::run / run_sharded call
  sim::RunStats stats;
};

struct PassResult {
  bool traced = false;
  std::int32_t instance = 0;
  double pipeline_s = 0.0;
  double setup_s = 0.0;  ///< the pass's topology + scenario build
  std::int64_t makespan_lb = 0;
  std::int64_t bandwidth_lb = 0;
  std::int64_t cut_arcs = 0;
  std::vector<RunRecord> runs;
  std::map<std::string, double> layers;  ///< traced passes only
};

std::unique_ptr<TimedPolicy> make_timed_policy(const std::string& name,
                                               Tracer& tracer) {
  const std::string layer = "heuristics." + metric_label(name);
  constexpr std::string_view kReliable = "+reliable";
  if (name.size() > kReliable.size() && name.ends_with(kReliable)) {
    auto inner = std::make_unique<TimedPolicy>(
        heuristics::make_policy(name.substr(0, name.size() - kReliable.size())),
        tracer, layer);
    return std::make_unique<TimedPolicy>(
        std::make_unique<faults::ReliableAdapter>(std::move(inner)), tracer,
        "faults.reliable");
  }
  return std::make_unique<TimedPolicy>(heuristics::make_policy(name), tracer,
                                       layer);
}

void validate_into(const core::Instance& inst, const sim::RunResult& result,
                   Tracer* tracer, RunRecord& rec) {
  Scope span(tracer, "core.validate");
  if (!result.success) {
    rec.error = std::string("run ended ") + sim::to_string(result.termination);
    return;
  }
  const core::ValidationResult v = core::validate(inst, result.schedule);
  if (!v.successful)
    rec.error = "schedule fails validation: " +
                (v.violation.empty() ? "wants unmet" : v.violation);
}

RunRecord record_of(const std::string& label, const sim::RunResult& result,
                    double seconds) {
  RunRecord rec;
  rec.label = label;
  rec.steps = result.steps;
  rec.bandwidth = result.bandwidth;
  rec.fingerprint = fingerprint(result);
  rec.seconds = seconds;
  rec.stats = result.stats;
  rec.stats.moves_per_step.clear();
  rec.stats.lost_per_step.clear();
  rec.stats.completion_step.clear();
  rec.stats.sent_by_vertex.clear();
  return rec;
}

sim::SimOptions sim_options(std::uint64_t seed) {
  sim::SimOptions options;
  options.seed = seed;
  return options;
}

/// One sim::run of `name`; adds the loss model's time to `lost_s`.
RunRecord run_planner(const core::Instance& inst, const Workload& w,
                      const std::string& name, std::uint64_t seed,
                      Tracer* tracer, double& lost_s) {
  sim::SimOptions options = sim_options(seed);
  std::optional<faults::UniformLoss> loss;
  std::optional<TimedFaultModel> timed_loss;
  if (w.loss_rate > 0.0) {
    loss.emplace(w.loss_rate);
    options.faults = &*loss;
    if (tracer != nullptr) options.faults = &timed_loss.emplace(*loss, *tracer);
  }
  sim::PolicyPtr policy;
  TimedPolicy* timed = nullptr;
  if (tracer != nullptr) {
    auto p = make_timed_policy(name, *tracer);
    timed = p.get();
    policy = std::move(p);
  } else {
    policy = heuristics::make_policy(name);
  }

  sim::RunResult result;
  double seconds = 0.0;
  {
    Scope span(tracer, "sim.run");
    const std::int64_t start = now_ns();
    result = sim::run(inst, *policy, options);
    seconds = static_cast<double>(now_ns() - start) * 1e-9;
    if (timed != nullptr)
      tracer->add(tracer->intern("sim.precompute"), start,
                  timed->reset_started_ns());
  }
  if (timed_loss) {
    timed_loss->flush();
    lost_s += timed_loss->lost_seconds();
  }
  RunRecord rec = record_of(name, result, seconds);
  validate_into(inst, result, tracer, rec);
  return rec;
}

/// One shard::run_sharded of `name` over w.shards in-process shards,
/// partitioned as run_sharded would by default but timed separately.
RunRecord run_sharded_planner(const core::Instance& inst, const Workload& w,
                              const std::string& name, std::uint64_t seed,
                              Tracer* tracer, std::int64_t& cut_arcs) {
  shard::PartitionOptions part_options;
  part_options.num_shards = w.shards;
  part_options.balance_eps = shard::resolve_balance_eps(-1);
  part_options.flow_refine = part_options.balance_eps > 0;
  shard::Partition part;
  {
    Scope span(tracer, "shard.partition");
    part = shard::partition_vertices(inst.graph(), part_options);
  }
  cut_arcs = part.stats.cut_arcs;
  shard::ShardOptions options;
  options.num_shards = w.shards;
  options.transport = shard::TransportKind::kInProcess;
  options.balance_eps = part_options.balance_eps;
  options.sim = sim_options(seed);
  sim::RunResult result;
  double seconds = 0.0;
  {
    Scope span(tracer, "shard.run");
    const std::int64_t start = now_ns();
    result = shard::run_sharded(inst, name, options, part);
    seconds = static_cast<double>(now_ns() - start) * 1e-9;
  }
  RunRecord rec =
      record_of(name + "@" + std::to_string(w.shards), result, seconds);
  validate_into(inst, result, tracer, rec);
  return rec;
}

/// Setup: the topology and the scenario on it, both drawn from `seed`.
core::Instance build_instance(const Workload& w, std::uint64_t seed,
                              Tracer* tracer) {
  Scope span(tracer, "setup");
  Rng rng(seed);
  Digraph graph;
  {
    Scope topo(tracer, "topology.build");
    graph = w.topology(rng);
  }
  Scope scenario(tracer, "core.scenario");
  return w.scenario(std::move(graph), rng);
}

/// Hands free heap memory back to the kernel and restarts its peak
/// resident-size count (VmHWM) from the current size, so that the next
/// peak_rss_mb() reads the peak of what runs in between.  Without a
/// writable /proc/self/clear_refs the count keeps the process lifetime's
/// peak, which a note on stderr reports once.
void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  static bool warned = false;
  if (!clear_refs && !warned) {
    warned = true;
    std::cerr << "note: cannot reset the peak resident size; peak_rss_mb "
                 "is the process lifetime's peak\n";
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

PassResult run_pass(const Workload& w, std::uint64_t seed, Tracer* tracer,
                    std::int32_t pass) {
  PassResult out;
  out.traced = tracer != nullptr;
  if (tracer != nullptr) tracer->set_pass(pass);
  const std::int64_t pass_start = now_ns();
  double lost_s = 0.0;
  {
    Scope pass_span(tracer, "pass");
    const core::Instance inst = build_instance(w, seed, tracer);
    out.setup_s = static_cast<double>(now_ns() - pass_start) * 1e-9;

    // A run that throws counts as a failed attempt; the pass goes on.
    const auto attempt = [&](const std::string& label, const auto& run) {
      try {
        out.runs.push_back(run());
      } catch (const Error& e) {
        RunRecord rec;
        rec.label = label;
        rec.error = e.what();
        out.runs.push_back(std::move(rec));
      }
    };
    for (const std::string& name : w.planners) {
      attempt(name, [&] {
        return run_planner(inst, w, name, seed, tracer, lost_s);
      });
    }
    if (w.shards > 0) {
      const std::string& name = w.planners.front();
      attempt(name + "@" + std::to_string(w.shards), [&] {
        RunRecord rec = run_sharded_planner(inst, w, name, seed, tracer,
                                            out.cut_arcs);
        if (rec.error.empty() &&
            rec.fingerprint != out.runs.front().fingerprint)
          rec.error = "run_sharded differs from sim::run";
        return rec;
      });
    }

    Scope span(tracer, "core.bounds");
    out.makespan_lb = core::makespan_lower_bound(inst);
    out.bandwidth_lb = core::bandwidth_lower_bound(inst);
  }
  out.pipeline_s = static_cast<double>(now_ns() - pass_start) * 1e-9;
  if (tracer != nullptr) {
    out.layers = tracer->self_seconds(pass);
    // lost() time sits inside sim.run but is recorded as a counter, not
    // a span, so move it out of the simulator's self time by hand.
    out.layers["sim.run"] -= lost_s;
    out.layers["faults.lost"] = lost_s;
  }
  return out;
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// "n=<count>, p<k>=<value>" for the highest whole percentile k with at
/// least ten samples above it, or a note that there is none.
std::string tail_summary(std::vector<double> v) {
  std::ostringstream out;
  out << "n=" << v.size();
  const std::size_t n = v.size();
  if (n <= 10) {
    out << ", no percentile has 10 samples beyond it";
    return out.str();
  }
  std::sort(v.begin(), v.end());
  const std::size_t k = (100 * (n - 10)) / n;
  const std::size_t rank = std::max<std::size_t>(1, (k * n + 99) / 100);
  out << ", p" << k << "=" << v[rank - 1];
  return out.str();
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------- CLI

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  bool allow_debug = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: pipeline_bench --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1 [--trace-out <file>] "
               "[--commit <id>] [--allow-debug]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allow-debug") {
      o.allow_debug = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--trace-out") {
        o.trace_out = value;
      } else if (arg == "--commit") {
        o.commit = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (find_workload(o.workload) == nullptr)
    usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_number(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string stamp_json(const Options& o) {
  std::ostringstream out;
  out << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"jobs\":" << util::parallel_jobs() << ",\"simd_active\":\""
      << util::simd::level_name(util::simd::active_level())
      << "\",\"simd_max\":\""
      << util::simd::level_name(util::simd::max_supported_level())
      << "\",\"build_type\":\"" << OCD_BENCH_BUILD_TYPE << "\",\"ndebug\":"
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << ",\"commit\":\"" << o.commit << "\"}";
  return out.str();
}

/// The per-layer metrics of one traced pass: span self times plus the
/// counts and ratios of its runs.  `bare` is the untraced pass over the
/// same instance; shard.speedup comes from its timings alone, since a
/// traced sim::run carries the wrappers' overhead and run_sharded none.
std::map<std::string, double> layer_metrics(const PassResult& p,
                                            const PassResult& bare) {
  const auto self = [&](const std::string& span) {
    const auto it = p.layers.find(span);
    return it == p.layers.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> m;
  m["topology.build_s"] = self("topology.build");
  m["core.scenario_s"] = self("core.scenario");
  m["sim.precompute_s"] = self("sim.precompute");
  m["sim.step_self_s"] = self("sim.run");
  m["core.bounds_s"] = self("core.bounds");
  m["core.makespan_lb"] = static_cast<double>(p.makespan_lb);
  m["core.validate_s"] = self("core.validate");
  m["faults.lost_s"] = self("faults.lost");
  m["faults.reliable_self_s"] =
      self("faults.reliable.reset") + self("faults.reliable.plan_step");
  m["shard.partition_s"] = self("shard.partition");
  m["shard.run_s"] = self("shard.run");
  m["shard.cut_arcs"] = static_cast<double>(p.cut_arcs);
  m["bench.self_s"] = self("pass") + self("setup");

  std::int64_t useful = 0, moves = 0, lost = 0, retrans = 0,
               reliable_moves = 0;
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    const RunRecord& r = p.runs[i];
    useful += r.stats.useful_moves;
    moves += r.stats.total_moves();
    lost += r.stats.lost_moves;
    if (r.label.ends_with("+reliable")) {
      retrans += r.stats.retransmissions;
      reliable_moves += r.stats.total_moves();
    }
    if (r.label.find('@') != std::string::npos) {
      m["shard.bytes_per_step"] =
          static_cast<double>(r.stats.shard_bytes_sent) /
          static_cast<double>(r.steps);
      m["shard.speedup"] = bare.runs.front().seconds / bare.runs[i].seconds;
      continue;
    }
    const std::string h = "heuristics." + metric_label(r.label);
    const double plan_s = self(h + ".plan_step");
    m[h + ".reset_s"] = self(h + ".reset");
    m[h + ".plan_s"] = plan_s;
    m[h + ".plan_ms_per_step"] = plan_s * 1e3 / static_cast<double>(r.steps);
    m[h + ".steps"] = static_cast<double>(r.steps);
  }
  m["sim.useful_ratio"] =
      static_cast<double>(useful) / static_cast<double>(moves);
  m["faults.lost_moves"] = static_cast<double>(lost);
  if (reliable_moves > 0)
    m["faults.retransmit_ratio"] =
        static_cast<double>(retrans) / static_cast<double>(reliable_moves);
  return m;
}

int run(const Options& o) {
#ifndef NDEBUG
  if (!o.allow_debug) {
    std::cerr << "error: refusing to time a build without NDEBUG "
                 "(pass --allow-debug to override)\n";
    return 2;
  }
#endif
  const Workload& w = *find_workload(o.workload);
  util::set_parallel_jobs(1);
  std::cout << "# stamp " << stamp_json(o) << "\n";
  const auto instance_seed = [&](std::int32_t k) {
    return derive_seed(o.seed, static_cast<std::uint64_t>(k), 0);
  };
  const auto seconds_since = [](std::int64_t start) {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };

  // A run covers w.instances instances drawn from the seed, so its
  // medians and gaps average over instances instead of hanging on one
  // graph's bottleneck vertex.  The first pass over an instance is its
  // reference: every later pass over it must reproduce it bit for bit
  // (for a traced pass, that is the wrapped-vs-bare self-test).
  Tracer tracer;
  std::vector<std::optional<PassResult>> reference(
      static_cast<std::size_t>(w.instances));
  std::vector<PassResult> timed;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto check = [&](PassResult& p, std::int32_t k) {
    auto& ref = reference[static_cast<std::size_t>(k)];
    for (std::size_t i = 0; i < p.runs.size(); ++i) {
      RunRecord& rec = p.runs[i];
      if (rec.error.empty() && ref &&
          rec.fingerprint != ref->runs[i].fingerprint)
        rec.error = p.traced ? "wrapped run differs from the bare run"
                             : "pass differs from the first pass";
      ++attempted;
      if (!rec.error.empty()) {
        ++failed;
        std::cout << "# FAIL instance " << k << " " << rec.label << ": "
                  << rec.error << "\n";
      }
    }
    if (!ref) ref = p;
  };

  // An untimed first round passes over every instance once.  It warms
  // the caches, makes each instance's reference pass, and measures each
  // pass's peak memory, starting it from a trimmed heap with the kernel's
  // peak count restarted.  Timed passes leave the heap as it is: making
  // them re-fault freed pages made their times noisier on a shared host.
  std::vector<double> pass_rss;
  for (std::int32_t k = 0; k < w.instances; ++k) {
    restart_peak_rss();
    PassResult p = run_pass(w, instance_seed(k), nullptr, 0);
    pass_rss.push_back(peak_rss_mb());
    check(p, k);
  }

  // Timed passes go in whole rounds, one pass per instance, so every
  // instance weighs the same in every median and sum.  When tracing, each
  // bare pass is followed at once by a traced pass over the same
  // instance, so the pair's difference (the tracing overhead) sees the
  // same instance and nearly the same host load.  The run does at least
  // one round, then goes on while the next one, timed like the last,
  // would end within --seconds.
  const std::int32_t per_instance = o.trace ? 2 : 1;
  const std::int64_t start = now_ns();
  for (double round_s = 0.0; timed.empty() ||
                             seconds_since(start) + round_s <= o.seconds;) {
    const std::int64_t round_start = now_ns();
    for (std::int32_t i = 0; i < w.instances * per_instance; ++i) {
      const std::int32_t k = i / per_instance;
      const bool traced = i % per_instance == 1;
      const auto pass = static_cast<std::int32_t>(timed.size()) + 1;
      PassResult p =
          run_pass(w, instance_seed(k), traced ? &tracer : nullptr, pass);
      p.instance = k;
      check(p, k);
      timed.push_back(std::move(p));
    }
    round_s = seconds_since(round_start);
  }

  // Timings take, per instance, the best of its bare passes.  Load from
  // other tenants of a shared host comes and goes within seconds; the
  // best of a few rounds reads an instance's cost with little of it, and
  // on a 4-vCPU host halved the run-to-run spread of pipeline_s against
  // the median of all passes.  pipeline_s and setup_s are medians over
  // instances of the per-instance best.
  const auto n = static_cast<std::size_t>(w.instances);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> pipeline, traced_pipeline;
  std::vector<double> best_pipeline(n, inf), best_setup(n, inf);
  // Per planner label, the best sim::run / run_sharded time per instance.
  std::map<std::string, std::vector<double>> best_run_s;
  for (const PassResult& p : timed) {
    if (p.traced) {
      traced_pipeline.push_back(p.pipeline_s);
      continue;
    }
    pipeline.push_back(p.pipeline_s);
    const auto k = static_cast<std::size_t>(p.instance);
    best_pipeline[k] = std::min(best_pipeline[k], p.pipeline_s);
    best_setup[k] = std::min(best_setup[k], p.setup_s);
    for (const RunRecord& r : p.runs) {
      std::vector<double>& best =
          best_run_s.try_emplace(r.label, n, inf).first->second;
      best[k] = std::min(best[k], r.seconds);
    }
  }

  std::vector<double> makespan_ratios, bandwidth_ratios;
  std::map<std::string, std::int64_t> steps;  // label → sum over instances
  for (const auto& ref : reference) {
    for (const RunRecord& r : ref->runs) {
      makespan_ratios.push_back(static_cast<double>(r.steps) /
                                static_cast<double>(ref->makespan_lb));
      bandwidth_ratios.push_back(static_cast<double>(r.bandwidth) /
                                 static_cast<double>(ref->bandwidth_lb));
      steps[r.label] += r.steps;
    }
  }

  // steps_per_s: per planner, its simulated steps over its best simulator
  // wall time, both summed over the instances; then the geometric mean
  // over planners.  Each planner's per-step cost thus counts equally, and
  // the metric does not swing with how many steps each instance happens
  // to take under its cheapest or dearest planner.
  std::vector<double> steps_rates;
  for (const auto& [label, best] : best_run_s) {
    double seconds = 0.0;
    for (double s : best) seconds += s;
    steps_rates.push_back(static_cast<double>(steps[label]) / seconds);
  }

  std::map<std::string, double> metrics;
  if (!o.trace) {
    metrics["pipeline_s"] = median(best_pipeline);
    metrics["setup_s"] = median(best_setup);
    metrics["steps_per_s"] = geomean(steps_rates);
    metrics["peak_rss_mb"] = median(pass_rss);
    metrics["makespan_gap"] = geomean(makespan_ratios);
    metrics["bandwidth_gap"] = geomean(bandwidth_ratios);
  } else {
    // Per-layer metrics: medians over the traced passes; a layer a
    // workload never enters reads 0.
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::vector<double>> spans;
    std::vector<double> overhead;
    for (std::size_t j = 0; j < timed.size(); ++j) {
      const PassResult& p = timed[j];
      if (!p.traced) continue;
      const PassResult& bare = timed[j - 1];  // same instance, just before
      for (const auto& [name, value] : layer_metrics(p, bare))
        samples[name].push_back(value);
      for (const auto& [name, seconds] : p.layers)
        spans[name].push_back(seconds);
      overhead.push_back(p.pipeline_s - bare.pipeline_s);
    }
    for (const Metric& m : per_layer_metrics())
      metrics[m.name] = median(samples[m.name]);
    metrics["bench.trace_overhead_s"] = median(overhead);

    // Self-time table: every span name, its median, and its share of
    // the median traced pass.  Coverage is the share of each traced
    // pass that library layers account for, i.e. all but the harness's
    // own "pass" and "setup" self time.
    const double traced_median = median(traced_pipeline);
    std::vector<double> coverage;
    for (const PassResult& p : timed) {
      if (!p.traced) continue;
      const double harness = p.layers.at("pass") + p.layers.at("setup");
      coverage.push_back(1.0 - harness / p.pipeline_s);
    }
    std::cout << "# per-layer self time (median of " << traced_pipeline.size()
              << " traced passes)\n";
    for (const auto& [name, values] : spans) {
      const double seconds = median(values);
      std::printf("#   %-40s %10.4f s %6.1f%%\n", name.c_str(), seconds,
                  100.0 * seconds / traced_median);
    }
    std::printf(
        "# layers cover %.1f%% of traced pipeline_s %.4f s; tracing "
        "overhead %.4f s (median of traced - bare pass, same instance)\n",
        100.0 * median(coverage), traced_median,
        metrics["bench.trace_overhead_s"]);
    if (!o.trace_out.empty()) {
      std::ofstream file(o.trace_out);
      tracer.write_chrome_json(file, stamp_json(o));
      if (!file) {
        std::cerr << "error: cannot write " << o.trace_out << "\n";
        return 2;
      }
      std::cout << "# trace written to " << o.trace_out << "\n";
    }
  }

  std::cout << "# bare passes " << tail_summary(pipeline) << ":";
  for (double s : pipeline) std::cout << " " << s;
  std::cout << "\n# best pass per instance:";
  for (double s : best_pipeline) std::cout << " " << s;
  std::cout << "\n# failure_rate "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << " (" << failed << " of " << attempted << " runs)\n";
  for (std::size_t k = 0; k < reference.size(); ++k) {
    std::cout << "# instance " << k << ": makespan LB "
              << reference[k]->makespan_lb << ", bandwidth LB "
              << reference[k]->bandwidth_lb;
    for (const RunRecord& r : reference[k]->runs)
      std::cout << "; " << r.label << " " << r.steps << " steps "
                << r.bandwidth << " moves";
    std::cout << "\n";
  }

  const auto& listed = o.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const Metric& m : listed)
    std::printf("# %-44s %18.6f %s\n", m.name.c_str(), metrics[m.name],
                m.unit.c_str());
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < listed.size(); ++i) {
    const Metric& m = listed[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << json_number(metrics[m.name])
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
