// Host-throughput benchmark of the NoC-sprinting simulator.
//
// One process runs one workload for a fixed host-time budget, checks the
// simulated outputs, and prints every metric by name and unit, then one
// JSON result line.  Layers are measured from outside: the benchmark
// times its own calls into each module's public functions and never
// changes the simulator.  See README.md for why each workload exists and
// which layer metric should move which end-to-end metric.
//
//   nocs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--sim-threads <n>] [--short] [--workdir <dir>]
//                  [--git-commit <id>] [--source-sha <hex>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds timers around
// every layer call and samples Network::hot_routers() per cycle, then
// reports the per-layer metrics and the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <time.h>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "mem/mem_params.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_driver.hpp"
#include "mem/tile_schedule.hpp"
#include "noc/network.hpp"
#include "noc/parallel_sweep.hpp"
#include "noc/routing.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "power/chip_power.hpp"
#include "power/noc_power.hpp"
#include "power/router_power.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/grid.hpp"

using namespace nocs;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// CPU time, unlike wall time, leaves out the time a thread waited for a
// core, whether another process or the hypervisor had it.  So it follows
// the work done more than the load of a shared host, and the end-to-end
// metrics are timed with it.

/// CPU seconds used so far by every thread of this process.
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU seconds used so far by the calling thread.
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int sim_threads = 1;  ///< shards of the timed membound ticks
  bool shortened = false;
  std::string workdir = ".bench_build/tmp";
  std::string git_commit = "none";
  std::string source_sha = "none";
};

int nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// All load comes from one process with at most min(4, nproc) threads.
int bench_threads() { return std::min(4, nproc()); }

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss would also count the parent's footprint it inherited across
/// exec.  Workloads read it after their first unit of work: the heap grows
/// slowly with every later unit, so a later reading would depend on how
/// many units fit in the time budget.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

/// Bytes this process has written through write(2) so far (/proc/self/io
/// wchar), or -1 when the kernel does not expose it.
long long bytes_written() {
  std::ifstream in("/proc/self/io");
  std::string key;
  long long value = 0;
  while (in >> key >> value)
    if (key == "wchar:") return value;
  return -1;
}

/// Cumulative steal and total CPU jiffies of the host (the `cpu` line of
/// /proc/stat); {0, 0} when unavailable.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, x = 0.0;
  for (int i = 0; i < 8 && in >> x; ++i) {  // user .. steal
    total += x;
    if (i == 7) steal = x;
  }
  return {steal, total};
}

/// Correctness bookkeeping: every simulation is one attempt; an attempt
/// fails when any of its checks fails.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  bool current_failed = false;

  void begin() {
    ++attempted;
    current_failed = false;
  }
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++checks_failed;
    if (!current_failed) {
      ++failed;
      current_failed = true;
    }
    if (failures.size() < 8) failures.push_back(what);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer values by name; units come from per_layer_units().
using LayerValues = std::vector<std::pair<std::string, double>>;

/// What one workload run produces.
struct Outcome {
  std::vector<Metric> end_to_end;
  LayerValues per_layer;
  Verdict verdict;
  std::string digest_text;  ///< canonical text of the simulated statistics
  json::Value provenance = json::Value::object();
};

void add_fingerprint(json::Value& prov, const std::string& label,
                     const noc::Topology& topo) {
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, topo.fingerprint());
  const json::Value* have = prov.find("topology_fingerprints");
  json::Value fps = have != nullptr ? *have : json::Value::object();
  fps.set(label, std::string(hex));
  prov.set("topology_fingerprints", std::move(fps));
}

/// Exact text of the statistics a run produced; the digest hashes it.
std::string stats_text(const noc::SimResults& r) {
  return to_json(r).dump();
}

std::string counters_text(const noc::RouterCounters& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "bw=%llu br=%llu xb=%llu va=%llu sa=%llu lf=%llu ac=%llu gc=%llu "
      "wc=%llu we=%llu ia=%llu mr=%llu mf=%llu",
      static_cast<unsigned long long>(c.buffer_writes),
      static_cast<unsigned long long>(c.buffer_reads),
      static_cast<unsigned long long>(c.xbar_traversals),
      static_cast<unsigned long long>(c.vc_allocs),
      static_cast<unsigned long long>(c.sa_arbitrations),
      static_cast<unsigned long long>(c.link_flits),
      static_cast<unsigned long long>(c.active_cycles),
      static_cast<unsigned long long>(c.gated_cycles),
      static_cast<unsigned long long>(c.waking_cycles),
      static_cast<unsigned long long>(c.wake_events),
      static_cast<unsigned long long>(c.idle_active_cycles),
      static_cast<unsigned long long>(c.mc_replications),
      static_cast<unsigned long long>(c.mc_flits));
  return buf;
}

std::string num(double d) { return json::format_number(d); }

/// Power models shared by every workload (the same constants the figure
/// benches use).
struct PowerModels {
  power::RouterPowerParams rp;
  power::RouterPowerModel router;
  power::LinkPowerModel link;
  explicit PowerModels(const noc::NetworkParams& net)
      : rp(power::RouterPowerParams::from_network(net)),
        router(rp),
        link(net.flit_bytes * 8, 2.5, rp.tech, rp.op) {}
};

/// Per-cycle host timing and hot-router sampling of a traced tick loop.
struct TickTrace {
  double tick_s = 0.0;
  std::uint64_t cycles = 0;
  double hot_sum = 0.0;  ///< sum over cycles of hot_routers()/nodes
  double idle_s = 0.0;   ///< host time of cycles with no hot router
  std::uint64_t idle_cycles = 0;

  void tick(noc::Network& net) {
    const auto t0 = Clock::now();
    net.tick();
    const double dt = since(t0);
    const int hot = net.hot_routers();
    tick_s += dt;
    ++cycles;
    hot_sum += static_cast<double>(hot) / net.num_nodes();
    if (hot == 0) {
      idle_s += dt;
      ++idle_cycles;
    }
  }

  double hot_ratio() const {
    return safe_div(hot_sum, static_cast<double>(cycles));
  }
  double ns_per_idle_cycle() const {
    return safe_div(idle_s * 1e9, static_cast<double>(idle_cycles));
  }
  double s_per_cycle() const {
    return safe_div(tick_s, static_cast<double>(cycles));
  }
};

/// The `noc` metrics every traced workload reports, from the summed router
/// counters of `n` units of work and their host tick time.
LayerValues noc_layer(const noc::RouterCounters& sum, double tick_s,
                      double cycles, double n, double hot_ratio) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  return {
      {"noc.tick_s", tick_s / n},
      {"noc.cycles", cycles / n},
      {"noc.link_flits", d(sum.link_flits) / n},
      {"noc.xbar_traversals", d(sum.xbar_traversals) / n},
      {"noc.vc_allocs", d(sum.vc_allocs) / n},
      {"noc.sa_arbitrations", d(sum.sa_arbitrations) / n},
      {"noc.ns_per_link_flit", safe_div(tick_s * 1e9, d(sum.link_flits))},
      {"noc.hot_router_ratio", hot_ratio},
      {"noc.idle_active_ratio",
       safe_div(d(sum.idle_active_cycles), d(sum.active_cycles))},
  };
}

// setup_s is the median of many set-ups spread over the whole run, a few
// after each campaign.  The speed of a shared host's cores changes within
// tens of milliseconds, so set-ups timed in one burst would all land in
// one of its phases.
constexpr int kSetupsPerCampaign = 4;

// ===========================================================================
// sprint_campaign: the paper's 16-node level-selection flow as a sweep of
// fresh networks on the parallel_sweep pool, persisted through a
// TaskManifest, plus the thermal check of every mesh level.
// ===========================================================================

struct CampaignConfig {
  std::string topo_label;
  noc::Topology topo;
  noc::NetworkParams params;
  int level = 0;
  std::string traffic;
};

/// Points at or under this rate lie below the knee of every configuration
/// and must drain with latency within kFlatLatency of the lowest rate's.
constexpr double kBelowKnee = 0.30;
constexpr double kFlatLatency = 2.0;

struct CampaignPlan {
  std::vector<CampaignConfig> configs;
  std::vector<double> rates;   ///< the per-configuration rate grid
  noc::SimConfig sim;
  std::vector<std::size_t> config_of;  ///< task index -> config
  std::vector<double> task_rates;      ///< task index -> rate
};

CampaignPlan make_campaign_plan(bool shortened) {
  CampaignPlan plan;
  noc::NetworkParams mesh;  // Table 1: 4x4
  noc::NetworkParams flat = mesh;
  flat.width = mesh.num_nodes();
  flat.height = 1;
  const int n = mesh.num_nodes();
  struct Topo {
    std::string label;
    noc::Topology topo;
    noc::NetworkParams params;
  };
  const std::vector<Topo> topos = {
      {"mesh", noc::Topology::mesh(mesh.width, mesh.height), mesh},
      {"ring_circulant", noc::Topology::ring_circulant(n, 4), flat},
      {"hamming", noc::Topology::hamming(4, 4), flat},
  };
  // Low load through the knee: every configuration's latency is still
  // flat at 0.30 and has at least doubled by 0.55 on the transpose runs.
  plan.rates = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30,
                0.35, 0.40, 0.45, 0.50, 0.55};
  plan.sim.warmup = 1000;
  plan.sim.measure = 3000;
  plan.sim.drain_max = 6000;
  plan.sim.watchdog_cycles = 5000;
  if (shortened) {
    plan.rates = {0.05, 0.3};
    plan.sim.warmup = 200;
    plan.sim.measure = 600;
  }
  for (const Topo& t : topos)
    for (int level : {4, 8, 16})
      for (const char* traffic : {"uniform", "transpose"})
        plan.configs.push_back({t.label, t.topo, t.params, level, traffic});
  for (std::size_t c = 0; c < plan.configs.size(); ++c)
    for (double r : plan.rates) {
      plan.config_of.push_back(c);
      plan.task_rates.push_back(r);
    }
  return plan;
}

struct TaskTiming {
  double build_s = 0.0;
  double sim_s = 0.0;
  double sim_cpu_s = 0.0;
  double power_s = 0.0;
  double total_s = 0.0;
  double hot_sum = 0.0;
  std::uint64_t hot_samples = 0;
  bool deadlock_ok = false;
  double power_w = 0.0;
};

struct CampaignRep {
  double cpu_s = 0.0;  ///< CPU time of the sweep and the thermal check
  double sweep_s = 0.0;
  double floorplan_s = 0.0;
  double solve_s = 0.0;
  long long journal_bytes = 0;
  std::size_t journal_records = 0;
  std::vector<noc::SweepPoint> points;
  std::vector<TaskTiming> timing;
  std::string digest;
};

struct CampaignSetup {
  std::vector<std::string> invalid;  ///< why configurations failed
  std::filesystem::path dir;
  std::string journal;
  std::unique_ptr<snapshot::TaskManifest> manifest;
  double cpu_s = 0.0;
};

/// Set-up of one campaign: validates every configuration once (Algorithm 1
/// + routing + deadlock check), then opens a fresh journal in the
/// directory `name` under the workdir.  make_topology_sprinting_network
/// throws when the deadlock check fails.
CampaignSetup set_up_campaign(const CampaignPlan& plan, const Options& opt,
                              const std::string& name) {
  CampaignSetup su;
  const double cpu0 = process_cpu_s();
  for (const CampaignConfig& c : plan.configs) {
    try {
      const sprint::TopologyBundle b = sprint::make_topology_sprinting_network(
          c.params, c.topo, c.level, c.traffic, opt.seed);
      if (!b.deadlock.ok) su.invalid.push_back(b.deadlock.detail);
    } catch (const std::exception& e) {
      su.invalid.push_back(e.what());
    }
  }
  su.dir = std::filesystem::path(opt.workdir) / name;
  std::filesystem::remove_all(su.dir);
  std::filesystem::create_directories(su.dir);
  su.journal = (su.dir / "manifest.json").string();
  su.manifest = std::make_unique<snapshot::TaskManifest>(
      su.journal, noc::sweep_fingerprint(plan.task_rates, opt.seed));
  su.cpu_s = process_cpu_s() - cpu0;
  return su;
}

std::string campaign_dir(const Options& opt, const std::string& what) {
  return "campaign-" + std::to_string(opt.seed) + "-" + what;
}

CampaignRep run_campaign_rep(const CampaignPlan& plan, const Options& opt,
                             int workers, int rep, Verdict& v, bool traced) {
  CampaignRep out;
  const CampaignSetup su =
      set_up_campaign(plan, opt, campaign_dir(opt, std::to_string(rep)));
  const std::vector<std::string>& invalid = su.invalid;
  const std::string& journal = su.journal;
  snapshot::TaskManifest& manifest = *su.manifest;

  std::vector<TaskTiming> timing(plan.task_rates.size());
  const std::atomic<bool> never(false);
  const noc::SweepRunner runner = [&](const noc::SweepTask& task) {
    const CampaignConfig& c = plan.configs[plan.config_of[task.index]];
    TaskTiming& tm = timing[task.index];
    const auto a = Clock::now();
    sprint::TopologyBundle b;
    try {
      b = sprint::make_topology_sprinting_network(c.params, c.topo, c.level,
                                                  c.traffic, task.seed);
    } catch (const std::exception&) {
      return noc::SimResults{};  // counted by the deadlock check below
    }
    tm.build_s = since(a);
    tm.deadlock_ok = b.deadlock.ok;
    noc::SimConfig sim = plan.sim;
    sim.injection_rate = task.injection_rate;
    const auto s0 = Clock::now();
    const double c0 = thread_cpu_s();
    noc::SimResults r;
    if (traced) {
      // Progress hooks fire at chunk boundaries and on every drain cycle;
      // the stop flag (never set) caps chunks at a few thousand cycles.
      noc::CheckpointConfig ck;
      ck.stop_flag = &never;
      noc::Network* net = b.network.get();
      ck.on_progress = [&tm, net](Cycle) {
        tm.hot_sum += static_cast<double>(net->hot_routers()) /
                      net->num_nodes();
        ++tm.hot_samples;
      };
      r = noc::run_simulation(*b.network, sim, ck);
    } else {
      r = noc::run_simulation(*b.network, sim);
    }
    tm.sim_s = since(s0);
    tm.sim_cpu_s = thread_cpu_s() - c0;
    const auto p0 = Clock::now();
    const PowerModels pm(c.params);
    tm.power_w =
        power::estimate_noc_power(*b.network, pm.router, pm.link, r.cycles)
            .total();
    tm.power_s = since(p0);
    tm.total_s = since(a);
    return r;
  };

  const long long w0 = bytes_written();
  const double sweep_cpu0 = process_cpu_s();
  const auto s0 = Clock::now();
  out.points = noc::resumable_sweep_injection(runner, plan.task_rates,
                                              opt.seed, &manifest, workers);
  out.sweep_s = since(s0);
  const long long w1 = bytes_written();
  out.journal_records = manifest.completed_count();
  out.journal_bytes =
      (w0 >= 0 && w1 >= 0)
          ? w1 - w0
          : static_cast<long long>(std::filesystem::file_size(journal));

  // Thermal check of every mesh level: thermal-aware floorplan, then the
  // steady-state temperature of that level's active set.
  const CampaignConfig& mesh = plan.configs.front();
  const MeshShape shape = mesh.params.shape();
  const power::ChipPowerParams chip{};
  const thermal::GridThermalModel model(thermal::GridThermalParams{}, 12.0,
                                        12.0);
  std::string thermal_text;
  for (int level : {4, 8, 16}) {
    const auto f0 = Clock::now();
    const sprint::FloorplanResult fpr = sprint::thermal_aware_floorplan(shape);
    out.floorplan_s += since(f0);
    std::vector<Watts> powers(static_cast<std::size_t>(shape.size()),
                              chip.core_gated + chip.l2_tile +
                                  chip.noc_gated_node);
    for (NodeId id : sprint::active_set(shape, level))
      powers[static_cast<std::size_t>(id)] =
          chip.core_active + chip.l2_tile + chip.noc_per_node;
    const thermal::Floorplan fp = thermal::make_cmp_floorplan(
        shape, 12.0, 12.0, powers, fpr.positions);
    const auto q0 = Clock::now();
    const thermal::TemperatureField field = model.solve_steady(fp);
    out.solve_s += since(q0);
    thermal_text += " L" + std::to_string(level) + "=" + num(field.peak()) +
                    "/" + num(fpr.total_wire_length);
  }
  out.cpu_s = process_cpu_s() - sweep_cpu0;
  std::filesystem::remove_all(su.dir);

  for (std::size_t i = 0; i < out.points.size(); ++i) {
    const CampaignConfig& c = plan.configs[plan.config_of[i]];
    const noc::SimResults& r = out.points[i].results;
    const std::string where = "campaign " + c.topo_label + " L" +
                              std::to_string(c.level) + " " + c.traffic +
                              " rate " + num(plan.task_rates[i]);
    v.begin();
    v.expect(timing[i].deadlock_ok, where + ": deadlock check failed");
    v.expect(!r.hung, where + ": watchdog fired");
    v.expect(!r.interrupted, where + ": task did not complete");
    if (plan.task_rates[i] <= kBelowKnee) {
      // Tasks of one configuration are contiguous, lowest rate first.
      const std::size_t base = i - i % plan.rates.size();
      const double zero_load = out.points[base].results.avg_packet_latency;
      v.expect(!r.saturated && r.avg_packet_latency <=
                                   kFlatLatency * zero_load,
               where + ": saturated below the knee");
    }
    if (!r.saturated)
      v.expect(r.packets_generated == r.packets_ejected,
               where + ": generated != ejected after drain");
    out.digest += stats_text(r) + " P=" + num(timing[i].power_w) + "\n";
  }
  v.begin();
  v.expect(invalid.empty(),
           "campaign: configuration failed validation: " +
               (invalid.empty() ? std::string() : invalid.front()));
  v.expect(out.journal_records == plan.task_rates.size(),
           "campaign: journal is missing completed tasks");
  out.digest += "thermal" + thermal_text + "\n";
  out.timing = std::move(timing);
  return out;
}

Outcome run_campaign(const Options& opt) {
  const CampaignPlan plan = make_campaign_plan(opt.shortened);
  const int workers = bench_threads();
  Outcome out;
  out.provenance.set("sim_threads", 1);
  out.provenance.set("pool_workers", workers);
  for (std::size_t c = 0; c < plan.configs.size(); c += 6)
    add_fingerprint(out.provenance, plan.configs[c].topo_label,
                    plan.configs[c].topo);

  std::vector<CampaignRep> reps, traced;
  std::vector<double> setup;
  const std::string setup_dir = campaign_dir(opt, "setup");
  const auto start = Clock::now();
  const double untraced_budget = opt.trace ? opt.seconds / 3 : opt.seconds;
  int rep = 0;
  double rss_mb = 0.0;
  do {
    reps.push_back(
        run_campaign_rep(plan, opt, workers, rep++, out.verdict, false));
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    for (int i = 0; i < kSetupsPerCampaign; ++i)
      setup.push_back(set_up_campaign(plan, opt, setup_dir).cpu_s);
  } while (since(start) < untraced_budget && !opt.shortened);
  std::filesystem::remove_all(std::filesystem::path(opt.workdir) / setup_dir);
  if (opt.trace) {
    do {
      traced.push_back(
          run_campaign_rep(plan, opt, workers, rep++, out.verdict, true));
    } while (since(start) < opt.seconds && !opt.shortened);
  }
  for (const CampaignRep& r : reps)
    out.verdict.expect(r.digest == reps.front().digest,
                       "campaign: repeated campaign changed the statistics");
  for (const CampaignRep& r : traced)
    out.verdict.expect(r.digest == reps.front().digest,
                       "campaign: traced campaign changed the statistics");
  out.digest_text = reps.front().digest;

  const double npoints = static_cast<double>(plan.task_rates.size());
  if (!opt.trace) {
    // A chunk here is 1000 simulated cycles of one task.
    std::vector<double> cps, fps, pps, chunk;
    for (const CampaignRep& r : reps) {
      double cycles = 0.0, flits = 0.0, sim_cpu = 0.0;
      for (std::size_t i = 0; i < r.points.size(); ++i) {
        const noc::SimResults& s = r.points[i].results;
        cycles += static_cast<double>(s.cycles);
        flits += static_cast<double>(s.counters.link_flits);
        sim_cpu += r.timing[i].sim_cpu_s;
        chunk.push_back(safe_div(r.timing[i].sim_cpu_s * 1e6,
                                 static_cast<double>(s.cycles)));
      }
      cps.push_back(safe_div(cycles, sim_cpu));
      fps.push_back(safe_div(flits, sim_cpu));
      pps.push_back(safe_div(npoints, r.cpu_s));
    }
    out.end_to_end = {
        {"setup_s", median(setup), "s"},
        {"sim_cycles_per_cpu_s", median(cps), "1/s"},
        {"flit_hops_per_cpu_s", median(fps), "1/s"},
        {"points_per_cpu_s", median(pps), "1/s"},
        {"chunk_cpu_ms_p50", quantile(chunk, 0.5), "ms"},
        {"chunk_cpu_ms_p90", quantile(chunk, 0.9), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return out;
  }

  double tick_s = 0.0, hot = 0.0, hot_n = 0.0, busy = 0.0, wall = 0.0;
  double build = 0.0, power_s = 0.0, floorplan = 0.0, solve = 0.0;
  double drain = 0.0, cycles = 0.0, builds = 0.0;
  long long jbytes = 0;
  std::size_t jrecords = 0;
  noc::RouterCounters sum;
  for (const CampaignRep& r : traced) {
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      const noc::SimResults& s = r.points[i].results;
      const TaskTiming& tm = r.timing[i];
      tick_s += tm.sim_s;
      build += tm.build_s;
      power_s += tm.power_s;
      busy += tm.total_s;
      hot += tm.hot_sum;
      hot_n += static_cast<double>(tm.hot_samples);
      builds += 1.0;
      sum += s.counters;
      cycles += static_cast<double>(s.cycles);
      drain += static_cast<double>(s.cycles - plan.sim.warmup -
                                   plan.sim.measure);
    }
    wall += r.sweep_s;
    floorplan += r.floorplan_s;
    solve += r.solve_s;
    jbytes += r.journal_bytes;
    jrecords += r.journal_records;
  }
  double untraced_spc = 0.0, traced_spc = 0.0;
  {
    double us = 0.0, uc = 0.0;
    for (const CampaignRep& r : reps) {
      us += r.sweep_s;
      for (const noc::SweepPoint& pt : r.points)
        uc += static_cast<double>(pt.results.cycles);
    }
    untraced_spc = safe_div(us, uc);
    traced_spc = safe_div(wall, cycles);
  }
  // Totals are reported per campaign so they do not depend on how many
  // fit in the time budget.
  const auto n = static_cast<double>(traced.size());
  const double capacity = wall * workers;
  out.per_layer = noc_layer(sum, tick_s, cycles, n, safe_div(hot, hot_n));
  out.per_layer.insert(
      out.per_layer.end(),
      {
          {"noc.drain_share", safe_div(drain, cycles)},
          {"parallel.pool_busy_s", busy / n},
          {"parallel.pool_wait_s", (capacity - busy) / n},
          {"parallel.pool_utilization", safe_div(busy, capacity)},
          {"sprint.build_s", build / n},
          {"sprint.builds", builds / n},
          {"sprint.floorplan_s", floorplan / n},
          {"power.estimate_s", power_s / n},
          {"thermal.solve_steady_s", solve / n},
          {"journal.records", static_cast<double>(jrecords) / n},
          {"journal.bytes", static_cast<double>(jbytes) / n},
          {"trace.overhead", safe_div(traced_spc, untraced_spc) - 1.0},
      });
  return out;
}

// ===========================================================================
// membound_tiles: fig13's DRAM-bound tile replay on an 8x8 mesh, every
// sprint level, ticked by the benchmark until the tile driver is done.
// ===========================================================================

/// Contiguous near-equal partition of `tiles` into `groups` (member 0 of
/// each block leads it) — fig13's grouping.
std::vector<std::vector<NodeId>> partition_groups(
    const std::vector<NodeId>& tiles, int groups) {
  const int n = static_cast<int>(tiles.size());
  std::vector<std::vector<NodeId>> out;
  int pos = 0;
  for (int g = 0; g < groups; ++g) {
    const int len = n / groups + (g < n % groups ? 1 : 0);
    out.emplace_back(tiles.begin() + pos, tiles.begin() + pos + len);
    pos += len;
  }
  return out;
}

/// Tiles, controllers and every node on an XY route between any two of
/// them: the sub-network that must stay powered (fig13's closure).
std::vector<NodeId> powered_closure(const MeshShape& shape,
                                    const std::vector<NodeId>& active,
                                    const std::vector<NodeId>& sites) {
  std::vector<bool> on(static_cast<std::size_t>(shape.size()), false);
  std::vector<NodeId> all = active;
  all.insert(all.end(), sites.begin(), sites.end());
  for (NodeId a : all)
    for (NodeId b : all)
      for (NodeId n : mem::xy_path_nodes(shape, a, b))
        on[static_cast<std::size_t>(n)] = true;
  std::vector<NodeId> powered;
  for (NodeId n = 0; n < shape.size(); ++n)
    if (on[static_cast<std::size_t>(n)]) powered.push_back(n);
  return powered;
}

struct MemPlan {
  noc::NetworkParams net;
  mem::MemParams mp;
  mem::TileSchedule sched = mem::TileSchedule::example();
  std::vector<int> levels = {1, 2, 4, 8, 16};
  int tile_groups = 4;
  Cycle max_cycles = 2'000'000;
  Cycle chunk = 1000;
};

MemPlan make_mem_plan(bool shortened) {
  MemPlan plan;
  plan.net.width = 8;
  plan.net.height = 8;
  plan.net.num_classes = 2;  // requests and replies on separate VNs
  plan.mp.ctrls = 4;
  if (shortened) {
    plan.sched = mem::TileSchedule::parse("f256,w128,c2000,a64,b256");
    plan.levels = {4, 16};
  }
  return plan;
}

struct LevelRun {
  double setup_cpu_s = 0.0;
  double mem_setup_s = 0.0;
  double construct_s = 0.0;
  double threads_s = 0.0;
  double sim_s = 0.0;  ///< wall time of the ticks
  double sim_cpu_s = 0.0;
  double power_s = 0.0;
  Cycle cycles = 0;
  noc::RouterCounters counters;
  mem::TileDriverCounters driver;
  std::vector<double> chunk_cpu_ms;
  std::string digest;
};

LevelRun run_mem_level(const MemPlan& plan, int level, int threads,
                       const Options& opt, Verdict& v, TickTrace* trace,
                       const PowerModels& pm) {
  LevelRun lr;
  static const noc::XyRouting xy;
  const MeshShape shape = plan.net.shape();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  noc::Network net(plan.net, &xy);
  lr.construct_s = since(t0);
  const auto th = Clock::now();
  net.set_sim_threads(threads);
  lr.threads_s = since(th);
  net.set_seed(opt.seed);
  const std::vector<NodeId> sites =
      mem::controller_sites(shape, plan.mp.ctrls, plan.mp.placement);
  std::vector<NodeId> active = sprint::active_set(shape, level);
  net.gate_dark_region(powered_closure(shape, active, sites));
  // The seed decides which tiles share a group and which one leads it.
  Rng rng(opt.seed ^ static_cast<std::uint64_t>(level));
  for (std::size_t i = active.size(); i > 1; --i)
    std::swap(active[i - 1], active[rng.next() % i]);
  const auto m0 = Clock::now();
  mem::MemSubsystem mem_sys(net, plan.mp);
  mem::TileTransferDriver driver(
      net, mem_sys, plan.sched,
      partition_groups(active, std::min(plan.tile_groups, level)),
      {.multicast = true, .chunk_flits = 0});
  driver.install();
  lr.mem_setup_s = since(m0);
  lr.setup_cpu_s = process_cpu_s() - cpu0;

  v.begin();
  bool hung = false;
  const auto s0 = Clock::now();
  const double sim_cpu0 = process_cpu_s();
  while (!driver.done() && net.now() < plan.max_cycles && !hung) {
    const std::uint64_t sig = net.progress_signature();
    const Cycle begin = net.now();
    const double c0 = process_cpu_s();
    for (Cycle i = 0; i < plan.chunk && !driver.done(); ++i) {
      if (trace != nullptr) trace->tick(net);
      else net.tick();
    }
    if (net.now() - begin == plan.chunk)
      lr.chunk_cpu_ms.push_back((process_cpu_s() - c0) * 1e3);
    if (net.progress_signature() == sig && !net.drained()) hung = true;
  }
  lr.sim_s = since(s0);
  lr.sim_cpu_s = process_cpu_s() - sim_cpu0;
  driver.uninstall();
  lr.cycles = driver.finished_at();
  v.expect(!hung, "membound L" + std::to_string(level) +
                      ": network made no progress while loaded");
  v.expect(driver.done(), "membound L" + std::to_string(level) +
                              ": tile driver did not finish before max_cycles");
  v.expect(net.drained(), "membound L" + std::to_string(level) +
                              ": flits left in the network after the replay");

  const auto p0 = Clock::now();
  const power::NocPowerEstimate est = power::estimate_noc_power(
      net, pm.router, pm.link, std::max<Cycle>(lr.cycles, 1));
  lr.power_s = since(p0);
  lr.counters = net.total_counters();
  lr.driver = driver.counters();
  const mem::MemCounters mc = mem_sys.total_counters();
  const auto u = [](std::uint64_t x) { return std::to_string(x); };
  lr.digest = "L" + std::to_string(level) + " cycles=" + u(lr.cycles) +
              " rd=" + u(mc.reads) + " wr=" + u(mc.writes) +
              " busy=" + u(mc.busy_cycles) + " qc=" + u(mc.queue_cycles) +
              " qp=" + u(mc.queue_peak) +
              " mcast=" + u(lr.driver.weight_mcasts) +
              " acts=" + u(lr.driver.act_packets) +
              " compute=" + u(lr.driver.compute_cycles) + " " +
              counters_text(lr.counters) + " power=" + num(est.total()) +
              " repl=" + num(est.mcast_replication) + "\n";
  return lr;
}

struct MemRep {
  std::vector<LevelRun> levels;
  double cpu_s = 0.0;
  std::string digest;
};

MemRep run_mem_rep(const MemPlan& plan, int threads, const Options& opt,
                   Verdict& v, TickTrace* trace, const PowerModels& pm) {
  MemRep rep;
  const double cpu0 = process_cpu_s();
  for (int level : plan.levels) {
    rep.levels.push_back(
        run_mem_level(plan, level, threads, opt, v, trace, pm));
    rep.digest += rep.levels.back().digest;
  }
  rep.cpu_s = process_cpu_s() - cpu0;
  return rep;
}

Outcome run_membound(const Options& opt) {
  const MemPlan plan = make_mem_plan(opt.shortened);
  const int threads = opt.sim_threads;
  const PowerModels pm(plan.net);
  Outcome out;
  out.provenance.set("sim_threads", threads);
  out.provenance.set("pool_workers", 0);
  add_fingerprint(out.provenance, "mesh8", noc::Topology::mesh(8, 8));

  std::vector<MemRep> reps, traced;
  TickTrace tt;
  const auto start = Clock::now();
  const double untraced_budget = opt.trace ? opt.seconds / 3 : opt.seconds;
  double rss_mb = 0.0;
  do {
    reps.push_back(run_mem_rep(plan, threads, opt, out.verdict, nullptr, pm));
    if (reps.size() == 1) rss_mb = peak_rss_mb();
  } while (since(start) < untraced_budget && !opt.shortened);
  // Traced runs also time one serial and one sharded replay, for the
  // shard speedup.
  std::vector<MemRep> shard_pair;
  if (opt.trace) {
    for (int t : {1, bench_threads()}) {
      shard_pair.push_back(run_mem_rep(plan, t, opt, out.verdict, nullptr, pm));
      out.verdict.expect(shard_pair.back().digest == reps.front().digest,
                         "membound: replay at " + std::to_string(t) +
                             " threads changed the statistics");
    }
    do {
      traced.push_back(run_mem_rep(plan, threads, opt, out.verdict, &tt, pm));
    } while (since(start) < opt.seconds && !opt.shortened);
  }
  for (const MemRep& r : reps)
    out.verdict.expect(r.digest == reps.front().digest,
                       "membound: repeated replay changed the statistics");
  for (const MemRep& r : traced)
    out.verdict.expect(r.digest == reps.front().digest,
                       "membound: traced replay changed the statistics");
  out.digest_text = reps.front().digest;

  // Wall seconds per simulated cycle of one replay.
  const auto s_per_cycle = [](const MemRep& r) {
    double s = 0.0, c = 0.0;
    for (const LevelRun& l : r.levels) {
      s += l.sim_s;
      c += static_cast<double>(l.cycles);
    }
    return safe_div(s, c);
  };
  if (!opt.trace) {
    std::vector<double> setup, cps, fps, pps, chunks;
    for (const MemRep& r : reps) {
      double su = 0.0, sim = 0.0, cycles = 0.0, flits = 0.0;
      for (const LevelRun& l : r.levels) {
        su += l.setup_cpu_s;
        sim += l.sim_cpu_s;
        cycles += static_cast<double>(l.cycles);
        flits += static_cast<double>(l.counters.link_flits);
        chunks.insert(chunks.end(), l.chunk_cpu_ms.begin(),
                      l.chunk_cpu_ms.end());
      }
      setup.push_back(su);
      cps.push_back(safe_div(cycles, sim));
      fps.push_back(safe_div(flits, sim));
      pps.push_back(safe_div(static_cast<double>(r.levels.size()), r.cpu_s));
    }
    out.end_to_end = {
        {"setup_s", median(setup), "s"},
        {"sim_cycles_per_cpu_s", median(cps), "1/s"},
        {"flit_hops_per_cpu_s", median(fps), "1/s"},
        {"points_per_cpu_s", median(pps), "1/s"},
        {"chunk_cpu_ms_p50", quantile(chunks, 0.5), "ms"},
        {"chunk_cpu_ms_p90", quantile(chunks, 0.9), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return out;
  }

  std::vector<double> construct, threads_s, mem_setup, power_s, untraced_spc;
  for (const MemRep& r : reps) untraced_spc.push_back(s_per_cycle(r));
  for (const LevelRun& l : shard_pair.back().levels)
    threads_s.push_back(l.threads_s);
  noc::RouterCounters sum;
  std::uint64_t reads = 0, writes = 0, mcasts = 0, compute = 0;
  double cycles = 0.0;
  for (const MemRep& r : traced)
    for (const LevelRun& l : r.levels) {
      construct.push_back(l.construct_s);
      mem_setup.push_back(l.mem_setup_s);
      power_s.push_back(l.power_s);
      sum += l.counters;
      reads += l.driver.dram_reads;
      writes += l.driver.dram_writes;
      mcasts += l.driver.weight_mcasts;
      compute += l.driver.compute_cycles;
      cycles += static_cast<double>(l.cycles);
    }
  // Totals are reported per replay (all levels) so they do not depend on
  // how many fit in the time budget.
  const auto n = static_cast<double>(traced.size());
  out.per_layer = noc_layer(sum, tt.tick_s, cycles, n,
                            tt.hot_ratio());
  out.per_layer.insert(
      out.per_layer.end(),
      {
          {"noc.ns_per_idle_cycle", tt.ns_per_idle_cycle()},
          {"noc.construct_s", median(construct)},
          {"parallel.shard_speedup",
           safe_div(s_per_cycle(shard_pair.front()),
                    s_per_cycle(shard_pair.back()))},
          {"parallel.set_sim_threads_s", median(threads_s)},
          {"power.estimate_s", median(power_s)},
          {"mem.setup_s", median(mem_setup)},
          {"mem.dram_reads", static_cast<double>(reads) / n},
          {"mem.dram_writes", static_cast<double>(writes) / n},
          {"mem.weight_mcasts", static_cast<double>(mcasts) / n},
          {"mem.compute_cycle_share",
           safe_div(static_cast<double>(compute), cycles)},
          {"trace.overhead",
           safe_div(tt.s_per_cycle(), median(untraced_spc)) - 1.0},
      });
  return out;
}

// ===========================================================================

/// Every per-layer metric and its unit, in print order.  A workload that
/// does not call into a layer reports that layer's metrics as 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"noc.tick_s", "s"},
      {"noc.cycles", "count"},
      {"noc.link_flits", "count"},
      {"noc.xbar_traversals", "count"},
      {"noc.vc_allocs", "count"},
      {"noc.sa_arbitrations", "count"},
      {"noc.ns_per_link_flit", "ns"},
      {"noc.hot_router_ratio", "ratio"},
      {"noc.idle_active_ratio", "ratio"},
      {"noc.ns_per_idle_cycle", "ns"},
      {"noc.drain_share", "ratio"},
      {"noc.construct_s", "s"},
      {"parallel.shard_speedup", "ratio"},
      {"parallel.set_sim_threads_s", "s"},
      {"parallel.pool_busy_s", "s"},
      {"parallel.pool_wait_s", "s"},
      {"parallel.pool_utilization", "ratio"},
      {"sprint.build_s", "s"},
      {"sprint.builds", "count"},
      {"sprint.floorplan_s", "s"},
      {"power.estimate_s", "s"},
      {"thermal.solve_steady_s", "s"},
      {"mem.setup_s", "s"},
      {"mem.dram_reads", "count"},
      {"mem.dram_writes", "count"},
      {"mem.weight_mcasts", "count"},
      {"mem.compute_cycle_share", "ratio"},
      {"journal.records", "count"},
      {"journal.bytes", "B"},
      {"trace.overhead", "ratio"},
  };
  return names;
}

std::vector<Metric> complete_per_layer(const LayerValues& got) {
  std::vector<Metric> all;
  for (const auto& [name, unit] : per_layer_units()) {
    Metric m{name, 0.0, unit};
    for (const auto& [g, value] : got)
      if (g == name) m.value = value;
    all.push_back(m);
  }
  for (const auto& [g, value] : got)
    if (std::none_of(all.begin(), all.end(),
                     [&](const Metric& m) { return m.name == g; }))
      throw std::logic_error("per-layer metric without a unit: " + g);
  return all;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: nocs_perfbench --workload "
               "sprint_campaign|membound_tiles --seed N "
               "--seconds S --trace 0|1 [--sim-threads N] [--short] "
               "[--workdir DIR] [--git-commit ID] [--source-sha HEX]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--sim-threads") o.sim_threads = std::stoi(value());
      else if (a == "--workdir") o.workdir = value();
      else if (a == "--git-commit") o.git_commit = value();
      else if (a == "--source-sha") o.source_sha = value();
      else if (a == "--short") o.shortened = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("malformed value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const auto [steal0, total0] = cpu_jiffies();
  Outcome out;
  try {
    if (opt.workload == "sprint_campaign") out = run_campaign(opt);
    else if (opt.workload == "membound_tiles") out = run_membound(opt);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  json::Value& prov = out.provenance;
  prov.set("workload", opt.workload);
  prov.set("seed", static_cast<std::uint64_t>(opt.seed));
  prov.set("trace", opt.trace);
  prov.set("short", opt.shortened);
  prov.set("git_commit", opt.git_commit);
  prov.set("source_sha", opt.source_sha);
  prov.set("compiler", std::string(NOCS_PERFBENCH_COMPILER) + " (" +
                           __VERSION__ + ")");
  prov.set("build_type", NOCS_PERFBENCH_BUILD_TYPE);
  prov.set("nproc", nproc());
  // Share of the host's CPU time the hypervisor took from this guest during
  // the run.  Throughput collapses with it (the barrier tick most), so runs
  // with a visible share are not comparable with quiet ones.
  const auto [steal1, total1] = cpu_jiffies();
  prov.set("host_steal_share", safe_div(steal1 - steal0, total1 - total0));
  std::printf("provenance %s\n", prov.dump().c_str());

  const std::vector<Metric> metrics =
      opt.trace ? complete_per_layer(out.per_layer) : out.end_to_end;
  for (const Metric& m : metrics)
    std::printf("metric %-28s %-22s %s\n", m.name.c_str(),
                json::format_number(m.value).c_str(), m.unit.c_str());

  const std::string& d = out.digest_text;
  std::printf("sim_digest %016" PRIx64 "\n",
              snapshot::fnv1a(reinterpret_cast<const std::uint8_t*>(d.data()),
                              d.size()));
  const Verdict& v = out.verdict;
  std::printf("fail_ratio %s (%llu failed of %llu simulations; %llu of %llu "
              "checks failed)\n",
              json::format_number(safe_div(static_cast<double>(v.failed),
                                           static_cast<double>(v.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(v.failed),
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.checks_failed),
              static_cast<unsigned long long>(v.checks));
  for (const std::string& f : v.failures)
    std::printf("failed check: %s\n", f.c_str());

  json::Value result = json::Value::object();
  result.set("correct", v.failed == 0 && v.attempted > 0);
  result.set("attempted", static_cast<std::uint64_t>(v.attempted));
  result.set("failed", static_cast<std::uint64_t>(v.failed));
  json::Value ms = json::Value::object();
  for (const Metric& m : metrics) {
    json::Value e = json::Value::object();
    e.set("value", m.value);
    e.set("unit", m.unit);
    ms.set(m.name, std::move(e));
  }
  result.set("metrics", std::move(ms));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
