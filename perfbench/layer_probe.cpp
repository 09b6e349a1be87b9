// Per-layer host-time driver of the perfbench benchmark.
//
// Usage: layer_probe JOB.json
//
// JOB names one benchmark workload's own inputs (perfbench/run.py writes
// it): the simulated workloads and dataset scale to probe, the core counts,
// the seed, the workload's grid document and one wire request line. The
// driver builds the simulator's structures from those inputs and times calls
// into each layer's public functions, then prints one JSON object mapping
// metric name -> value on stdout. It measures the program from outside: it
// changes no simulator state that a result depends on.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/mmu.h"
#include "core/system.h"
#include "os/buddy.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/engine.h"
#include "sim/event_heap.h"
#include "sim/run_config.h"
#include "sim/sweep_runner.h"
#include "translate/pwc.h"
#include "translate/tlb.h"
#include "workloads/workload_registry.h"

namespace {

using namespace ndp;
using Clock = std::chrono::steady_clock;

/// Keeps timed results observable so the optimizer cannot drop the calls.
std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over `reps` timings of `body()`, in seconds.
template <typename F>
double median_seconds(int reps, F&& body) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    t.push_back(seconds_since(t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Host ns per call: median of five passes of `calls` calls each.
template <typename F>
double ns_per_call(std::size_t calls, F&& call) {
  return median_seconds(5, [&] {
           for (std::size_t i = 0; i < calls; ++i) call(i);
         }) * 1e9 / static_cast<double>(calls);
}

struct Job {
  std::vector<std::string> workloads;  ///< simulated workloads to probe
  double scale = 0.02;
  std::vector<unsigned> cores;
  std::uint64_t seed = 42;
  std::string grid;     ///< the benchmark workload's RunConfig document
  std::string request;  ///< one wire "run" request line
  std::string tiny;     ///< a small RunConfig for the sweep/serve probes
};

Job load_job(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue j = JsonValue::parse(ss.str());
  Job job;
  for (const JsonValue& w : j.at("workloads").array())
    job.workloads.push_back(w.as_string());
  job.scale = j.at("scale").as_double();
  for (const JsonValue& c : j.at("cores").array())
    job.cores.push_back(static_cast<unsigned>(c.as_u64()));
  job.seed = j.at("seed").as_u64();
  job.grid = j.at("grid").dump();
  job.request = j.at("request").as_string();
  job.tiny = j.at("tiny").dump();
  return job;
}

WorkloadParams params_of(const Job& job, unsigned cores) {
  WorkloadParams wp;
  wp.num_cores = cores;
  wp.scale = job.scale;
  wp.seed = job.seed;
  return wp;
}

std::unique_ptr<TraceSource> make_trace(const std::string& name,
                                        const WorkloadParams& wp) {
  return WorkloadRegistry::instance().at(name).make(wp);
}

/// A single-core system of `mechanism` with `workload`'s regions installed
/// and prefaulted, as a cell sees it when its measured window starts.
std::unique_ptr<System> prepare(const Job& job, const std::string& workload,
                                const std::string& mechanism) {
  SystemConfig cfg = SystemConfig::ndp(1, mechanism);
  cfg.seed = job.seed;
  auto system = std::make_unique<System>(cfg);
  auto trace = make_trace(workload, params_of(job, 1));
  Engine(*system, *trace, EngineConfig{}).prepare();
  return system;
}

constexpr std::size_t kRefs = 1u << 16;
constexpr Cycle kGap = 200;  ///< cycles between probes: no artificial queueing

class Probe {
 public:
  explicit Probe(Job job) : job_(std::move(job)) {}

  std::map<std::string, double> run() {
    workloads_layer();
    translate_layers();
    heap_and_buddy();
    setup_layers();
    parse_and_serialize();
    serve_layer();
    return out_;
  }

 private:
  void workloads_layer() {
    const unsigned cores = *std::max_element(job_.cores.begin(),
                                             job_.cores.end());
    double ns = 0;
    for (const std::string& w : job_.workloads) {
      auto trace = make_trace(w, params_of(job_, cores));
      trace->next(0);  // lazy generators build their data on first use
      ns += ns_per_call(kRefs, [&](std::size_t i) {
        g_sink += trace->next(static_cast<unsigned>(i % cores)).va;
      });
    }
    out_["workloads.next_ns"] = ns / job_.workloads.size();
  }

  void translate_layers() {
    std::map<std::string, double> walk, walker, mmu;
    double tlb = 0, pwc = 0, c1 = 0, c8 = 0, noc = 0, dram = 0;
    for (const std::string& w : job_.workloads) {
      std::vector<VirtAddr> vas;
      std::vector<PhysAddr> pas;
      {
        auto sys = prepare(job_, w, "radix");
        auto trace = make_trace(w, params_of(job_, 1));
        for (std::size_t i = 0; i < kRefs; ++i) {
          const VirtAddr va = trace->next(0).va;
          vas.push_back(va);
          pas.push_back(sys->space().translate(va).value_or(va));
        }
      }
      for (const char* mech : {"radix", "ndpage", "ech", "hybrid"}) {
        auto sys = prepare(job_, w, mech);
        const PageTable& pt = sys->space().page_table();
        WalkPath path;
        walk[mech] += ns_per_call(kRefs, [&](std::size_t i) {
          pt.walk_into(vas[i] >> kPageShift, path);
          g_sink += path.pfn;
        });
        Cycle now = 0;
        Walker& wk = sys->mmu(0).walker();
        walker[mech] += ns_per_call(kRefs, [&](std::size_t i) {
          g_sink += wk.walk(now += kGap, 0, vas[i]).finish;
        });
        Mmu& m = sys->mmu(0);
        mmu[mech] += ns_per_call(kRefs, [&](std::size_t i) {
          g_sink += m.translate(now += kGap, vas[i]).finish;
        });
      }
      Tlb t(MmuConfig{}.l1_dtlb);
      tlb += ns_per_call(kRefs, [&](std::size_t i) {
        if (auto e = t.lookup(vas[i])) {
          g_sink += e->pfn;
        } else {
          t.insert(vas[i], vas[i] >> kPageShift, kPageShift);
        }
      });
      PwcSet pwcs({4, 3, 2, 1}, PwcConfig{});
      const std::vector<unsigned> walked{4, 3, 2, 1};
      pwc += ns_per_call(kRefs, [&](std::size_t i) {
        const Vpn vpn = vas[i] >> kPageShift;
        const unsigned d = pwcs.deepest_hit(vpn);
        if (d != 1) pwcs.fill(vpn, walked);
        g_sink += d;
      });
      for (unsigned cores : {1u, 8u}) {
        SystemConfig cfg = SystemConfig::ndp(cores, "radix");
        cfg.seed = job_.seed;
        System sys(cfg);
        MemorySystem& mem = sys.mem();
        Cycle now = 0;
        const double ns = ns_per_call(kRefs, [&](std::size_t i) {
          g_sink += mem.access(now += kGap, static_cast<unsigned>(i % cores),
                               pas[i], AccessType::kRead, AccessClass::kData)
                        .finish;
        });
        (cores == 1 ? c1 : c8) += ns;
        if (cores == 8) {
          Mesh& mesh = mem.mesh();
          Dram& d = mem.dram();
          noc += ns_per_call(kRefs, [&](std::size_t i) {
            g_sink += mesh.to_memory(now += kGap, static_cast<unsigned>(i % 8),
                                     d.channel_of(pas[i]));
          });
          dram += ns_per_call(kRefs, [&](std::size_t i) {
            g_sink += d.access(now += kGap, pas[i], AccessType::kRead,
                               AccessClass::kData)
                          .finish;
          });
        }
      }
    }
    const double n = static_cast<double>(job_.workloads.size());
    for (const auto& [mech, ns] : walk) {
      out_["translate.walk_ns." + mech] = ns / n;
      out_["translate.walker_ns." + mech] = walker[mech] / n;
      out_["core.mmu_translate_ns." + mech] = mmu[mech] / n;
    }
    out_["translate.tlb_lookup_ns"] = tlb / n;
    out_["translate.pwc_lookup_ns"] = pwc / n;
    out_["cache.access_ns.1c"] = c1 / n;
    out_["cache.access_ns.8c"] = c8 / n;
    out_["noc.to_memory_ns"] = noc / n;
    out_["dram.access_ns"] = dram / n;
  }

  void heap_and_buddy() {
    for (unsigned depth : {8u, 64u}) {
      EventHeap heap(depth + 1);
      std::uint64_t x = job_.seed | 1;
      for (unsigned i = 0; i < depth; ++i) heap.push({x % 97, i, i});
      out_["sim.heap_push_pop_ns.depth" + std::to_string(depth)] =
          ns_per_call(kRefs * 4, [&](std::size_t) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const EngineEvent e = heap.top();
            heap.pop();
            heap.push({e.time + 1 + (x >> 58), e.core, e.slot});
          });
      g_sink += heap.top().time;
    }
    BuddyAllocator buddy(std::uint64_t{1} << 22);  // 16 GB of 4 KB frames
    std::vector<std::pair<Pfn, unsigned>> held(256);
    for (auto& [pfn, order] : held) pfn = *buddy.alloc(order = 0);
    out_["os.buddy_alloc_ns"] = ns_per_call(kRefs, [&](std::size_t i) {
      auto& [pfn, order] = held[i % held.size()];
      buddy.free(pfn, order);
      order = static_cast<unsigned>(i % 3);
      pfn = *buddy.alloc(order);
      g_sink += pfn;
    });
  }

  void setup_layers() {
    double prefault = 0;
    for (const std::string& w : job_.workloads) {
      SystemConfig cfg = SystemConfig::ndp(1, "radix");
      cfg.seed = job_.seed;
      System sys(cfg);
      auto trace = make_trace(w, params_of(job_, 1));
      for (const VmRegion& r : trace->regions()) sys.space().add_region(r);
      const auto t0 = Clock::now();
      sys.space().prefault_all();
      prefault += seconds_since(t0);
    }
    out_["translate.prefault_s"] = prefault;

    SystemConfig cfg = SystemConfig::ndp(8, "radix");
    cfg.seed = job_.seed;
    std::optional<SystemImage> image;
    out_["core.prepare_image_s"] =
        median_seconds(3, [&] { image = System::prepare_image(cfg); });
    System sys(cfg, *image);
    out_["core.reset_to_ms"] =
        median_seconds(5, [&] { sys.reset_to(*image); }) * 1e3;
  }

  void parse_and_serialize() {
    constexpr int kReps = 200;
    out_["sim.run_config_parse_us"] =
        median_seconds(5, [&] {
          for (int i = 0; i < kReps; ++i)
            g_sink += RunConfig::from_json(job_.grid).expand().size();
        }) * 1e6 / kReps;
    out_["serve.parse_request_us"] =
        median_seconds(5, [&] {
          for (int i = 0; i < kReps; ++i)
            g_sink += serve::parse_request(job_.request).config.cores.size();
        }) * 1e6 / kReps;
    const SweepResults results = run_sweep(RunConfig::from_json(job_.tiny));
    out_["common.json_result_us"] =
        median_seconds(5, [&] {
          for (int i = 0; i < kReps; ++i) g_sink += to_json(results).size();
        }) * 1e6 / kReps;
  }

  /// Median round trip of a `status` request sent while a run streams its
  /// cells on the same connection of an in-process daemon.
  void serve_layer() {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
      throw std::runtime_error("socketpair failed");
    serve::ServeOptions opts;
    opts.jobs = 1;
    serve::Server server(opts);
    std::thread daemon([&] { server.serve_stream(sv[1], sv[1]); });

    std::string buf;
    auto send = [&](const std::string& line) {
      const std::string s = line + "\n";
      if (::write(sv[0], s.data(), s.size()) != static_cast<ssize_t>(s.size()))
        throw std::runtime_error("short write to daemon");
    };
    auto read_line = [&] {
      for (;;) {
        const auto nl = buf.find('\n');
        if (nl != std::string::npos) {
          std::string line = buf.substr(0, nl);
          buf.erase(0, nl + 1);
          return line;
        }
        char chunk[65536];
        const ssize_t n = ::read(sv[0], chunk, sizeof chunk);
        if (n <= 0) throw std::runtime_error("daemon closed the stream");
        buf.append(chunk, static_cast<std::size_t>(n));
      }
    };

    send("{\"op\":\"run\",\"id\":\"r\",\"config\":" + job_.tiny + "}");
    std::vector<double> rtt;
    bool done = false;
    int ping = 0;
    while (!done) {
      const std::string id = "s" + std::to_string(ping++);
      const auto t0 = Clock::now();
      send("{\"op\":\"status\",\"id\":\"" + id + "\"}");
      for (;;) {
        const JsonValue env = JsonValue::parse(read_line());
        const std::string& type = env.at("type").as_string();
        if (type == "error")
          throw std::runtime_error("daemon run failed: " +
                                   env.at("error").as_string());
        if (type == "done") done = true;
        if (type == "status" && env.at("id").as_string() == id) {
          rtt.push_back(seconds_since(t0) * 1e6);
          break;
        }
      }
    }
    send("{\"op\":\"shutdown\",\"id\":\"z\"}");
    server.request_shutdown();
    daemon.join();
    ::close(sv[0]);
    ::close(sv[1]);
    std::sort(rtt.begin(), rtt.end());
    out_["serve.status_rtt_us"] = rtt[rtt.size() / 2];
  }

  Job job_;
  std::map<std::string, double> out_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s JOB.json\n", argv[0]);
    return 2;
  }
  try {
    const std::map<std::string, double> metrics = Probe(load_job(argv[1])).run();
    JsonWriter w;
    w.begin_object();
    for (const auto& [name, value] : metrics) w.key(name).value(value);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fprintf(stderr, "layer_probe: sink %llu\n",
                 static_cast<unsigned long long>(g_sink));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_probe: %s\n", e.what());
    return 1;
  }
  return 0;
}
