// Online-routing throughput microbenchmarks (google-benchmark): the
// reference scan vs the candidate index at several park sizes, plus the
// DES-level arrival loop under both routing paths. BM_RouteScan doubles
// as the machine-speed proxy for the CI perf gate: normalizing
// BM_RouteIndexed by the same-size scan measured in the same process turns
// the gate into a speedup-ratio check that is immune to runner generations
// (scripts/check_perf_regression.py --proxy-prefix BM_RouteScan/).
//
// The park is synthetic: a block-diagonal TC matrix gives every task type a
// wide private slice of cores (the regime where the scan's O(candidates)
// cost dominates) without paying a 4800-core LP solve at setup. Two rate
// layouts bracket the index's behavior (docs/SCHEDULER.md §2): uniform
// per-core desired rates match real LP output, where whole candidate sets
// collapse into single cohort buckets; heterogeneous rates drawn from
// [0.5, 2.0] degenerate every cohort to one member, which is the index's
// worst case (one heap entry per candidate, as a flat index would hold).
// Arrival rates match the TC row sums so admission stays realistic: the
// ratio filter hovers around 1 and both paths see blocked candidates. A
// third layout is the overload regime of the des-storm-300 pipeline
// workload: uniform rates that load every core to capacity, short deadlines
// and arrivals at twice the planned rates, so most routes end with whole
// cohort buckets deadline-blocked — the buckets the index parks on their
// finish floors (docs/SCHEDULER.md §2). The overload layout also drives one
// DES row, where the completion cursor carries every admitted task.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "core/assigner.h"
#include "core/scheduler.h"
#include "dc/datacenter.h"
#include "sim/des.h"
#include "util/rng.h"

namespace {

using namespace tapo;

constexpr std::size_t kNumTypes = 8;
constexpr std::size_t kCoresPerNode = 16;
constexpr double kEcsRate = 4.0;  // tasks/sec per core => utilization <= 0.5

// Overload layout: per-core desired rate at P-state 0 capacity, arrivals at
// kOverloadDemand x the TC sums and every core starting with a backlog of
// one deadline. Admission then runs at the service rate, so each core sits
// at its deadline boundary: about half the routes find every bucket of the
// type deadline-blocked and drop, the rest admit to a core that just
// drained below the boundary.
constexpr double kOverloadDeadline = 2.0;
constexpr double kOverloadDemand = 2.0;

enum class Rates { kHeterogeneous, kUniform, kOverload };

struct BenchPark {
  dc::DataCenter dc;
  core::Assignment assignment;
  double total_rate = 0.0;  // sum of all arrival rates
  double backlog_s = 0.0;   // every core's queued work at time 0
};

// A single-node-type park with `cores` cores total, a block-diagonal
// desired-rate matrix (type i owns cores [i*B, (i+1)*B)) and arrival rates
// matched to the TC row sums (kOverloadDemand times them for kOverload).
// kUniform selects LP-like identical rates per row, kOverload identical
// rates at capacity; kHeterogeneous draws rates from [0.5, 2.0]. Only the
// fields the scheduler and DES touch need to be meaningful; thermal state
// (alpha) is never consulted on the routing path and is left empty.
BenchPark make_park(std::size_t cores, Rates rates = Rates::kHeterogeneous) {
  BenchPark park;
  dc::DataCenter& dc = park.dc;
  const std::size_t nodes = cores / kCoresPerNode;
  dc.node_types.emplace_back(
      "bench", /*base_power_kw=*/0.2, kCoresPerNode,
      /*p0_power_kw=*/0.1, /*static_fraction=*/0.3,
      std::vector<dc::PStateSpec>{{2500.0, 1.3}, {1500.0, 1.1}},
      /*airflow_m3s=*/0.07);
  for (std::size_t j = 0; j < nodes; ++j) dc.nodes.push_back({0});
  dc.layout = dc::make_hot_cold_aisle_layout(nodes, 1);
  dc::CracSpec crac;
  crac.flow_m3s = 0.07 * static_cast<double>(nodes);
  dc.cracs = {crac};
  dc.finalize();

  core::Assignment& a = park.assignment;
  a.feasible = true;
  a.technique = "bench-synthetic";
  a.crac_out_c.assign(dc.num_cracs(), 16.0);
  a.core_pstate.assign(cores, 0);
  a.tc = solver::Matrix(kNumTypes, cores);
  a.compute_power_kw = 1.0;

  util::Rng rng(7);
  dc.ecs = dc::EcsTable(kNumTypes, 1, 3);
  dc.task_types.resize(kNumTypes);
  const std::size_t block = cores / kNumTypes;
  const bool overload = rates == Rates::kOverload;
  for (std::size_t i = 0; i < kNumTypes; ++i) {
    double row_rate = 0.0;
    for (std::size_t k = i * block; k < (i + 1) * block; ++k) {
      switch (rates) {
        case Rates::kHeterogeneous: a.tc(i, k) = rng.uniform(0.5, 2.0); break;
        case Rates::kUniform: a.tc(i, k) = 1.0; break;
        case Rates::kOverload: a.tc(i, k) = kEcsRate; break;
      }
      row_rate += a.tc(i, k);
    }
    dc.ecs.set_ecs(i, 0, 0, kEcsRate);
    dc.ecs.set_ecs(i, 0, 1, kEcsRate * 0.6);
    dc.task_types[i].name = "t" + std::to_string(i);
    dc.task_types[i].reward = 1.0;
    // 30 s rarely binds at load 0.5; the overload deadline binds by design.
    dc.task_types[i].relative_deadline = overload ? kOverloadDeadline : 30.0;
    dc.task_types[i].arrival_rate = row_rate * (overload ? kOverloadDemand : 1.0);
    park.total_rate += dc.task_types[i].arrival_rate;
  }
  if (overload) park.backlog_s = kOverloadDeadline;
  return park;
}

// Pre-drawn arrival types, weighted by the per-type desired rates so the
// ATC/TC ratios hover around 1 for every type. The timed loop is routing
// work plus a table read — identical overhead for both selection paths.
std::vector<std::size_t> draw_types(const dc::DataCenter& dc, std::size_t n) {
  util::Rng rng(42);
  std::vector<double> weights;
  for (const auto& type : dc.task_types) weights.push_back(type.arrival_rate);
  std::vector<std::size_t> types(n);
  for (auto& t : types) t = rng.pick_weighted(weights);
  return types;
}

void route_throughput(benchmark::State& state, core::RouteMode mode,
                      Rates rates = Rates::kHeterogeneous) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const BenchPark park = make_park(cores, rates);
  core::SchedulerOptions options;
  options.route_mode = mode;
  core::DynamicScheduler scheduler(park.dc, park.assignment, options);
  std::vector<double> free_time(cores, park.backlog_s);
  const auto types = draw_types(park.dc, 1 << 16);
  const double dt = 1.0 / park.total_rate;
  double now = 0.0;
  std::size_t n = 0;
  for (auto _ : state) {
    now += dt;
    const auto d = scheduler.route(types[n++ & 0xffff], now, free_time);
    if (d.assigned) {
      free_time[d.core] = std::max(now, free_time[d.core]) + d.exec_seconds;
    }
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cores"] = static_cast<double>(cores);
  // Cohort buckets examined and deadline-blocked buckets parked, per route.
  state.counters["index_pops"] = benchmark::Counter(
      static_cast<double>(scheduler.stats().index_pops),
      benchmark::Counter::kAvgIterations);
  state.counters["index_parks"] = benchmark::Counter(
      static_cast<double>(scheduler.stats().index_parks),
      benchmark::Counter::kAvgIterations);
}

void BM_RouteScan(benchmark::State& state) {
  route_throughput(state, core::RouteMode::kScan);
}
BENCHMARK(BM_RouteScan)->Arg(160)->Arg(640)->Arg(4800);

void BM_RouteIndexed(benchmark::State& state) {
  route_throughput(state, core::RouteMode::kIndexed);
}
BENCHMARK(BM_RouteIndexed)->Arg(160)->Arg(640)->Arg(4800);

// LP-like uniform rates: every candidate block is one cohort, so the index
// pays O(1) bucket pops per route where a flat per-candidate index would
// re-examine the whole equal-key cohort (hundreds of entries) every time.
void BM_RouteScanUniform(benchmark::State& state) {
  route_throughput(state, core::RouteMode::kScan, Rates::kUniform);
}
BENCHMARK(BM_RouteScanUniform)->Arg(4800);

void BM_RouteIndexedUniform(benchmark::State& state) {
  route_throughput(state, core::RouteMode::kIndexed, Rates::kUniform);
}
BENCHMARK(BM_RouteIndexedUniform)->Arg(4800);

// Overload: most routes find every cohort bucket of the type deadline-
// blocked. The scan still checks every candidate; the index leaves each
// blocked bucket parked on its finish floor instead of re-walking its
// members.
void BM_RouteScanOverload(benchmark::State& state) {
  route_throughput(state, core::RouteMode::kScan, Rates::kOverload);
}
BENCHMARK(BM_RouteScanOverload)->Arg(4800);

void BM_RouteIndexedOverload(benchmark::State& state) {
  route_throughput(state, core::RouteMode::kIndexed, Rates::kOverload);
}
BENCHMARK(BM_RouteIndexedOverload)->Arg(4800);

// End-to-end DES arrival loop (batched admission + routing + completions),
// 20 simulated seconds per iteration. Items = routed arrivals, so items/sec
// is the headline routed-tasks-per-second number.
void des_throughput(benchmark::State& state, core::RouteMode mode,
                    Rates rates = Rates::kHeterogeneous) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const BenchPark park = make_park(cores, rates);
  sim::SimOptions options;
  options.duration_seconds = 20.0;
  options.scheduler.route_mode = mode;
  std::size_t routed = 0;
  for (auto _ : state) {
    options.seed++;  // fresh arrival draws each iteration
    const sim::SimResult r = sim::simulate(park.dc, park.assignment, options);
    for (const auto& m : r.per_type) routed += m.arrived;
    benchmark::DoNotOptimize(r.total_reward);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(routed));
  state.counters["cores"] = static_cast<double>(cores);
}

void BM_SimulateScan(benchmark::State& state) {
  des_throughput(state, core::RouteMode::kScan);
}
BENCHMARK(BM_SimulateScan)->Arg(160)->Arg(640)->Arg(4800)->Unit(benchmark::kMillisecond);

void BM_SimulateIndexed(benchmark::State& state) {
  des_throughput(state, core::RouteMode::kIndexed);
}
BENCHMARK(BM_SimulateIndexed)->Arg(160)->Arg(640)->Arg(4800)->Unit(benchmark::kMillisecond);

// The overload layout through the DES: arrivals at twice the planned rates
// against capacity-loaded cores (each starts idle, so the backlog builds up
// to the deadline boundary within the first seconds).
void BM_SimulateIndexedOverload(benchmark::State& state) {
  des_throughput(state, core::RouteMode::kIndexed, Rates::kOverload);
}
BENCHMARK(BM_SimulateIndexedOverload)->Arg(4800)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tapo::bench::telemetry_sink();  // resolves TAPO_TELEMETRY_OUT for the header
  for (const auto& [name, value] : tapo::bench::knobs_read()) {
    benchmark::AddCustomContext(name, value);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tapo::bench::write_telemetry();
  return 0;
}
