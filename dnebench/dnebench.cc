// dnebench: the repository's benchmark binary. One invocation runs one
// workload for a fixed time, checks every output against a reference, and
// prints one JSON result line (end-to-end metrics, or per-layer metrics
// with --trace 1) preceded by a host/noise record.
//
//   dnebench --workload rmat-inproc|rmat-shm|serve-mix --seed N --seconds S
//            --trace 0|1 [--work-dir DIR] [--source-digest HEX]
//   dnebench --list-metrics
//
// Workloads (why each exists is recorded in README.md):
//   rmat-inproc  DNE on RMAT scale 18, P=16, in-process ranks, 2 threads;
//                one Partition call per forked op child.
//   rmat-shm     the same graph and DNE seed over transport=shm, ranks=2
//                (single-threaded rank processes): equal parallelism, so
//                the difference to rmat-inproc is the transport's cost.
//   serve-mix    RMAT scale 17 partitioned once by DNE in set-up, served by
//                InProcessServeBackend behind ServeServer to one closed-loop
//                client rotating PageRank / SSSP / WCC in exact thirds.
//
// Every layer is measured from outside the library: spans wrap calls into
// public functions, and the numbers come from the stats those calls return.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/engine.h"
#include "apps/serve_server.h"
#include "bench_core.h"
#include "common/random.h"
#include "gen/rmat.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "metrics/partition_metrics.h"
#include "metrics/theory.h"
#include "partition/dne/boundary_queue.h"
#include "partition/dne/compact_part_sets.h"
#include "partition/dne/dne_partitioner.h"
#include "runtime/wire.h"
#include "trace.h"

namespace dnebench {
namespace {

// ---- Workload constants (the seed picks graph, DNE seed and SSSP sources) ----
constexpr int kRmatScale = 18;
constexpr int kServeScale = 17;
constexpr int kEdgeFactor = 8;
constexpr std::uint32_t kPartitions = 16;
constexpr int kInprocThreads = 2;
constexpr int kShmRanks = 2;  // single-threaded rank processes
constexpr std::uint32_t kPageRankIterations = 10;
constexpr std::size_t kMinQueries = 100;  // p90 keeps >= 10 samples beyond it
constexpr std::size_t kMinOps = 5;
constexpr int kSetupReps = 3;
constexpr int kKernelPasses = 5;
constexpr double kOpTimeoutSeconds = 60.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string source_digest = "unknown";
};

/// Failed gates and counted ops of one run.
struct RunState {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per timed op: wall ms, CPU ms and the host's steal share (%) over it,
  /// so that a slow run can be explained from its record.
  std::vector<double> op_wall_ms, op_cpu_ms, op_steal_pct, op_rss_mb;
  void Gate(const std::string& problem) {
    if (!problem.empty()) failures.push_back(problem);
  }
};

/// Sample counts behind each reported median / percentile.
using SampleCounts = std::map<std::string, std::uint64_t>;

struct Seeds {
  std::uint64_t graph;
  std::uint64_t dne;
  std::uint64_t sources;
};

Seeds DeriveSeeds(std::uint64_t seed) {
  dne::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
  Seeds s;
  s.graph = rng();
  s.dne = rng();
  s.sources = rng();
  return s;
}

double Seconds(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Runs `fn` inside a span named `name` and returns its wall seconds.
template <typename Fn>
double TimedSpan(Tracer& tr, const char* name, std::uint64_t group, Fn&& fn) {
  ScopedSpan span(tr, name, group);
  const std::int64_t t0 = MonoNs();
  fn();
  return Seconds(t0, MonoNs());
}

std::uint64_t NonIsolatedVertices(const dne::Graph& g) {
  std::uint64_t n = 0;
  for (dne::VertexId v = 0; v < g.NumVertices(); ++v) n += g.degree(v) > 0;
  return n;
}

// ---- Graph set-up ---------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total, generate, save, load, build;
};

/// generate -> write the binary edge file -> load it -> Graph::Build.
dne::Graph BuildGraph(int scale, std::uint64_t graph_seed,
                      const std::string& edge_path, Tracer& tr,
                      std::uint64_t group, SetupTimes* times, RunState* run) {
  dne::RmatOptions gopt;
  gopt.scale = scale;
  gopt.edge_factor = kEdgeFactor;
  gopt.seed = graph_seed;
  dne::EdgeList list;
  times->generate.push_back(TimedSpan(tr, "gen.generate", group, [&] {
    list = dne::GenerateRmat(gopt);
  }));
  dne::Status st;
  times->save.push_back(TimedSpan(tr, "graph.save", group, [&] {
    st = dne::SaveEdgeListBinary(edge_path, list);
  }));
  run->Gate(st.ok() ? "" : "SaveEdgeListBinary: " + st.ToString());
  list = dne::EdgeList();
  dne::EdgeList loaded;
  times->load.push_back(TimedSpan(tr, "graph.load", group, [&] {
    st = dne::LoadEdgeListBinary(edge_path, &loaded);
  }));
  run->Gate(st.ok() ? "" : "LoadEdgeListBinary: " + st.ToString());
  dne::Graph g;
  times->build.push_back(TimedSpan(tr, "graph.build", group, [&] {
    g = dne::Graph::Build(std::move(loaded));
  }));
  std::remove(edge_path.c_str());
  return g;
}

void SetGraphLayerMetrics(const SetupTimes& t, MetricSet* m, SampleCounts* n) {
  m->Set("gen.generate_s", Median(t.generate));
  m->Set("graph.save_s", Median(t.save));
  m->Set("graph.load_s", Median(t.load));
  m->Set("graph.build_s", Median(t.build));
  m->Set("setup_s", Median(t.total));
  (*n)["setup_s"] = t.total.size();
}

// ---- Kernel replays ---------------------------------------------------------------

struct KernelReplay {
  std::uint64_t common_ids = 0;
  bool queue_drained = true;  ///< every pushed vertex popped exactly once
  double for_each_common_ns_per_edge = 0.0;
  double boundary_queue_ns_per_vertex = 0.0;
};

/// Replays the Phase-C intersection kernel over the final assignment (every
/// edge's endpoint partition sets) and pushes/pops every non-isolated vertex
/// through the bucketed boundary queue keyed by degree.
KernelReplay ReplayKernels(const dne::Graph& g,
                           const std::vector<dne::PartitionId>& assignment,
                           Tracer& tr, std::uint64_t group) {
  KernelReplay out;
  dne::CompactPartSets sets;
  sets.Init(static_cast<std::uint32_t>(g.NumVertices()), kPartitions);
  for (dne::EdgeId e = 0; e < g.NumEdges(); ++e) {
    sets.Add(static_cast<std::uint32_t>(g.edge(e).src), assignment[e]);
    sets.Add(static_cast<std::uint32_t>(g.edge(e).dst), assignment[e]);
  }
  std::vector<double> common_ns, queue_ns;
  for (int pass = 0; pass < kKernelPasses; ++pass) {
    std::uint64_t common = 0;
    const double s = TimedSpan(tr, "kernel.for_each_common", group, [&] {
      for (dne::EdgeId e = 0; e < g.NumEdges(); ++e) {
        sets.ForEachCommon(static_cast<std::uint32_t>(g.edge(e).src),
                           static_cast<std::uint32_t>(g.edge(e).dst),
                           [&common](dne::PartitionId) { ++common; });
      }
    });
    out.common_ids = common;
    common_ns.push_back(s * 1e9 / static_cast<double>(g.NumEdges()));

    std::uint64_t pushed = 0, popped = 0;
    const double q = TimedSpan(tr, "kernel.boundary_queue", group, [&] {
      dne::BucketedBoundaryQueue queue;
      for (dne::VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.degree(v) == 0) continue;
        queue.Push(g.degree(v), v);
        ++pushed;
      }
      while (!queue.empty()) {
        queue.PopMin();
        ++popped;
      }
    });
    out.queue_drained = out.queue_drained && popped == pushed;
    queue_ns.push_back(q * 1e9 / static_cast<double>(pushed));
  }
  out.for_each_common_ns_per_edge = Median(common_ns);
  out.boundary_queue_ns_per_vertex = Median(queue_ns);
  return out;
}

/// In a traced run the replay runs once untraced and once traced; the exact
/// count must agree, otherwise tracing changed the work.
void SetKernelMetrics(const dne::Graph& g,
                      const std::vector<dne::PartitionId>& assignment,
                      Tracer& tr, RunState* run, MetricSet* m,
                      SampleCounts* n) {
  Tracer off(false);
  const KernelReplay untraced = ReplayKernels(g, assignment, off, 0);
  const KernelReplay traced = ReplayKernels(g, assignment, tr, 0);
  run->Gate(CheckEqualCount("kernel.common_ids (untraced vs traced)",
                            untraced.common_ids, traced.common_ids));
  if (!untraced.queue_drained || !traced.queue_drained) {
    run->Gate("BucketedBoundaryQueue replay lost or duplicated vertices");
  }
  m->Set("kernel.common_ids", static_cast<double>(traced.common_ids));
  m->Set("kernel.for_each_common_ns_per_edge",
         traced.for_each_common_ns_per_edge);
  m->Set("kernel.boundary_queue_ns_per_vertex",
         traced.boundary_queue_ns_per_vertex);
  (*n)["kernel.for_each_common_ns_per_edge"] = kKernelPasses;
  (*n)["kernel.boundary_queue_ns_per_vertex"] = kKernelPasses;
}

/// Quality of the produced partition plus the range and Theorem-1 gates.
dne::PartitionMetrics CheckedQuality(const dne::Graph& g,
                                     const std::vector<dne::PartitionId>& a,
                                     Tracer& tr, RunState* run) {
  run->Gate(CheckAssignment(a, g.NumEdges(), kPartitions));
  dne::PartitionMetrics q;
  if (a.size() != g.NumEdges()) return q;
  const dne::EdgePartition ep(kPartitions, a);
  {
    ScopedSpan span(tr, "metrics.partition_metrics", 0);
    q = dne::ComputePartitionMetrics(g, ep);
  }
  run->Gate(CheckRfBound(q.replication_factor,
                         dne::Theorem1UpperBound(g.NumEdges(),
                                                 NonIsolatedVertices(g),
                                                 kPartitions)));
  return q;
}

// ---- DNE per-layer metrics from DneStats --------------------------------------

void FillFromStats(const dne::DneStats& s, OpOutcome* o) {
  o->supersteps = s.iterations;
  o->one_hop_edges = s.one_hop_edges;
  o->two_hop_edges = s.two_hop_edges;
  o->random_restarts = s.random_restarts;
  o->comm_bytes = s.comm_bytes;
  o->wire_bytes = s.wire_bytes;
  o->wire_frames = s.wire_frames;
  o->distribute_s = s.host_distribute_seconds;
  o->phase_a_s = s.host_phase_a_seconds;
  o->phase_b_s = s.host_phase_b_seconds;
  o->phase_c_s = s.host_phase_c_seconds;
  o->phase_d_s = s.host_phase_d_seconds;
  o->boundary_imbalance = s.boundary_imbalance;
  for (std::uint64_t b : s.rank_peak_bytes) {
    o->rank_peak_bytes_max = std::max(o->rank_peak_bytes_max, b);
  }
  for (std::uint64_t b : s.process_rss_bytes) {
    o->process_rss_max = std::max(o->process_rss_max, b);
  }
}

/// Sets the dne.* and mesh.* count metrics from one op and the phase times
/// as medians over `ops`.
void SetDneMetrics(const std::vector<OpOutcome>& ops, MetricSet* m,
                   SampleCounts* n) {
  const OpOutcome& o = ops.front();
  auto median_of = [&ops](double OpOutcome::*field) {
    std::vector<double> v;
    for (const OpOutcome& x : ops) v.push_back(x.*field);
    return Median(v);
  };
  m->Set("dne.distribute_s", median_of(&OpOutcome::distribute_s));
  m->Set("dne.phase_a_s", median_of(&OpOutcome::phase_a_s));
  m->Set("dne.phase_b_s", median_of(&OpOutcome::phase_b_s));
  m->Set("dne.phase_c_s", median_of(&OpOutcome::phase_c_s));
  m->Set("dne.phase_d_s", median_of(&OpOutcome::phase_d_s));
  for (const char* k : {"dne.distribute_s", "dne.phase_a_s", "dne.phase_b_s",
                        "dne.phase_c_s", "dne.phase_d_s"}) {
    (*n)[k] = ops.size();
  }
  m->Set("dne.supersteps", static_cast<double>(o.supersteps));
  const double placed = static_cast<double>(o.one_hop_edges + o.two_hop_edges);
  m->Set("dne.two_hop_share",
         placed > 0 ? static_cast<double>(o.two_hop_edges) / placed : 0.0);
  m->Set("dne.random_restarts", static_cast<double>(o.random_restarts));
  m->Set("dne.boundary_imbalance", o.boundary_imbalance);
  m->Set("dne.rank_peak_bytes_max", static_cast<double>(o.rank_peak_bytes_max));
  m->Set("mesh.payload_bytes", static_cast<double>(o.comm_bytes));
  m->Set("mesh.wire_bytes", static_cast<double>(o.wire_bytes));
  m->Set("mesh.wire_frames", static_cast<double>(o.wire_frames));
  m->Set("mesh.frames_per_superstep",
         o.supersteps > 0 ? static_cast<double>(o.wire_frames) /
                                static_cast<double>(o.supersteps)
                          : 0.0);
}

/// The exact counts a traced op must share with an untraced one.
void CheckTracedCounts(const OpOutcome& untraced, const OpOutcome& traced,
                       RunState* run) {
  run->Gate(CheckEqualCount("dne.supersteps (untraced vs traced)",
                            untraced.supersteps, traced.supersteps));
  run->Gate(CheckEqualCount("mesh.wire_bytes (untraced vs traced)",
                            untraced.wire_bytes, traced.wire_bytes));
  run->Gate(CheckEqualCount("mesh.wire_frames (untraced vs traced)",
                            untraced.wire_frames, traced.wire_frames));
}

void SetServeLayerZero(MetricSet* m) {
  for (const char* k :
       {"serve.shard_build_s", "serve.backend_ms", "serve.queue_ms",
        "serve.pagerank_ms", "serve.sssp_ms", "serve.wcc_ms",
        "serve.supersteps_per_query", "serve.sync_bytes_per_query"}) {
    m->Set(k, 0.0);
  }
}

void SetTraceMetrics(const Tracer& tr, double overhead_ms, MetricSet* m) {
  const std::map<std::string, double> self = tr.SelfSecondsByLayer();
  for (const char* layer : {"gen", "graph", "dne", "kernel", "serve", "bench"}) {
    auto it = self.find(layer);
    m->Set(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second);
  }
  m->Set("trace.spans", static_cast<double>(tr.spans().size()));
  m->Set("trace.overhead_ms", overhead_ms);
}

// ---- rmat-inproc / rmat-shm ------------------------------------------------------

dne::DneOptions DneOpts(std::uint64_t dne_seed, dne::DneTransport transport) {
  dne::DneOptions opt;
  opt.seed = dne_seed;
  opt.transport = transport;
  if (transport == dne::DneTransport::kInProcess) {
    opt.num_threads = kInprocThreads;
  } else {
    opt.num_threads = 1;
    opt.ranks = kShmRanks;
  }
  return opt;
}

/// One Partition call in a forked child: a fresh heap per call, and the
/// child's own peak RSS. Returns false (and counts a failed op) when the
/// child crashed, timed out or the call failed.
bool PartitionOp(const dne::Graph& g, const dne::DneOptions& opt, bool traced,
                 std::uint64_t group, Tracer& tr, RunState* run,
                 OpOutcome* out) {
  ++run->attempted;
  // The child inherits the parent's resident heap: return freed pages first
  // so every op child starts from the same footprint.
  malloc_trim(0);
  Tracer off(false);
  ScopedSpan op_span(traced ? tr : off, "bench.op", group);
  const ForkResult fr = RunForked(
      [&]() {
        Tracer child(traced);
        OpOutcome o;
        dne::DnePartitioner partitioner(opt);
        dne::EdgePartition ep;
        dne::Status st;
        const double cpu0 = ProcessCpuSeconds();
        const std::int64_t t0 = MonoNs();
        {
          ScopedSpan span(child, "dne.partition", group);
          st = partitioner.Partition(g, kPartitions, &ep);
        }
        o.wall_seconds = Seconds(t0, MonoNs());
        o.cpu_seconds = ProcessCpuSeconds() - cpu0;
        o.vmhwm_bytes = VmHwmBytes();
        o.status = st.ok() ? "" : st.ToString();
        FillFromStats(partitioner.dne_stats(), &o);
        o.assignment = std::move(ep.mutable_assignment());
        o.spans = child.spans();
        return EncodeOutcome(o);
      },
      kOpTimeoutSeconds);
  if (!fr.ok) {
    ++run->failed;
    run->Gate("op " + std::to_string(group) + ": " + fr.error);
    return false;
  }
  if (!DecodeOutcome(fr.payload, out)) {
    ++run->failed;
    run->Gate("op " + std::to_string(group) + ": undecodable result");
    return false;
  }
  if (!out->status.empty()) {
    ++run->failed;
    run->Gate("op " + std::to_string(group) + ": Partition: " + out->status);
    return false;
  }
  if (traced) tr.Adopt(out->spans, op_span.id());
  return true;
}

void RunRmat(const Args& args, bool shm, Tracer& tr, RunState* run,
             MetricSet* m, SampleCounts* n) {
  const Seeds seeds = DeriveSeeds(args.seed);
  const std::string edge_path = args.work_dir + "/rmat-edges.bin";
  SetupTimes times;
  dne::Graph g;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g = dne::Graph();
    ScopedSpan span(tr, "bench.setup", 0);
    const std::int64_t t0 = MonoNs();
    g = BuildGraph(kRmatScale, seeds.graph, edge_path, tr, 0, &times, run);
    times.total.push_back(Seconds(t0, MonoNs()));
  }
  SetGraphLayerMetrics(times, m, n);
  if (g.NumEdges() == 0) {
    run->Gate("set-up produced an empty graph");
    return;
  }
  const std::uint64_t edges = g.NumEdges();
  const dne::DneTransport timed_transport =
      shm ? dne::DneTransport::kShm : dne::DneTransport::kInProcess;
  const dne::DneTransport other_transport =
      shm ? dne::DneTransport::kInProcess : dne::DneTransport::kShm;

  // Untimed reference: the other transport must produce the same partition.
  std::uint64_t group = 1;
  OpOutcome reference;
  if (!PartitionOp(g, DneOpts(seeds.dne, other_transport), false, group++, tr,
                   run, &reference)) {
    return;
  }
  const std::uint64_t reference_fp = AssignmentFingerprint(reference.assignment);

  // rmat-shm: one untimed socket-mesh call must report wire totals exactly
  // equal to shm's (same frames over a different medium).
  OpOutcome socket_ref;
  if (shm && !PartitionOp(g, DneOpts(seeds.dne, dne::DneTransport::kProcess),
                          false, group++, tr, run, &socket_ref)) {
    return;
  }
  if (shm) {
    run->Gate(CheckFingerprint("transport=process",
                               AssignmentFingerprint(socket_ref.assignment),
                               reference_fp));
  }

  // Timed ops. A traced run alternates untraced and traced ops so that the
  // exact counts and the tracing overhead compare like with like.
  std::vector<OpOutcome> ops, untraced_ops;
  std::vector<double> wall, cpu, traced_wall, untraced_wall, cpu_per_wall;
  std::vector<double> peak_rss, coordinator_rss;
  const std::int64_t loop_start = MonoNs();
  for (std::size_t i = 0;
       Seconds(loop_start, MonoNs()) < args.seconds || wall.size() < kMinOps;
       ++i) {
    const bool traced = args.trace && i % 2 == 1;
    OpOutcome o;
    const CpuTicks ticks0 = ReadCpuTicks();
    if (!PartitionOp(g, DneOpts(seeds.dne, timed_transport), traced, group++,
                     tr, run, &o)) {
      if (run->failed > 3) return;  // persistent failure: stop early
      continue;
    }
    const std::string what = std::string(shm ? "shm" : "in-process") +
                             " op " + std::to_string(i);
    run->Gate(CheckFingerprint(what, AssignmentFingerprint(o.assignment),
                               reference_fp));
    if (shm) {
      run->Gate(CheckEqualCount(what + " wire_bytes vs transport=process",
                                o.wire_bytes, socket_ref.wire_bytes));
      run->Gate(CheckEqualCount(what + " wire_frames vs transport=process",
                                o.wire_frames, socket_ref.wire_frames));
    }
    wall.push_back(o.wall_seconds);
    cpu.push_back(o.cpu_seconds);
    peak_rss.push_back(static_cast<double>(shm ? o.process_rss_max
                                               : o.vmhwm_bytes));
    run->op_wall_ms.push_back(o.wall_seconds * 1e3);
    run->op_cpu_ms.push_back(o.cpu_seconds * 1e3);
    run->op_steal_pct.push_back(100.0 * StealShare(ticks0, ReadCpuTicks()));
    run->op_rss_mb.push_back(peak_rss.back() / (1 << 20));
    cpu_per_wall.push_back(o.cpu_seconds / o.wall_seconds);
    coordinator_rss.push_back(static_cast<double>(o.vmhwm_bytes));
    (traced ? traced_wall : untraced_wall).push_back(o.wall_seconds);
    if (traced || !untraced_ops.empty()) {
      std::vector<dne::PartitionId>().swap(o.assignment);  // keep only one
    }
    (traced ? ops : untraced_ops).push_back(std::move(o));
  }
  if (untraced_ops.empty()) return;
  if (args.trace && ops.empty()) {
    run->Gate("traced run completed no traced op");
    return;
  }

  const dne::PartitionMetrics q =
      CheckedQuality(g, untraced_ops.front().assignment, tr, run);
  const double median_wall = Median(wall);
  m->Set("edges_per_s", EdgesPerSecond(edges, median_wall));
  m->Set("cpu_ns_per_edge", CpuNsPerEdge(Median(cpu), edges));
  m->Set("replication_factor", q.replication_factor);
  m->Set("edge_balance", q.edge_balance);
  m->Set("peak_rss_bytes", Median(peak_rss));
  m->Set("query_p50_ms", median_wall * 1e3);
  // A Partition call is the "query" of these workloads. A run holds ~20
  // calls, so the highest percentile with 10 samples beyond it sits near
  // the median; README.md documents this.
  const double p_tail = HighestTailPercentile(wall.size(), 0.9);
  const std::optional<double> tail = Percentile(wall, p_tail);
  m->Set("query_p90_ms", tail ? *tail * 1e3 : median_wall * 1e3);
  for (const char* k : {"edges_per_s", "cpu_ns_per_edge", "peak_rss_bytes",
                        "query_p50_ms", "query_p90_ms", "mesh.cpu_per_wall",
                        "mesh.coordinator_rss_bytes"}) {
    (*n)[k] = wall.size();
  }
  (*n)["query_p90_ms.percentile_x1000"] =
      static_cast<std::uint64_t>(p_tail * 1000.0 + 0.5);

  if (args.trace) {
    for (const OpOutcome& t : ops) CheckTracedCounts(untraced_ops.front(), t, run);
    SetDneMetrics(ops, m, n);
    m->Set("mesh.cpu_per_wall", Median(cpu_per_wall));
    m->Set("mesh.coordinator_rss_bytes", Median(coordinator_rss));
    SetKernelMetrics(g, untraced_ops.front().assignment, tr, run, m, n);
    SetServeLayerZero(m);
    const double overhead_ms =
        traced_wall.empty() || untraced_wall.empty()
            ? 0.0
            : (Median(traced_wall) - Median(untraced_wall)) * 1e3;
    SetTraceMetrics(tr, overhead_ms, m);
  }
}

// ---- serve-mix ---------------------------------------------------------------------

/// ServeBackend decorator: times each Execute (wall and worker-thread CPU)
/// around the wrapped backend.
class TimedBackend final : public dne::ServeBackend {
 public:
  struct Timing {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double cpu_seconds = 0.0;
  };

  explicit TimedBackend(dne::ServeBackend* inner) : inner_(inner) {}

  std::uint64_t num_vertices() const override { return inner_->num_vertices(); }

  dne::Status Execute(const dne::ServeRequest& req,
                      const std::atomic<bool>* cancel,
                      const std::chrono::steady_clock::time_point* deadline,
                      dne::ServeResponse* resp) override {
    Timing t;
    t.start_ns = MonoNs();
    const double cpu0 = ThreadCpuSeconds();
    dne::Status st = inner_->Execute(req, cancel, deadline, resp);
    t.cpu_seconds = ThreadCpuSeconds() - cpu0;
    t.end_ns = MonoNs();
    std::lock_guard<std::mutex> lock(mu_);
    timings_[req.req_id] = t;
    return st;
  }

  Timing TakeTiming(std::uint64_t req_id) {
    std::lock_guard<std::mutex> lock(mu_);
    const Timing t = timings_[req_id];
    timings_.erase(req_id);
    return t;
  }

 private:
  dne::ServeBackend* const inner_;
  std::mutex mu_;
  std::map<std::uint64_t, Timing> timings_;
};

/// Submits one request and blocks until its response arrives.
class BlockingClient {
 public:
  explicit BlockingClient(dne::ServeServer* server) : server_(server) {}

  dne::Status Call(const dne::ServeRequest& req, dne::ServeResponse* resp) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = false;
    }
    const dne::Status admitted =
        server_->Submit(req, /*deadline_ms=*/0, [this](dne::ServeResponse r) {
          std::lock_guard<std::mutex> lock(mu_);
          resp_ = std::move(r);
          done_ = true;
          cv_.notify_one();
        });
    if (!admitted.ok()) return admitted;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    *resp = std::move(resp_);
    return resp->status;
  }

 private:
  dne::ServeServer* const server_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  dne::ServeResponse resp_;
};

dne::ServeAlgo RotationAlgo(std::size_t i) {
  static constexpr dne::ServeAlgo kRotation[3] = {
      dne::ServeAlgo::kPageRank, dne::ServeAlgo::kSssp, dne::ServeAlgo::kWcc};
  return kRotation[i % 3];
}

std::uint64_t BitsHash(const std::vector<std::uint64_t>& bits) {
  return dne::wire::Fnv1a64(bits.data(), bits.size() * sizeof(std::uint64_t));
}

/// Everything set-up leaves for the timed loop. Reset() tears it down in
/// reverse order: the server borrows the decorator, which borrows the
/// backend.
struct ServeStack {
  void Reset() {
    server.reset();
    timed.reset();
    backend.reset();
    assignment.clear();
    g = dne::Graph();
  }

  dne::Graph g;
  std::vector<dne::PartitionId> assignment;
  std::unique_ptr<dne::InProcessServeBackend> backend;
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<dne::ServeServer> server;
};

struct QueryRecord {
  dne::ServeAlgo algo;
  dne::VertexId source;
  std::uint64_t bits_hash;
  std::uint64_t supersteps;
  std::uint64_t data_bytes;
  double latency_s;
  double backend_s;
  double cpu_s;
};

void RunServe(const Args& args, Tracer& tr, RunState* run, MetricSet* m,
              SampleCounts* n) {
  const Seeds seeds = DeriveSeeds(args.seed);
  const std::string edge_path = args.work_dir + "/serve-edges.bin";
  SetupTimes times;
  std::vector<double> shard_build_s;
  std::vector<OpOutcome> setup_partitions;
  ServeStack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.Reset();
    // Rep 0 is untraced so that a traced run can compare its exact counts.
    Tracer off(false);
    Tracer& rtr = rep == 0 ? off : tr;
    ScopedSpan span(rtr, "bench.setup", 0);
    const std::int64_t t0 = MonoNs();
    stack.g = BuildGraph(kServeScale, seeds.graph, edge_path, rtr, 0, &times, run);
    dne::DneOptions opt;
    opt.seed = seeds.dne;
    dne::DnePartitioner partitioner(opt);
    dne::EdgePartition ep;
    dne::Status st;
    TimedSpan(rtr, "dne.partition", 0,
              [&] { st = partitioner.Partition(stack.g, kPartitions, &ep); });
    if (!st.ok()) {
      run->Gate("set-up Partition: " + st.ToString());
      return;
    }
    OpOutcome setup_op;  // DneStats and result of the set-up partition
    FillFromStats(partitioner.dne_stats(), &setup_op);
    setup_op.assignment = ep.assignment();
    stack.assignment = ep.assignment();
    shard_build_s.push_back(TimedSpan(rtr, "serve.shard_build", 0, [&] {
      stack.backend = std::make_unique<dne::InProcessServeBackend>(stack.g, ep);
    }));
    stack.timed = std::make_unique<TimedBackend>(stack.backend.get());
    stack.server = std::make_unique<dne::ServeServer>(
        stack.timed.get(), dne::ServeServerOptions{});
    dne::ServeRequest warm;
    warm.req_id = 1;
    warm.algo = dne::ServeAlgo::kPageRank;
    warm.iterations = kPageRankIterations;
    dne::ServeResponse warm_resp;
    TimedSpan(rtr, "bench.warmup_query", 0, [&] {
      st = BlockingClient(stack.server.get()).Call(warm, &warm_resp);
    });
    run->Gate(st.ok() ? "" : "warm-up query: " + st.ToString());
    stack.timed->TakeTiming(warm.req_id);
    times.total.push_back(Seconds(t0, MonoNs()));
    setup_partitions.push_back(std::move(setup_op));
  }
  SetGraphLayerMetrics(times, m, n);
  const dne::Graph& g = stack.g;
  const std::uint64_t edges = g.NumEdges();
  const std::uint64_t reference_fp = AssignmentFingerprint(stack.assignment);
  for (const OpOutcome& p : setup_partitions) {
    run->Gate(CheckFingerprint("set-up partition", AssignmentFingerprint(p.assignment),
                               reference_fp));
  }
  const dne::PartitionMetrics q = CheckedQuality(g, stack.assignment, tr, run);

  // Single-node oracle for the source-free algorithms.
  std::uint64_t pagerank_hash = 0, wcc_hash = 0;
  {
    const dne::EdgePartition ep(kPartitions, stack.assignment);
    dne::VertexCutEngine engine(g, ep);
    std::vector<double> ranks;
    engine.RunPageRank(static_cast<int>(kPageRankIterations), &ranks);
    std::vector<std::uint64_t> bits(ranks.size());
    for (std::size_t v = 0; v < ranks.size(); ++v) bits[v] = dne::PackDouble(ranks[v]);
    pagerank_hash = BitsHash(bits);
    std::vector<dne::VertexId> labels;
    engine.RunWcc(&labels);
    wcc_hash = BitsHash(labels);
  }
  std::vector<dne::VertexId> sources_pool;
  for (dne::VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.degree(v) > 0) sources_pool.push_back(v);
  }
  dne::SplitMix64 source_rng(seeds.sources);

  // The set-up partition and the oracle do not count towards peak memory.
  malloc_trim(0);
  if (!ResetVmHwm()) run->Gate("cannot reset VmHWM via /proc/self/clear_refs");

  BlockingClient client(stack.server.get());
  std::vector<QueryRecord> records;
  std::vector<double> traced_rotation_s, untraced_rotation_s;
  double rotation_s = 0.0;
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t loop_start = MonoNs();
  std::uint64_t req_id = 100;
  for (std::size_t i = 0;; ++i) {
    if (i % 3 == 0 && i >= kMinQueries &&
        Seconds(loop_start, MonoNs()) >= args.seconds) {
      break;
    }
    const bool traced = args.trace && (i / 3) % 2 == 1;
    dne::ServeRequest req;
    req.req_id = ++req_id;
    req.algo = RotationAlgo(i);
    req.iterations = kPageRankIterations;
    if (req.algo == dne::ServeAlgo::kSssp) {
      req.source = sources_pool[source_rng.Below(sources_pool.size())];
    }
    ++run->attempted;
    dne::ServeResponse resp;
    const std::int64_t q0 = MonoNs();
    const dne::Status st = client.Call(req, &resp);
    const std::int64_t q1 = MonoNs();
    const TimedBackend::Timing t = stack.timed->TakeTiming(req.req_id);
    if (!st.ok()) {
      ++run->failed;
      run->Gate("query " + std::to_string(i) + ": " + st.ToString());
      if (run->failed > 3) break;
      continue;
    }
    if (traced) {
      const std::uint64_t qid = tr.Record(
          std::string("bench.query.") + dne::ServeAlgoName(req.algo), i + 1, 0,
          q0, q1);
      tr.Record("serve.execute", i + 1, qid, t.start_ns, t.end_ns);
    }
    records.push_back({req.algo, req.source, BitsHash(resp.bits), resp.supersteps,
                       resp.data_bytes, resp.latency_seconds,
                       Seconds(t.start_ns, t.end_ns), t.cpu_seconds});
    rotation_s += resp.latency_seconds;
    if (i % 3 == 2) {
      (traced ? traced_rotation_s : untraced_rotation_s).push_back(rotation_s);
      rotation_s = 0.0;
    }
  }
  const double loop_wall = Seconds(loop_start, MonoNs());
  const double loop_cpu = ProcessCpuSeconds() - cpu0;
  const std::uint64_t peak_rss = VmHwmBytes();
  stack.server->Drain();
  if (records.empty()) return;

  // Bit-for-bit check of every response against the single-node engine.
  {
    const dne::EdgePartition ep(kPartitions, stack.assignment);
    dne::VertexCutEngine engine(g, ep);
    std::map<dne::VertexId, std::uint64_t> sssp_hash;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const QueryRecord& r = records[i];
      std::uint64_t want = 0;
      if (r.algo == dne::ServeAlgo::kPageRank) {
        want = pagerank_hash;
      } else if (r.algo == dne::ServeAlgo::kWcc) {
        want = wcc_hash;
      } else {
        auto it = sssp_hash.find(r.source);
        if (it == sssp_hash.end()) {
          std::vector<std::uint32_t> dist;
          engine.RunSssp(r.source, &dist);
          const std::vector<std::uint64_t> bits(dist.begin(), dist.end());
          it = sssp_hash.emplace(r.source, BitsHash(bits)).first;
        }
        want = it->second;
      }
      run->Gate(CheckFingerprint(std::string("query ") + std::to_string(i) + " (" +
                                     dne::ServeAlgoName(r.algo) + ") result",
                                 r.bits_hash, want));
    }
  }

  std::vector<double> latency_ms, backend_ms, queue_ms;
  std::map<dne::ServeAlgo, std::vector<double>> algo_ms;
  std::uint64_t supersteps = 0, sync_bytes = 0;
  double backend_cpu = 0.0;
  for (const QueryRecord& r : records) {
    latency_ms.push_back(r.latency_s * 1e3);
    backend_ms.push_back(r.backend_s * 1e3);
    queue_ms.push_back((r.latency_s - r.backend_s) * 1e3);
    algo_ms[r.algo].push_back(r.backend_s * 1e3);
    supersteps += r.supersteps;
    sync_bytes += r.data_bytes;
    backend_cpu += r.cpu_s;
  }
  m->Set("edges_per_s", ScannedEdgesPerSecond(supersteps, edges, loop_wall));
  m->Set("cpu_ns_per_edge", CpuNsPerEdge(backend_cpu, supersteps * edges));
  m->Set("replication_factor", q.replication_factor);
  m->Set("edge_balance", q.edge_balance);
  m->Set("peak_rss_bytes", static_cast<double>(peak_rss));
  m->Set("query_p50_ms", Median(latency_ms));
  const std::optional<double> p90 = Percentile(latency_ms, 0.9);
  if (!p90) run->Gate("too few queries for p90");
  m->Set("query_p90_ms", p90 ? *p90 : 0.0);
  for (const char* k : {"edges_per_s", "cpu_ns_per_edge", "query_p50_ms",
                        "query_p90_ms", "serve.backend_ms", "serve.queue_ms"}) {
    (*n)[k] = records.size();
  }

  if (args.trace) {
    std::vector<OpOutcome> traced_setups(setup_partitions.begin() + 1,
                                         setup_partitions.end());
    for (const OpOutcome& t : traced_setups) {
      CheckTracedCounts(setup_partitions.front(), t, run);
    }
    SetDneMetrics(traced_setups, m, n);
    m->Set("mesh.cpu_per_wall", loop_cpu / loop_wall);
    m->Set("mesh.coordinator_rss_bytes", static_cast<double>(peak_rss));
    SetKernelMetrics(g, stack.assignment, tr, run, m, n);
    m->Set("serve.shard_build_s", Median(shard_build_s));
    m->Set("serve.backend_ms", Median(backend_ms));
    m->Set("serve.queue_ms", Median(queue_ms));
    m->Set("serve.pagerank_ms", Median(algo_ms[dne::ServeAlgo::kPageRank]));
    m->Set("serve.sssp_ms", Median(algo_ms[dne::ServeAlgo::kSssp]));
    m->Set("serve.wcc_ms", Median(algo_ms[dne::ServeAlgo::kWcc]));
    (*n)["serve.pagerank_ms"] = algo_ms[dne::ServeAlgo::kPageRank].size();
    (*n)["serve.sssp_ms"] = algo_ms[dne::ServeAlgo::kSssp].size();
    (*n)["serve.wcc_ms"] = algo_ms[dne::ServeAlgo::kWcc].size();
    (*n)["serve.shard_build_s"] = shard_build_s.size();
    m->Set("serve.supersteps_per_query",
           static_cast<double>(supersteps) / static_cast<double>(records.size()));
    m->Set("serve.sync_bytes_per_query",
           static_cast<double>(sync_bytes) / static_cast<double>(records.size()));
    const double overhead_ms =
        traced_rotation_s.empty() || untraced_rotation_s.empty()
            ? 0.0
            : (Median(traced_rotation_s) - Median(untraced_rotation_s)) * 1e3;
    SetTraceMetrics(tr, overhead_ms, m);
  }
}

// ---- Command line and result -----------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a, bool* list_metrics) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      *list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
  }
  return true;
}

void PrintMetricList() {
  std::printf("[");
  bool first = true;
  for (const MetricDef& d : MetricCatalogue()) {
    std::printf("%s\n{\"name\": \"%s\", \"unit\": \"%s\", \"kind\": \"%s\"}",
                first ? "" : ",", d.name, d.unit,
                d.kind == MetricKind::kEndToEnd ? "end_to_end" : "per_layer");
    first = false;
  }
  std::printf("\n]\n");
}

}  // namespace
}  // namespace dnebench

int main(int argc, char** argv) {
  using namespace dnebench;
  Args args;
  bool list_metrics = false;
  if (!ParseArgs(argc, argv, &args, &list_metrics)) {
    std::fprintf(stderr,
                 "usage: dnebench --workload rmat-inproc|rmat-shm|serve-mix "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--source-digest HEX] | --list-metrics\n");
    return 2;
  }
  if (list_metrics) {
    PrintMetricList();
    return 0;
  }
  if (args.workload != "rmat-inproc" && args.workload != "rmat-shm" &&
      args.workload != "serve-mix") {
    std::fprintf(stderr, "dnebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  SetupChildSupervision();

  const double load_start = LoadAverage1();
  const CpuTicks ticks_start = ReadCpuTicks();
  Tracer tracer(args.trace);
  RunState run;
  MetricSet metrics;
  SampleCounts samples;
  if (args.workload == "serve-mix") {
    RunServe(args, tracer, &run, &metrics, &samples);
  } else {
    RunRmat(args, args.workload == "rmat-shm", tracer, &run, &metrics, &samples);
  }
  const CpuTicks ticks_end = ReadCpuTicks();
  const MetricKind kind =
      args.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;

  // Drop the other mode's metrics, then require the catalogue's full set.
  MetricSet reported;
  for (const MetricDef& d : MetricCatalogue()) {
    if (d.kind == kind && metrics.Has(d.name)) reported.Set(d.name, metrics.Get(d.name));
  }
  const std::string incomplete = reported.CheckComplete(kind);
  if (!incomplete.empty()) run.Gate("metric set incomplete:" + incomplete);
  if (run.attempted == 0) run.Gate("no op attempted");

  if (args.trace) {
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!tracer.WriteChromeTrace(path)) run.Gate("cannot write " + path);
  }

  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "dnebench: gate failed: %s\n", f.c_str());
  }
  std::string sample_json;
  for (const auto& [k, v] : samples) {
    sample_json += (sample_json.empty() ? "" : ", ") + std::string("\"") + k +
                   "\": " + std::to_string(v);
  }
  auto list = [](const std::vector<double>& v) {
    std::string out;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof(buf), "%s%.1f", out.empty() ? "" : ", ", x);
      out += buf;
    }
    return out;
  };
  std::printf(
      "{\"host\": {\"nproc\": %ld, \"cpu_model\": \"%s\", \"avx2_cpu\": %s, "
      "\"avx2_build\": %s, \"build_type\": \"%s\", \"source_digest\": \"%s\", "
      "\"loadavg_start\": %s, \"loadavg_end\": %s, \"steal_share\": %s}, "
      "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"samples\": "
      "{%s}, \"op_wall_ms\": [%s], \"op_cpu_ms\": [%s], \"op_steal_pct\": "
      "[%s], \"op_rss_mb\": [%s], \"gate_failures\": %zu}\n",
      sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      CpuHasAvx2() ? "true" : "false",
#if defined(DNE_ENABLE_AVX2)
      "true",
#else
      "false",
#endif
      DNEBENCH_BUILD_TYPE, args.source_digest.c_str(), Num(load_start).c_str(),
      Num(LoadAverage1()).c_str(), Num(StealShare(ticks_start, ticks_end)).c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, sample_json.c_str(), list(run.op_wall_ms).c_str(),
      list(run.op_cpu_ms).c_str(), list(run.op_steal_pct).c_str(),
      list(run.op_rss_mb).c_str(),
      run.failures.size());
  const bool correct = run.failures.empty();
  std::printf("%s\n", reported.ResultJson(kind, correct, run.attempted, run.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
