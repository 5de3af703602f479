// Tests for the multi-node cluster tier (src/cluster): the network
// tier's pricing, the node planner's key-space split, and
// the ClusterScheduler's load-bearing invariants — 1-node runs are
// bit-identical to dist::ShardScheduler, the match set survives node
// deaths, drains and joins unchanged, and results are byte-identical
// across simulation thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster_scheduler.h"
#include "core/experiment.h"
#include "dist/shard_scheduler.h"
#include "dist/topology.h"
#include "serve/server.h"
#include "sim/fault.h"
#include "workload/key_column.h"

namespace gpujoin {
namespace {

// --------------------------------------------------------------------
// The network tier (a dist::Topology whose endpoints are nodes)

TEST(NetworkTierTest, PeerSecondsIsSymmetricAndMonotone) {
  for (auto network :
       {cluster::NetworkKind::kInfiniBand, cluster::NetworkKind::kEthernet}) {
    auto topo = dist::Topology::Create(network, 4);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    double prev = -1;
    for (uint64_t bytes : {uint64_t{0}, uint64_t{1} << 12, uint64_t{1} << 20,
                           uint64_t{1} << 26}) {
      const double t = topo->PeerSeconds(0, 3, bytes);
      EXPECT_DOUBLE_EQ(t, topo->PeerSeconds(3, 0, bytes))
          << dist::TopologyKindName(network);
      EXPECT_GE(t, prev) << dist::TopologyKindName(network);
      prev = t;
    }
    EXPECT_EQ(topo->PeerSeconds(2, 2, uint64_t{1} << 20), 0);
  }
}

TEST(NetworkTierTest, EthernetSharesASwitchAndInfiniBandDoesNot) {
  auto ib = dist::Topology::Create(cluster::NetworkKind::kInfiniBand, 4);
  auto eth = dist::Topology::Create(cluster::NetworkKind::kEthernet, 4);
  ASSERT_TRUE(ib.ok() && eth.ok());
  // The Ethernet path crosses one extra (shared) switch segment.
  EXPECT_EQ(ib->PeerLinks(0, 2).size(), 2u);
  EXPECT_EQ(eth->PeerLinks(0, 2).size(), 3u);
  bool saw_shared = false;
  for (int l : eth->PeerLinks(0, 2)) {
    if (eth->links()[l].shared) {
      saw_shared = true;
      EXPECT_EQ(eth->HostSharers(l, 4), 4);
    } else {
      EXPECT_EQ(eth->HostSharers(l, 4), 1);
    }
  }
  EXPECT_TRUE(saw_shared);
  for (int l : ib->PeerLinks(0, 2)) EXPECT_EQ(ib->HostSharers(l, 4), 1);
  // The commodity network is much slower end to end.
  const uint64_t bytes = uint64_t{1} << 24;
  EXPECT_GT(eth->PeerSeconds(0, 2, bytes), 4 * ib->PeerSeconds(0, 2, bytes));
}

TEST(NetworkTierTest, AddEndpointGrowsTheTierInPlace) {
  auto topo = dist::Topology::Create(cluster::NetworkKind::kEthernet, 2);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  const size_t links_before = topo->links().size();
  EXPECT_EQ(topo->AddEndpoint(), 2);
  EXPECT_EQ(topo->num_devices(), 3);
  EXPECT_EQ(topo->links().size(), links_before + 1);
  // The joiner gets a dedicated uplink priced like the original nodes'.
  const uint64_t bytes = uint64_t{1} << 20;
  EXPECT_FALSE(topo->links()[topo->host_link(2)].shared);
  EXPECT_EQ(topo->PeerSeconds(0, 2, bytes), topo->PeerSeconds(0, 1, bytes));
  EXPECT_GT(topo->PeerSeconds(0, 2, bytes), 0);
}

TEST(NetworkTierDeathTest, AccessorsRejectOutOfRangeNodes) {
  auto topo = dist::Topology::Create(cluster::NetworkKind::kInfiniBand, 2);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  EXPECT_DEATH(topo->host_link(-1), "host_link: device must be in");
  EXPECT_DEATH(topo->HostSharers(99, 2), "HostSharers: link must be in");
}

// --------------------------------------------------------------------
// The node level of the two-level plan (dist::ShardPlanner, nodes as
// shards)

TEST(NodePlannerTest, CellsCoverRAndRouteToTheirOwners) {
  mem::AddressSpace space;
  workload::JitteredKeyColumn r(&space, uint64_t{1} << 16, 16, /*seed=*/7);
  auto plan = dist::ShardPlanner::Plan(r, 3);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_shards, 3);
  EXPECT_EQ(plan->cell_pos.front(), 0u);
  EXPECT_EQ(plan->cell_pos.back(), r.size());
  uint64_t total = 0;
  for (uint64_t c = 0; c < plan->cells(); ++c) {
    EXPECT_LE(plan->cell_pos[c], plan->cell_pos[c + 1]);
    total += plan->cell_r_tuples(c);
  }
  EXPECT_EQ(total, r.size());
  // Every R key's cell maps back into the owning node's slice.
  for (uint64_t i = 0; i < r.size(); i += 131) {
    const int owner = plan->OwnerOf(r.key_at(i));
    EXPECT_GE(i, plan->pos_begin[owner]) << "key index " << i;
    EXPECT_LT(i, plan->pos_begin[owner + 1]) << "key index " << i;
  }
}

// --------------------------------------------------------------------
// ClusterScheduler

core::ExperimentConfig ClusterExpConfig() {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 21;
  cfg.s_tuples = uint64_t{1} << 24;
  cfg.s_sample = uint64_t{1} << 16;
  cfg.seed = 11;
  cfg.index_type = index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  cfg.inlj.window_tuples = uint64_t{1} << 22;
  return cfg;
}

cluster::ClusterRunResult MustRun(
    const core::ExperimentConfig& cfg, const cluster::ClusterConfig& ccfg,
    std::vector<core::JoinMatch>* collect = nullptr) {
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto run = (*engine)->RunJoin(collect);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return *run;
}

std::vector<core::JoinMatch> Sorted(std::vector<core::JoinMatch> m) {
  std::sort(m.begin(), m.end());
  return m;
}

// Membership events and node faults apply at window boundaries, so the
// elastic tests need several simulated windows: a small full-scale
// window keeps the per-device stride well under the sample.
core::ExperimentConfig MultiWindowConfig() {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.inlj.window_tuples = uint64_t{1} << 12;
  return cfg;
}

TEST(ClusterSchedulerTest, RejectsBadConfigs) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig bad;
  bad.num_nodes = 0;
  EXPECT_FALSE(cluster::ClusterScheduler::Create(cfg, bad).ok());
  bad.num_nodes = 65;
  EXPECT_FALSE(cluster::ClusterScheduler::Create(cfg, bad).ok());

  cluster::ClusterConfig drain_bad;
  drain_bad.num_nodes = 2;
  drain_bad.membership.push_back(
      {cluster::MembershipEvent::Kind::kDrainNode, -1, 0.0});
  EXPECT_FALSE(cluster::ClusterScheduler::Create(cfg, drain_bad).ok());

  core::ExperimentConfig restricted = cfg;
  restricted.sample_scheme =
      core::ExperimentConfig::SampleSchemeOverride::kRangeRestricted;
  cluster::ClusterConfig two;
  two.num_nodes = 2;
  EXPECT_FALSE(cluster::ClusterScheduler::Create(restricted, two).ok());
  two.num_nodes = 1;
  EXPECT_TRUE(cluster::ClusterScheduler::Create(restricted, two).ok());

  core::ExperimentConfig full = cfg;
  full.inlj.mode = core::InljConfig::PartitionMode::kFull;
  EXPECT_FALSE(
      cluster::ClusterScheduler::Create(full, cluster::ClusterConfig{}).ok());

  // The network tier must be a network, not an in-node GPU fabric.
  cluster::ClusterConfig fabric;
  fabric.network = dist::TopologyKind::kNvLink2;
  auto refused = cluster::ClusterScheduler::Create(cfg, fabric);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("network"), std::string::npos);
  // ...and the in-node fabric must not be a network.
  cluster::ClusterConfig net_fabric;
  net_fabric.node_topology = dist::TopologyKind::kEthernet;
  EXPECT_FALSE(cluster::ClusterScheduler::Create(cfg, net_fabric).ok());
}

// The bit-identity guarantee: one node with no membership events and no
// node faults delegates wholesale to its single engine, so everything —
// seconds, counters, match order — equals the dist run bit for bit.
TEST(ClusterSchedulerTest, OneNodeIsBitIdenticalToDist) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  auto dist_engine = dist::ShardScheduler::Create(cfg, dcfg);
  ASSERT_TRUE(dist_engine.ok()) << dist_engine.status().ToString();
  std::vector<core::JoinMatch> dist_matches;
  auto dist_run = (*dist_engine)->RunJoin(&dist_matches);
  ASSERT_TRUE(dist_run.ok()) << dist_run.status().ToString();

  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 1;
  ccfg.gpus_per_node = 4;
  std::vector<core::JoinMatch> cluster_matches;
  const auto cluster_run = MustRun(cfg, ccfg, &cluster_matches);

  EXPECT_EQ(cluster_run.run.seconds, dist_run->run.seconds);
  EXPECT_TRUE(cluster_run.run.counters == dist_run->run.counters);
  EXPECT_EQ(cluster_run.run.result_tuples, dist_run->run.result_tuples);
  EXPECT_EQ(cluster_run.sim_makespan, dist_run->sim_makespan);
  EXPECT_EQ(cluster_run.steal_events, dist_run->steal_events);
  EXPECT_TRUE(cluster_matches == dist_matches);  // order included
  ASSERT_EQ(cluster_run.nodes.size(), 1u);
  EXPECT_EQ(cluster_run.nodes[0].shards, 4);
  EXPECT_EQ(cluster_run.nodes[0].r_tuples, cfg.r_tuples);
}

TEST(ClusterSchedulerTest, EveryProbeRowIsChargedAndJoinedOnce) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.gpus_per_node = 2;
  std::vector<core::JoinMatch> matches;
  const auto run = MustRun(cfg, ccfg, &matches);
  ASSERT_EQ(run.nodes.size(), 4u);
  uint64_t routed = 0;
  uint64_t node_matches = 0;
  uint64_t r_total = 0;
  for (const auto& n : run.nodes) {
    EXPECT_TRUE(n.origin);
    EXPECT_EQ(n.shards, 2);
    routed += n.tuples_routed;
    node_matches += n.matches;
    r_total += n.r_tuples;
    EXPECT_EQ(n.tuples_rerouted, 0u);  // fault-free: nothing fetched
  }
  EXPECT_EQ(routed, cfg.s_sample);
  EXPECT_EQ(node_matches, cfg.s_sample);
  EXPECT_EQ(r_total, cfg.r_tuples);
  EXPECT_EQ(run.run.result_tuples, cfg.s_tuples);
  // Matches carry global coordinates: each probe row appears once.
  ASSERT_EQ(matches.size(), cfg.s_sample);
  const auto sorted = Sorted(matches);
  for (uint64_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i].probe_row, i);
  }
  // The probe handoff crossed the network tier.
  uint64_t net_bytes = 0;
  for (const auto& l : run.network) net_bytes += l.bytes;
  EXPECT_GT(net_bytes, 0u);
}

// The match set is a pure function of the workload: the same global
// (probe row, R position) pairs come out regardless of the node count.
TEST(ClusterSchedulerTest, MatchSetIsInvariantAcrossNodeCounts) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig one;
  one.num_nodes = 1;
  one.gpus_per_node = 4;
  std::vector<core::JoinMatch> m1;
  MustRun(cfg, one, &m1);

  cluster::ClusterConfig four;
  four.num_nodes = 4;
  four.gpus_per_node = 1;
  std::vector<core::JoinMatch> m4;
  MustRun(cfg, four, &m4);

  EXPECT_TRUE(Sorted(m1) == Sorted(m4));
}

// Node death mid-run: the dead node's key range is rerouted to the
// survivors, charged over the network at the recovery penalty — and the
// merged match set is identical to the fault-free run.
TEST(ClusterSchedulerTest, KillingANodeKeepsTheMatchSet) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.gpus_per_node = 1;
  std::vector<core::JoinMatch> healthy;
  const auto base = MustRun(cfg, ccfg, &healthy);
  ASSERT_GT(base.sim_makespan, 0);

  cluster::ClusterConfig faulty = ccfg;
  faulty.failover.node_faults.events.push_back(
      {sim::DeviceFaultClass::kShardCrash, /*shard=*/2,
       /*at_seconds=*/0.4 * base.sim_makespan});
  std::vector<core::JoinMatch> survived;
  const auto run = MustRun(cfg, faulty, &survived);

  EXPECT_TRUE(Sorted(survived) == Sorted(healthy));
  ASSERT_EQ(run.robustness.failovers.size(), 1u);
  EXPECT_EQ(run.robustness.failovers[0].dead_shard, 2);
  EXPECT_GT(run.robustness.failovers[0].reassigned_tuples, 0u);
  EXPECT_FALSE(run.nodes[2].alive);
  uint64_t rerouted = 0;
  for (const auto& n : run.nodes) rerouted += n.tuples_rerouted;
  EXPECT_GT(rerouted, 0u);
  // The dead node's R tuples are charged to survivors at run end.
  EXPECT_EQ(run.nodes[2].r_tuples, 0u);
  // Remote fetches and the recovery penalty cost simulated time.
  EXPECT_GT(run.run.seconds, base.run.seconds);
}

// Two nodes dying in the same gap are both marked dead before either's
// cells move, so neither is dealt the other's cells: each failover
// record counts exactly the sample rows its own node was charged.
TEST(ClusterSchedulerTest, SimultaneousNodeDeathsCountEachRowOnce) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 3;
  ccfg.gpus_per_node = 1;
  std::vector<core::JoinMatch> healthy;
  const auto base = MustRun(cfg, ccfg, &healthy);
  ASSERT_GT(base.sim_makespan, 0);

  cluster::ClusterConfig faulty = ccfg;
  for (int node : {0, 1}) {
    faulty.failover.node_faults.events.push_back(
        {sim::DeviceFaultClass::kShardCrash, node,
         /*at_seconds=*/0.4 * base.sim_makespan});
  }
  std::vector<core::JoinMatch> survived;
  const auto run = MustRun(cfg, faulty, &survived);

  EXPECT_TRUE(Sorted(survived) == Sorted(healthy));
  ASSERT_EQ(run.robustness.failovers.size(), 2u);
  EXPECT_EQ(run.robustness.failovers[0].reassigned_tuples +
                run.robustness.failovers[1].reassigned_tuples,
            base.nodes[0].tuples_routed + base.nodes[1].tuples_routed);
  EXPECT_FALSE(run.nodes[0].alive);
  EXPECT_FALSE(run.nodes[1].alive);
  EXPECT_EQ(run.nodes[2].r_tuples, cfg.r_tuples);
}

// Draining a node ships its charged cells (data included) to the rest
// of the cluster; the match set and total R coverage are unchanged.
TEST(ClusterSchedulerTest, DrainingANodeMigratesItsRangeAndKeepsMatches) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.gpus_per_node = 1;
  std::vector<core::JoinMatch> healthy;
  const auto base = MustRun(cfg, ccfg, &healthy);

  cluster::ClusterConfig drain = ccfg;
  drain.membership.push_back({cluster::MembershipEvent::Kind::kDrainNode,
                              /*node=*/1, 0.5 * base.sim_makespan});
  std::vector<core::JoinMatch> drained;
  const auto run = MustRun(cfg, drain, &drained);

  EXPECT_TRUE(Sorted(drained) == Sorted(healthy));
  EXPECT_TRUE(run.nodes[1].drained);
  EXPECT_EQ(run.nodes[1].shards, 0);
  EXPECT_EQ(run.nodes[1].r_tuples, 0u);
  EXPECT_EQ(run.rebalance_events, 1u);
  EXPECT_GT(run.moved_r_tuples, 0u);
  EXPECT_GT(run.migration_seconds, 0);
  uint64_t r_total = 0;
  for (const auto& n : run.nodes) r_total += n.r_tuples;
  EXPECT_EQ(r_total, cfg.r_tuples);
}

// Adding a node rebalances an equal share of cells onto the joiner;
// probes still execute on the origin structures, so the match set is
// again unchanged.
TEST(ClusterSchedulerTest, AddingANodeRebalancesAndKeepsMatches) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.gpus_per_node = 2;
  std::vector<core::JoinMatch> before;
  const auto base = MustRun(cfg, ccfg, &before);

  cluster::ClusterConfig grow = ccfg;
  grow.membership.push_back({cluster::MembershipEvent::Kind::kAddNode,
                             /*node=*/-1, 0.3 * base.sim_makespan});
  std::vector<core::JoinMatch> after;
  const auto run = MustRun(cfg, grow, &after);

  EXPECT_TRUE(Sorted(after) == Sorted(before));
  ASSERT_EQ(run.nodes.size(), 3u);
  EXPECT_FALSE(run.nodes[2].origin);
  EXPECT_GT(run.nodes[2].r_tuples, 0u);
  EXPECT_GT(run.nodes[2].tuples_routed, 0u);
  EXPECT_EQ(run.rebalance_events, 1u);
  EXPECT_GT(run.moved_r_tuples, 0u);
  uint64_t r_total = 0;
  for (const auto& n : run.nodes) r_total += n.r_tuples;
  EXPECT_EQ(r_total, cfg.r_tuples);
}

// The fig15 scale-out claim on a small fixed-seed config. As in the
// dist test, the sample scales with the GPU count so every device
// simulates the same window size and the comparison isolates the
// parallel speedup from sample-resolution effects.
TEST(ClusterSchedulerTest, FourUniformNodesScaleOut) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.s_sample = uint64_t{1} << 17;  // 2^17 per node's GPU
  cluster::ClusterConfig one;
  one.num_nodes = 1;
  one.gpus_per_node = 1;
  const auto r1 = MustRun(cfg, one);

  cfg.s_sample = uint64_t{1} << 19;
  cluster::ClusterConfig four;
  four.num_nodes = 4;
  four.gpus_per_node = 1;
  const auto r4 = MustRun(cfg, four);

  EXPECT_EQ(r1.run.result_tuples, r4.run.result_tuples);
  const double speedup = r1.run.seconds / r4.run.seconds;
  EXPECT_GE(speedup, 1.5) << "1-node " << r1.run.seconds << "s, 4-node "
                          << r4.run.seconds << "s";
}

TEST(ClusterSchedulerTest, ResultsAreByteIdenticalAcrossThreadCounts) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cfg.zipf_exponent = 1.75;  // skewed routing: the harder case
  cluster::ClusterConfig plain;
  plain.num_nodes = 3;
  plain.gpus_per_node = 2;
  const auto base = MustRun(cfg, plain);

  cluster::ClusterConfig a = plain;
  a.threads = 1;
  // Membership and a node fault in flight, so the elastic paths are
  // exercised under both thread counts.
  a.membership.push_back({cluster::MembershipEvent::Kind::kAddNode, -1,
                          0.25 * base.sim_makespan});
  a.failover.node_faults.events.push_back(
      {sim::DeviceFaultClass::kShardCrash, /*shard=*/1,
       /*at_seconds=*/0.55 * base.sim_makespan});
  cluster::ClusterConfig b = a;
  b.threads = 4;

  std::vector<core::JoinMatch> ma;
  std::vector<core::JoinMatch> mb;
  const auto ra = MustRun(cfg, a, &ma);
  const auto rb = MustRun(cfg, b, &mb);
  // The elastic paths really ran.
  EXPECT_EQ(ra.rebalance_events, 1u);
  EXPECT_EQ(ra.robustness.failovers.size(), 1u);
  EXPECT_EQ(ra.run.seconds, rb.run.seconds);
  EXPECT_TRUE(ra.run.counters == rb.run.counters);
  EXPECT_EQ(ra.merge_seconds, rb.merge_seconds);
  EXPECT_EQ(ra.migration_seconds, rb.migration_seconds);
  EXPECT_TRUE(ma == mb);  // order included
  ASSERT_EQ(ra.nodes.size(), rb.nodes.size());
  for (size_t i = 0; i < ra.nodes.size(); ++i) {
    EXPECT_EQ(ra.nodes[i].busy_seconds, rb.nodes[i].busy_seconds);
    EXPECT_EQ(ra.nodes[i].tuples_routed, rb.nodes[i].tuples_routed);
    EXPECT_EQ(ra.nodes[i].matches, rb.nodes[i].matches);
  }
  ASSERT_EQ(ra.network.size(), rb.network.size());
  for (size_t i = 0; i < ra.network.size(); ++i) {
    EXPECT_EQ(ra.network[i].bytes, rb.network[i].bytes);
  }
}

// ResetForRun must restore membership, charges and ledgers: the same
// engine repeats an elastic run bit for bit.
TEST(ClusterSchedulerTest, ElasticRunsAreRepeatableOnOneEngine) {
  core::ExperimentConfig cfg = MultiWindowConfig();
  cluster::ClusterConfig plain;
  plain.num_nodes = 2;
  plain.gpus_per_node = 1;
  const auto base = MustRun(cfg, plain);

  cluster::ClusterConfig ccfg = plain;
  ccfg.membership.push_back({cluster::MembershipEvent::Kind::kAddNode, -1,
                             0.2 * base.sim_makespan});
  ccfg.membership.push_back({cluster::MembershipEvent::Kind::kDrainNode,
                             /*node=*/0, 0.6 * base.sim_makespan});
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<core::JoinMatch> m1;
  std::vector<core::JoinMatch> m2;
  auto r1 = (*engine)->RunJoin(&m1);
  auto r2 = (*engine)->RunJoin(&m2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->run.seconds, r2->run.seconds);
  EXPECT_TRUE(r1->run.counters == r2->run.counters);
  EXPECT_EQ(r1->rebalance_events, 2u);  // both events fired, both runs
  EXPECT_EQ(r1->moved_r_tuples, r2->moved_r_tuples);
  EXPECT_TRUE(m1 == m2);
}

TEST(ClusterSchedulerTest, EthernetIsSlowerThanInfiniBand) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cluster::ClusterConfig ib;
  ib.num_nodes = 4;
  ib.gpus_per_node = 1;
  ib.network = cluster::NetworkKind::kInfiniBand;
  cluster::ClusterConfig eth = ib;
  eth.network = cluster::NetworkKind::kEthernet;
  const auto rib = MustRun(cfg, ib);
  const auto reth = MustRun(cfg, eth);
  // Same work, but every handoff crosses a slower, contended network.
  EXPECT_GT(reth.run.seconds, rib.run.seconds);
}

TEST(ClusterSchedulerTest, PhaseSpansFillWhenObserved) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.s_sample = uint64_t{1} << 14;
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.gpus_per_node = 2;
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  (*engine)->EnableObservability();
  auto run = (*engine)->RunJoin();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const auto& n : run->nodes) {
    EXPECT_FALSE(n.phase_spans.empty())
        << "node " << n.node << " has no phase spans";
  }
}

// --------------------------------------------------------------------
// Serving through the backend seam

TEST(ClusterServeTest, RequestServerFansOutAcrossNodes) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.s_sample = uint64_t{1} << 14;
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.gpus_per_node = 2;
  auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  serve::ServeConfig sc;
  sc.requests = 2000;
  sc.tuples_per_request = 512;
  sc.arrival.rate = 20000;
  sc.arrival.seed = 5;
  serve::RequestServer server(**engine, sc);
  auto report = server.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->counters.requests_admitted +
                report->counters.requests_shed,
            sc.requests);
  EXPECT_GT(report->counters.batches, 0u);
  EXPECT_GT(report->sim_seconds, 0);

  // Deterministic: the same engine and config reproduce the run.
  auto engine2 = cluster::ClusterScheduler::Create(cfg, ccfg);
  ASSERT_TRUE(engine2.ok());
  serve::RequestServer server2(**engine2, sc);
  auto report2 = server2.Run();
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report->sim_seconds, report2->sim_seconds);
  EXPECT_EQ(report->latency.Quantile(0.99), report2->latency.Quantile(0.99));
}

// Match collection through the backend seam: dist, a 1-node cluster
// (which delegates to dist) and a 2-node cluster serve the same request
// stream, so the collected match multisets agree.
TEST(ClusterServeTest, CollectedMatchesAgreeAcrossBackends) {
  core::ExperimentConfig cfg = ClusterExpConfig();
  cfg.s_sample = uint64_t{1} << 14;
  serve::ServeConfig sc;
  sc.requests = 300;
  sc.tuples_per_request = 512;
  sc.arrival.rate = 20000;
  sc.arrival.seed = 5;
  sc.max_backlog_tuples = 0;  // no shedding: every request is served
  sc.collect_matches = true;

  const auto serve_sorted = [&](serve::WindowBackend& backend) {
    serve::RequestServer server(backend, sc);
    auto report = server.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return std::vector<core::JoinMatch>{};
    EXPECT_EQ(report->counters.requests_admitted, sc.requests);
    return Sorted(report->matches);
  };

  dist::ShardConfig dcfg;
  dcfg.num_shards = 4;
  auto dist_engine = dist::ShardScheduler::Create(cfg, dcfg);
  ASSERT_TRUE(dist_engine.ok()) << dist_engine.status().ToString();
  const auto dist_matches = serve_sorted(**dist_engine);
  EXPECT_EQ(dist_matches.size(), sc.requests * sc.tuples_per_request);

  for (int nodes : {1, 2}) {
    cluster::ClusterConfig ccfg;
    ccfg.num_nodes = nodes;
    ccfg.gpus_per_node = 4 / nodes;
    auto engine = cluster::ClusterScheduler::Create(cfg, ccfg);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE(serve_sorted(**engine) == dist_matches)
        << nodes << " nodes x " << ccfg.gpus_per_node << " GPUs";
  }
}

}  // namespace
}  // namespace gpujoin
