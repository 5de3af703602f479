// Property and regression tests for dist::Topology: bounds-checked
// accessors abort with a named message instead of indexing out of
// range, and the peer-transfer cost model obeys the invariants the
// schedulers lean on (symmetry in the endpoints, monotonicity in the
// byte count, valid link ids) across every preset and device count.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dist/topology.h"

namespace gpujoin {
namespace {

const dist::TopologyKind kKinds[] = {
    dist::TopologyKind::kNvLink2,    dist::TopologyKind::kPciE4,
    dist::TopologyKind::kNvSwitch,   dist::TopologyKind::kInfiniBand,
    dist::TopologyKind::kEthernet,
};

// --------------------------------------------------------------------
// Bounds checks (regression: these used to index the vectors raw)

using TopologyDeathTest = ::testing::Test;

TEST(TopologyDeathTest, HostLinkRejectsOutOfRangeDevices) {
  auto topo = dist::Topology::Create(dist::TopologyKind::kNvLink2, 4);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  EXPECT_DEATH(topo->host_link(-1), "host_link: device must be in");
  EXPECT_DEATH(topo->host_link(4), "host_link: device must be in");
  EXPECT_DEATH(topo->host_link(100), "host_link: device must be in");
}

TEST(TopologyDeathTest, HostSharersRejectsOutOfRangeLinks) {
  auto topo = dist::Topology::Create(dist::TopologyKind::kPciE4, 2);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  const int links = static_cast<int>(topo->links().size());
  EXPECT_DEATH(topo->HostSharers(-1, 2), "HostSharers: link must be in");
  EXPECT_DEATH(topo->HostSharers(links, 2), "HostSharers: link must be in");
}

TEST(TopologyDeathTest, InRangeAccessorsStillWork) {
  for (auto kind : kKinds) {
    auto topo = dist::Topology::Create(kind, 3);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    for (int d = 0; d < 3; ++d) {
      const int link = topo->host_link(d);
      EXPECT_GE(link, 0);
      EXPECT_LT(link, static_cast<int>(topo->links().size()));
      EXPECT_GE(topo->HostSharers(link, 3), 1);
    }
  }
}

// --------------------------------------------------------------------
// PeerSeconds / PeerLinks properties, all presets x device counts 1..8

TEST(TopologyPropertyTest, PeerSecondsIsSymmetricInEndpoints) {
  for (auto kind : kKinds) {
    for (int devices = 1; devices <= 8; ++devices) {
      auto topo = dist::Topology::Create(kind, devices);
      ASSERT_TRUE(topo.ok()) << topo.status().ToString();
      for (int from = 0; from < devices; ++from) {
        for (int to = 0; to < devices; ++to) {
          for (uint64_t bytes : {uint64_t{0}, uint64_t{1} << 10,
                                 uint64_t{1} << 20, uint64_t{1} << 28}) {
            EXPECT_DOUBLE_EQ(topo->PeerSeconds(from, to, bytes),
                             topo->PeerSeconds(to, from, bytes))
                << dist::TopologyKindName(kind) << " x" << devices << " "
                << from << "<->" << to << " " << bytes << "B";
          }
        }
      }
    }
  }
}

TEST(TopologyPropertyTest, PeerSecondsIsMonotoneInBytes) {
  const uint64_t ladder[] = {0,        1,         64,        4096,
                             1 << 16,  1 << 20,   1 << 24,   1 << 28};
  for (auto kind : kKinds) {
    for (int devices = 1; devices <= 8; ++devices) {
      auto topo = dist::Topology::Create(kind, devices);
      ASSERT_TRUE(topo.ok()) << topo.status().ToString();
      for (int from = 0; from < devices; ++from) {
        for (int to = 0; to < devices; ++to) {
          double prev = -1;
          for (uint64_t bytes : ladder) {
            const double t = topo->PeerSeconds(from, to, bytes);
            EXPECT_GE(t, prev)
                << dist::TopologyKindName(kind) << " x" << devices << " "
                << from << "->" << to << " " << bytes << "B";
            prev = t;
          }
        }
      }
    }
  }
}

TEST(TopologyPropertyTest, PeerLinksAreValidIndices) {
  for (auto kind : kKinds) {
    for (int devices = 1; devices <= 8; ++devices) {
      auto topo = dist::Topology::Create(kind, devices);
      ASSERT_TRUE(topo.ok()) << topo.status().ToString();
      const int links = static_cast<int>(topo->links().size());
      for (int from = 0; from < devices; ++from) {
        for (int to = 0; to < devices; ++to) {
          const std::vector<int> path = topo->PeerLinks(from, to);
          if (from == to) {
            EXPECT_TRUE(path.empty());
            continue;
          }
          EXPECT_FALSE(path.empty())
              << dist::TopologyKindName(kind) << " " << from << "->" << to;
          for (int l : path) {
            EXPECT_GE(l, 0);
            EXPECT_LT(l, links)
                << dist::TopologyKindName(kind) << " x" << devices;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gpujoin
