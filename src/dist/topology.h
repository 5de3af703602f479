#ifndef GPUJOIN_DIST_TOPOLOGY_H_
#define GPUJOIN_DIST_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/specs.h"
#include "util/check.h"
#include "util/status.h"

namespace gpujoin::dist {

// How the endpoints of a scale-out run are wired together. The paper
// evaluates one GPU behind one interconnect; scale-out multiplies that
// picture twice — GPUs inside a machine, then machines behind a network
// — and what changes between tiers is (a) whether each endpoint's link
// is dedicated or shared and (b) how peers reach each other.
enum class TopologyKind {
  // V100 + NVLink 2.0 (paper Sec. 3.2): every GPU has its own NVLink
  // bricks to CPU memory (POWER9 style), peers talk through the host
  // (two hops).
  kNvLink2,
  // A100 + PCI-e 4.0 (Fig. 9): all devices hang off one root complex;
  // the host link is shared and contended, peer traffic crosses it twice.
  kPciE4,
  // DGX-style NVSwitch fabric: dedicated host links plus an all-to-all
  // switch, so peer transfers take one uncontended hop at NVLink rate.
  kNvSwitch,
  // The network tier between machines (src/cluster), whose bandwidth
  // and latency are one to three orders of magnitude worse than NVLink.
  // HDR InfiniBand through a non-blocking switch is the kNvLink2
  // geometry one tier up: a dedicated uplink per node, and node-to-node
  // traffic takes the sender's uplink then the receiver's.
  kInfiniBand,
  // 25 GbE through an oversubscribed top-of-rack switch: dedicated
  // uplinks feed one shared switch segment that every transfer crosses,
  // so concurrent senders contend on it.
  kEthernet,
};

const char* TopologyKindName(TopologyKind kind);

// True for the kinds whose endpoints are nodes (kInfiniBand,
// kEthernet); the others wire the GPUs inside one machine.
bool IsNetworkTier(TopologyKind kind);

// One physical link of the topology. Bandwidths/latency come straight
// from the sim::InterconnectSpec the preset was built from.
struct Link {
  std::string name;
  double seq_bandwidth = 0;     // bytes/s, streaming transfers
  double random_bandwidth = 0;  // bytes/s, cacheline gathers
  double latency = 0;           // seconds per hop
  bool shared = false;          // true when several endpoints contend on it
};

// Interconnect topology for `num_devices` endpoints (GPUs of one machine,
// or the nodes of a cluster): which link each endpoint's host traffic
// crosses, and what a peer-to-peer transfer between two endpoints costs.
// Links are identified by index into links() so the schedulers can
// account bytes and contention per physical link.
class Topology {
 public:
  static Result<Topology> Create(TopologyKind kind, int num_devices);
  // As Create, but with an explicit interconnect spec (tests).
  static Result<Topology> FromSpec(TopologyKind kind, int num_devices,
                                   const sim::InterconnectSpec& spec);

  TopologyKind kind() const { return kind_; }
  int num_devices() const { return num_devices_; }
  const std::vector<Link>& links() const { return links_; }

  // Link the endpoint's host traffic (probe keys, index reads over the
  // interconnect; a node's uplink on the network tier) crosses. Shared
  // topologies return the same id for every device. An out-of-range
  // device id is a programming error on the scheduler side, not
  // recoverable input, so it CHECKs (with the offending value named)
  // instead of returning a Status.
  int host_link(int device) const {
    GPUJOIN_CHECK(device >= 0 && device < num_devices_)
        << "host_link: device must be in [0, " << num_devices_
        << "), got " << device;
    return host_link_of_[static_cast<size_t>(device)];
  }

  // Number of endpoints contending on `link` when all of `active` are
  // transferring at once (1 when the link is dedicated).
  int HostSharers(int link, int active_devices) const {
    GPUJOIN_CHECK(link >= 0 && link < static_cast<int>(links_.size()))
        << "HostSharers: link must be in [0, " << links_.size()
        << "), got " << link;
    return links_[static_cast<size_t>(link)].shared ? active_devices : 1;
  }

  // Simulated seconds to stream `bytes` from endpoint `from` to `to`
  // (work-stealing handoffs, probe handoffs, migrations, result merges).
  // Dedicated-link topologies pay per-hop latency; the PCI-e path
  // crosses the shared host link twice; Ethernet additionally crosses
  // the shared switch segment.
  double PeerSeconds(int from, int to, uint64_t bytes) const;

  // Links charged by a peer transfer, in path order, for utilization
  // accounting.
  std::vector<int> PeerLinks(int from, int to) const;

  // Simulated seconds for every endpoint e != `sink` to stream bytes[e]
  // to `sink` at once (the result merge): dedicated paths overlap, so
  // the slowest stream gates, while a shared link on the path
  // serializes the streams. A non-null `ledger` (indexed by link) is
  // charged each stream's bytes on every link of its path.
  double GatherSeconds(const std::vector<uint64_t>& bytes, int sink,
                       std::vector<uint64_t>* ledger) const;

  // Elastic membership: attaches one more endpoint with its own
  // dedicated link(s) (PCI-e devices join the shared root complex) and
  // returns its id. Existing link ids stay valid.
  int AddEndpoint();

 private:
  Topology() = default;

  TopologyKind kind_ = TopologyKind::kNvLink2;
  sim::InterconnectSpec spec_;
  int num_devices_ = 0;
  std::vector<Link> links_;
  std::vector<int> host_link_of_;   // device -> link index
  std::vector<int> peer_link_of_;   // device -> switch port (kNvSwitch)
  int switch_link_ = -1;            // shared segment (kEthernet), else -1
};

}  // namespace gpujoin::dist

#endif  // GPUJOIN_DIST_TOPOLOGY_H_
