#include "dist/topology.h"

#include <algorithm>

namespace gpujoin::dist {

namespace {

Link MakeLink(std::string name, const sim::InterconnectSpec& spec,
              bool shared) {
  Link link;
  link.name = std::move(name);
  link.seq_bandwidth = spec.seq_bandwidth;
  link.random_bandwidth = spec.random_bandwidth;
  link.latency = spec.latency;
  link.shared = shared;
  return link;
}

}  // namespace

bool IsNetworkTier(TopologyKind kind) {
  return kind == TopologyKind::kInfiniBand ||
         kind == TopologyKind::kEthernet;
}

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kNvLink2:
      return "nvlink2";
    case TopologyKind::kPciE4:
      return "pcie4";
    case TopologyKind::kNvSwitch:
      return "nvswitch";
    case TopologyKind::kInfiniBand:
      return "infiniband";
    case TopologyKind::kEthernet:
      return "ethernet";
  }
  return "unknown";
}

Result<Topology> Topology::Create(TopologyKind kind, int num_devices) {
  switch (kind) {
    case TopologyKind::kNvLink2:
    case TopologyKind::kNvSwitch:
      return FromSpec(kind, num_devices, sim::NvLink2());
    case TopologyKind::kPciE4:
      return FromSpec(kind, num_devices, sim::PciE4());
    case TopologyKind::kInfiniBand:
      return FromSpec(kind, num_devices, sim::InfiniBandHdr200());
    case TopologyKind::kEthernet:
      return FromSpec(kind, num_devices, sim::Ethernet25G());
  }
  return Status::InvalidArgument("unknown topology kind");
}

Result<Topology> Topology::FromSpec(TopologyKind kind, int num_devices,
                                    const sim::InterconnectSpec& spec) {
  if (num_devices < 1) {
    return Status::InvalidArgument("topology needs at least one device");
  }
  Topology topo;
  topo.kind_ = kind;
  topo.spec_ = spec;
  const std::string prefix = TopologyKindName(kind);
  if (kind == TopologyKind::kPciE4) {
    // One root complex: every device's host traffic shares this link.
    topo.links_.push_back(MakeLink(prefix + ".host", spec, /*shared=*/true));
  }
  if (kind == TopologyKind::kEthernet) {
    topo.switch_link_ = 0;
    topo.links_.push_back(
        MakeLink(prefix + ".switch", spec, /*shared=*/true));
  }
  for (int d = 0; d < num_devices; ++d) topo.AddEndpoint();
  return topo;
}

int Topology::AddEndpoint() {
  const int id = num_devices_++;
  if (kind_ == TopologyKind::kPciE4) {
    host_link_of_.push_back(0);
    return id;
  }
  const std::string prefix = TopologyKindName(kind_);
  host_link_of_.push_back(static_cast<int>(links_.size()));
  links_.push_back(MakeLink(
      prefix + (IsNetworkTier(kind_) ? ".node" : ".host") +
          std::to_string(id),
      spec_, /*shared=*/false));
  if (kind_ == TopologyKind::kNvSwitch) {
    peer_link_of_.push_back(static_cast<int>(links_.size()));
    links_.push_back(
        MakeLink(prefix + ".port" + std::to_string(id), spec_,
                 /*shared=*/false));
  }
  return id;
}

double Topology::PeerSeconds(int from, int to, uint64_t bytes) const {
  if (from == to || bytes == 0) return 0;
  const double b = static_cast<double>(bytes);
  switch (kind_) {
    case TopologyKind::kNvSwitch: {
      // One switch hop at full NVLink rate.
      const Link& port = links_[peer_link_of_[from]];
      return b / port.seq_bandwidth + port.latency;
    }
    case TopologyKind::kNvLink2: {
      // Through host memory: out on one brick, in on the other.
      const Link& out = links_[host_link_of_[from]];
      const Link& in = links_[host_link_of_[to]];
      return b / out.seq_bandwidth + b / in.seq_bandwidth + out.latency +
             in.latency;
    }
    case TopologyKind::kPciE4: {
      // The shared link carries the payload twice (up, then down).
      const Link& host = links_[host_link_of_[from]];
      return 2 * (b / host.seq_bandwidth + host.latency);
    }
    case TopologyKind::kInfiniBand:
    case TopologyKind::kEthernet: {
      // Sender's uplink, then receiver's, each hop with its latency;
      // Ethernet adds the shared switch segment.
      const Link& out = links_[host_link_of_[from]];
      const Link& in = links_[host_link_of_[to]];
      double seconds = b / out.seq_bandwidth + out.latency +
                       b / in.seq_bandwidth + in.latency;
      if (switch_link_ >= 0) {
        const Link& sw = links_[static_cast<size_t>(switch_link_)];
        seconds += b / sw.seq_bandwidth + sw.latency;
      }
      return seconds;
    }
  }
  return 0;
}

std::vector<int> Topology::PeerLinks(int from, int to) const {
  if (from == to) return {};
  switch (kind_) {
    case TopologyKind::kNvSwitch:
      return {peer_link_of_[from], peer_link_of_[to]};
    case TopologyKind::kNvLink2:
    case TopologyKind::kInfiniBand:
      return {host_link_of_[from], host_link_of_[to]};
    case TopologyKind::kPciE4:
      return {host_link_of_[from]};
    case TopologyKind::kEthernet:
      return {host_link_of_[from], switch_link_, host_link_of_[to]};
  }
  return {};
}

double Topology::GatherSeconds(const std::vector<uint64_t>& bytes, int sink,
                               std::vector<uint64_t>* ledger) const {
  double total = 0;
  double slowest = 0;
  bool shared = false;
  for (int e = 0; e < static_cast<int>(bytes.size()); ++e) {
    const uint64_t b = bytes[static_cast<size_t>(e)];
    if (e == sink || b == 0) continue;
    const double t = PeerSeconds(e, sink, b);
    total += t;
    slowest = std::max(slowest, t);
    for (int l : PeerLinks(e, sink)) {
      if (ledger != nullptr) (*ledger)[static_cast<size_t>(l)] += b;
      shared = shared || links_[static_cast<size_t>(l)].shared;
    }
  }
  return shared ? total : slowest;
}

}  // namespace gpujoin::dist
