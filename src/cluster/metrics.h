#ifndef GPUJOIN_CLUSTER_METRICS_H_
#define GPUJOIN_CLUSTER_METRICS_H_

#include <string>

#include "cluster/cluster_scheduler.h"

namespace gpujoin::cluster {

// The per-node breakdown of a cluster run as a JSON array — membership
// state, routing, rerouting, busy time, and the node's phase timeline
// when observed — spliced into a bench record via
// obs::RecordBuilder::AddSection. The network tier's links go through
// dist::LinksJson. scripts/validate_metrics.py validates both sections
// (field presence, unique node ids, shard counts summing to
// params.total_shards, utilization in [0, 1]).
std::string NodesJson(const ClusterRunResult& result);

}  // namespace gpujoin::cluster

#endif  // GPUJOIN_CLUSTER_METRICS_H_
