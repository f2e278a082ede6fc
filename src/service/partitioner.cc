#include "service/partitioner.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace imgrn {

Status PartitionPlan::Validate(size_t num_sources) const {
  if (num_shards == 0) {
    return Status::InvalidArgument("partition plan has zero shards");
  }
  if (shard_of.size() != num_sources) {
    return Status::InvalidArgument(
        "partition plan covers " + std::to_string(shard_of.size()) +
        " sources, engine holds " + std::to_string(num_sources));
  }
  for (size_t i = 0; i < shard_of.size(); ++i) {
    if (shard_of[i] >= num_shards) {
      return Status::InvalidArgument(
          "plan assigns source " + std::to_string(i) + " to shard " +
          std::to_string(shard_of[i]) + " of " + std::to_string(num_shards));
    }
  }
  return Status::Ok();
}

double EstimateSourceCost(const GeneMatrix& matrix) {
  const double genes = static_cast<double>(matrix.num_genes());
  const double samples = static_cast<double>(matrix.num_samples());
  return genes * genes * samples;
}

std::vector<double> EstimateSourceCosts(const GeneDatabase& database) {
  std::vector<double> costs;
  costs.reserve(database.size());
  for (const GeneMatrix& matrix : database.matrices()) {
    costs.push_back(EstimateSourceCost(matrix));
  }
  return costs;
}

double MaxMeanImbalance(const std::vector<double>& shard_costs) {
  if (shard_costs.empty()) return 1.0;
  const double total =
      std::accumulate(shard_costs.begin(), shard_costs.end(), 0.0);
  if (total <= 0.0) return 1.0;
  const double mean = total / static_cast<double>(shard_costs.size());
  return *std::max_element(shard_costs.begin(), shard_costs.end()) / mean;
}

size_t Partitioner::PlaceSource(SourceId /*source*/, double /*cost*/,
                                const std::vector<double>& shard_costs) const {
  IMGRN_CHECK(!shard_costs.empty());
  return static_cast<size_t>(
      std::min_element(shard_costs.begin(), shard_costs.end()) -
      shard_costs.begin());
}

PartitionPlan ModuloPartitioner::Partition(const std::vector<double>& costs,
                                           size_t num_shards) const {
  IMGRN_CHECK_GE(num_shards, 1u);
  PartitionPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of.resize(costs.size());
  for (size_t i = 0; i < costs.size(); ++i) {
    plan.shard_of[i] = static_cast<uint32_t>(i % num_shards);
  }
  return plan;
}

size_t ModuloPartitioner::PlaceSource(
    SourceId source, double /*cost*/,
    const std::vector<double>& shard_costs) const {
  IMGRN_CHECK(!shard_costs.empty());
  return static_cast<size_t>(source) % shard_costs.size();
}

PartitionPlan BalancedPartitioner::Partition(const std::vector<double>& costs,
                                             size_t num_shards) const {
  IMGRN_CHECK_GE(num_shards, 1u);
  PartitionPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of.resize(costs.size());

  // LPT: heaviest source first onto the least-loaded shard. Sorting ties
  // by id and breaking load ties toward the lowest shard index keeps the
  // plan fully deterministic.
  std::vector<size_t> order(costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&costs](size_t a, size_t b) {
    if (costs[a] != costs[b]) return costs[a] > costs[b];
    return a < b;
  });
  std::vector<double> load(num_shards, 0.0);
  for (size_t source : order) {
    const size_t shard = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    plan.shard_of[source] = static_cast<uint32_t>(shard);
    load[shard] += costs[source];
  }
  return plan;
}

PartitionPlan ExplicitPartitioner::Partition(
    const std::vector<double>& /*costs*/, size_t /*num_shards*/) const {
  return plan_;
}

std::shared_ptr<const Partitioner> MakePartitioner(const std::string& name) {
  if (name == "modulo") return std::make_shared<ModuloPartitioner>();
  if (name == "balanced") return std::make_shared<BalancedPartitioner>();
  return nullptr;
}

const char* KnownPartitionerNames() { return "modulo, balanced"; }

Result<std::shared_ptr<const Partitioner>> ParsePartitioner(
    const std::string& name) {
  std::shared_ptr<const Partitioner> partitioner = MakePartitioner(name);
  if (partitioner == nullptr) {
    return Status::InvalidArgument("unknown partition strategy '" + name +
                                   "' (valid strategies: " +
                                   KnownPartitionerNames() + ")");
  }
  return partitioner;
}

}  // namespace imgrn
