#include "net/network_config.hpp"

#include <cmath>
#include <string>

namespace rtmac::net {

bool NetworkConfig::validate(std::string* error) const {
  auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const std::size_t n = success_prob.size();
  if (n == 0) return fail("network has no links");
  // Sizes first: the arrival branches below index requirements.lambda.
  if (requirements.lambda.size() != n || requirements.rho.size() != n) {
    return fail("requirements size != number of links");
  }
  if (joint_arrivals != nullptr) {
    if (joint_arrivals->num_links() != n) return fail("joint arrivals size != number of links");
    const RateVector joint_mean = joint_arrivals->mean();
    for (std::size_t i = 0; i < n; ++i) {
      if (std::abs(joint_mean[i] - requirements.lambda[i]) > 1e-9) {
        return fail("declared lambda does not match joint arrival process mean");
      }
    }
  } else if (!arrivals.empty()) {
    // Per-link processes win over the uniform shortcut when both are set
    // (covers configs built symmetric and then specialized per link).
    if (arrivals.size() != n) return fail("arrivals size != number of links");
  } else if (uniform_arrivals != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (std::abs(uniform_arrivals->mean() - requirements.lambda[i]) > 1e-9) {
        return fail("declared lambda does not match uniform arrival process mean");
      }
    }
  } else {
    return fail("no arrival specification (arrivals, uniform_arrivals, or joint_arrivals)");
  }
  if (topology.has_value() && topology->num_links() != n) {
    return fail("interference topology size != number of links");
  }
  if (sparse_topology != nullptr) {
    if (topology.has_value()) return fail("topology and sparse_topology are mutually exclusive");
    if (sparse_topology->num_links != n) return fail("sparse topology size != number of links");
    if (shards == 0 && !auto_shard) {
      return fail("sparse_topology requires the sharded engine (shards >= 1 or auto_shard)");
    }
  }
  if ((shards > 0 || auto_shard) && channel_factory != nullptr) {
    return fail("sharded execution requires the default Bernoulli channel");
  }
  if (interval_length <= Duration{}) return fail("interval length must be positive");
  if (phy.data_airtime <= Duration{} || phy.backoff_slot <= Duration{}) {
    return fail("airtimes and slot width must be positive");
  }
  if (interval_length < phy.data_airtime) {
    return fail("interval shorter than one packet airtime: nothing can ever be delivered");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (success_prob[i] <= 0.0 || success_prob[i] > 1.0) {
      return fail("success probabilities must lie in (0, 1]");
    }
    if (joint_arrivals == nullptr && !arrivals.empty()) {
      if (arrivals[i] == nullptr) return fail("null arrival process");
      if (std::abs(arrivals[i]->mean() - requirements.lambda[i]) > 1e-9) {
        return fail("declared lambda does not match arrival process mean");
      }
    }
    if (requirements.rho[i] < 0.0 || requirements.rho[i] > 1.0) {
      return fail("delivery ratios must lie in [0, 1]");
    }
  }
  return true;
}

NetworkConfig NetworkConfig::clone() const {
  NetworkConfig copy;
  copy.interval_length = interval_length;
  copy.phy = phy;
  copy.success_prob = success_prob;
  copy.arrivals.reserve(arrivals.size());
  for (const auto& a : arrivals) copy.arrivals.push_back(a->clone());
  if (uniform_arrivals != nullptr) copy.uniform_arrivals = uniform_arrivals->clone();
  copy.requirements = requirements;
  copy.seed = seed;
  copy.channel_factory = channel_factory;
  if (joint_arrivals != nullptr) copy.joint_arrivals = joint_arrivals->clone();
  copy.topology = topology;
  copy.sparse_topology = sparse_topology;  // immutable, shared
  copy.shards = shards;
  copy.auto_shard = auto_shard;
  copy.shard_jobs = shard_jobs;
  return copy;
}

NetworkConfig symmetric_network(std::size_t num_links, Duration interval_length,
                                const phy::PhyParams& phy, double p,
                                const traffic::ArrivalProcess& arrivals, double rho,
                                std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.interval_length = interval_length;
  cfg.phy = phy;
  cfg.success_prob.assign(num_links, p);
  // One shared spec, not num_links clones: the arrival kernel broadcasts a
  // single row, and a 10^6-link config stays a 10^6-double config.
  cfg.uniform_arrivals = arrivals.clone();
  cfg.requirements = core::Requirements::symmetric(num_links, arrivals.mean(), rho);
  cfg.seed = seed;
  return cfg;
}

}  // namespace rtmac::net
