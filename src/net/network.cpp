#include "net/network.hpp"

namespace lucid::net {

void Network::add_node(sched::EventScheduler& node) {
  const int id = node.self();
  nodes_[id] = &node;
  node.set_net_send([this, id](pisa::Packet p) { carry(id, std::move(p)); });
}

void Network::connect(int a, int b, sim::Time latency_ns) {
  links_[{a, b}] = latency_ns;
  links_[{b, a}] = latency_ns;
}

sim::Time Network::link_latency(int a, int b) const {
  const auto it = links_.find({a, b});
  // Unconnected pairs still deliver (flat fabric) at the default hop cost.
  return it == links_.end() ? sim::kUs : it->second;
}

void Network::carry(int from, pisa::Packet p) {
  const int dest = static_cast<int>(p.location);
  const auto it = nodes_.find(dest);
  if (it == nodes_.end()) {
    ++dropped_;
    return;
  }
  const sim::Time lat = link_latency(from, dest);
  sched::EventScheduler* node = it->second;
  sim_.after(lat, [this, node, p] {
    ++delivered_;
    node->node().inject(p);  // stamps kept
  });
}

}  // namespace lucid::net
