#include "agg/ipda/tree_construction.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ipda::agg {

TreeBuilder::TreeBuilder(net::NodeId self, const IpdaConfig* config,
                         util::Rng rng, ScheduleFn schedule, JoinedFn joined)
    : self_(self),
      config_(config),
      rng_(std::move(rng)),
      schedule_(std::move(schedule)),
      joined_(std::move(joined)) {
  IPDA_CHECK(config != nullptr);
  IPDA_CHECK(schedule_ != nullptr);
  IPDA_CHECK(joined_ != nullptr);
}

void TreeBuilder::ForceRole(NodeRole role) {
  IPDA_CHECK(!decided());
  role_ = role;
}

void TreeBuilder::OnHello(net::NodeId src, const HelloMsg& msg) {
  // A clear filter bit proves `src` new, which spares the first HELLO
  // from each sender (the common case) the scan.
  uint64_t& word = heard_filter_[(src / 64) % heard_filter_.size()];
  const uint64_t bit = uint64_t{1} << (src % 64);
  const auto it =
      (word & bit) == 0
          ? heard_.end()
          : std::find_if(heard_.begin(), heard_.end(),
                         [src](const HeardEntry& e) { return e.id == src; });
  word |= bit;
  if (it == heard_.end()) {
    heard_.push_back(HeardEntry{src, msg.hop, msg.color});
  } else {
    if (it->conflicted) return;
    if (it->color != msg.color) {
      // Double-color advertisement: neighbors detect this over the shared
      // medium and exclude the sender from both trees (§III-B).
      if (it->color == TreeColor::kRed || it->color == TreeColor::kBoth) {
        --n_red_;
      }
      if (it->color == TreeColor::kBlue || it->color == TreeColor::kBoth) {
        --n_blue_;
      }
      it->conflicted = true;
      return;
    }
    // Duplicate HELLO with consistent color: keep the better hop.
    if (msg.hop < it->hop) it->hop = msg.hop;
    return;
  }

  if (msg.color == TreeColor::kRed || msg.color == TreeColor::kBoth) {
    ++n_red_;
  }
  if (msg.color == TreeColor::kBlue || msg.color == TreeColor::kBoth) {
    ++n_blue_;
  }

  if (role_ == NodeRole::kBaseStation || role_ == NodeRole::kExcluded) {
    return;
  }
  if (!decided() && covered() && !timer_armed_) {
    timer_armed_ = true;
    schedule_(config_->decide_window, [this] { Decide(); });
  }
  if (config_->impatient_join && !decided() && !covered() &&
      !impatient_armed_) {
    impatient_armed_ = true;
    schedule_(config_->impatient_wait, [this] { ImpatientDecide(); });
  }
}

void TreeBuilder::ImpatientDecide() {
  // Extension (see IpdaConfig::impatient_join): still stuck with a single
  // color after the wait — join that tree as an aggregator so the flood
  // keeps moving. Slicing eligibility may still complete later if the
  // other color eventually shows up in the neighborhood.
  if (decided() || covered()) return;
  if (leaf_only_) return;  // Late joiners never become aggregators.
  if (n_red_ == 0 && n_blue_ == 0) return;  // Heard nothing: stay out.
  const TreeColor color =
      n_red_ > 0 ? TreeColor::kRed : TreeColor::kBlue;
  const HeardEntry* best = BestParent(color);
  if (best == nullptr) return;
  role_ = color == TreeColor::kRed ? NodeRole::kRedAggregator
                                   : NodeRole::kBlueAggregator;
  parent_ = best->id;
  hop_ = best->hop + 1;
  joined_(HelloMsg{color, hop_, std::nullopt});
}

double TreeBuilder::ProbRed() const {
  if (!config_->adaptive_roles) return 0.5;  // Eq. (2).
  const double total = static_cast<double>(n_red_ + n_blue_);
  if (total <= 0.0) return 0.0;
  const double p =
      total > static_cast<double>(config_->k)
          ? static_cast<double>(config_->k) / total
          : 1.0;
  // Eq. (1): bias toward the under-represented color.
  return p * static_cast<double>(n_blue_) / total;
}

double TreeBuilder::ProbBlue() const {
  if (!config_->adaptive_roles) return 0.5;
  const double total = static_cast<double>(n_red_ + n_blue_);
  if (total <= 0.0) return 0.0;
  const double p =
      total > static_cast<double>(config_->k)
          ? static_cast<double>(config_->k) / total
          : 1.0;
  return p * static_cast<double>(n_red_) / total;
}

bool TreeBuilder::JoinAsLeaf() {
  if (decided()) return role_ == NodeRole::kLeaf;
  if (!covered()) return false;
  role_ = NodeRole::kLeaf;
  return true;
}

void TreeBuilder::Reparent(net::NodeId parent, uint32_t parent_hop) {
  IPDA_CHECK(role_ == NodeRole::kRedAggregator ||
             role_ == NodeRole::kBlueAggregator);
  parent_ = parent;
  hop_ = parent_hop + 1;
}

void TreeBuilder::Decide() {
  if (decided()) return;
  if (!covered()) {
    // A conflicted sender was blacklisted after the timer armed; wait for
    // fresh HELLOs to restore coverage.
    timer_armed_ = false;
    return;
  }
  if (leaf_only_) {
    role_ = NodeRole::kLeaf;
    return;
  }

  const double pr = ProbRed();
  const double pb = ProbBlue();
  const double u = rng_.UniformDouble();
  TreeColor color;
  if (u < pr) {
    color = TreeColor::kRed;
  } else if (u < pr + pb) {
    color = TreeColor::kBlue;
  } else {
    role_ = NodeRole::kLeaf;
    return;
  }

  // Parent: lowest-hop heard aggregator of our color; first-heard on ties.
  const HeardEntry* best = BestParent(color);
  IPDA_CHECK(best != nullptr);

  role_ = color == TreeColor::kRed ? NodeRole::kRedAggregator
                                   : NodeRole::kBlueAggregator;
  parent_ = best->id;
  hop_ = best->hop + 1;
  joined_(HelloMsg{color, hop_, std::nullopt});
}

net::NodeId TreeBuilder::parent() const {
  IPDA_CHECK(role_ == NodeRole::kRedAggregator ||
             role_ == NodeRole::kBlueAggregator);
  return parent_;
}

uint32_t TreeBuilder::hop() const {
  if (role_ == NodeRole::kBaseStation) return 0;
  IPDA_CHECK(role_ == NodeRole::kRedAggregator ||
             role_ == NodeRole::kBlueAggregator);
  return hop_;
}

const TreeBuilder::HeardEntry* TreeBuilder::BestParent(
    TreeColor color) const {
  const HeardEntry* best = nullptr;
  uint32_t best_hop = UINT32_MAX;
  for (const HeardEntry& entry : heard_) {
    if (entry.Serves(color) && entry.hop < best_hop) {
      best = &entry;
      best_hop = entry.hop;
    }
  }
  return best;
}

void TreeBuilder::AggregatorNeighbors(TreeColor color,
                                      std::vector<net::NodeId>& out) const {
  out.clear();
  for (const HeardEntry& entry : heard_) {
    if (entry.Serves(color)) out.push_back(entry.id);
  }
}

std::vector<NeighborAggregator> TreeBuilder::AggregatorNeighborInfos(
    TreeColor color) const {
  std::vector<NeighborAggregator> out;
  for (const HeardEntry& entry : heard_) {
    if (entry.Serves(color)) {
      out.push_back(NeighborAggregator{entry.id, entry.color, entry.hop});
    }
  }
  return out;
}

}  // namespace ipda::agg
