// Least Recently Used (paper, Section 3).
//
// "LRU is based on the assumption that a recently referenced document will
//  be referenced again in near future. Therefore, on replacement LRU removes
//  the document from cache that has not been referenced for the longest
//  period of time."
#pragma once

#include "cache/lru_list.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class LruPolicy final : public ReplacementPolicy {
 public:
  void reserve_ids(std::uint64_t universe) override {
    order_.reserve_ids(universe);
  }
  void on_insert(const CacheObject& obj) override {
    order_.push_front(obj.id);
  }
  void on_hit(const CacheObject& obj) override {
    order_.move_to_front(obj.id);
  }
  using ReplacementPolicy::choose_victim;
  ObjectId choose_victim(std::uint64_t /*incoming_size*/) override {
    return order_.back();
  }
  void on_evict(ObjectId id) override { order_.erase(id); }
  std::string_view name() const override { return "LRU"; }
  void clear() override { order_.clear(); }

  PolicyProbe probe() const override {
    return {order_.size(), std::nullopt, std::nullopt};
  }

  void save_state(util::StateWriter& w) const override;
  void restore_state(util::StateReader& r) override;

 private:
  LruIndexList order_;  // front = most recently used, back = LRU victim
};

}  // namespace webcache::cache
