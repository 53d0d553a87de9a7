// First-In First-Out baseline.
//
// Not part of the paper's four schemes, but a member of the six-policy
// comparison in Arlitt, Friedrich & Jin (Performance Evaluation 39, 2000)
// that the paper builds on; included as a floor for the benchmarks.
//
// The insertion order is a slot-keyed LruIndexList that hits never touch:
// front = newest, back = oldest = victim. An invalidated object leaves the
// list at once, so the order holds exactly the resident objects.
#pragma once

#include "cache/lru_list.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class FifoPolicy final : public ReplacementPolicy {
 public:
  void on_insert(const CacheObject& obj) override {
    order_.push_front(obj.slot);
  }
  void on_hit(const CacheObject& /*obj*/) override {}  // recency is ignored
  std::uint32_t evict(std::uint64_t /*incoming_size*/) override {
    return order_.pop_back();
  }
  void on_erase(const CacheObject& obj) override { order_.erase(obj.slot); }
  std::string_view name() const override { return "FIFO"; }
  void clear() override { order_.clear(); }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  LruIndexList order_;  // front = newest, back = oldest
};

}  // namespace webcache::cache
