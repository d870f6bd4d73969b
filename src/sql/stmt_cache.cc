#include "sql/stmt_cache.h"

namespace spatter::sql {

std::shared_ptr<const Statement> StatementCache::Lookup(
    const std::string& sql) {
  auto it = by_sql_.find(sql);
  if (it == by_sql_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->stmt;
}

bool StatementCache::Insert(const std::string& sql,
                            std::shared_ptr<const Statement> stmt) {
  if (capacity_ == 0) return false;
  auto it = by_sql_.find(sql);
  if (it != by_sql_.end()) {
    // Racing double-parse of the same text (Lookup miss, then Insert):
    // keep the existing entry, just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  lru_.push_front(Entry{sql, std::move(stmt)});
  by_sql_.emplace(sql, lru_.begin());
  if (lru_.size() <= capacity_) return false;
  EvictOne();
  return true;
}

void StatementCache::EvictOne() {
  by_sql_.erase(lru_.back().sql);
  lru_.pop_back();
}

size_t StatementCache::SetCapacity(size_t capacity) {
  capacity_ = capacity;
  size_t evicted = 0;
  while (lru_.size() > capacity_) {
    EvictOne();
    evicted++;
  }
  return evicted;
}

}  // namespace spatter::sql
