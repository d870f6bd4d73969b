// LRU parse cache: SQL text -> parsed statement. The campaign's oracles
// re-execute the same statement text many times per check (AEI runs every
// query twice and reloads the base database up to four times; EET prints
// up to six variants; the index oracle reloads with and without an index),
// so parse time on repeated text is pure redundancy. The cache is strictly
// passive: parsing is a pure function of the text, entries are immutable
// once stored, and the cache never observes engine state or RNG.
#ifndef SPATTER_SQL_STMT_CACHE_H_
#define SPATTER_SQL_STMT_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "sql/ast.h"

namespace spatter::sql {

class StatementCache {
 public:
  /// `capacity` = max cached statements; 0 disables the cache entirely
  /// (Lookup always misses, Insert is a no-op).
  explicit StatementCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached statement for `sql` (marking it most recently
  /// used), or nullptr on a miss.
  std::shared_ptr<const Statement> Lookup(const std::string& sql);

  /// Stores a freshly parsed statement, evicting the least recently used
  /// entry on overflow. Returns true when an eviction happened.
  bool Insert(const std::string& sql,
              std::shared_ptr<const Statement> stmt);

  /// Resizes the cache, evicting LRU entries if shrinking below the
  /// current size. Returns the number of entries evicted.
  size_t SetCapacity(size_t capacity);

  size_t capacity() const { return capacity_; }
  size_t size() const { return lru_.size(); }

 private:
  struct Entry {
    std::string sql;
    std::shared_ptr<const Statement> stmt;
  };

  void EvictOne();

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> by_sql_;
};

}  // namespace spatter::sql

#endif  // SPATTER_SQL_STMT_CACHE_H_
