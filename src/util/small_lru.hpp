// A bounded least-recently-used map for a handful of entries.
//
// At the sizes the serving layer keeps (8 to 16 entries), a linear scan
// of a vector ordered most recently used first beats hashing and keeps
// no second index in sync. Not synchronized: callers own the locking,
// or keep one instance per thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace saim::util {

template <typename Key, typename Value>
class SmallLru {
 public:
  explicit SmallLru(std::size_t capacity) : capacity_(capacity) {}

  /// The value for `key`, made the most recently used; null on a miss.
  /// The pointer stays valid until the next call on this map.
  Value* find(const Key& key) {
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&key](const auto& entry) { return entry.first == key; });
    if (it == entries_.end()) return nullptr;
    std::rotate(entries_.begin(), it, std::next(it));
    return &entries_.front().second;
  }

  /// Inserts as the most recently used entry, first dropping the least
  /// recently used one when full. The key must not be present.
  Value& insert(Key key, Value value) {
    if (entries_.size() >= capacity_) entries_.pop_back();
    entries_.emplace(entries_.begin(), std::move(key), std::move(value));
    return entries_.front().second;
  }

  void erase(const Key& key) {
    std::erase_if(entries_,
                  [&key](const auto& entry) { return entry.first == key; });
  }

 private:
  std::size_t capacity_;
  std::vector<std::pair<Key, Value>> entries_;  ///< most recent first
};

}  // namespace saim::util
