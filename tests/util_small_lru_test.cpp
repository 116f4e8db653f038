// util::SmallLru: a hit becomes the most recently used entry, an insert
// into a full map drops the least recently used one, erase removes only
// its key.
#include <gtest/gtest.h>

#include <string>

#include "util/small_lru.hpp"

namespace saim::util {
namespace {

TEST(SmallLru, EvictsTheLeastRecentlyUsedEntry) {
  SmallLru<int, std::string> lru(2);
  lru.insert(1, "one");
  lru.insert(2, "two");
  ASSERT_NE(lru.find(1), nullptr);  // 2 is now the least recently used
  EXPECT_EQ(lru.insert(3, "three"), "three");
  EXPECT_EQ(lru.find(2), nullptr);
  ASSERT_NE(lru.find(1), nullptr);
  EXPECT_EQ(*lru.find(1), "one");
  ASSERT_NE(lru.find(3), nullptr);
  EXPECT_EQ(*lru.find(3), "three");
}

TEST(SmallLru, EraseRemovesOnlyItsKey) {
  SmallLru<int, int> lru(4);
  lru.insert(1, 10);
  lru.insert(2, 20);
  lru.erase(1);
  lru.erase(7);  // absent: no-op
  EXPECT_EQ(lru.find(1), nullptr);
  ASSERT_NE(lru.find(2), nullptr);
  EXPECT_EQ(*lru.find(2), 20);
}

}  // namespace
}  // namespace saim::util
