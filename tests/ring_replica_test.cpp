// Property tests for HashRing ownership — the placement contract the
// shard router's routing, failover and respawn rejoin build on.
// Pinned properties, over random memberships and key sets:
//
//   * every key is owned by a live shard, and an empty ring throws;
//   * ownership is a pure function of the membership — rebuilding the
//     ring, or adding the same shards in a different order, yields the
//     identical owners (vnode points depend only on slot indices);
//   * removing a shard remaps minimally: keys it did not own keep their
//     owner, keys it did own move to a surviving shard.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "service/shard_router.hpp"
#include "util/rng.hpp"

namespace saim::service {
namespace {

std::uint64_t key_of(std::uint64_t k) { return k * 0x9e3779b97f4a7c15ULL; }

TEST(HashRingOwnership, EveryKeyIsOwnedByALiveShard) {
  util::Xoshiro256pp rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    // Random membership: 1..6 shards out of 8 slots.
    HashRing ring(64);
    std::size_t members = 0;
    for (std::size_t s = 0; s < 8; ++s) {
      if (rng.bernoulli(0.5)) {
        ring.add(s);
        ++members;
      }
    }
    if (members == 0) ring.add(3);
    for (std::uint64_t k = 0; k < 512; ++k) {
      EXPECT_TRUE(ring.contains(ring.route(key_of(k))))
          << "owners must be live";
    }
  }
  HashRing empty;
  EXPECT_THROW((void)empty.route(42), std::runtime_error);
}

TEST(HashRingOwnership, DeterministicAcrossRebuildsAndAddOrder) {
  HashRing forward(64), reverse(64), rebuilt(64);
  const std::vector<std::size_t> members{0, 2, 3, 5, 6};
  for (const std::size_t s : members) forward.add(s);
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reverse.add(*it);
  }
  // A ring that lost and regained a member must converge to the same
  // owners: revive_shard relies on this to move a keyslice back after a
  // respawn.
  for (const std::size_t s : members) rebuilt.add(s);
  rebuilt.remove(3);
  rebuilt.add(3);
  for (std::uint64_t k = 0; k < 1024; ++k) {
    const std::size_t want = forward.route(key_of(k));
    EXPECT_EQ(reverse.route(key_of(k)), want);
    EXPECT_EQ(rebuilt.route(key_of(k)), want);
  }
}

TEST(HashRingOwnership, RemovalRemapsOnlyTheDeadShardsKeys) {
  HashRing ring(64);
  for (std::size_t s = 0; s < 5; ++s) ring.add(s);
  const std::size_t dead = 2;
  std::vector<std::size_t> before;
  for (std::uint64_t k = 0; k < 2048; ++k) {
    before.push_back(ring.route(key_of(k)));
  }
  ring.remove(dead);
  std::size_t touched = 0;
  for (std::uint64_t k = 0; k < 2048; ++k) {
    const std::size_t now = ring.route(key_of(k));
    if (before[k] != dead) {
      EXPECT_EQ(now, before[k]) << "keys of a survivor must not move";
    } else {
      ++touched;
      EXPECT_NE(now, dead);
      EXPECT_TRUE(ring.contains(now));
    }
  }
  EXPECT_GT(touched, 0u) << "the dead shard must have owned some key";
}

}  // namespace
}  // namespace saim::service
