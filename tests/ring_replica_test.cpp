// Property tests for HashRing::replicas — the replica-set contract the
// whole replication layer (warm handoff fan-out and gossip) builds on.
// Pinned properties, over random memberships and key sets:
//
//   * a replica set holds min(R, live) DISTINCT live shards, led by the
//     key's owner;
//   * it is a pure function of the membership — rebuilding the ring, or
//     adding the same shards in a different order, yields the identical
//     sets (vnode points depend only on slot indices);
//   * removing a shard remaps minimally: sets that did not contain the
//     removed shard are unchanged, sets that did keep every surviving
//     member (the clockwise walk only skips the dead shard's points).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "service/shard_router.hpp"
#include "util/rng.hpp"

namespace saim::service {
namespace {

std::uint64_t key_of(std::uint64_t k) { return k * 0x9e3779b97f4a7c15ULL; }

TEST(HashRingReplicas, DistinctLiveShardsLedByTheOwner) {
  util::Xoshiro256pp rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    // Random membership: 1..6 shards out of 8 slots.
    HashRing ring(64);
    std::vector<std::size_t> members;
    for (std::size_t s = 0; s < 8; ++s) {
      if (rng.bernoulli(0.5)) {
        ring.add(s);
        members.push_back(s);
      }
    }
    if (members.empty()) {
      ring.add(3);
      members.push_back(3);
    }
    for (const std::size_t r : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      for (std::uint64_t k = 0; k < 512; ++k) {
        const auto set = ring.replicas(key_of(k), r);
        ASSERT_EQ(set.size(), std::min(r, members.size()));
        EXPECT_EQ(set.front(), ring.route(key_of(k)))
            << "the owner must lead its replica set";
        std::set<std::size_t> distinct(set.begin(), set.end());
        EXPECT_EQ(distinct.size(), set.size()) << "replicas must be distinct";
        for (const std::size_t shard : set) {
          EXPECT_TRUE(ring.contains(shard)) << "replicas must be live";
        }
      }
    }
  }
}

TEST(HashRingReplicas, CountIsClampedToTheLiveShards) {
  HashRing ring(64);
  ring.add(0);
  ring.add(1);
  EXPECT_EQ(ring.replicas(42, 0).size(), 1u) << "count 0 clamps up to 1";
  EXPECT_EQ(ring.replicas(42, 5).size(), 2u) << "count clamps to live count";
  HashRing empty;
  EXPECT_THROW((void)empty.replicas(42, 2), std::runtime_error);
}

TEST(HashRingReplicas, DeterministicAcrossRebuildsAndAddOrder) {
  HashRing forward(64), reverse(64), rebuilt(64);
  const std::vector<std::size_t> members{0, 2, 3, 5, 6};
  for (const std::size_t s : members) forward.add(s);
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reverse.add(*it);
  }
  // A ring that lost and regained a member must converge to the same
  // sets: revive_shard relies on this to move a keyslice (and its warm
  // pools) back after a respawn.
  for (const std::size_t s : members) rebuilt.add(s);
  rebuilt.remove(3);
  rebuilt.add(3);
  for (std::uint64_t k = 0; k < 1024; ++k) {
    const auto want = forward.replicas(key_of(k), 3);
    EXPECT_EQ(reverse.replicas(key_of(k), 3), want);
    EXPECT_EQ(rebuilt.replicas(key_of(k), 3), want);
  }
}

TEST(HashRingReplicas, RemovalRemapsOnlySetsThatHeldTheDeadShard) {
  HashRing ring(64);
  for (std::size_t s = 0; s < 5; ++s) ring.add(s);
  const std::size_t dead = 2;
  std::vector<std::vector<std::size_t>> before;
  for (std::uint64_t k = 0; k < 2048; ++k) {
    before.push_back(ring.replicas(key_of(k), 2));
  }
  ring.remove(dead);
  std::size_t touched = 0;
  for (std::uint64_t k = 0; k < 2048; ++k) {
    const auto now = ring.replicas(key_of(k), 2);
    const auto& was = before[k];
    if (std::find(was.begin(), was.end(), dead) == was.end()) {
      EXPECT_EQ(now, was) << "sets without the dead shard must not move";
    } else {
      ++touched;
      // Every surviving member keeps its place in the set; only the dead
      // shard's slot is refilled (possibly reordering owner vs backup
      // when the dead shard WAS the owner).
      for (const std::size_t survivor : was) {
        if (survivor == dead) continue;
        EXPECT_NE(std::find(now.begin(), now.end(), survivor), now.end())
            << "survivor " << survivor << " evicted from a replica set";
      }
      EXPECT_EQ(std::find(now.begin(), now.end(), dead), now.end());
    }
  }
  EXPECT_GT(touched, 0u) << "the dead shard must have appeared somewhere";
}

}  // namespace
}  // namespace saim::service
