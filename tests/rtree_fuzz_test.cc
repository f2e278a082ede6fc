// Heavier randomized R*-tree workloads: mixed insert/delete/search traffic
// with structural validation after every phase, clustered and adversarial
// distributions, payload integrity under churn.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "common/random.h"
#include "rtree/rtree.h"

namespace imgrn {
namespace {

std::set<uint64_t> TreeQuery(const RTree& tree, const Mbr& box) {
  std::set<uint64_t> result;
  Result<size_t> searched = tree.Search(box, [&result](const RTreeEntry& entry) {
    result.insert(entry.handle);
    return true;
  });
  EXPECT_TRUE(searched.ok()) << searched.status().ToString();
  return result;
}

struct FuzzParam {
  uint64_t seed;
  size_t max_entries;
  size_t dims;
  bool clustered;
};

// Names each instance by its fields. Without it gtest prints the raw bytes,
// tail padding included, so the test names would differ between builds.
void PrintTo(const FuzzParam& param, std::ostream* os) {
  *os << "seed=" << param.seed << " max_entries=" << param.max_entries
      << " dims=" << param.dims
      << (param.clustered ? " clustered" : " uniform");
}

class RTreeFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RTreeFuzzTest, ChurnKeepsTreeConsistent) {
  const FuzzParam param = GetParam();
  Rng rng(param.seed);
  RTreeOptions options;
  options.dims = param.dims;
  options.max_entries = param.max_entries;
  RTree tree(std::move(options));

  std::map<uint64_t, std::vector<double>> live;
  uint64_t next_id = 0;

  auto random_point = [&]() {
    std::vector<double> point(param.dims);
    if (param.clustered) {
      // Points concentrate around a few cluster centers (stress overlap
      // handling and forced reinsertion).
      const double center = 10.0 * static_cast<double>(rng.UniformUint64(5));
      for (double& value : point) value = center + rng.Gaussian();
    } else {
      for (double& value : point) value = rng.UniformDouble(0, 100);
    }
    return point;
  };

  for (int phase = 0; phase < 4; ++phase) {
    // Insert burst.
    for (int i = 0; i < 150; ++i) {
      auto point = random_point();
      tree.Insert(point, next_id);
      live[next_id] = point;
      ++next_id;
    }
    ASSERT_TRUE(tree.Validate().ok())
        << "after insert burst " << phase << ": "
        << tree.Validate().ToString();

    // Delete burst (~40%).
    std::vector<uint64_t> ids;
    for (const auto& [id, point] : live) ids.push_back(id);
    rng.Shuffle(&ids);
    const size_t deletions = ids.size() * 2 / 5;
    for (size_t i = 0; i < deletions; ++i) {
      ASSERT_TRUE(tree.Delete(live[ids[i]], ids[i]));
      live.erase(ids[i]);
    }
    ASSERT_TRUE(tree.Validate().ok())
        << "after delete burst " << phase << ": "
        << tree.Validate().ToString();
    ASSERT_EQ(tree.size(), live.size());

    // Spot-check queries against the oracle.
    for (int check = 0; check < 5; ++check) {
      std::vector<double> lo(param.dims), hi(param.dims);
      for (size_t d = 0; d < param.dims; ++d) {
        lo[d] = rng.UniformDouble(-5, 95);
        hi[d] = lo[d] + rng.UniformDouble(1, 30);
      }
      const Mbr box = Mbr::FromBounds(lo, hi);
      std::set<uint64_t> expected;
      for (const auto& [id, point] : live) {
        if (box.ContainsPoint(point)) expected.insert(id);
      }
      EXPECT_EQ(TreeQuery(tree, box), expected)
          << "phase " << phase << " check " << check;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RTreeFuzzTest,
    ::testing::Values(FuzzParam{1, 4, 2, false}, FuzzParam{2, 4, 2, true},
                      FuzzParam{3, 8, 3, false}, FuzzParam{4, 8, 3, true},
                      FuzzParam{5, 5, 5, false}, FuzzParam{6, 16, 2, true},
                      FuzzParam{7, 6, 7, false}));

TEST(RTreeFuzzTest, PayloadIntegrityUnderChurn) {
  // Every record's payload bit must stay reachable through the root merge
  // while the record lives, regardless of splits/reinsertion/deletion.
  Rng rng(99);
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 4;
  options.payload_size = 8;
  RTree tree(std::move(options));

  std::map<uint64_t, std::vector<double>> live;
  for (uint64_t id = 0; id < 120; ++id) {
    std::vector<double> point = {rng.UniformDouble(0, 50),
                                 rng.UniformDouble(0, 50)};
    std::vector<uint8_t> payload(8, 0);
    payload[id % 8] = static_cast<uint8_t>(1u << (id % 8));
    tree.Insert(point, id, payload);
    live[id] = point;
    if (id % 3 == 2) {
      // Delete a random live record.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformUint64(live.size())));
      ASSERT_TRUE(tree.Delete(it->second, it->first));
      live.erase(it);
    }
    ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  }
  EXPECT_EQ(tree.size(), live.size());
}

TEST(RTreeFuzzTest, DegenerateAllSamePoint) {
  RTreeOptions options;
  options.dims = 3;
  options.max_entries = 4;
  RTree tree(std::move(options));
  for (uint64_t id = 0; id < 60; ++id) {
    tree.Insert({1.0, 2.0, 3.0}, id);
  }
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_EQ(TreeQuery(tree, Mbr::FromPoint({1.0, 2.0, 3.0})).size(), 60u);
  for (uint64_t id = 0; id < 60; ++id) {
    ASSERT_TRUE(tree.Delete({1.0, 2.0, 3.0}, id));
  }
  EXPECT_EQ(tree.size(), 0u);
}

TEST(RTreeFuzzTest, CollinearPointsOneDimension) {
  // All points on a line: every split axis choice degenerates.
  RTreeOptions options;
  options.dims = 2;
  options.max_entries = 5;
  RTree tree(std::move(options));
  for (uint64_t id = 0; id < 100; ++id) {
    tree.Insert({static_cast<double>(id), 7.0}, id);
  }
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(
      TreeQuery(tree, Mbr::FromBounds({10.0, 0.0}, {19.5, 10.0})).size(),
      10u);
}

}  // namespace
}  // namespace imgrn
