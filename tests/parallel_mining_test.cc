#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/checkpoint.h"
#include "core/item_io.h"
#include "core/parallel_mining.h"
#include "gen/fanout_generator.h"
#include "gen/yule_generator.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cousins {
namespace {

std::vector<Tree> RandomForest(int count, uint64_t seed,
                               std::shared_ptr<LabelTable> labels) {
  Rng rng(seed);
  YulePhylogenyOptions gen;
  gen.min_nodes = 30;
  gen.max_nodes = 80;
  gen.alphabet_size = 60;
  std::vector<Tree> trees;
  for (int i = 0; i < count; ++i) {
    trees.push_back(GenerateYulePhylogeny(gen, rng, labels));
  }
  return trees;
}

class ParallelMining : public ::testing::TestWithParam<int32_t> {};

TEST_P(ParallelMining, MatchesSequentialExactly) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = RandomForest(40, 123, labels);
  MultiTreeMiningOptions opt;
  opt.min_support = 2;
  auto sequential = MineMultipleTrees(trees, opt);
  auto parallel = MineMultipleTreesParallel(trees, opt, GetParam());
  EXPECT_EQ(sequential, parallel) << "threads=" << GetParam();
}

TEST_P(ParallelMining, MatchesSequentialIgnoringDistance) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = RandomForest(30, 321, labels);
  MultiTreeMiningOptions opt;
  opt.min_support = 3;
  opt.ignore_distance = true;
  EXPECT_EQ(MineMultipleTrees(trees, opt),
            MineMultipleTreesParallel(trees, opt, GetParam()));
}

TEST_P(ParallelMining, EmptyForestAnyThreadCount) {
  EXPECT_TRUE(MineMultipleTreesParallel({}, {}, GetParam()).empty());
}

TEST_P(ParallelMining, SingleTreeForest) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = RandomForest(1, 7, labels);
  MultiTreeMiningOptions opt;
  opt.min_support = 1;
  EXPECT_EQ(MineMultipleTrees(trees, opt),
            MineMultipleTreesParallel(trees, opt, GetParam()));
}

TEST_P(ParallelMining, MoreThreadsThanTreesMatchesSequential) {
  // Fewer trees than any thread count in the matrix: idle shards must
  // not perturb the merged result.
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = RandomForest(GetParam() > 1 ? GetParam() - 1 : 1,
                                         77, labels);
  MultiTreeMiningOptions opt;
  opt.min_support = 1;
  EXPECT_EQ(MineMultipleTrees(trees, opt),
            MineMultipleTreesParallel(trees, opt, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelMining,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelMiningTest, DefaultThreadCountWorks) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = RandomForest(10, 9, labels);
  MultiTreeMiningOptions opt;
  EXPECT_EQ(MineMultipleTrees(trees, opt),
            MineMultipleTreesParallel(trees, opt, 0));
}

TEST(ParallelMiningTest, MoreThreadsThanTrees) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = RandomForest(3, 77, labels);
  MultiTreeMiningOptions opt;
  opt.min_support = 1;
  EXPECT_EQ(MineMultipleTrees(trees, opt),
            MineMultipleTreesParallel(trees, opt, 64));
}

TEST(ParallelMiningTest, EmptyForest) {
  EXPECT_TRUE(MineMultipleTreesParallel({}, {}, 4).empty());
}

TEST(MergeFromTest, AccumulatesAcrossMiners) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = RandomForest(12, 55, labels);
  MultiTreeMiningOptions opt;
  opt.min_support = 2;
  MultiTreeMiner whole(opt);
  for (const Tree& t : trees) whole.AddTree(t);
  MultiTreeMiner left(opt);
  MultiTreeMiner right(opt);
  for (size_t i = 0; i < trees.size(); ++i) {
    (i % 2 == 0 ? left : right).AddTree(trees[i]);
  }
  left.MergeFrom(right);
  EXPECT_EQ(left.tree_count(), whole.tree_count());
  EXPECT_EQ(left.FrequentPairs(), whole.FrequentPairs());
}

/// TreeBASE-shaped Yule trees over a TreeBASE-sized alphabet: most
/// pairs occur once, so the forest tally outgrows its presize and the
/// shard tables and merge targets grow mid-run (the 60-label forests
/// above never leave the presize).
std::vector<Tree> SparseForest(int count, uint64_t seed,
                               std::shared_ptr<LabelTable> labels) {
  Rng rng(seed);
  YulePhylogenyOptions gen;
  gen.min_nodes = 150;
  std::vector<Tree> trees;
  for (int i = 0; i < count; ++i) {
    trees.push_back(GenerateYulePhylogeny(gen, rng, labels));
  }
  return trees;
}

std::string RunCsv(const LabelTable& labels, const MultiTreeMiningRun& run,
                   MinerVariant variant) {
  return variant == MinerVariant::kWeighted
             ? WeightedPairsToCsv(labels, run.weighted)
             : FrequentPairsToCsv(labels, run.pairs);
}

class GrowingForest
    : public ::testing::TestWithParam<std::tuple<MinerVariant, int32_t>> {};

// Every threaded driver shape — one batch, checkpointed batches, and a
// run killed at a mid-run checkpoint then resumed — must render the
// sequential miner's CSV on a forest whose tables grow: the cousin
// variant on the pair tables, the weighted variant on the aux tables.
TEST_P(GrowingForest, EveryDriverMatchesSequential) {
  const auto [variant, threads] = GetParam();
  constexpr int kTrees = 500;
  constexpr int32_t kEvery = 250;
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> trees = SparseForest(kTrees, 2024, labels);
  MultiTreeMiningOptions options;
  options.variant = variant;
  options.min_support = 1;
  options.weighted.bucket_width = 0.25;

  MultiTreeMiner sequential(options);
  for (const Tree& tree : trees) sequential.AddTree(tree);
  ASSERT_GT(sequential.accumulator_stats().tally_grows, 0)
      << "the forest must grow its tables to cover the growing shape";
  MultiTreeMiningRun reference;
  sequential.ExtractResults(&reference);
  const std::string want = RunCsv(*labels, reference, variant);

  Result<MultiTreeMiningRun> whole = MineMultipleTreesCheckpointed(
      trees, options, MiningContext::Unlimited(), MiningCheckpointConfig{},
      threads);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(RunCsv(*labels, *whole, variant), want) << "no checkpoint";

  MiningCheckpointConfig config;
  config.path = ::testing::TempDir() + "cousins_growing_" +
                MinerVariantName(variant) + "_" + std::to_string(threads);
  config.every_trees = kEvery;
  std::remove(config.path.c_str());
  Result<MultiTreeMiningRun> batched = MineMultipleTreesCheckpointed(
      trees, options, MiningContext::Unlimited(), config, threads);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(RunCsv(*labels, *batched, variant), want) << "checkpointed";

  // The kill: the second checkpoint write fails, so the run dies with
  // the first batch boundary on disk.
  std::remove(config.path.c_str());
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.Arm("checkpoint.write", 2);
  Result<MultiTreeMiningRun> killed = MineMultipleTreesCheckpointed(
      trees, options, MiningContext::Unlimited(), config, threads);
  faults.DisarmAll();
  ASSERT_FALSE(killed.ok());
  Result<std::string> bytes = ReadFileToString(config.path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Result<MultiTreeMiner> on_disk =
      MultiTreeMiner::RestoreFromCheckpoint(*bytes, options, labels);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
  EXPECT_EQ(on_disk->tree_count(), kEvery);
  config.resume = true;
  Result<MultiTreeMiningRun> resumed = MineMultipleTreesCheckpointed(
      trees, options, MiningContext::Unlimited(), config, threads);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->trees_processed, kTrees);
  EXPECT_EQ(RunCsv(*labels, *resumed, variant), want) << "resumed";
  std::remove(config.path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    VariantsByThreads, GrowingForest,
    ::testing::Combine(::testing::Values(MinerVariant::kCousin,
                                         MinerVariant::kWeighted),
                       ::testing::Values(2, 3, 4, 8)),
    [](const ::testing::TestParamInfo<GrowingForest::ParamType>& info) {
      return MinerVariantName(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cousins
