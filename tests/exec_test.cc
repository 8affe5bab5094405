// Tests for the parallel execution building blocks: the work-stealing
// ThreadPool and ParallelFor in src/base, and the pool-parallel HomSearch
// queries (which must visit exactly the serial binding rows, in order).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "generators/workload.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitAll();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineInWaitAll) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  int count = 0;  // no synchronization needed: everything runs inline
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.WaitAll();
  EXPECT_EQ(count, 50);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1);
      for (int j = 0; j < 4; ++j) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.WaitAll();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPoolTest, WaitAllIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.WaitAll();
    EXPECT_EQ(count.load(), 20 * (round + 1));
  }
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7u);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, 0, hits.size(), /*grain=*/10,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
              });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolAndEmptyRangeAreFine) {
  int calls = 0;
  ParallelFor(nullptr, 5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::size_t sum = 0;
  ParallelFor(nullptr, 0, 100, 8, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(calls, 1);  // inline: the whole range in one chunk
  EXPECT_EQ(sum, 4950u);
}

// Builds a mid-sized random instance and a connected CQ, then checks every
// pool-parallel HomSearch query against its serial counterpart.
class ParallelHomTest : public ::testing::Test {
 protected:
  void Build(std::uint64_t seed, int num_atoms) {
    Rng rng(seed);
    generators::RuleSetSpec spec;
    spec.num_predicates = 3;
    rules_ = generators::RandomBinaryRuleSet(&universe_, spec, &rng);
    instance_.emplace(
        generators::RandomInstance(&universe_, rules_, /*num_constants=*/12,
                                   num_atoms, &rng));
    query_ = generators::RandomBooleanCq(&universe_, rules_, /*num_atoms=*/3,
                                         /*num_vars=*/4, &rng);
  }

  Universe universe_;
  RuleSet rules_;
  std::optional<Instance> instance_;
  std::optional<Cq> query_;
};

// Every row ForEachRow visits, packed in visiting order.
std::vector<Term> SerialRows(const HomSearch& search) {
  std::vector<Term> rows;
  search.ForEachRow({}, [&](const Term* row) {
    rows.insert(rows.end(), row, row + search.num_slots());
    return true;
  });
  return rows;
}

TEST_F(ParallelHomTest, ParallelRowsMatchSerialOrder) {
  for (std::uint64_t seed : {7u, 21u, 33u}) {
    Build(seed, /*num_atoms=*/300);
    HomSearch search(query_->atoms(), &*instance_);
    const std::vector<Term> serial = SerialRows(search);
    ASSERT_FALSE(serial.empty()) << "seed " << seed;
    for (std::size_t workers : {1u, 3u, 7u}) {
      ThreadPool pool(workers);
      std::vector<Term> parallel;
      const std::size_t visited =
          search.ForEachRowParallel(&pool, {}, [&](const Term* row) {
            parallel.insert(parallel.end(), row, row + search.num_slots());
            return true;
          });
      EXPECT_EQ(visited * search.num_slots(), parallel.size());
      EXPECT_EQ(serial, parallel) << "seed " << seed << " workers " << workers;
    }
  }
}

TEST_F(ParallelHomTest, ExistsMatchesSerial) {
  for (std::uint64_t seed : {5u, 11u}) {
    Build(seed, /*num_atoms=*/250);
    HomSearch search(query_->atoms(), &*instance_);
    const std::size_t serial_count = search.FindAll().size();
    ThreadPool pool(4);
    EXPECT_EQ(search.ExistsParallel(&pool), serial_count > 0);
  }
}

TEST_F(ParallelHomTest, LimitsMatchOnEveryPath) {
  Build(/*seed=*/7, /*num_atoms=*/300);
  HomSearch search(query_->atoms(), &*instance_);
  const std::size_t width = search.num_slots();
  const std::vector<Term> serial = SerialRows(search);
  ASSERT_GE(serial.size(), 10 * width);
  // A visitor that stops after `limit` rows sees the serial prefix.
  ThreadPool pool(4);
  for (std::size_t limit : {1u, 10u}) {
    std::vector<Term> parallel;
    search.ForEachRowParallel(&pool, {}, [&](const Term* row) {
      parallel.insert(parallel.end(), row, row + width);
      return parallel.size() < limit * width;
    });
    const std::size_t k = limit * width;  // terms in the first `limit` rows
    EXPECT_EQ(parallel, std::vector<Term>(serial.begin(), serial.begin() + k));
    EXPECT_EQ(search.FindAll({}, limit).size(), limit);
  }
  // Limit 0 returns nothing, like every other path.
  EXPECT_TRUE(search.FindAll({}, 0).empty());
}

TEST(ForEachRowFirstInTest, PartitionReproducesForEachRow) {
  Universe u;
  Instance instance = MustParseInstance(
      &u, "E(a,b). E(b,c). E(c,d). E(d,a). E(a,c). E(b,d).");
  Cq q = MustParseCq(&u, "? :- E(x,y), E(y,z)");
  HomSearch search(q.atoms(), &instance);
  const std::vector<Term> serial = SerialRows(search);
  ASSERT_FALSE(serial.empty());
  // Any partition of [0, size) must reproduce the serial enumeration when
  // chunks are visited in index order.
  const std::uint32_t n = static_cast<std::uint32_t>(instance.size());
  for (std::uint32_t split = 0; split <= n; ++split) {
    std::vector<Term> chunked;
    const auto visit = [&](const Term* row) {
      chunked.insert(chunked.end(), row, row + search.num_slots());
      return true;
    };
    search.ForEachRowFirstIn(0, split, {}, visit);
    search.ForEachRowFirstIn(split, n, {}, visit);
    EXPECT_EQ(serial, chunked) << "split " << split;
  }
}

}  // namespace
}  // namespace bddfc
