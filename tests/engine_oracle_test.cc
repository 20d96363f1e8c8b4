// Engine + oracle integration: memoized equivalence tests across repeated
// decisions, and a ViewCache answering through a shared oracle.

#include <gtest/gtest.h>

#include "containment/oracle.h"
#include "pattern/xpath_parser.h"
#include "plan_util.h"
#include "rewrite/engine.h"
#include "views/view_cache.h"
#include "xml/xml_parser.h"

namespace xpv {
namespace {

TEST(EngineOracleTest, RepeatedDecisionsHitTheOracle) {
  ContainmentOracle oracle;
  RewriteOptions options;
  options.oracle = &oracle;
  Pattern p = MustParseXPath("a//*/b");
  Pattern v = MustParseXPath("a/*");

  RewriteResult first = DecideRewrite(p, v, options);
  ASSERT_EQ(first.status, RewriteStatus::kFound);
  uint64_t misses_after_first = oracle.misses();
  EXPECT_GT(misses_after_first, 0u);

  RewriteResult second = DecideRewrite(p, v, options);
  ASSERT_EQ(second.status, RewriteStatus::kFound);
  EXPECT_EQ(oracle.misses(), misses_after_first);  // All cached.
  EXPECT_GT(oracle.hits(), 0u);
}

TEST(EngineOracleTest, OracleDoesNotChangeAnswers) {
  ContainmentOracle oracle;
  RewriteOptions with;
  with.oracle = &oracle;
  const char* instances[][2] = {
      {"a/b/c", "a/b"},     {"a//*/b", "a/*"},     {"a/b", "a/b[x]"},
      {"a//b//d", "a//b[x]"}, {"a/*/c", "a/b"},
  };
  for (auto& inst : instances) {
    Pattern p = MustParseXPath(inst[0]);
    Pattern v = MustParseXPath(inst[1]);
    RewriteResult plain = DecideRewrite(p, v);
    RewriteResult memoized = DecideRewrite(p, v, with);
    EXPECT_EQ(plain.status, memoized.status) << inst[0] << " " << inst[1];
  }
}

TEST(EngineOracleTest, ViewCacheAmortizesAcrossQueries) {
  auto doc = ParseXml("<a><b><c/></b><b><c/><d/></b></a>");
  ASSERT_TRUE(doc.ok());
  ViewCache cache(doc.value());
  cache.AddView({"b-view", MustParseXPath("a/b")});
  SynchronizedOracle oracle;
  CacheStats stats;
  Pattern q = MustParseXPath("a/b/c");
  // Each call drives the oracle; only the counters are asserted.
  testutil::AnswerOne(cache, q, &oracle, &stats);
  uint64_t misses_after_first = oracle.misses();
  testutil::AnswerOne(cache, q, &oracle, &stats);
  testutil::AnswerOne(cache, q, &oracle, &stats);
  EXPECT_EQ(oracle.misses(), misses_after_first);
  EXPECT_GT(oracle.hits(), 0u);
  EXPECT_EQ(stats.hits, 3u);
}

}  // namespace
}  // namespace xpv
