// Systematic Found/NotExists matrix: for every completeness condition the
// engine implements, one instance where the certified candidate succeeds
// and one where it fails (certifying nonexistence). NotExists verdicts on
// small instances are cross-checked against bounded brute force.

#include <ostream>

#include <gtest/gtest.h>

#include "containment/containment.h"
#include "pattern/algebra.h"
#include "pattern/serializer.h"
#include "pattern/xpath_parser.h"
#include "rewrite/bruteforce.h"
#include "rewrite/engine.h"

namespace xpv {
namespace {

struct MatrixCase {
  const char* name;
  const char* query;
  const char* view;
  RewriteStatus expected;
};

// Without this gtest prints the raw bytes of the struct, pointers included,
// and ctest names each case after them, so the names moved with any change
// to the binary's layout. The expected verdict is stable and short.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  switch (c.expected) {
    case RewriteStatus::kFound:
      *os << "kFound";
      return;
    case RewriteStatus::kNotExists:
      *os << "kNotExists";
      return;
    case RewriteStatus::kUnknown:
      *os << "kUnknown";
      return;
  }
}

class EngineMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrixTest, DecisionMatchesAndIsSound) {
  const MatrixCase& c = GetParam();
  Pattern p = MustParseXPath(c.query);
  Pattern v = MustParseXPath(c.view);
  RewriteResult result = DecideRewrite(p, v);
  ASSERT_EQ(result.status, c.expected)
      << c.name << ": " << result.explanation;

  if (result.status == RewriteStatus::kFound) {
    // Independent soundness check.
    EXPECT_TRUE(Equivalent(Compose(result.rewriting, v), p))
        << c.name << " R=" << ToXPath(result.rewriting);
  } else if (result.status == RewriteStatus::kNotExists && p.size() <= 6) {
    // Cross-check small NotExists instances with enumeration.
    BruteForceOptions options;
    options.max_nodes = 4;
    options.budget = 600;
    BruteForceOutcome outcome = BruteForceRewrite(p, v, options);
    EXPECT_FALSE(outcome.found.has_value())
        << c.name << ": brute force found " << ToXPath(*outcome.found);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, EngineMatrixTest,
    ::testing::Values(
        // Prop 3.1 necessary conditions.
        MatrixCase{"depth_exceeded", "a/b", "a/b/c",
                   RewriteStatus::kNotExists},
        MatrixCase{"sigma_mismatch", "a/b/c", "a/x",
                   RewriteStatus::kNotExists},
        MatrixCase{"star_vs_sigma", "a/*/c/d", "a/b/c",
                   RewriteStatus::kNotExists},
        MatrixCase{"root_mismatch", "a/b", "x/b",
                   RewriteStatus::kNotExists},
        MatrixCase{"out_label_incompatible", "a/*/c", "a/b",
                   RewriteStatus::kNotExists},
        // k = d.
        MatrixCase{"equal_depth_found", "a/b[c]", "a/b",
                   RewriteStatus::kFound},
        MatrixCase{"equal_depth_not", "a/b", "a/b[x]",
                   RewriteStatus::kNotExists},
        // k = 0 (Prop 3.5).
        MatrixCase{"root_view_found", "a[b]/c", "a[b]",
                   RewriteStatus::kFound},
        MatrixCase{"root_view_not", "a/c", "a[x]",
                   RewriteStatus::kNotExists},
        // Thm 4.3 (stable P>=k).
        MatrixCase{"stable_found", "a//b[c]/d", "a//b",
                   RewriteStatus::kFound},
        MatrixCase{"stable_not", "a//b//d", "a//b[x]",
                   RewriteStatus::kNotExists},
        // Thm 4.4 (child-only query prefix).
        MatrixCase{"query_prefix_found", "a/b//c", "a/b",
                   RewriteStatus::kFound},
        MatrixCase{"query_prefix_not", "a/b//c", "a/b[x]",
                   RewriteStatus::kNotExists},
        // Thm 4.9 (descendant into out(V)).
        MatrixCase{"desc_out_found", "a//b/c", "a//b",
                   RewriteStatus::kFound},
        MatrixCase{"desc_out_not", "a//*/c//c", "a//*[z]",
                   RewriteStatus::kNotExists},
        // Thm 4.10 (child-only view path; relaxed candidate).
        MatrixCase{"view_path_found_relaxed", "a//*/b", "a/*",
                   RewriteStatus::kFound},
        MatrixCase{"view_path_not", "a//*/b", "a/*[z]",
                   RewriteStatus::kNotExists},
        // Thm 4.16 (corresponding last descendant).
        MatrixCase{"correspond_found", "a//*/*/c", "a//*/*",
                   RewriteStatus::kFound},
        MatrixCase{"correspond_not", "a//*/*/c", "a//*[z]/*",
                   RewriteStatus::kNotExists},
        // Cor 5.2 (stable reduction).
        MatrixCase{"stable_reduce_found", "a//b/*//*[x]/x", "a//b/*",
                   RewriteStatus::kFound},
        MatrixCase{"stable_reduce_not", "a//b/*//*[x]/x", "a//b/*[zz]",
                   RewriteStatus::kNotExists},
        // Cor 5.7 (suffix reduction). Both views below are structurally
        // unable to reproduce P's depth-1 [b] branch, and the suffix
        // machinery certifies it; the Found side uses the true prefix.
        MatrixCase{"suffix_prefix_found", "a//*[b]/*/*/b", "a//*[b]/*/*",
                   RewriteStatus::kFound},
        MatrixCase{"suffix_not_plain", "a//*[b]/*/*/b", "a/*//*/*",
                   RewriteStatus::kNotExists},
        MatrixCase{"suffix_not_branch", "a//*[b]/*/*/b", "a/*//*[q]/*",
                   RewriteStatus::kNotExists},
        // Thm 5.4 (GNF/*).
        MatrixCase{"gnf_found", "a//*//*//*", "a//*/*",
                   RewriteStatus::kFound},
        MatrixCase{"gnf_not", "a//*//*//*", "a//*[q]/*",
                   RewriteStatus::kNotExists},
        // Section 5.3 (extension + lifting).
        MatrixCase{"lift_not", "a//*/*/c//*[x]/x", "a//*[zz]/*",
                   RewriteStatus::kNotExists},
        // Open zone.
        MatrixCase{"unknown", "a//*[b//x]/*//*[b//x]/*",
                   "a//*[b//x]/*[w]", RewriteStatus::kUnknown}),
    [](const ::testing::TestParamInfo<MatrixCase>& tpi) {
      return tpi.param.name;
    });

}  // namespace
}  // namespace xpv
