// Tests for the OpuS allocator (Algorithm 1) pinned to the paper's running
// examples (Sec. IV-C) and the exact values derived in DESIGN.md.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/opus.h"
#include "core/utility.h"

namespace opus {
namespace {

CachingProblem Fig1Problem() {
  CachingProblem p;
  p.preferences = Matrix::FromRows({{0.4, 0.6, 0.0}, {0.0, 0.6, 0.4}});
  p.capacity = 2.0;
  return p;
}

TEST(OpusTest, Fig1SettlesOnSharing) {
  OpusDiagnostics diag;
  const auto p = Fig1Problem();
  const auto r = OpusAllocator().AllocateWithDiagnostics(p, &diag);
  ValidateResult(p, r);
  EXPECT_TRUE(r.shared);
  EXPECT_TRUE(diag.settled_on_sharing);
}

TEST(OpusTest, Fig1PfAllocation) {
  OpusDiagnostics diag;
  OpusAllocator().AllocateWithDiagnostics(Fig1Problem(), &diag);
  EXPECT_NEAR(diag.pf_allocation[0], 0.5, 1e-6);
  EXPECT_NEAR(diag.pf_allocation[1], 1.0, 1e-6);
  EXPECT_NEAR(diag.pf_allocation[2], 0.5, 1e-6);
}

TEST(OpusTest, Fig1TaxesMatchPaper) {
  // Paper: T_A = T_B = log(1 / 0.8) = log 1.25; net utility 0.64 each.
  OpusDiagnostics diag;
  OpusAllocator().AllocateWithDiagnostics(Fig1Problem(), &diag);
  EXPECT_NEAR(diag.taxes[0], std::log(1.25), 1e-5);
  EXPECT_NEAR(diag.taxes[1], std::log(1.25), 1e-5);
  EXPECT_NEAR(diag.net_utilities[0], 0.64, 1e-5);
  EXPECT_NEAR(diag.net_utilities[1], 0.64, 1e-5);
  // Isolation would have given 0.6 — sharing wins.
  EXPECT_NEAR(diag.isolated_utilities[0], 0.6, 1e-9);
  EXPECT_NEAR(diag.isolated_utilities[1], 0.6, 1e-9);
}

TEST(OpusTest, Fig1BreakEvenTaxes) {
  // T-bar_i = log(U_i(a*) / U-bar_i) = log(0.8 / 0.6).
  OpusDiagnostics diag;
  OpusAllocator().AllocateWithDiagnostics(Fig1Problem(), &diag);
  EXPECT_NEAR(diag.break_even_taxes[0], std::log(0.8 / 0.6), 1e-5);
  // Charged taxes stay below break-even, hence sharing.
  EXPECT_LT(diag.taxes[0], diag.break_even_taxes[0]);
}

TEST(OpusTest, Fig1AccessMatchesNetUtility) {
  const auto p = Fig1Problem();
  OpusDiagnostics diag;
  const auto r = OpusAllocator().AllocateWithDiagnostics(p, &diag);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(EvaluateUtility(r, p.preferences, i), diag.net_utilities[i],
                1e-6);
  }
}

TEST(OpusTest, Fig2CheatingLowersNetUtility) {
  // Running example of Sec. IV-C: B misreports (F3 over F2). The exact PF
  // optimum gives the cheater net true-preference utility ~0.612 (paper
  // rounds to 0.6), strictly below the truthful 0.64.
  const auto truthful = Fig1Problem();
  const OpusAllocator alloc;
  const auto honest = alloc.Allocate(truthful);
  const auto lied =
      alloc.Allocate(truthful.WithMisreport(1, {0.0, 0.4, 0.6}));
  const double honest_b = EvaluateUtility(honest, truthful.preferences, 1);
  const double lied_b = EvaluateUtility(lied, truthful.preferences, 1);
  EXPECT_NEAR(honest_b, 0.64, 1e-5);
  // Exact value: exp(-T_B) * U_B = 0.63333 * (0.6 + 0.4 * 11/12) = 0.61222.
  EXPECT_NEAR(lied_b, 0.61222, 1e-4);
  EXPECT_LT(lied_b, honest_b);
}

TEST(OpusTest, Fig2LieIsNotProfitableAndHarmful) {
  // Definition 2 forbids *profitable* lies that harm others. B's Fig. 2 lie
  // does lower A's utility, but it also lowers B's own — the lie is
  // self-defeating, which is exactly what removes the incentive.
  const auto truthful = Fig1Problem();
  const OpusAllocator alloc;
  const auto honest = alloc.Allocate(truthful);
  const auto lied =
      alloc.Allocate(truthful.WithMisreport(1, {0.0, 0.4, 0.6}));
  const double gain = EvaluateUtility(lied, truthful.preferences, 1) -
                      EvaluateUtility(honest, truthful.preferences, 1);
  const double victim_loss = EvaluateUtility(honest, truthful.preferences, 0) -
                             EvaluateUtility(lied, truthful.preferences, 0);
  EXPECT_FALSE(gain > 1e-6 && victim_loss > 1e-6);
  EXPECT_LT(gain, 0.0);  // the lie strictly hurts the liar here
}

TEST(OpusTest, BlockingProbabilityFromTax) {
  OpusDiagnostics diag;
  const auto r = OpusAllocator().AllocateWithDiagnostics(Fig1Problem(), &diag);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(r.blocking[i], 1.0 - std::exp(-diag.taxes[i]), 1e-9);
  }
}

TEST(OpusTest, SingleUserMonopolizesWithoutTax) {
  CachingProblem p;
  p.preferences = Matrix::FromRows({{0.5, 0.3, 0.2}});
  p.capacity = 2.0;
  OpusDiagnostics diag;
  const auto r = OpusAllocator().AllocateWithDiagnostics(p, &diag);
  EXPECT_TRUE(r.shared);
  EXPECT_NEAR(diag.taxes[0], 0.0, 1e-9);
  EXPECT_NEAR(EvaluateUtility(r, p.preferences, 0), 0.8, 1e-6);
}

TEST(OpusTest, IdenticalUsersShareFreely) {
  // Users with identical preferences cause each other no externality under
  // PF (the allocation is unchanged by removing one), so taxes vanish and
  // sharing always wins.
  CachingProblem p;
  p.preferences = Matrix::FromRows({{0.7, 0.3}, {0.7, 0.3}, {0.7, 0.3}});
  p.capacity = 1.0;
  OpusDiagnostics diag;
  const auto r = OpusAllocator().AllocateWithDiagnostics(p, &diag);
  EXPECT_TRUE(r.shared);
  for (double t : diag.taxes) EXPECT_NEAR(t, 0.0, 1e-6);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(EvaluateUtility(r, p.preferences, i), 0.7, 1e-6);
  }
}

TEST(OpusTest, FallsBackToIsolationWhenTaxExceedsBreakEven) {
  // Strongly conflicting demands with tight capacity: heavy externalities
  // push taxes past break-even and OpuS must reduce to isolation, keeping
  // the isolation guarantee.
  CachingProblem p;
  p.preferences = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  p.capacity = 1.0;
  OpusDiagnostics diag;
  const auto r = OpusAllocator().AllocateWithDiagnostics(p, &diag);
  // PF gives each file half; each user's tax is log(1/0.5) = log 2 and net
  // utility 0.25 < isolated 0.5 -> fallback.
  EXPECT_FALSE(diag.settled_on_sharing);
  EXPECT_FALSE(r.shared);
  EXPECT_NEAR(EvaluateUtility(r, p.preferences, 0), 0.5, 1e-9);
  EXPECT_NEAR(EvaluateUtility(r, p.preferences, 1), 0.5, 1e-9);
}

TEST(OpusTest, ZeroCapacityDegenerate) {
  CachingProblem p;
  p.preferences = Matrix::FromRows({{1.0}, {1.0}});
  p.capacity = 0.0;
  const auto r = OpusAllocator().Allocate(p);
  ValidateResult(p, r);
  EXPECT_NEAR(EvaluateUtility(r, p.preferences, 0), 0.0, 1e-12);
}

TEST(OpusTest, ZeroPreferenceUserHandled) {
  CachingProblem p;
  p.preferences = Matrix::FromRows({{0.0, 0.0}, {0.4, 0.6}});
  p.capacity = 1.0;
  OpusDiagnostics diag;
  const auto r = OpusAllocator().AllocateWithDiagnostics(p, &diag);
  ValidateResult(p, r);
  EXPECT_TRUE(r.shared);
  EXPECT_NEAR(diag.taxes[0], 0.0, 1e-9);
  // User 1 monopolizes: top file fully cached.
  EXPECT_NEAR(EvaluateUtility(r, p.preferences, 1), 0.6, 1e-6);
}

TEST(OpusTest, DiagnosticsConsistency) {
  OpusDiagnostics diag;
  OpusAllocator().AllocateWithDiagnostics(Fig1Problem(), &diag);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(diag.net_utilities[i],
                std::exp(-diag.taxes[i]) * diag.pf_utilities[i], 1e-9);
    EXPECT_GE(diag.taxes[i], 0.0);
  }
  EXPECT_GT(diag.solver_iterations, 0);
}

TEST(OpusTest, SparseBackedProblemMatchesDense) {
  // A CSR-built (lean, dense-free) problem must run through the full
  // mechanism and land on the same allocation, taxes, and net utilities as
  // its dense twin — for per-user and aggregated windows. The lean
  // result reports net utilities without ever materializing an N x M
  // access matrix.
  const CachingProblem dense = [] {
    CachingProblem p;
    p.preferences = Matrix::FromRows({{0.4, 0.6, 0.0, 0.0},
                                      {0.0, 0.6, 0.4, 0.0},
                                      {0.0, 0.0, 0.5, 0.5},
                                      {0.7, 0.0, 0.0, 0.3}});
    p.capacity = 2.0;
    return p;
  }();
  const CachingProblem sparse = CachingProblem::FromCsr(
      CsrMatrix::FromDense(dense.preferences), dense.capacity);
  ASSERT_FALSE(sparse.dense_backed());

  for (const std::size_t max_clusters : {std::size_t{0}, std::size_t{2}}) {
    OpusOptions options;
    options.aggregation.max_clusters = max_clusters;
    const OpusAllocator alloc(options);
    const AllocationResult d = alloc.Allocate(dense);
    const AllocationResult s = alloc.Allocate(sparse);
    SCOPED_TRACE(::testing::Message() << "max_clusters " << max_clusters);
    EXPECT_EQ(s.shared, d.shared);
    ASSERT_EQ(s.file_alloc.size(), d.file_alloc.size());
    for (std::size_t j = 0; j < d.file_alloc.size(); ++j) {
      EXPECT_NEAR(s.file_alloc[j], d.file_alloc[j], 1e-9) << "file " << j;
    }
    ASSERT_EQ(s.taxes.size(), d.taxes.size());
    ASSERT_EQ(s.reported_utilities.size(), d.reported_utilities.size());
    for (std::size_t i = 0; i < d.taxes.size(); ++i) {
      EXPECT_NEAR(s.taxes[i], d.taxes[i], 1e-9) << "user " << i;
      EXPECT_NEAR(s.reported_utilities[i], d.reported_utilities[i], 1e-9)
          << "user " << i;
    }
    // Lean output: the sparse-backed result never carries the access
    // matrix.
    EXPECT_EQ(s.access.rows(), 0u);
  }
}

}  // namespace
}  // namespace opus
