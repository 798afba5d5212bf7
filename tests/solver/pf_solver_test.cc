#include "solver/pf_solver.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solver/projection.h"

namespace opus {
namespace {

TEST(PfSolverTest, SingleUserCachesTopFiles) {
  // One user, capacity 2: any allocation with a . p maximal; the optimum
  // puts all capacity on the highest-preference files.
  const Matrix prefs = Matrix::FromRows({{0.5, 0.3, 0.2}});
  const auto sol = SolveProportionalFairness(prefs, 2.0);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 1.0, 1e-6);
  EXPECT_NEAR(sol.allocation[1], 1.0, 1e-6);
  EXPECT_NEAR(sol.allocation[2], 0.0, 1e-6);
  EXPECT_NEAR(sol.utilities[0], 0.8, 1e-6);
}

TEST(PfSolverTest, PaperFig1Allocation) {
  // Fig. 1: A = (0.4, 0.6, 0), B = (0, 0.6, 0.4), C = 2 -> a* = (1/2, 1, 1/2),
  // U_A = U_B = 0.8.
  const Matrix prefs = Matrix::FromRows({{0.4, 0.6, 0.0}, {0.0, 0.6, 0.4}});
  const auto sol = SolveProportionalFairness(prefs, 2.0);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 0.5, 1e-6);
  EXPECT_NEAR(sol.allocation[1], 1.0, 1e-6);
  EXPECT_NEAR(sol.allocation[2], 0.5, 1e-6);
  EXPECT_NEAR(sol.utilities[0], 0.8, 1e-6);
  EXPECT_NEAR(sol.utilities[1], 0.8, 1e-6);
}

TEST(PfSolverTest, PaperFig2MisreportAllocation) {
  // Fig. 2 scenario with user B misreporting (F3 over F2): the exact PF
  // optimum is a = (1/12, 1, 11/12) (DESIGN.md notes the paper rounds this
  // to (0, 1, 1)).
  const Matrix prefs = Matrix::FromRows({{0.4, 0.6, 0.0}, {0.0, 0.4, 0.6}});
  const auto sol = SolveProportionalFairness(prefs, 2.0);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 1.0 / 12.0, 1e-5);
  EXPECT_NEAR(sol.allocation[1], 1.0, 1e-5);
  EXPECT_NEAR(sol.allocation[2], 11.0 / 12.0, 1e-5);
}

TEST(PfSolverTest, CapacityCoversEverything) {
  const Matrix prefs = Matrix::FromRows({{0.7, 0.3}, {0.2, 0.8}});
  const auto sol = SolveProportionalFairness(prefs, 5.0);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 1.0, 1e-12);
  EXPECT_NEAR(sol.allocation[1], 1.0, 1e-12);
  EXPECT_NEAR(sol.utilities[0], 1.0, 1e-12);
}

TEST(PfSolverTest, ZeroCapacity) {
  const Matrix prefs = Matrix::FromRows({{1.0}});
  const auto sol = SolveProportionalFairness(prefs, 0.0);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 0.0, 1e-12);
}

TEST(PfSolverTest, ZeroWeightUserIgnored) {
  // With user 0's weight zeroed, the solution should serve only user 1.
  const Matrix prefs = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  const std::vector<double> weights = {0.0, 1.0};
  const auto sol = SolveProportionalFairness(prefs, 1.0, {}, weights);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 0.0, 1e-6);
  EXPECT_NEAR(sol.allocation[1], 1.0, 1e-6);
}

TEST(PfSolverTest, ZeroPreferenceRowIgnored) {
  const Matrix prefs = Matrix::FromRows({{0.0, 0.0}, {0.3, 0.7}});
  const auto sol = SolveProportionalFairness(prefs, 1.0);
  ASSERT_TRUE(sol.converged);
  // All capacity goes to user 1's top file.
  EXPECT_NEAR(sol.allocation[1], 1.0, 1e-6);
  EXPECT_NEAR(sol.utilities[0], 0.0, 1e-12);
}

TEST(PfSolverTest, SymmetricUsersSplitEvenly) {
  // Two users with disjoint single-file demands and capacity 1: PF gives
  // each half (equal log gains).
  const Matrix prefs = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  const auto sol = SolveProportionalFairness(prefs, 1.0);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 0.5, 1e-6);
  EXPECT_NEAR(sol.allocation[1], 0.5, 1e-6);
}

TEST(PfSolverTest, WeightsTiltTheSplit) {
  // Weighted PF with weights (2, 1) on disjoint demands splits 2:1.
  const Matrix prefs = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  const std::vector<double> weights = {2.0, 1.0};
  const auto sol = SolveProportionalFairness(prefs, 1.0, {}, weights);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.allocation[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(sol.allocation[1], 1.0 / 3.0, 1e-6);
}

TEST(PfSolverTest, WarmStartConvergesToSameSolution) {
  const Matrix prefs =
      Matrix::FromRows({{0.5, 0.2, 0.3}, {0.1, 0.6, 0.3}, {0.3, 0.3, 0.4}});
  const auto cold = SolveProportionalFairness(prefs, 1.5);
  // Perverse warm start far from the optimum.
  const std::vector<double> warm = {1.0, 0.0, 0.0};
  const auto warm_sol = SolveProportionalFairness(prefs, 1.5, {}, {}, warm);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(warm_sol.converged);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(cold.allocation[j], warm_sol.allocation[j], 1e-5);
  }
}

TEST(PfSolverTest, ObjectiveMatchesUtilities) {
  const Matrix prefs = Matrix::FromRows({{0.4, 0.6, 0.0}, {0.0, 0.6, 0.4}});
  const auto sol = SolveProportionalFairness(prefs, 2.0);
  EXPECT_NEAR(sol.objective,
              std::log(sol.utilities[0]) + std::log(sol.utilities[1]), 1e-9);
}

// Property sweep: random instances must converge with a tiny KKT residual,
// a feasible allocation, and positive utility for every active user.
class PfSolverPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PfSolverPropertyTest, KktOptimalAndFeasible) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 1 + rng.NextBounded(8);
  const std::size_t m = 1 + rng.NextBounded(15);
  const double capacity = rng.NextUniform(0.1, static_cast<double>(m));

  Matrix prefs(n, m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double v = rng.NextBernoulli(0.7) ? rng.NextDouble() : 0.0;
      prefs(i, j) = v;
      total += v;
    }
    if (total > 0.0) {
      for (std::size_t j = 0; j < m; ++j) prefs(i, j) /= total;
    }
  }

  const auto sol = SolveProportionalFairness(prefs, capacity);
  ASSERT_TRUE(sol.converged) << "residual=" << sol.residual;
  EXPECT_TRUE(IsFeasibleCappedSimplex(sol.allocation, capacity, 1e-7));
  EXPECT_LT(PfOptimalityResidual(prefs, capacity, sol.allocation), 1e-6);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) row_sum += prefs(i, j);
    if (row_sum > 0.0) {
      EXPECT_GT(sol.utilities[i], 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PfSolverPropertyTest,
                         ::testing::Range(0, 30));

// Property: the PF objective at the solver's solution beats (or ties) the
// objective at random feasible points — a direct optimality spot-check.
class PfDominanceTest : public ::testing::TestWithParam<int> {};

TEST_P(PfDominanceTest, BeatsRandomFeasiblePoints) {
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + rng.NextBounded(4);
  const std::size_t m = 2 + rng.NextBounded(8);
  const double capacity = rng.NextUniform(0.5, static_cast<double>(m) * 0.8);

  Matrix prefs(n, m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      prefs(i, j) = rng.NextDouble();
      total += prefs(i, j);
    }
    for (std::size_t j = 0; j < m; ++j) prefs(i, j) /= total;
  }
  const auto sol = SolveProportionalFairness(prefs, capacity);
  ASSERT_TRUE(sol.converged);

  auto objective = [&](const std::vector<double>& a) {
    double obj = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double u = 0.0;
      for (std::size_t j = 0; j < m; ++j) u += prefs(i, j) * a[j];
      if (u <= 0.0) return -1e300;
      obj += std::log(u);
    }
    return obj;
  };

  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> cand(m);
    for (double& v : cand) v = rng.NextDouble();
    const auto feasible = ProjectCappedSimplex(cand, capacity);
    EXPECT_LE(objective(feasible), sol.objective + 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PfDominanceTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace opus
