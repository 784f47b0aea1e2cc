// Tests for the Tensor3 trial container.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "data/tensor3.hpp"

namespace scwc::data {
namespace {

Tensor3 numbered_tensor(std::size_t trials, std::size_t steps,
                        std::size_t sensors) {
  Tensor3 t(trials, steps, sensors);
  double v = 0.0;
  for (std::size_t i = 0; i < trials; ++i) {
    for (std::size_t s = 0; s < steps; ++s) {
      for (std::size_t f = 0; f < sensors; ++f) t(i, s, f) = v++;
    }
  }
  return t;
}

TEST(Tensor3, ShapeAndZeroInit) {
  Tensor3 t(3, 4, 5);
  EXPECT_EQ(t.trials(), 3u);
  EXPECT_EQ(t.steps(), 4u);
  EXPECT_EQ(t.sensors(), 5u);
  EXPECT_DOUBLE_EQ(t(2, 3, 4), 0.0);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(Tensor3().empty());
}

TEST(Tensor3, IndexingIsTrialMajorRowMajor) {
  const Tensor3 t = numbered_tensor(2, 3, 2);
  // Layout: trial 0 [ (0,1) (2,3) (4,5) ], trial 1 starts at 6.
  EXPECT_DOUBLE_EQ(t(0, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(t(0, 2, 0), 4.0);
  EXPECT_DOUBLE_EQ(t(1, 0, 0), 6.0);
  const auto raw = t.raw();
  EXPECT_EQ(raw[7], t(1, 0, 1));
}

TEST(Tensor3, TrialSpanIsContiguousView) {
  Tensor3 t = numbered_tensor(2, 2, 2);
  auto span = t.trial(1);
  ASSERT_EQ(span.size(), 4u);
  span[0] = -1.0;
  EXPECT_DOUBLE_EQ(t(1, 0, 0), -1.0);
}

TEST(Tensor3, TrialMatrixCopies) {
  const Tensor3 t = numbered_tensor(2, 3, 2);
  const linalg::Matrix m = t.trial_matrix(1);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 11.0);
  EXPECT_THROW((void)t.trial_matrix(2), Error);
}

TEST(Tensor3, FlattenMatchesPaperReshape) {
  // (trials, 540, 7) → (trials, 3780): trial i's view is row i of the
  // paper's reshape, time-major, with no copy.
  const Tensor3 t = numbered_tensor(2, 3, 2);
  const std::vector<std::span<const double>> rows = t.trial_views();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 6u);
  EXPECT_EQ(rows[0][3], t(0, 1, 1));
  EXPECT_EQ(rows[1][0], t(1, 0, 0));
  EXPECT_EQ(rows[1].data(), t.raw().data() + 6);
}

TEST(Tensor3, GatherSelectsTrials) {
  const Tensor3 t = numbered_tensor(5, 2, 2);
  const std::vector<std::size_t> idx{4, 0, 2};
  const Tensor3 g = t.gather(idx);
  EXPECT_EQ(g.trials(), 3u);
  EXPECT_EQ(g(0, 0, 0), t(4, 0, 0));
  EXPECT_EQ(g(1, 0, 0), t(0, 0, 0));
  EXPECT_EQ(g(2, 1, 1), t(2, 1, 1));
}

TEST(Tensor3, GatherRejectsOutOfRange) {
  const Tensor3 t(2, 2, 2);
  const std::vector<std::size_t> idx{3};
  EXPECT_THROW((void)t.gather(idx), Error);
}

TEST(Tensor3, GatherEmptyGivesEmptyTensor) {
  const Tensor3 t = numbered_tensor(3, 2, 2);
  const Tensor3 g = t.gather(std::vector<std::size_t>{});
  EXPECT_EQ(g.trials(), 0u);
  EXPECT_EQ(g.steps(), 2u);
}

}  // namespace
}  // namespace scwc::data
