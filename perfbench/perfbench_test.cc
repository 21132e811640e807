// Unit tests for the benchmark's own helpers: the percentile refusal rule,
// the byte compare that verifies round trips, and the seeded inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i);
  }
  return v;
}

TEST(PercentileTest, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  EXPECT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
  EXPECT_FALSE(Percentile(Ramp(19), 0.50).has_value());
  EXPECT_TRUE(Percentile(Ramp(20), 0.50).has_value());
  EXPECT_FALSE(Percentile({}, 0.50).has_value());
}

TEST(PercentileTest, InterpolatesWhateverTheSampleOrder) {
  std::vector<double> v = Ramp(1001);
  std::reverse(v.begin(), v.end());
  EXPECT_NEAR(*Percentile(v, 0.50), 500.0, 1e-9);
  EXPECT_NEAR(*Percentile(v, 0.99), 990.0, 1e-9);
}

TEST(MedianTest, MiddleValueOrMeanOfTheMiddlePair) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(VerifyTest, FlippedByteIsAMismatch) {
  std::vector<uint8_t> original(4096);
  for (size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<uint8_t>(i * 31);
  }
  std::vector<uint8_t> decoded = original;
  EXPECT_TRUE(SameBytes(original, decoded));
  decoded[1234] ^= 0x01;
  EXPECT_FALSE(SameBytes(original, decoded));
  decoded = original;
  decoded.pop_back();
  EXPECT_FALSE(SameBytes(original, decoded));
}

TEST(InputsTest, TheSeedAloneDeterminesThePayloads) {
  for (const WorkloadSpec& spec : Workloads()) {
    const Inputs a = MakeInputs(spec, 7);
    const Inputs b = MakeInputs(spec, 7);
    const Inputs c = MakeInputs(spec, 8);
    ASSERT_FALSE(a.payloads.empty()) << spec.name;
    EXPECT_EQ(a.payloads, b.payloads) << spec.name;
    EXPECT_NE(a.payloads, c.payloads) << spec.name;
    for (const std::vector<uint8_t>& p : a.payloads) {
      EXPECT_EQ(p.size(), spec.payload_bytes) << spec.name;
    }
  }
}

}  // namespace
}  // namespace perfbench
