#include "rules/clock.h"

#include <gtest/gtest.h>

namespace caldb {
namespace {

TEST(VirtualClockTest, StartsWhereTold) {
  VirtualClock clock(42);
  EXPECT_EQ(clock.NowDay(), 42);
}

TEST(VirtualClockTest, TimeNeverGoesBackwards) {
  VirtualClock clock(10);
  clock.AdvanceTo(5);
  EXPECT_EQ(clock.NowDay(), 10);
  clock.AdvanceTo(20);
  EXPECT_EQ(clock.NowDay(), 20);
}

TEST(VirtualClockTest, TickSkipsZero) {
  VirtualClock clock(-2);
  clock.Tick();
  EXPECT_EQ(clock.NowDay(), -1);
  clock.Tick();
  EXPECT_EQ(clock.NowDay(), 1);  // no day 0
  clock.Tick(3);
  EXPECT_EQ(clock.NowDay(), 4);
}

}  // namespace
}  // namespace caldb
