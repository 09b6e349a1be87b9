// Host-speed probe of the perfbench benchmark.
//
// Usage: host_speed
//
// Times a fixed chain of dependent integer multiply-adds (no memory
// traffic, nothing to vectorize) and prints the seconds it took. The
// chain's length in cycles is fixed, so its time tracks the clock rate the
// host grants right now; run.py scales host timings by it so that a host
// running slower than usual does not read as a slower simulator.
#include <chrono>
#include <cstdint>
#include <cstdio>

int main() {
  using Clock = std::chrono::steady_clock;
  volatile std::uint64_t seed = 1;
  std::uint64_t x = seed;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < 100'000'000; ++i)
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  seed = x;
  std::printf("%.9f\n", s);
  return 0;
}
