#ifndef QUAC_E2EBENCH_SELFTEST_HH
#define QUAC_E2EBENCH_SELFTEST_HH

namespace e2e
{

/** Run the benchmark-math self-tests; returns the failure count
 * (each failure is printed to stderr). */
int runSelfTests();

} // namespace e2e

#endif // QUAC_E2EBENCH_SELFTEST_HH
