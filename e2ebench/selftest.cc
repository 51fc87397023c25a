/**
 * @file
 * Self-tests for the benchmark's own math (bench_math.hh). They run
 * before every measurement; a failure aborts the run without a
 * result, because every reported figure depends on this code.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.hh"
#include "selftest.hh"

namespace e2e
{

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "self-test FAILED: %s\n", what);
    }
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

void
testNearestRank()
{
    auto p = [](size_t n, double q) { return nearestRank(ramp(n), q); };
    check(p(1000, 0.5) == 500.0, "p50 of 1..1000 is 500");
    check(p(1000, 0.99) == 990.0, "p99 of 1..1000 is 990 (10 beyond)");
    check(!p(999, 0.99), "p99 of 999 samples has only 9 beyond");
    check(p(20, 0.5) == 10.0, "p50 of 1..20 is 10 (10 beyond)");
    check(!p(19, 0.5), "p50 of 19 samples has only 9 beyond");
    check(!p(5000, 1.0), "p100 has no samples beyond");
    check(!nearestRank(std::vector<double>{}, 0.5),
          "empty sample has no percentile");

    // Against the definition on uneven data: the returned sample has
    // at least ceil(q n) samples at or below it and fewer strictly
    // below it, and at least 10 strictly above its rank.
    std::vector<double> data;
    quac::Xoshiro256pp rng(3);
    for (int i = 0; i < 2345; ++i)
        data.push_back(std::floor(rng.uniform() * 300.0));
    std::sort(data.begin(), data.end());
    for (double q : {0.01, 0.5, 0.9, 0.99, 0.995}) {
        std::optional<double> v = nearestRank(data, q);
        size_t need = static_cast<size_t>(std::ceil(q * data.size()));
        size_t at_or_below = 0;
        size_t below = 0;
        for (double d : data) {
            at_or_below += d <= *v;
            below += d < *v;
        }
        check(v && at_or_below >= need && below < need,
              "nearest rank matches the definition");
    }
    check(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
    check(median({5.0, 1.0, 3.0}) == 3.0, "odd median");

    // Slice p50s: 1..20 -> 10, 101..120 -> 110, 1001..1020 -> 1010;
    // a 5-sample slice supports no p50 and is skipped.
    std::vector<std::vector<float>> slices(4);
    for (int i = 20; i >= 1; --i) {
        slices[0].push_back(static_cast<float>(i));
        slices[1].push_back(static_cast<float>(100 + i));
        slices[2].push_back(static_cast<float>(1000 + i));
    }
    slices[3] = {1e6f, 1e6f, 1e6f, 1e6f, 1e6f};
    check(medianOfSliceP50(slices) == 110.0,
          "median of slice p50s skips unsupported slices");
    check(!medianOfSliceP50(std::vector<std::vector<float>>(2)),
          "no supported slice, no p50");

    // 40 slices: the lowest twentieth is the 2 least-stolen ones.
    std::vector<double> steal = {0.05, 0.01, 0.2, 0.03, 0.02, 0.3, 0.04};
    for (int i = 0; i < 33; ++i)
        steal.push_back(0.06 + 0.01 * i);
    check(quietSlices(steal) == std::vector<size_t>({1, 4}),
          "the least-stolen twentieth, in slice order");
    steal[3] = 0.02;
    check(quietSlices(steal) == std::vector<size_t>({1, 3, 4}),
          "ties at the threshold are all kept");
    steal[0] = steal[2] = steal[5] = 0.0;
    check(quietSlices(steal) == std::vector<size_t>({0, 2, 5}),
          "with enough unstolen slices, exactly those");
    check(quietSlices(std::vector<double>(6, 0.0)).size() == 6,
          "flat steal keeps every slice");
    check(quietSlices({0.3}) == std::vector<size_t>({0}),
          "one slice is its own twentieth");
    check(quietSlices({}).empty(), "no slices, none picked");
    check(widenSteal({0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.1}) ==
              std::vector<double>({0.0, 0.2, 0.2, 0.2, 0.0, 0.1, 0.1}),
          "steal widens to both neighbours");
    check(widenSteal({}).empty() && widenSteal({0.3}) ==
                                        std::vector<double>({0.3}),
          "no neighbours, nothing to widen");
}

void
testOutcome()
{
    Outcome o;
    o.sent = 10;
    o.ok = 5;
    o.partial = 3;
    o.denied = 1;
    o.lost = 1;
    check(o.balanced(), "sent = ok + partial + denied + lost");
    check(o.failed() == 2, "failures are lost + denied");
    check(std::fabs(o.failFrac() - 0.2) < 1e-12,
          "fail_frac excludes partial serves");
    o.partial = 2;
    check(!o.balanced(), "a missing request unbalances the account");
    check(Outcome{}.failFrac() == 0.0, "nothing sent, nothing failed");
}

void
testZipf()
{
    ZipfSampler a(65'536, 1.1, 42);
    ZipfSampler b(65'536, 1.1, 42);
    ZipfSampler c(65'536, 1.1, 43);
    bool same = true;
    bool differs = false;
    uint64_t ones = 0;
    constexpr int kDraws = 200'000;
    for (int i = 0; i < kDraws; ++i) {
        uint64_t x = a.next();
        same &= x == b.next();
        differs |= x != c.next();
        ones += x == 1;
        if (x < 1 || x > 65'536)
            same = false;
    }
    check(same, "same seed, same Zipf ids, all in range");
    check(differs, "another seed draws other ids");
    double h = 0.0;
    for (int k = 1; k <= 65'536; ++k)
        h += 1.0 / std::pow(k, 1.1);
    check(std::fabs(a.mass(1) - 1.0 / h) < 1e-9, "rank-1 mass is 1/H");
    double freq = static_cast<double>(ones) / kDraws;
    check(std::fabs(freq - 1.0 / h) < 0.01,
          "rank-1 frequency matches its mass");
}

void
testDrain()
{
    // Four requests in flight when sending stops: responses that
    // arrive during the drain are answers, not losses.
    InFlightWindow window(4);
    for (uint64_t i = 1; i <= 4; ++i) {
        InFlightWindow::Slot s;
        s.clientId = i;
        s.nonce = 7;
        check(window.add(s), "window admits up to its depth");
    }
    InFlightWindow::Slot extra;
    check(!window.add(extra), "a full window admits nothing");
    check(window.complete(3, 7).has_value(), "response matches");
    check(!window.complete(3, 7).has_value(),
          "a duplicate response matches nothing");
    check(!window.complete(2, 8).has_value(),
          "a wrong nonce matches nothing");
    Outcome o;
    o.sent = 4;
    o.ok = 1;
    check(window.complete(1, 7) && window.complete(2, 7),
          "drain-time responses match");
    o.ok += 2;
    check(window.outstanding() == 1, "one still in flight");
    check(window.complete(4, 7).has_value(), "last answer arrives");
    o.ok += 1;
    o.lost += window.abandon();
    check(o.lost == 0 && o.balanced(),
          "fully drained window loses nothing");

    InFlightWindow late(2);
    InFlightWindow::Slot s;
    s.clientId = 9;
    s.nonce = 1;
    late.add(s);
    s.nonce = 2;
    late.add(s);
    check(late.complete(9, 1).has_value(), "first answered");
    check(late.abandon() == 1 && late.outstanding() == 0,
          "only the unanswered request is lost at the deadline");
}

} // anonymous namespace

int
runSelfTests()
{
    failures = 0;
    testNearestRank();
    testOutcome();
    testZipf();
    testDrain();
    return failures;
}

} // namespace e2e
