/**
 * @file
 * Unit test of the suite's state checker: a state agrees with itself,
 * and a single perturbed amplitude (beyond the tolerance, by one ulp
 * at tolerance 0, or NaN) is rejected by the tolerance check and
 * changes the bit-identity digest.
 */

#include <cmath>
#include <cstdio>
#include <limits>

#include "circuits/circuits.hh"
#include "suite.hh"

using namespace qgpu;
using namespace qgpu::benchsuite;

namespace
{

int failures = 0;

void
expect(bool condition, const char *what)
{
    if (!condition) {
        std::fprintf(stderr, "check_test: FAILED: %s\n", what);
        ++failures;
    }
}

} // namespace

int
main()
{
    const StateVector want =
        simulateReference(circuits::makeBenchmark("qft", 8));
    const Index at = 37;

    expect(statesAgree(want, want, 0.0), "a state agrees with itself");
    expect(stateDigest(want) == stateDigest(StateVector(want)),
           "equal states have equal digests");

    StateVector off = want;
    off[at] += Amp(1e-9, 0.0);
    expect(!statesAgree(off, want, 1e-10),
           "a 1e-9 perturbation fails the 1e-10 check");
    expect(statesAgree(off, want, 1e-8),
           "a 1e-9 perturbation passes a 1e-8 check");
    expect(stateDigest(off) != stateDigest(want),
           "a perturbation changes the digest");

    StateVector ulp = want;
    ulp[at] = Amp(std::nextafter(want[at].real(), 1.0), want[at].imag());
    expect(!statesAgree(ulp, want, 0.0),
           "a one-ulp change fails the bit-identity check");
    expect(stateDigest(ulp) != stateDigest(want),
           "a one-ulp change changes the digest");

    StateVector nan = want;
    nan[at] = Amp(std::numeric_limits<double>::quiet_NaN(), 0.0);
    expect(!statesAgree(nan, want, 1.0), "a NaN amplitude is rejected");

    expect(!statesAgree(StateVector(7), want, 1.0),
           "a state of the wrong size is rejected");

    if (failures == 0)
        std::printf("check_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
