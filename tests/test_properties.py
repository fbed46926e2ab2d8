"""Properties of the sudden-death root finder, over seeded inputs.

hypothesis draws the seeds; derandomize=True and database=None make every
run draw the same examples, so a failure reproduces.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from xkraus.entanglement import _root


def _sum_with_one_sign_change(seed: int) -> list[tuple[float, float]]:
    """(c, e) terms of sum c exp(-e tau), 2 to 9 of them, shaped like a
    shifted branch sum of _Expansion: the slowest term constant, the other
    exponents in (0, 4].  Its coefficients, in order of exponent, change
    sign once, so it has at most one real zero (Descartes' rule of signs
    for exponential sums); it is negative at 0 and tends to c_0 > 0."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    exponents = [0.0] + sorted(rng.uniform(0.01, 4.0) for _ in range(n - 1))
    split = rng.randint(1, n - 1)
    sizes = [math.exp(rng.uniform(-3.0, 3.0)) for _ in range(n)]
    scale = (1.0 + rng.uniform(0.01, 3.0)) * sum(sizes[:split]) / sum(sizes[split:])
    return list(zip(sizes[:split] + [-size * scale for size in sizes[split:]], exponents))


def _bisections(holds, lo: float, hi: float, tol: float) -> int:
    """Evaluations of bisection on [lo, hi], holds(hi) and not holds(lo),
    down to width tol or to adjacent floats."""
    count, mid = 0, 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        count += 1
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return count


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-6, 1e-10, 1e-14, 5e-324]),
    rising=st.booleans(),
)
def test_root_lands_on_a_sign_change_in_no_more_evaluations_than_bisection(seed, tol, rising):
    # the bracket is [0, H] for the first horizon H where the sum is
    # positive; the positive end is H if rising, else 0 with the sum negated.
    # Every tol leaves at least 2^24 tols in the bracket: where bisection
    # needs 15 steps or fewer (tol 1e-3 on [0, 20]), the interpolation can
    # take 1 to 3 more
    terms = _sum_with_one_sign_change(seed)
    sign = 1.0 if rising else -1.0

    def value(tau: float) -> float:
        return sign * sum(c * math.exp(-e * tau) for c, e in terms)

    def counted(tau: float) -> float:
        evaluations.append(tau)
        return value(tau)

    evaluations: list[float] = []
    horizon = next(h for h in (20.0, 60.0, 200.0, 2e4) if sign * value(h) > 0.0)
    good, bad = (horizon, 0.0) if rising else (0.0, horizon)
    tau = _root(counted, good, bad, value(good), value(bad), tol)
    assert 0.0 <= tau <= horizon
    # across a sign change from a point within tol, or from the next float
    side = value(tau) > 0.0
    near = (min(tau - tol, math.nextafter(tau, -math.inf)), max(tau + tol, math.nextafter(tau, math.inf)))
    assert any((value(min(max(x, 0.0), horizon)) > 0.0) != side for x in near)
    assert len(evaluations) <= _bisections(lambda x: (value(x) > 0.0) == rising, 0.0, horizon, tol)
