"""SIoU and its partials against an exact rational oracle near the regime edges.

In the intersecting regime SIoU = V / (V_a + V_b - V) with every volume a
multiple of pi, so pi cancels and SIoU is a rational function of (r_a, r_b, d).
The oracle evaluates the textbook lens formula

    V / pi = (r_a + r_b - d)^2 (d^2 + 2 d (r_a + r_b) - 3 (r_a - r_b)^2) / (12 d)

in ``fractions.Fraction`` on the exact values of the float inputs, and takes
the partials as central differences with step 1e-60, whose truncation error
is far below double precision.  Pairs sit near external tangency
(d = (r_a + r_b)(1 - gap)) and near containment (d = |r_a - r_b| + 2 gap
min(r_a, r_b), a share of the intersecting range), one gap bin at a time.

The geometry computes each gap of the lens (r_a + r_b - d near tangency,
|r_a - r_b| - d near containment) with an error-free sum, so no rounding of
r_a + r_b is magnified by 1 / gap; with u = 2^-53, the errors measured on
these pairs stay below 10 u for SIoU and 13 u for its partials in every bin.
The bounds are 20 u, except 200 u for the partials near containment.  The
regime tests (disjoint iff d >= r_a + r_b, contained iff d + min(r) <= max(r))
are exact as well: pairs within a few ulps of either tangency get the regime
an exact comparison gives.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from spheredet.geometry import Regime, _angle_score, _classify, _siou
from spheredet.losses import _SIOU_PP_DISJOINT, SphereLossKind, _makeup, _siou_partials

STEP = Fraction(1, 10**60)
PAIRS_PER_BIN = 400
U = 2.0**-53

# (edge, gap_lo, gap_hi, siou bound, partials bound)
BINS = [
    *(("tangent", lo, hi, 20.0 * U, 20.0 * U) for lo, hi in
      [(1e-12, 1e-9), (1e-9, 1e-6), (1e-6, 1e-3), (1e-3, 1.0)]),
    *(("contained", lo, hi, 20.0 * U, 200.0 * U) for lo, hi in
      [(1e-12, 1e-9), (1e-9, 1e-6), (1e-6, 1e-3), (1e-3, 0.3)]),
]


def exact_siou(r_a, r_b, d):
    lens = (r_a + r_b - d) ** 2 * (d * d + 2 * d * (r_a + r_b) - 3 * (r_a - r_b) ** 2) / (12 * d)
    return lens / (Fraction(4, 3) * (r_a**3 + r_b**3) - lens)


def exact_partials(r_a, r_b, d):
    """(dSIoU/dd, dSIoU/dr_a) by exact central differences."""
    return (
        (exact_siou(r_a, r_b, d + STEP) - exact_siou(r_a, r_b, d - STEP)) / (2 * STEP),
        (exact_siou(r_a + STEP, r_b, d) - exact_siou(r_a - STEP, r_b, d)) / (2 * STEP),
    )


def edge_pairs(seed, edge, gap_lo, gap_hi):
    """Float (r_a, r_b, d) triples whose exact values lie in the intersecting regime."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < PAIRS_PER_BIN:
        r_a, r_b = (float(r) for r in rng.uniform(0.2, 5.0, 2))
        gap = 10.0 ** rng.uniform(math.log10(gap_lo), math.log10(gap_hi))
        if edge == "tangent":
            d = (r_a + r_b) * (1.0 - gap)
        else:
            d = abs(r_a - r_b) + gap * 2.0 * min(r_a, r_b)
        if abs(Fraction(r_a) - Fraction(r_b)) < Fraction(d) < Fraction(r_a) + Fraction(r_b):
            pairs.append((r_a, r_b, d))
    return pairs


def test_oracle_matches_closed_form_values():
    # unit spheres one radius apart: SIoU = 5/27 (see test_geometry)
    assert exact_siou(Fraction(1), Fraction(1), Fraction(1)) == Fraction(5, 27)
    # dSIoU/dd at r_a = r_b = d = 1, from the closed form
    # SIoU(d) = (2 - d)^2 (d + 4) / (32 - (2 - d)^2 (d + 4))
    dd, _ = exact_partials(Fraction(1), Fraction(1), Fraction(1))
    assert abs(dd - Fraction(-288, 729)) < Fraction(1, 10**100)


@pytest.mark.parametrize("index", range(len(BINS)), ids=lambda i: "{}-{:g}".format(*BINS[i][:2]))
def test_siou_and_partials_track_the_exact_oracle(index):
    edge, gap_lo, gap_hi, siou_bound, partials_bound = BINS[index]
    worst_siou = worst_partials = 0.0
    for r_a, r_b, d in edge_pairs(index, edge, gap_lo, gap_hi):
        x_a, x_b, x_d = Fraction(r_a), Fraction(r_b), Fraction(d)
        exact = exact_siou(x_a, x_b, x_d)
        worst_siou = max(worst_siou, float(abs(Fraction(_siou(r_a, r_b, d)) - exact) / exact))
        exact_dd, exact_dra = exact_partials(x_a, x_b, x_d)
        dd, dra = _siou_partials(r_a, r_b, d)
        error = max(abs(Fraction(dd) - exact_dd), abs(Fraction(dra) - exact_dra))
        worst_partials = max(worst_partials, float(error / max(abs(exact_dd), abs(exact_dra))))
    assert worst_siou <= siou_bound
    assert worst_partials <= partials_bound


def test_regime_at_external_tangency_matches_exact_comparison():
    # d within 3 ulps below (and above) the rounded r_a + r_b: the exact sum
    # decides whether the pair is disjoint, not its rounding; siou_pp's
    # disjoint branch and the angle score's zero follow the same test.
    rng = np.random.default_rng(2024)
    flipped = 0
    for r_a, r_b in rng.uniform(0.2, 5.0, size=(4000, 2)).tolist():
        d = r_a + r_b
        for _ in range(3):
            d = float(np.nextafter(d, 0.0))
        for _ in range(7):
            disjoint = Fraction(d) >= Fraction(r_a) + Fraction(r_b)
            expected = Regime.DISJOINT if disjoint else Regime.INTERSECTING
            assert _classify(r_a, r_b, d) is expected, (r_a, r_b, d)
            makeup = _makeup(SphereLossKind.SIOU_PP, r_a, r_b, d)
            assert (makeup is _SIOU_PP_DISJOINT) == disjoint, (r_a, r_b, d)
            apart = Fraction(d) > Fraction(r_a) + Fraction(r_b)
            assert (_angle_score(r_a, r_b, d) == 0.0) == apart, (r_a, r_b, d)
            flipped += disjoint != (d >= r_a + r_b)
            d = float(np.nextafter(d, math.inf))
    assert flipped > 0  # the rounded sum would get some of these wrong


def test_regime_at_internal_tangency_matches_exact_comparison():
    # d within 3 ulps of the rounded |r_a - r_b|: the exact d + min(r) <= max(r)
    # decides whether the smaller sphere is contained, not its rounding.
    rng = np.random.default_rng(2025)
    flipped = 0
    for r_a, r_b in rng.uniform(0.2, 5.0, size=(3000, 2)).tolist():
        small, large = min(r_a, r_b), max(r_a, r_b)
        d = large - small
        for _ in range(3):
            d = float(np.nextafter(d, 0.0))
        for _ in range(7):
            contained = Fraction(d) + Fraction(small) <= Fraction(large)
            expected = Regime.CONTAINED if contained else Regime.INTERSECTING
            assert _classify(r_a, r_b, d) is expected, (r_a, r_b, d)
            flipped += contained != (d + small <= large)
            d = float(np.nextafter(d, math.inf))
    assert flipped > 0  # the rounded sum would get some of these wrong
