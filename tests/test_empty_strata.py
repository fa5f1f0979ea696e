"""Strata the ball-polymer kernel skips: base B's stratum is provably empty
at the call's radii when some non-base f has
sum_{e in B} |S_B[f, e]| R_e <= R_f.  The skipped counts are pinned, every
skipped stratum is checked against the per-base oracle's draws, ties are
settled exactly, and a call with nothing to skip samples the view's own
table."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import ball_sides, empty_strata_by_fractions
from polygas import (MatroidView, braid, coxeter_b, coxeter_d, custom, dowling,
                     volume_mc)
from polygas.matroid import MatroidError, mask_elements
from polygas.polymer import live_base_table

RADII = {
    "unit": lambda size: (1.0,) * size,
    "ramp": lambda size: tuple(1.0 + 0.5 * e for e in range(size)),
    "alternating": lambda size: tuple(2.0 if e % 2 else 0.5 for e in range(size)),
}

# (arrangement, radii, skipped strata, bases)
SKIPPED = {
    "coxeterB3-unit": (coxeter_b(3), "unit", 15, 68),
    "coxeterB3-ramp": (coxeter_b(3), "ramp", 28, 68),
    "coxeterB3-alternating": (coxeter_b(3), "alternating", 36, 68),
    "braid4-ramp": (braid(4), "ramp", 7, 16),
    "coxeterB4-unit": (coxeter_b(4), "unit", 273, 1138),
    "braid3-unit": (braid(3), "unit", 0, 3),
    "braid4-unit": (braid(4), "unit", 0, 16),
    "braid5-unit": (braid(5), "unit", 0, 125),
    "braid6-unit": (braid(6), "unit", 0, 1296),
    "coxeterD3-unit": (coxeter_d(3), "unit", 0, 16),
    "dowling2_3-unit": (dowling(2, 3), "unit", 0, 3),
}


def skipped_rows(view, radii):
    table = view.base_table
    live = live_base_table(view, radii)
    return np.flatnonzero(~np.isin(table.masks, live.masks)), live


@pytest.mark.parametrize("arr, radii, skipped, bases", SKIPPED.values(),
                         ids=SKIPPED.keys())
def test_skipped_strata_counts(arr, radii, skipped, bases):
    view = MatroidView(arr)
    rows, live = skipped_rows(view, RADII[radii](arr.size))
    assert (rows.size, view.base_table.masks.size) == (skipped, bases)
    assert live.masks.size == bases - skipped
    if not skipped:
        # nothing to skip: the view's own table, not a copy
        assert live is view.base_table


@pytest.mark.parametrize("key", [key for key, case in SKIPPED.items() if case[2]])
def test_skipped_strata_accept_nothing(key):
    # the per-base oracle's draws, 2,000 per skipped base at dims 2 and 3
    arr, radii, _, _ = SKIPPED[key]
    radii = RADII[radii](arr.size)
    view = MatroidView(arr)
    rows, _ = skipped_rows(view, radii)
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        draw, outside = ball_sides(arr, dim, radii)
        for row in rows:
            base = int(view.base_table.masks[row])
            x = view.base_table.inv[row] @ draw(rng, 2000, list(mask_elements(base)))
            out = [e for e in range(arr.size) if not base >> e & 1]
            assert not outside(arr.coeff[out] @ x, out).any(), (key, dim, base)


def _random_radii(size, seed):
    # halves and quarters make exact ties common, the rest are generic
    rng = np.random.default_rng(seed)
    values = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 0.3, 1.1]
    return tuple(float(r) for r in rng.choice(values, size))


@pytest.mark.parametrize("arr", [braid(4), braid(5), coxeter_b(3), coxeter_d(3),
                                 custom([[3, 0], [0, 3], [1, 1], [1, -2]])],
                         ids=["braid4", "braid5", "coxeterB3", "coxeterD3",
                              "custom-thirds"])
def test_skipped_strata_match_fraction_oracle(arr):
    view = MatroidView(arr)
    cases = [f(arr.size) for f in RADII.values()]
    cases += [_random_radii(arr.size, seed) for seed in range(12)]
    for radii in cases:
        live = live_base_table(view, radii)
        skipped = set(view.base_table.masks.tolist()) - set(live.masks.tolist())
        assert skipped == empty_strata_by_fractions(view, radii), radii


def test_exact_tie_is_skipped_and_one_ulp_above_is_kept():
    # h2 = h0 / 3 + h1 / 3 on base {0, 1}, so that stratum is empty exactly
    # when (R0 + R1) / 3 <= R2
    arr = custom([[3, 0], [0, 3], [1, 1]])
    view = MatroidView(arr)
    table = view.base_table
    row = list(table.masks).index(0b011)

    def float_bound(radii):
        return float(np.abs(table.to_out[row, 0]) @ np.asarray(radii)[[0, 1]])

    # 0.9 + 0.6 = 1.5 exactly, but the float bound misses 0.5
    tie = (0.9, 0.6, 0.5)
    assert float_bound(tie) != 0.5
    assert 0b011 not in live_base_table(view, tie).masks
    # one ulp more R0: the bound exceeds R2 by 2^-53 / 3 exactly, so the
    # stratum accepts aligned draws, though its float bound is 0.5
    above = (math.nextafter(0.9, 1.0), 0.6, 0.5)
    assert float_bound(above) <= 0.5
    assert 0b011 in live_base_table(view, above).masks


def test_exact_maps_round_to_the_base_table():
    view = MatroidView(coxeter_b(3))
    rows = np.arange(view.base_table.masks.size)
    num, den = view.exact_to_out(rows)
    exact = np.array([[[Fraction(a, d) for a in row] for row, d in zip(nb, db)]
                      for nb, db in zip(num.tolist(), den.tolist())], dtype=float)
    assert np.array_equal(exact, view.base_table.to_out)
    with pytest.raises(MatroidError, match="rational"):
        MatroidView(dowling(2, 3)).exact_to_out(rows[:1])


def test_cyclotomic_near_ties_are_kept():
    # every |S_B| entry of dowling(2, 3) is 1: at radii (1, 1, 2) base {0, 1}
    # ties, which only the float test sees, so the stratum stays; 2.1 skips it
    view = MatroidView(dowling(2, 3))
    assert live_base_table(view, (1, 1, 2)) is view.base_table
    assert list(live_base_table(view, (1, 1, 2.1)).masks) == [0b101, 0b110]


def test_every_stratum_empty_gives_exact_zero():
    # h1 = 2 h0: with R1 = 2 R0 neither base's stratum can accept
    arr = custom([[1], [2]])
    est = volume_mc(arr, 2, 1000, 0, radii=(1, 2))
    assert (est.mean, est.stderr, est.n_samples) == (0.0, 0.0, 0)
    # with R1 = 2.5 base {1} accepts every draw and base {0} none
    est = volume_mc(arr, 2, 1000, 0, radii=(1, 2.5))
    assert (est.mean, est.stderr, est.n_samples) == (2 * math.pi, 0.0, 1000)


def test_skipping_keeps_worker_bit_identity():
    view = MatroidView(coxeter_b(3))
    radii = RADII["ramp"](9)
    a = volume_mc(view, 2, 3 * 2 ** 16, 62, workers=1, radii=radii)
    b = volume_mc(view, 2, 3 * 2 ** 16, 62, workers=2, radii=radii)
    assert (a.mean, a.stderr, a.n_samples) == (b.mean, b.stderr, b.n_samples)
    assert a.n_samples == 3 * 2 ** 16 // 40 * 40


def test_budget_still_counts_every_base():
    # 53 of coxeter_b(3)'s 68 strata are live at unit radii, but n_samples
    # must still cover all 68 bases
    with pytest.raises(ValueError, match="68 bases"):
        volume_mc(coxeter_b(3), 2, 60, 0)
