import json
import math

import numpy as np
import pytest

from polygas.arrangement import (ArrangementError, braid, coxeter_b, coxeter_d,
                                 dowling, from_descriptor, subset_labels,
                                 threshold, widom_rowlinson)
from polygas.exact_linalg import exact_rank


def test_braid_2():
    arr = braid(2)
    assert arr.ambient_dim == 1
    assert arr.normals == ((1,),)


def test_braid_3_normals():
    arr = braid(3)
    assert arr.ambient_dim == 2
    assert arr.normals == ((1, -1), (1, 0), (0, 1))
    assert arr.labels == ("x1-x2", "x1-x3", "x2-x3")


def test_braid_4_rank():
    arr = braid(4)
    assert arr.size == 6
    assert exact_rank(arr.normals) == 3


def test_braid_counts():
    for m in range(2, 7):
        arr = braid(m)
        assert arr.size == m * (m - 1) // 2
        assert arr.ambient_dim == m - 1


def test_braid_rejects_small():
    with pytest.raises(ArrangementError):
        braid(1)


def test_coxeter_d2_normals():
    arr = coxeter_d(2)
    assert arr.normals == ((1, -1), (1, 1))


def test_coxeter_b1():
    arr = coxeter_b(1)
    assert arr.normals == ((1,),)
    assert arr.ambient_dim == 1


def test_coxeter_b2():
    arr = coxeter_b(2)
    assert arr.size == 4
    assert set(arr.labels) == {"x1-x2", "x1+x2", "x1", "x2"}


def test_threshold_2_not_essential():
    with pytest.raises(ArrangementError, match="rank 1 < 2"):
        threshold(2)


def test_threshold_3():
    arr = threshold(3)
    assert arr.size == 3
    assert arr.ambient_dim == 3


def test_dowling_2_3_is_essential():
    # the three normals (1, -zeta^m) contain independent pairs: rank 2 exactly
    arr = dowling(2, 3)
    assert arr.size == 3
    assert not arr.complexified
    assert exact_rank(arr.normals) == 2


def test_dowling_k1_rejected():
    for n in (2, 3):
        with pytest.raises(ArrangementError, match=r"k >= 2, got k = 1 .* rank"):
            dowling(n, 1)
    with pytest.raises(ArrangementError, match="k >= 2"):
        dowling(3, 0)


def test_dowling_k2_is_pair_arrangement():
    assert dowling(2, 2).normals == coxeter_d(2).normals


def test_dowling_3_3():
    arr = dowling(3, 3)
    assert arr.size == 9
    assert arr.cyclotomic_order == 3


def test_widom_rowlinson():
    arr = widom_rowlinson([2, 2])
    assert arr.ambient_dim == 3
    assert arr.size == 4  # inter-colour pairs only
    with pytest.raises(ArrangementError):
        widom_rowlinson([3])


def test_radii_validation():
    with pytest.raises(ArrangementError):
        braid(3, radii=[1.0, -1.0, 1.0])
    arr = braid(3).with_radii([1.0, 2.0, 5.0])
    assert arr.radii == (1.0, 2.0, 5.0)


def value_of(arr, e, x):
    """h_e at one configuration x of shape (n, dim), from the batched
    `values`."""
    return arr.values(np.asarray(x)[None])[0, e]


def gamma_of(arr, x) -> int:
    """The within-radius mask of one configuration, from `gamma_masks`."""
    return int(arr.gamma_masks(np.asarray(x)[None])[0])


def test_evaluate_braid2():
    arr = braid(2)
    val = value_of(arr, 0, np.array([[0.3, 0.4]]))
    assert np.allclose(val, [0.3, 0.4])


def test_evaluate_coxeter_d2_sum():
    arr = coxeter_d(2)
    e = arr.labels.index("x1+x2")
    val = value_of(arr, e, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(val, [1.0, 1.0])


def test_evaluate_dowling_root_of_unity():
    arr = dowling(3, 3)
    e = arr.labels.index("x1-z^1*x2")
    val = value_of(arr, e, np.array([[1.0 + 0j], [1.0 + 0j], [0.0 + 0j]]))
    assert abs(val[0]) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_gamma_of_braid2():
    arr = braid(2)
    assert gamma_of(arr, np.array([[0.5]])) == 0b1
    assert gamma_of(arr, np.array([[2.0]])) == 0


def test_gamma_of_braid3():
    arr = braid(3)
    # x1 = 0.5, x2 = 3: only |x1| <= 1
    mask = gamma_of(arr, np.array([[0.5], [3.0]]))
    assert subset_labels(arr, mask) == ("x1-x3",)


def test_gamma_boundary_tie_is_inside():
    arr = braid(2)
    assert gamma_of(arr, np.array([[1.0]])) == 0b1


def test_gamma_consistent_with_evaluate():
    arr = coxeter_b(2)
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, (200, 2, 2))
    masks = arr.gamma_masks(x)
    for c in range(len(x)):
        for e in range(arr.size):
            # one functional applied to one configuration, without `values`
            val = sum(arr.coeff[e, i] * x[c, i] for i in range(arr.ambient_dim))
            inside = np.linalg.norm(val) <= arr.radii[e]
            assert bool(masks[c] >> e & 1) == inside


def test_complexified_embedding_consistency():
    # evaluating a real arrangement over R^2 embedded in C^1 gives equal norms
    arr = braid(3)
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, (2, 2))
    xc = (x[:, 0] + 1j * x[:, 1])[:, None]
    for e in range(arr.size):
        real_norm = np.linalg.norm(value_of(arr, e, x))
        cplx = value_of(arr, e, xc)
        assert abs(np.sqrt(np.sum(np.abs(cplx) ** 2)) - real_norm) < 1e-12


def test_descriptor_round_trip():
    for arr in (braid(4), coxeter_d(3), coxeter_b(2), threshold(3),
                dowling(2, 3), widom_rowlinson([2, 1])):
        desc = arr.to_descriptor()
        clone = from_descriptor(json.dumps(desc))
        assert clone.normals == arr.normals
        assert clone.radii == arr.radii


def test_custom_descriptor():
    arr = from_descriptor({"family": "custom",
                           "normals": [["1", "-1/2"], ["0", "1"]]})
    assert arr.ambient_dim == 2
    clone = from_descriptor(arr.to_descriptor())
    assert clone.normals == arr.normals


def test_unknown_family():
    with pytest.raises(ArrangementError, match="unknown family"):
        from_descriptor({"family": "nope", "n": 2})


def test_essentiality_checked_for_all_families():
    for arr in (braid(5), coxeter_d(3), coxeter_b(3), threshold(4),
                dowling(3, 3), widom_rowlinson([2, 2, 1])):
        assert exact_rank(arr.normals) == arr.ambient_dim


def test_radii_must_be_finite_and_positive():
    with pytest.raises(ArrangementError, match="finite"):
        braid(3, radii=[1.0, 1.0, math.inf])
    with pytest.raises(ArrangementError, match="finite"):
        braid(3).with_radii([math.nan] * 3)
    with pytest.raises(ArrangementError):
        braid(3).with_radii([1.0, 1.0])
