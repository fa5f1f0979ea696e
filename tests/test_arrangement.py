import hashlib
import json
import math

import numpy as np
import pytest

from polygas.arrangement import (ArrangementError, braid, coxeter_b, coxeter_d,
                                 dowling, from_descriptor, subset_labels,
                                 threshold, widom_rowlinson)
from polygas.exact_linalg import exact_rank
from polygas.signed_graphs import _dn_edges, dn_mask_to_graph


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


# -- the family constructors, pinned ------------------------------------------

def _digest(data) -> str:
    data = data if isinstance(data, bytes) else repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _pins(arr) -> tuple:
    coeff = arr.coeff
    return (_digest(arr.normals), _digest(arr.labels),
            _digest(arr.family_params),
            _digest(coeff.dtype.str.encode() + repr(coeff.shape).encode()
                    + coeff.tobytes()))


_FAMILIES = {"braid": braid, "coxeter_d": coxeter_d, "coxeter_b": coxeter_b,
             "threshold": threshold, "dowling": dowling,
             "widom_rowlinson": widom_rowlinson}

# sha256 prefixes of repr(normals), repr(labels), repr(family_params) and of
# coeff's dtype, shape and bytes, recorded before the constructors shared
# one pair-row builder: repr also pins the entry types (int, Cyclotomic)
_FAMILY_PINS = {
    ('braid', (2,)): (
        '8349bb5d2d44e8d6', '10cbc4b205464e60', 'd871be1b06cabd12', '8ce66f027606516f'),
    ('braid', (3,)): (
        'df73327fab604347', '94983bad02c78ec4', 'ec825e7587e346a7', 'a842f33bcce99364'),
    ('braid', (4,)): (
        'd35d24c75db90d48', '4562513bc3551cd9', 'd97cbb93e3d53f6d', '2ec1eea5ae304f7d'),
    ('braid', (5,)): (
        '8f735de8f1e94070', '24b08e7b550f9ca2', '225bd4b796a57a4e', 'a79f01c0ed3993c8'),
    ('braid', (6,)): (
        'bf0e5fe1ccdaab08', '501bd7798e911831', 'cb69501be12c6e04', '649be3348dfa1c77'),
    ('braid', (7,)): (
        'ce5fc1279e091653', '161c68fc4c1ae186', 'e8cb61467f8a44c5', 'f8c8f484b81ef087'),
    ('coxeter_d', (2,)): (
        '692f252fc2ab8f11', '8740ed9e362685b0', 'd871be1b06cabd12', '8ccc5bba775f3e6d'),
    ('coxeter_d', (3,)): (
        '667246e480efdf39', '4610ce92eea4fd8a', 'ec825e7587e346a7', 'cf3e557f14417b92'),
    ('coxeter_d', (4,)): (
        '8d4ebba80dcf817c', '19b6e1d0072f72b8', 'd97cbb93e3d53f6d', '5f408889db3e501c'),
    ('coxeter_d', (5,)): (
        '7a06f852ba7aa0ba', 'a0bfec0d19ec8d17', '225bd4b796a57a4e', '0b1b050496029c79'),
    ('coxeter_b', (1,)): (
        '8349bb5d2d44e8d6', 'd19fc2a8c6f053a9', '705994e6bd91ee86', '8ce66f027606516f'),
    ('coxeter_b', (2,)): (
        'f9b73515233441f7', '66ec6d36c9a3ec35', 'd871be1b06cabd12', '2b321dfbd11c94fd'),
    ('coxeter_b', (3,)): (
        '937d630cb941137b', '35262ba0beafc599', 'ec825e7587e346a7', '5248d452a057136c'),
    ('coxeter_b', (4,)): (
        '587c24c343daa5c6', '44be7fe90260fb0c', 'd97cbb93e3d53f6d', '052e68c59f799cc6'),
    ('coxeter_b', (5,)): (
        '2a2c5f5760e4455c', 'dd65a08b384d665e', '225bd4b796a57a4e', 'ab3596c4d68db4bb'),
    ('threshold', (3,)): (
        'e90ad20cf56135c7', 'eb049636c59a1bfd', 'ec825e7587e346a7', '4ce4dbe2b89c0036'),
    ('threshold', (4,)): (
        'f32fedf1bd3606d4', '4b23f40aed90b8a0', 'd97cbb93e3d53f6d', '778df9ae22da1df6'),
    ('threshold', (5,)): (
        'c4589c78a123babb', 'e27aa1d29d50c6c8', '225bd4b796a57a4e', '91bcc199b2213a6c'),
    ('threshold', (6,)): (
        'bd5c90f4880d886a', '193ba5aef920f762', 'cb69501be12c6e04', '846dceb8d35efefc'),
    ('dowling', (2, 2)): (
        '692f252fc2ab8f11', '8740ed9e362685b0', '15e6f9f9cf9a6238', '8ccc5bba775f3e6d'),
    ('dowling', (2, 3)): (
        '051cda4902c5d41c', 'f806464324303cc7', 'cc0c41bd50249505', '470e0069ed6e250f'),
    ('dowling', (2, 4)): (
        '6e56a4f86aee4c44', 'b7088a9ead2de340', 'ac5ff5a25f8a9635', '4e90ae677ea6fd7a'),
    ('dowling', (2, 5)): (
        '4ea434164a982bbf', '68c6be1d6678274e', '33b862878ac3b9f2', '5baf363631ae3c85'),
    ('dowling', (3, 2)): (
        '667246e480efdf39', '4610ce92eea4fd8a', 'c2346eb980deb7f7', 'cf3e557f14417b92'),
    ('dowling', (3, 3)): (
        '41fab40224c60d5d', 'b6548ad62f1f4529', '13812fc24107dae9', 'b1e9bfbf0c15aa98'),
    ('dowling', (3, 4)): (
        '8dae4740d73996a3', '053e533a683a5952', '7dbc15ca1aa63351', 'ecc0ff24b9103c81'),
    ('dowling', (3, 5)): (
        'b2a4586f7e292f6a', '7aec07a2f7839fdd', 'a1dabb310eb54408', '526664e7db295f60'),
    ('dowling', (4, 2)): (
        '8d4ebba80dcf817c', '19b6e1d0072f72b8', 'bab1bc16f0479a43', '5f408889db3e501c'),
    ('dowling', (4, 3)): (
        'e098b97e931c3afb', '5008341509d551d5', 'cb2ac8972cba218a', 'f88e89f8c13f0cdb'),
    ('dowling', (4, 4)): (
        '65e26ba77c10b85d', '37c11ca712a07c65', 'adbc0ab189043370', '7801680ab85ac977'),
    ('dowling', (4, 5)): (
        'a6dabb46630acb51', '3d27fd6e2c3da745', '48f45a52ebe0e9fd', 'e1acf4950c481220'),
    ('widom_rowlinson', ((1, 1),)): (
        '8349bb5d2d44e8d6', '10cbc4b205464e60', '2cd689243aec9795', '8ce66f027606516f'),
    ('widom_rowlinson', ((2, 2),)): (
        '84da620cf98dd3b5', '475ba3380866c2ed', 'f82425d1ab373a61', '2256d7a04d29ee73'),
    ('widom_rowlinson', ((2, 3),)): (
        'a887b86980b99e8c', 'c8ad23ba5879c3f4', '50246c3b9115b717', '720a6c9c13968541'),
    ('widom_rowlinson', ((1, 2, 3),)): (
        'a19aa394c219fce0', 'a9937d246a568a8d', 'e9e573635ece863e', 'ede6f2511e6d9faa'),
    ('widom_rowlinson', ((3, 1),)): (
        '66f4e13a0182c3b0', 'be62e97c732246ee', '996e44be5be6d66e', '11cd22598cb1dbe4'),
}


@pytest.mark.parametrize("family, args", list(_FAMILY_PINS),
                         ids=lambda value: str(value))
def test_family_constructors_are_pinned(family, args):
    assert _pins(_FAMILIES[family](*args)) == _FAMILY_PINS[family, args]


def test_type_d_rows_follow_the_signed_edge_order():
    for n in range(2, 6):
        arr = coxeter_d(n)
        edges = _dn_edges(n)
        assert len(edges) == arr.size
        for k, edge in enumerate(edges):
            assert dn_mask_to_graph(n, 1 << k).edges == (edge,)
            i, j, sign = edge
            row = [0] * n
            row[i], row[j] = 1, -sign
            assert arr.normals[k] == tuple(row)
        for prefixed in (coxeter_b(n), dowling(n, 2)):
            assert prefixed.normals[:arr.size] == arr.normals
            assert prefixed.labels[:arr.size] == arr.labels
