"""Golden values: exact estimates for fixed (seed, samples), compared with
==.  Any change to a random stream, a chunk boundary, a merge order or a
base's share of the rows shows up here; a refactor that leaves the streams alone must
leave these bits alone too."""

import hashlib

from oracles import pressure_coefficient_enumerated
from polygas import (LinearOrder, MatroidView, MCEstimate, RNGStream,
                     asa_volume_mc, braid, bounding_halfwidth,
                     capped_cylinder_shape, check_dr, coxeter_b,
                     cylinder_shape, dowling, mmc_asa, mmc_mc,
                     pressure_coefficient, project_expectation,
                     safe_projection_expectation, sample_for_base, volume_mc,
                     z_score)
from polygas.mayer import asa_pressure_coefficient
from polygas.polymer import dump_samples_csv


def assert_golden(est, pinned):
    """est's (mean, stderr, n_samples) == pinned, exactly.  A failure also
    prints the z between the two, so a change that moves a random stream
    reads off how far each estimate moved."""
    got = (est.mean, est.stderr, est.n_samples)
    z = z_score(est, MCEstimate(*pinned, est.seed, est.workers))
    assert got == pinned, f"got {got}, pinned {pinned}, z = {z:.2f}"


def test_pressure_coefficient_braid4():
    est = pressure_coefficient(MatroidView(braid(4)), 1, 2 ** 17, 5)
    assert_golden(est, (-64.0126953125, 0.059852338277655084, 131072))


def test_volume_braid4():
    est = volume_mc(braid(4), 3, 2 ** 17, 6)
    assert_golden(est, (15831.36884719527, 43.55390092291914, 131072))


def test_check_dr_dowling_2_3():
    report = check_dr(dowling(2, 3), 2, 2 ** 16, 7)
    # both sides split 65536 samples over 3 bases: 21845 each, cut into
    # blocks of 7281 and 7282 rows, nine blocks in two chunks
    assert_golden(report.lhs, (312.9754763787851, 0.2495081781015581, 65535))
    assert_golden(report.rhs, (941.5127085046194, 1.8073721924691706, 65535))


def test_bounding_halfwidth_braid5():
    assert bounding_halfwidth(braid(5)).halfwidth == 4.00000000000004


def test_mmc_mc_braid4():
    view = MatroidView(braid(4))
    est = mmc_mc(view, view.ground_mask, 1, 2 ** 17, 21)
    assert_golden(est, (4.00030517578125, 0.011048552162234358, 131072))


def test_mmc_asa_braid3_capped():
    view = MatroidView(braid(3))
    est = mmc_asa(view, view.ground_mask, [capped_cylinder_shape(3, 1.0)] * 3,
                  1, 2 ** 17, 22)
    assert_golden(est, (-6.757999542229343, 0.010751677198157235, 131070))


def test_asa_pressure_coefficient_braid3_cylinder():
    est = asa_pressure_coefficient(MatroidView(braid(3)),
                                   [cylinder_shape(3, 1.0)] * 3, 1, 2 ** 17, 23)
    assert_golden(est, (2.2499885557335775, 0.0011960387396161365, 131070))


def test_asa_volume_braid3_capped():
    est = asa_volume_mc(braid(3), [capped_cylinder_shape(3, 1.0)] * 3, 2 ** 17, 24)
    # 2^17 samples split over 3 bases: 43690 each, six blocks per base
    assert_golden(est, (799.3363011442121, 1.275033676859189, 131070))


def test_pressure_coefficient_enumerated_coxeter_b2():
    est = pressure_coefficient_enumerated(MatroidView(coxeter_b(2)), 1, 2 ** 13, 25)
    # 11 spanning subsets, 2^13 samples each split over their bases
    assert_golden(est, (13.972893772893773, 0.042258125924799494, 90102))


def test_project_expectation_coxeter_b2():
    report = project_expectation(coxeter_b(2), 1, "norm_sq", 2 ** 17, 26)
    # 5 of the 6 bases can accept at unit radii: 26214 rows each; the
    # region side samples all 6 tubes, 21845 rows each
    assert_golden(report.polymer_side,
                  (601.7485974033564, 2.015445435564277, 131070))
    assert_golden(report.mmc_side,
                  (602.4199346367996, 2.1352507429953844, 131070))


def test_safe_projection_expectation_braid3():
    est = safe_projection_expectation(braid(3), 1, "norm_sq", LinearOrder([2, 0, 1]),
                                      2 ** 17, 27)
    assert_golden(est, (354.43292625651, 1.0798620008925388, 131070))


def test_sample_for_base_braid3():
    sample = sample_for_base(braid(3), 0b011, 3, RNGStream(28, 0).generator())
    assert sample.x.tolist() == [[-0.36772468215420545, 0.7519041995814718,
                                  0.5471915869111427],
                                 [0.15992801308842214, 0.6551325788408658,
                                  1.39112161163027]]
    assert sample.accepted


def test_mmc_mc_braid4_five_of_six_hyperplanes():
    # a proper spanning subset: the tubes of the 8 bases inside it only
    view = MatroidView(braid(4))
    est = mmc_mc(view, 0b111011, 1, 2 ** 17, 29)
    assert_golden(est, (-4.6806640625, 0.010887535318947714, 131072))


def test_volume_braid4_unequal_radii():
    est = volume_mc(braid(4), 2, 2 ** 17, 30, radii=(1, 1.5, 2, 2.5, 3, 3.5))
    # 9 of the 16 bases can accept at these radii: 14563 rows each
    assert_golden(est, (1486.9216152496783, 2.867738700363295, 131067))


def test_dump_samples_csv_braid3(tmp_path):
    path = tmp_path / "samples.csv"
    dump_samples_csv(path, braid(3), 2, 20, 0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c3286c574e79618ecae5d384843cc359cb29a4f58b529e8c6dd0999c4496de45")



# polymer blocks made of many whole base runs, or of pieces of one long run:
# the kernel's per-base data must reach every row bit for bit

def test_volume_braid6_runs_across_blocks_and_chunks():
    # 1296 bases, 101 rows each: 81 runs per block, 16 blocks in two chunks
    est = volume_mc(braid(6), 3, 2 ** 17, 31)
    assert_golden(est, (76712166.21057098, 435140.2361796021, 130896))


def test_volume_braid5_short_runs():
    # 125 bases, 7 rows each: one block
    est = volume_mc(braid(5), 3, 7 * 125, 32)
    assert_golden(est, (933346.0791189441, 48628.03187029882, 875))


def test_volume_dowling_2_3_unequal_radii():
    # complex coordinates at dim 4; 3 bases of 43690 rows, six blocks each
    est = volume_mc(dowling(2, 3), 4, 2 ** 17, 33, radii=(1, 1.5, 0.7))
    assert_golden(est, (825.3976830742955, 0.8221782133471487, 131070))


def test_asa_volume_braid4_mixed_shapes():
    # capped and plain cylinders of three lengths; 16 bases of 6250 rows,
    # one run per block
    shapes = [capped_cylinder_shape(3, 1.0), cylinder_shape(3, 1.0),
              capped_cylinder_shape(3, 1.5), cylinder_shape(3, 1.0),
              capped_cylinder_shape(3, 1.0), cylinder_shape(3, 2.0)]
    est = asa_volume_mc(braid(4), shapes, 100_000, 34)
    assert_golden(est, (22382.582803778467, 67.99482744092151, 100000))


def test_project_expectation_coxeter_b3():
    # the polymer side solves for x: 53 of the 68 bases can accept at unit
    # radii, 2473 rows each, 3 runs per block; the region side samples all
    # 68 tubes, 1927 rows each, 4 runs per block
    report = project_expectation(coxeter_b(3), 1, "norm_sq", 2 ** 17, 35)
    assert_golden(report.polymer_side,
                  (97187.61519563515, 473.4360304191428, 131069))
    assert_golden(report.mmc_side,
                  (96734.22881780726, 457.69373716589564, 131036))

def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of Arrangement.coeff and of the BaseTable fields' bytes (in field
# order) of cyclotomic arrangements: every float rounded from an exact
# Q(zeta_k) value, pinned bit for bit
CYCLOTOMIC_DIGESTS = {
    (2, 3): ("79d622ca0f62130f8408b966c17e027cdcfe390dbf0480641ed69e2ad0366676",
             "2052e691d2db1747183d9fda33ade49911841b75747a676cdda85270d0a187d0"),
    (3, 3): ("25e58ff94ac177b38dba978896ed4cf0b9157dff5d286a4931b7bb1ffa654d9e",
             "fcf8cb1dc5a3c38db59d23d537bf7e501b277248ffa33aba2d044da9059e9101"),
    (2, 4): ("21a7a9fcdc2af5f2811977c24969153a1db908791f6a2b8fc6eb49f27bc4cf4b",
             "20083c85f6884812e45b3babd7a0b3cdc054622b878805e101376bf75ee6b56d"),
    (2, 5): ("c5cebd056c8bd384e2378a56700781b409a6fa7743fd5d2d1ef3758d9c6c360a",
             "12003419f097c0ccbb2746f014c14d09f8d7fb1e256333ddcb8f0cb4fb758721"),
}


def test_cyclotomic_coeff_and_base_table_bytes():
    for (n, k), (coeff, table) in CYCLOTOMIC_DIGESTS.items():
        arr = dowling(n, k)
        assert _digest([arr.coeff]) == coeff
        assert _digest(vars(MatroidView(arr).base_table).values()) == table
