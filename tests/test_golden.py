"""Golden values: exact estimates for fixed (seed, samples), compared with
==.  Any change to a random stream, a chunk boundary, a merge order or the
tube mixture shows up here; a refactor that leaves the streams alone must
leave these bits alone too."""

import hashlib

from oracles import pressure_coefficient_enumerated
from polygas import (LinearOrder, MatroidView, RNGStream, asa_volume_mc, braid,
                     bounding_halfwidth, capped_cylinder_shape, check_dr,
                     coxeter_b, cylinder_shape, dowling, mmc_asa, mmc_mc,
                     pressure_coefficient, project_expectation,
                     safe_projection_expectation, sample_for_base, volume_mc)
from polygas.mayer import asa_pressure_coefficient
from polygas.polymer import dump_samples_csv


def _triple(est):
    return (est.mean, est.stderr, est.n_samples)


def test_pressure_coefficient_braid4():
    est = pressure_coefficient(MatroidView(braid(4)), 1, 2 ** 17, 5)
    assert _triple(est) == (-64.01249186197916, 0.059622301182866044, 131072)


def test_volume_braid4():
    est = volume_mc(braid(4), 3, 2 ** 17, 6)
    assert _triple(est) == (15928.747934894336, 43.529573169354705, 131072)


def test_check_dr_dowling_2_3():
    report = check_dr(dowling(2, 3), 2, 2 ** 16, 7)
    assert _triple(report.lhs) == (313.19067977839234, 0.24965774019602047, 65536)
    # 65536 samples split over 3 bases: 21845 each
    assert _triple(report.rhs) == (937.6065348380693, 1.8191649947931432, 65535)


def test_bounding_halfwidth_braid5():
    assert bounding_halfwidth(braid(5)).halfwidth == 4.00000000000004


def test_mmc_mc_braid4():
    view = MatroidView(braid(4))
    est = mmc_mc(view, view.ground_mask, 1, 2 ** 17, 21)
    assert _triple(est) == (3.9970703125, 0.011048582639667496, 131072)


def test_mmc_asa_braid3_capped():
    view = MatroidView(braid(3))
    est = mmc_asa(view, view.ground_mask, [capped_cylinder_shape(3, 1.0)] * 3,
                  1, 2 ** 17, 22)
    assert _triple(est) == (-6.7619476318359375, 0.0107452795165984, 131072)


def test_asa_pressure_coefficient_braid3_cylinder():
    est = asa_pressure_coefficient(MatroidView(braid(3)),
                                   [cylinder_shape(3, 1.0)] * 3, 1, 2 ** 17, 23)
    assert _triple(est) == (2.2498245239257812, 0.001195764508796155, 131072)


def test_asa_volume_braid3_capped():
    est = asa_volume_mc(braid(3), [capped_cylinder_shape(3, 1.0)] * 3, 2 ** 17, 24)
    # 2^17 samples split over 3 bases: 43690 each
    assert _triple(est) == (799.7673198028818, 1.2743451347220223, 131070)


def test_pressure_coefficient_enumerated_coxeter_b2():
    est = pressure_coefficient_enumerated(MatroidView(coxeter_b(2)), 1, 2 ** 13, 25)
    # 11 spanning subsets, 2^13 samples each
    assert _triple(est) == (14.0211181640625, 0.04241399564976926, 90112)


def test_project_expectation_coxeter_b2():
    report = project_expectation(coxeter_b(2), 1, "norm_sq", 2 ** 17, 26)
    # 5 of the 6 bases can accept at unit radii: 26214 rows each
    assert _triple(report.polymer_side) == (604.9678395038414, 2.024811012490355,
                                            131070)
    assert _triple(report.mmc_side) == (605.196814659943, 2.1288752554767023,
                                        131072)


def test_safe_projection_expectation_braid3():
    est = safe_projection_expectation(braid(3), 1, "norm_sq", LinearOrder([2, 0, 1]),
                                      2 ** 17, 27)
    assert _triple(est) == (355.420850612121, 1.103642685390392, 131072)


def test_sample_for_base_braid3():
    sample = sample_for_base(braid(3), 0b011, 3, RNGStream(28, 0).generator())
    assert sample.x.tolist() == [[0.5341635887283264, -0.6895463045884838,
                                  0.4890758165205488],
                                 [0.8467606256323202, -1.63789463549253,
                                  0.43505234208255095]]
    assert sample.accepted


def test_mmc_mc_braid4_five_of_six_hyperplanes():
    # a proper spanning subset: the tubes of the 8 bases inside it only
    view = MatroidView(braid(4))
    est = mmc_mc(view, 0b111011, 1, 2 ** 17, 29)
    assert _triple(est) == (-4.6854248046875, 0.010885167535865941, 131072)


def test_volume_braid4_unequal_radii():
    est = volume_mc(braid(4), 2, 2 ** 17, 30, radii=(1, 1.5, 2, 2.5, 3, 3.5))
    # 9 of the 16 bases can accept at these radii: 14563 rows each
    assert _triple(est) == (1487.5177669677641, 2.867540639505814, 131067)


def test_dump_samples_csv_braid3(tmp_path):
    path = tmp_path / "samples.csv"
    dump_samples_csv(path, braid(3), 2, 20, 0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "409af64b85f7a690ecbbc1951e9bd93fd49ebdfd98dc6afd9df9698e346cb3fa")



# polymer blocks made of many base runs, with runs cut at block and chunk
# edges: the kernel's per-base data must reach every row bit for bit

def test_volume_braid6_runs_across_blocks_and_chunks():
    # 1296 bases, 101 rows each: ~81 runs per block, two chunks
    est = volume_mc(braid(6), 3, 2 ** 17, 31)
    assert _triple(est) == (76947964.98234059, 435838.51352961286, 130896)


def test_volume_braid5_short_runs():
    # 125 bases, 7 rows each
    est = volume_mc(braid(5), 3, 7 * 125, 32)
    assert _triple(est) == (865660.6764347461, 47305.17187254695, 875)


def test_volume_dowling_2_3_unequal_radii():
    # complex coordinates at dim 4; 3 bases of 43690 rows
    est = volume_mc(dowling(2, 3), 4, 2 ** 17, 33, radii=(1, 1.5, 0.7))
    assert _triple(est) == (825.2728282082414, 0.8270459546370965, 131070)


def test_asa_volume_braid4_mixed_shapes():
    # capped and plain cylinders of three lengths; 16 bases of 6250 rows
    shapes = [capped_cylinder_shape(3, 1.0), cylinder_shape(3, 1.0),
              capped_cylinder_shape(3, 1.5), cylinder_shape(3, 1.0),
              capped_cylinder_shape(3, 1.0), cylinder_shape(3, 2.0)]
    est = asa_volume_mc(braid(4), shapes, 100_000, 34)
    assert _triple(est) == (22471.18634002009, 67.95058261357664, 100000)


def test_project_expectation_coxeter_b3():
    # the polymer side solves for x: 53 of the 68 bases can accept at unit
    # radii, 2473 rows each
    report = project_expectation(coxeter_b(3), 1, "norm_sq", 2 ** 17, 35)
    assert _triple(report.polymer_side) == (96763.96814318855, 470.4554202706515,
                                            131069)
    assert _triple(report.mmc_side) == (97445.27091735449, 443.06677359190417,
                                        131072)

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
