"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.
"""

import copy
import random
import time
from fractions import Fraction

import numpy as np

from oracles import (
    covector_orbit_scan,
    cyclotomic_radical_matrix,
    direct_order_bound_12,
    first_repetition_is_injective,
    random_word,
    reference_isolation,
)
from tordyn.dynamics import (
    act,
    acts_distally_on_subp,
    converges_to_full,
    dual_matrix,
    group_is_finite,
    orbit_is_periodic,
)
from tordyn.families import (
    disjoint_hyperplane_orbits,
    fixed_subtori,
    non_expansivity_certificate,
    unipotent_invariant_pm,
)
from tordyn.intmat import UnimodularMatrix, inverse_unimodular, mat_vec, matrix_order, transpose
from tordyn.metric import hausdorff_distance, isolation_radius_lower_bound
from tordyn.serialization import (
    encode_family,
    encode_non_expansivity,
    parse_family,
    parse_non_expansivity,
)
from tordyn.subtori import (
    PrimitiveCovector,
    Subtorus,
    canonicalize_covector,
    covector_to_hyperplane,
    primitive_covectors,
)
from tordyn.verify import verify_certificate

CAT = UnimodularMatrix(((2, 1), (1, 1)))
SHEAR = UnimodularMatrix(((1, 1), (0, 1)))
ROT = UnimodularMatrix(((0, -1), (1, 0)))
SWAP = UnimodularMatrix(((0, 1), (1, 0)))
COMPANION = UnimodularMatrix(((0, 1, 0), (0, 0, 1), (1, 1, 0)))  # of x^3 - x - 1
H10 = Subtorus.from_generators(2, [(1, 0)])


def report(num, text, started, limit):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"[PASS] criterion {num}: {text} ({elapsed:.1f}s)")


def test_criterion_1_distality_classification():
    started = time.time()
    rng = random.Random(20260809)
    checked = 0
    non_distal = 0
    for n in (2, 3):
        for _ in range(100):
            t = random_word(rng, n, max_len=12)
            verdict = acts_distally_on_subp(t)
            finite = matrix_order(t) is not None
            assert verdict.distal == finite
            assert verdict.distal == direct_order_bound_12(t)
            checked += 1
            if not verdict.distal:
                non_distal += 1
                assert verdict.witness is not None
                assert verdict.witness.dim == n - 1
                gamma = verdict.witness_covector.entries
                s = dual_matrix(t).rows
                assert first_repetition_is_injective(s, gamma, 200)
                assert verdict.witness_converges_to_full is True
    assert checked == 200 and non_distal > 0
    report(1, f"distality of the subtorus action matches finite order on {checked} words "
              f"({non_distal} non-distal, witnesses injective)", started, 30)


def _scan_periodic_mask(s_rows, covs: np.ndarray, steps: int) -> np.ndarray:
    """Vectorized: which covector orbits revisit their start within `steps`."""
    maxent = max(abs(x) for row in s_rows for x in row)
    n = len(s_rows)
    bound = 20 * (n * max(1, maxent)) ** steps
    assert bound < 2**62, "int64 scan would overflow"
    st = np.array(s_rows, dtype=np.int64).T

    def canonical(a):
        first = np.argmax(a != 0, axis=1)
        lead = a[np.arange(len(a)), first]
        return a * np.sign(lead)[:, None]

    start = canonical(covs.copy())
    cur = covs.copy()
    mask = np.zeros(len(covs), dtype=bool)
    for _ in range(steps):
        cur = cur @ st
        mask |= np.all(canonical(cur) == start, axis=1)
    return mask


def test_criterion_2_convergence_decision_exhaustive():
    started = time.time()
    rng = random.Random(7)
    for n in (2, 3):
        covs = primitive_covectors(n, 20)
        arr = np.array(covs, dtype=np.int64)
        maps = [random_word(rng, n, entry_cap=25) for _ in range(10)]
        for t in maps:
            s = dual_matrix(t).rows
            radical = cyclotomic_radical_matrix(s)
            rad = np.array(radical, dtype=np.int64)
            assert max(abs(x) for row in radical for x in row) * 20 * n < 2**62
            periodic_exact = np.all(arr @ rad.T == 0, axis=1)
            periodic_scan = _scan_periodic_mask(s, arr, 6)
            assert np.array_equal(periodic_exact, periodic_scan)
            # spot-check the subtorus-level decision on a sample
            for idx in rng.sample(range(len(covs)), 12):
                h = covector_to_hyperplane(PrimitiveCovector(covs[idx]))
                assert converges_to_full(t, h) == (not periodic_exact[idx])
    report(2, "convergence to the full torus equals orbit non-periodicity for all "
              "covectors of norm <= 20 under 20 sampled maps", started, 60)


def test_criterion_3_empirical_convergence_of_cat_orbits():
    started = time.time()
    full = Subtorus.full(2)
    h = H10
    first_below_01 = None
    first_below_002 = None
    for m in range(1, 31):
        h = act(CAT, h)
        est = hausdorff_distance(h, full, Fraction(1, 200))
        upper = est.upper
        if first_below_01 is None and upper < Fraction(1, 10):
            first_below_01 = m
        if first_below_002 is None and upper < Fraction(1, 50):
            first_below_002 = m
        if first_below_01 and first_below_002:
            break
    assert first_below_01 is not None and first_below_01 <= 12
    assert first_below_002 is not None and first_below_002 <= 30
    # frozen thresholds recomputed by this grid oracle
    assert first_below_01 == 2
    assert first_below_002 == 4
    report(3, f"certified distance to the full torus drops below 0.1 at m={first_below_01} "
              f"and below 0.02 at m={first_below_002}", started, 10)


def _pairwise_bruteforce_disjoint(t, members, window):
    scans = [
        set(covector_orbit_scan(dual_matrix(t).rows, g, window).values())
        for g in members
    ]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            assert not scans[i].intersection(scans[j]), (i, j)


def test_criterion_4_disjoint_families():
    for name, t in (("cat map", CAT), ("shear", SHEAR), ("cubic companion", COMPANION)):
        started = time.time()
        fam = disjoint_hyperplane_orbits(t, 10)
        assert fam.count == 10 and fam.complete
        assert len(set(fam.members)) == 10
        result = verify_certificate(fam)
        assert result.ok, result.failures
        _pairwise_bruteforce_disjoint(t, fam.members, 150)
        report(4, f"10 pairwise-disjoint hyperplane orbits for the {name}, checker-verified "
                  f"and brute-force-confirmed", started, 5)


def test_criterion_5_unipotent_invariants_vs_bruteforce():
    started = time.time()
    s = ((1, 0), (-1, 1))
    sinv = inverse_unimodular(s)
    bound = 50
    covs = primitive_covectors(2, bound)
    reps = {}
    for v in covs:
        pts = {v}
        for step in (s, sinv):
            cur = v
            for _ in range(2 * bound + 2):
                cur = mat_vec(step, cur)
                c = canonicalize_covector(cur)
                if max(abs(x) for x in c) <= bound:
                    pts.add(c)
        reps[v] = min(pts)
    inv_to_reps = {}
    rep_to_invs = {}
    for v in covs:
        u = unipotent_invariant_pm(s, v)
        key = (u.difference_lattice, u.reduced)
        inv_to_reps.setdefault(key, set()).add(reps[v])
        rep_to_invs.setdefault(reps[v], set()).add(key)
    assert all(len(g) == 1 for g in inv_to_reps.values())
    assert all(len(g) == 1 for g in rep_to_invs.values())
    report(5, f"unipotent orbit invariants match brute-force partitioning of "
              f"{len(covs)} covectors of norm <= 50", started, 5)


def test_criterion_6_fixed_subtorus_counts():
    started = time.time()
    rep_cat = fixed_subtori(CAT, 1)
    assert rep_cat.members == () and rep_cat.complete
    rep_shear = fixed_subtori(SHEAR, 1)
    assert len(rep_shear.members) == 1 and rep_shear.complete
    assert rep_shear.members[0] == H10
    for t, expected in ((CAT, set()), (SHEAR, {H10})):
        found = set()
        for gamma in primitive_covectors(2, 20):
            h = covector_to_hyperplane(PrimitiveCovector(gamma))
            if act(t, h) == h:
                found.add(h)
        assert found == expected
    report(6, "invariant hyperplane counts (0 for the cat map, 1 for the shear) match "
              "the exhaustive dual scan to norm 20", started, 2)


def test_criterion_7_isolation_lower_bound():
    started = time.time()
    rep = isolation_radius_lower_bound(H10, 5, Fraction(1, 100))
    assert rep.bound > 0
    assert rep.bound > rep.resolution  # margin exceeds the metric error bound
    assert rep.bound > Fraction(9, 100)
    # H10 is the kernel of gamma = (0, 1): its isolation radius is exactly
    # 1/(2 |gamma|) = 1/2, attained by the full torus, at any cap
    assert rep.bound == Fraction(1, 2)
    assert rep.nearest == Subtorus.full(2)
    assert rep.candidates == 1
    wide = isolation_radius_lower_bound(H10, 50, Fraction(1, 100))
    assert (wide.bound, wide.nearest, wide.candidates) == (rep.bound, rep.nearest, 1)
    # the grid scan of the reference oracle gives a lower bound below it
    ref = reference_isolation(H10, 5, Fraction(1, 100))
    assert Fraction(12, 25) <= ref.bound <= rep.bound
    assert ref.candidates >= 40
    report(7, f"isolation radius of the base hyperplane certified >= {float(rep.bound):.3f} "
              f"at every dual norm cap (the reference scan gives {float(ref.bound):.3f} "
              f"against {ref.candidates} candidates at dual norm <= 5)", started, 30)


def test_criterion_8_group_finiteness():
    started = time.time()
    rep = group_is_finite([ROT])
    assert rep.status == "finite" and rep.order == 4
    rep = group_is_finite([ROT, SWAP])
    assert rep.status == "finite" and rep.order == 8
    rep = group_is_finite([SHEAR])
    assert rep.status == "infinite"
    assert rep.witness is not None and matrix_order(UnimodularMatrix(rep.witness)) is None
    # the witness lies in the congruence kernel mod 3 and is not the identity
    w = np.array(rep.witness)
    assert (w % 3 == np.eye(2, dtype=int)).all() and (w != np.eye(2, dtype=int)).any()
    report(8, "group closures: rotation gives order 4, rotation+swap order 8, "
              "shear is infinite with a witness in Gamma(3)", started, 2)


def test_criterion_9_certificate_integrity():
    started = time.time()
    matrices = (CAT, SHEAR, COMPANION)
    families = [encode_family(disjoint_hyperplane_orbits(t, 10)) for t in matrices]
    nonexp = [encode_non_expansivity(non_expansivity_certificate(t, 6)) for t in matrices]
    for data in families:
        assert verify_certificate(parse_family(data)).ok
    for data in nonexp:
        assert verify_certificate(parse_non_expansivity(data)).ok

    tampered = []
    # member substitutions
    bad = copy.deepcopy(families[0]); bad["members"][2] = [9, 4]; tampered.append(bad)
    bad = copy.deepcopy(families[2]); bad["members"][1] = [3, 1, 2]; tampered.append(bad)
    # window truncations
    bad = copy.deepcopy(families[0])
    bad["orbit_reports"][0]["window"] = bad["orbit_reports"][0]["window"][:-5]
    tampered.append(bad)
    bad = copy.deepcopy(families[2])
    bad["orbit_reports"][3]["window"] = bad["orbit_reports"][3]["window"][1:]
    tampered.append(bad)
    # unipotent forgeries: a member on another member's orbit, whose invariant
    # sets the checker recomputes, and a partial family relabelled complete
    s = transpose(inverse_unimodular(SHEAR.rows))
    bad = copy.deepcopy(families[1])
    bad["members"][2] = list(canonicalize_covector(mat_vec(s, tuple(bad["members"][1]))))
    tampered.append(bad)
    bad = copy.deepcopy(families[1]); bad["requested"] = 12; tampered.append(bad)
    # growth floor and count forgeries
    bad = copy.deepcopy(families[0]); bad["orbit_reports"][1]["min_exterior_norm"] = 10**9; tampered.append(bad)
    bad = copy.deepcopy(families[2]); bad["count"] = 12; tampered.append(bad)
    # non-expansivity forgeries
    bad = copy.deepcopy(nonexp[0]); bad["converges_to_full"][0] = False; tampered.append(bad)
    bad = copy.deepcopy(nonexp[1]); bad["family"]["members"][0] = [1, 1]; tampered.append(bad)

    assert len(tampered) == 10
    for i, data in enumerate(tampered):
        try:
            cert = (
                parse_family(data)
                if data.get("kind") == "disjoint_family"
                else parse_non_expansivity(data)
            )
        except Exception:
            continue  # rejection at parse time also counts
        result = verify_certificate(cert)
        assert not result.ok, f"tampered variant {i} was accepted"
        assert result.failures
    report(9, "all 6 emitted certificates verify and all 10 tampered variants are "
              "rejected with named evidence", started, 10)


def test_criterion_10_conjugacy_metamorphic():
    started = time.time()
    rng = random.Random(424242)
    for trial in range(50):
        n = rng.choice((2, 3))
        t = random_word(rng, n, max_len=8, entry_cap=30)
        u = random_word(rng, n, max_len=6, entry_cap=30)
        tc = u * t * u.inv()
        assert acts_distally_on_subp(t).distal == acts_distally_on_subp(tc).distal
        from tordyn.dynamics import is_ergodic

        assert is_ergodic(t) == is_ergodic(tc)
        assert matrix_order(t) == matrix_order(tc)
        fam = disjoint_hyperplane_orbits(t, 3)
        assert fam.count == 3
        mapped = [act(u, covector_to_hyperplane(PrimitiveCovector(g))) for g in fam.members]
        assert len(set(mapped)) == 3
        from tordyn.subtori import hyperplane_to_covector

        mapped_duals = [hyperplane_to_covector(h).entries for h in mapped]
        _pairwise_bruteforce_disjoint(tc, mapped_duals, 60)
    report(10, "distality, ergodicity and order are conjugation invariant on 50 pairs, "
               "and disjoint families map to disjoint families", started, 30)
