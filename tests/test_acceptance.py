"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared corpus of 200
random NC rational expressions (d = 2, centre sizes 1..3, depth <= 4) is
built once per session by the conftest fixture.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    CorpusItem,
    cmat,
    point_near_centre,
    random_centre,
    random_descriptor,
    random_invertible,
    unit_column_tuple,
)

from ncreal.core import (
    CentrePoint,
    MatrixTuple,
    ampliate,
    apply_similarity,
    matrix_units,
)
from ncreal.linmap import MatrixLinearMap, ampliated_apply
from ncreal.realization import (
    DescriptorRealization,
    in_domain,
    moment,
    pole_order,
    transfer,
    transfer_fm,
)
from ncreal.algebra import fm_add, fm_inv, fm_mul, fm_to_desc
from ncreal.analysis import (
    analytically_equivalent,
    is_minimal,
    kalman_minimize,
    llac_residual,
    max_moment_deviation,
    moment_via_nilpotent,
    nilpotent_point,
    translate,
)
from ncreal.fock import (
    TruncatedFockVector,
    coeffs_from_nc_function,
    eval_fock,
    flip_unitary,
    fock_basis,
    fock_inner,
    fock_realization,
    kernel_vector,
    left_creation,
    right_creation,
)
from ncreal.parser import UndefinedAtCentreError, eval_expression, realize_expression


def report(num, ok, detail):
    print("criterion %2d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))


def direct_sum_desc(r1, r2):
    d, n = r1.d, r1.n
    n1, n2 = r1.N, r2.N
    a = np.zeros((d, n, n, n1 + n2, n1 + n2), dtype=complex)
    a[..., :n1, :n1] = r1.A.dense()
    a[..., n1:, n1:] = r2.A.dense()
    return DescriptorRealization(
        MatrixLinearMap(a), np.vstack([r1.b, r2.b]), np.vstack([r1.c, r2.c]), r1.Y)


def conjugated_realization(r, s):
    s_inv = np.linalg.inv(s)
    a = np.einsum("xu,jpquv,vy->jpqxy", s_inv, r.A.dense(), s)
    return DescriptorRealization(MatrixLinearMap(a), np.conj(s).T @ r.b,
                                 s_inv @ r.c, r.Y)


def test_criterion_1_expression_oracle(nc_corpus):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for item in nc_corpus:
        for x in item.sample_points(rng, 10):
            direct = eval_expression(item.expr, x)
            via = transfer_fm(item.fm, x)
            dev = np.linalg.norm(direct - via) / max(1.0, np.linalg.norm(direct))
            worst = max(worst, dev)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed <= 60.0
    report(1, ok, "200 expressions x 10 points, max rel dev %.2e, %.1fs"
           % (worst, elapsed))
    assert worst <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2_fm_algebra_homomorphism(nc_corpus):
    rng = np.random.default_rng(202)
    worst_ring = 0.0
    inv_checked = 0
    inv_passed = 0
    for idx, item in enumerate(nc_corpus):
        # partner realization over the same centre, built from another
        # corpus expression (re-realized at this centre)
        partner = None
        for other in nc_corpus[idx + 1:idx + 20]:
            if other.centre.base_n != item.centre.base_n:
                continue
            try:
                partner = realize_expression(other.expr, item.centre)
                break
            except (UndefinedAtCentreError, Exception):
                continue
        if partner is not None and partner.N + item.fm.N <= 60:
            add = fm_add(item.fm, partner)
            mul = fm_mul(item.fm, partner)
            for x in item.sample_points(rng, 2, level_choices=(1,)):
                fr, fs = transfer_fm(item.fm, x), transfer_fm(partner, x)
                try:
                    fa, fm_ = transfer_fm(add, x), transfer_fm(mul, x)
                except Exception:
                    continue
                scale = max(1.0, np.linalg.norm(fr), np.linalg.norm(fs))
                worst_ring = max(worst_ring,
                                 np.linalg.norm(fa - (fr + fs)) / scale,
                                 np.linalg.norm(fm_ - fr @ fs) / scale)
        # inverse identities on items invertible at the centre
        sv = np.linalg.svd(item.fm.D, compute_uv=False)
        if sv.size and sv[-1] > 0.15:
            inv = fm_inv(item.fm)
            for x in item.sample_points(rng, 2, level_choices=(1,)):
                try:
                    prod = transfer_fm(inv, x) @ transfer_fm(item.fm, x)
                except Exception:
                    continue
                eye = np.eye(x.side)
                worst_ring = max(worst_ring, np.linalg.norm(prod - eye))
            # inv(inv(f)) = f: every depth-6 unit moment agrees to 1e-10
            # relative to max(1, the moment size at that word length)
            double = fm_inv(inv)
            r_min = kalman_minimize(fm_to_desc(item.fm))
            d_min = kalman_minimize(fm_to_desc(double))
            inv_checked += 1
            if analytically_equivalent(r_min, d_min, depth=6, tol=1e-10):
                inv_passed += 1
    ok = worst_ring <= 1e-9 and 0 < inv_passed == inv_checked
    report(2, ok, "ring identities max dev %.2e, inv-inv depth-6 equal on %d/%d"
           % (worst_ring, inv_passed, inv_checked))
    assert worst_ring <= 1e-9
    assert inv_checked > 0
    assert inv_passed == inv_checked


def test_criterion_3_kalman_suite():
    rng = np.random.default_rng(303)
    worst_sweep = 0.0
    worst_random = 0.0
    for case in range(50):
        n = int(rng.choice((1, 2)))
        seed_real = kalman_minimize(random_descriptor(rng, n, 3, 2, scale=0.5))
        inflated = direct_sum_desc(seed_real, seed_real)
        # junk-pad with unreachable states
        k = int(rng.integers(1, 4))
        d, nn, n0 = inflated.d, inflated.n, inflated.N
        a = np.zeros((d, nn, nn, n0 + k, n0 + k), dtype=complex)
        a[..., :n0, :n0] = inflated.A.dense()
        a[..., n0:, n0:] = cmat(rng, d * nn * nn * k, k, 0.3).reshape(d, nn, nn, k, k)
        padded = DescriptorRealization(
            MatrixLinearMap(a),
            np.vstack([inflated.b, np.zeros((k, nn))]),
            np.vstack([inflated.c, np.zeros((k, nn))]), inflated.Y)
        minimized = kalman_minimize(padded)
        assert minimized.N <= padded.N
        assert is_minimal(minimized)
        # exact unit-argument sweep at low depth ...
        worst_sweep = max(worst_sweep, max_moment_deviation(padded, minimized, 3))
        # ... plus random moments through depth 2N (relative scale), plus the
        # all-depth subspace certificate
        depth = 2 * padded.N
        for _ in range(4):
            ell = int(rng.integers(1, depth + 1))
            word = tuple(int(v) for v in rng.integers(1, 3, ell))
            args = [cmat(rng, nn, nn) for _ in range(ell)]
            m1 = moment(padded, word, args)
            m2 = moment(minimized, word, args)
            worst_random = max(worst_random, np.linalg.norm(m1 - m2)
                               / max(1.0, np.linalg.norm(m1)))
        assert analytically_equivalent(padded, minimized, depth=depth, tol=1e-10)
    ok = worst_sweep <= 1e-10 and worst_random <= 1e-10
    report(3, ok, "50 inflated cases, sweep dev %.2e, random-depth dev %.2e"
           % (worst_sweep, worst_random))
    assert worst_sweep <= 1e-10
    assert worst_random <= 1e-10


def test_criterion_4_translation_suite():
    rng = np.random.default_rng(404)
    worst = 0.0
    membership_checks = 0
    case = 0
    while case < 50:
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        m = int(rng.integers(1, 3))
        x = point_near_centre(rng, r.Y, m, 0.2)
        if not in_domain(r, x):
            continue
        case += 1
        moved = translate(r, x)
        assert is_minimal(moved)
        hits = 0
        guard = 0
        while hits < 10 and guard < 200:
            guard += 1
            z = point_near_centre(rng, r.Y, m, 0.15)
            zz = z.rebased(moved.n)
            if not (in_domain(r, z) and in_domain(moved, zz)):
                continue
            hits += 1
            f1, f2 = transfer(r, z), transfer(moved, zz)
            worst = max(worst, np.linalg.norm(f1 - f2) / max(1.0, np.linalg.norm(f1)))
        assert hits == 10
        for _ in range(2):
            scale = float(10.0 ** rng.uniform(-1.5, 0.8))
            z = MatrixTuple([x.components[j] + scale * cmat(rng, x.side, x.side)
                             for j in range(2)], x.side)
            assert in_domain(moved, z) == in_domain(r, z.rebased(r.n))
            membership_checks += 1
    ok = worst <= 1e-9 and membership_checks == 100
    report(4, ok, "50 cases x 10 points, max rel dev %.2e, %d membership samples"
           % (worst, membership_checks))
    assert worst <= 1e-9
    assert membership_checks == 100


def _similarity_spot_checks(rng, r, count, tol):
    """Number of failed joint-similarity checks out of ``count``."""
    failures = 0
    done = 0
    guard = 0
    while done < count and guard < 40 * count:
        guard += 1
        x = point_near_centre(rng, r.Y, 1, 0.1)
        s = random_invertible(rng, r.n, spread=0.15)
        xs = apply_similarity(s, x)
        if not (in_domain(r, x) and in_domain(r, xs)):
            continue
        done += 1
        rhs = np.linalg.inv(s) @ transfer(r, x) @ s
        dev = np.linalg.norm(transfer(r, xs) - rhs)
        if dev > tol * max(1.0, np.linalg.norm(rhs)):
            failures += 1
    if done < count:
        raise RuntimeError("could not sample enough similarity checks")
    return failures


def test_criterion_5_lac_certification(nc_corpus):
    start = time.monotonic()
    rng = np.random.default_rng(505)
    worst_res = 0.0
    for item in nc_corpus:
        minimized = kalman_minimize(item.desc)
        res = llac_residual(minimized)
        worst_res = max(worst_res, res)
        assert res < 1e-9
        assert _similarity_spot_checks(rng, minimized, 100, 1e-7) == 0
    # 50 random non-NC realizations at n = 2: almost all must fail both tests,
    # and no LAC-certified realization may fail a similarity check
    both_failed = 0
    for _ in range(50):
        r = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        res = llac_residual(r)
        failures = _similarity_spot_checks(rng, r, 30, 1e-7)
        if res >= 1e-9 and failures > 0:
            both_failed += 1
        if res < 1e-9:
            assert failures == 0
    elapsed = time.monotonic() - start
    ok = both_failed >= 45 and elapsed <= 120.0
    report(5, ok, "200 certified (max residual %.2e), %d/50 non-NC fail both, %.1fs"
           % (worst_res, both_failed, elapsed))
    assert both_failed >= 45
    assert elapsed <= 120.0


def test_criterion_6_nilpotent_cross_oracle():
    rng = np.random.default_rng(606)
    n, d = 2, 2
    units = list(matrix_units(n).reshape(-1, n, n))
    worst = 0.0
    worst_scaling = 0.0
    for _ in range(20):
        r = random_descriptor(rng, n, int(rng.integers(2, 4)), d, scale=0.5)
        words = [()]
        for _ in range(3):
            words = [w + (j,) for w in words for j in range(1, d + 1)]
            for word in words:
                for flat in range(len(units) ** len(word)):
                    sel = []
                    rem = flat
                    for _ in word:
                        sel.append(units[rem % len(units)])
                        rem //= len(units)
                    direct = moment(r, word, sel)
                    via = moment_via_nilpotent(r, word, sel)
                    worst = max(worst, np.linalg.norm(direct - via))
        word = (1, 2)
        args = [cmat(rng, n, n) for _ in word]
        a = moment_via_nilpotent(r, word, args, r=1.0)
        b = moment_via_nilpotent(r, word, args, r=0.5)
        worst_scaling = max(worst_scaling, np.linalg.norm(a - b))
    ok = worst <= 1e-10 and worst_scaling <= 1e-10
    report(6, ok, "20 realizations, sweep dev %.2e, r-scaling dev %.2e"
           % (worst, worst_scaling))
    assert worst <= 1e-10
    assert worst_scaling <= 1e-10


def test_criterion_7_fock_exactness():
    rng = np.random.default_rng(707)
    n, d, L = 2, 2, 2
    y = random_centre(rng, n, d)
    worst = 0.0
    for _ in range(20):
        coeffs = {idx: rng.standard_normal() + 1j * rng.standard_normal()
                  for idx in fock_basis(n, d, L) if rng.uniform() < 0.2}
        if not coeffs:
            continue
        h = TruncatedFockVector(n, d, L, coeffs)
        r = fock_realization(h, y)
        for scale in (0.3, 4.0):   # arbitrary norms: the pencil is unipotent
            x = ampliate(y, 1) + unit_column_tuple(rng, n, 1, d).scaled(scale)
            tv = transfer(r, x)
            ev = eval_fock(h, x, y)
            worst = max(worst, np.linalg.norm(tv - ev) / max(1.0, np.linalg.norm(ev)))
    # kernel reproducing identity
    worst_kernel = 0.0
    zero = CentrePoint([np.zeros((n, n)) for _ in range(d)])
    xk = unit_column_tuple(rng, n, 2, d).scaled(0.3 / np.sqrt(n))
    yv, vv = cmat(rng, 2 * n, 1)[:, 0], cmat(rng, 2 * n, 1)[:, 0]
    kv = kernel_vector(n, d, 3, xk, yv, vv)
    for _ in range(20):
        coeffs = {idx: rng.standard_normal() + 1j * rng.standard_normal()
                  for idx in fock_basis(n, d, 3) if rng.uniform() < 0.1}
        if not coeffs:
            continue
        h = TruncatedFockVector(n, d, 3, coeffs)
        lhs = fock_inner(kv, h)
        rhs = np.conj(yv) @ eval_fock(h, xk, zero) @ vv
        worst_kernel = max(worst_kernel, abs(lhs - rhs) / max(1.0, abs(rhs)))
    # flip-unitary conjugation, exact
    u = flip_unitary(n, d, L)
    flip_exact = all(
        (u @ left_creation(n, d, L, i, j, k) @ u - right_creation(n, d, L, i, j, k)).nnz == 0
        for i in (1, 2) for j in (1, 2) for k in (1, 2))
    ok = worst <= 1e-10 and worst_kernel <= 1e-10 and flip_exact
    report(7, ok, "transfer dev %.2e, kernel dev %.2e, flip exact %s"
           % (worst, worst_kernel, flip_exact))
    assert worst <= 1e-10
    assert worst_kernel <= 1e-10
    assert flip_exact


def test_criterion_8_closure_of_the_loop(nc_corpus):
    rng = np.random.default_rng(808)
    done = 0
    worst = 0.0
    for item in nc_corpus:
        if done >= 10:
            break
        if item.centre.base_n != 2:
            continue
        desc = item.desc
        try:
            h = coeffs_from_nc_function(lambda x: transfer(desc, x),
                                        item.centre, 3, r=0.5)
        except ValueError:
            continue   # expression not evaluable at some nilpotent point
        rebuilt = kalman_minimize(fock_realization(h, item.centre))
        ref = kalman_minimize(desc)
        dev = max_moment_deviation(rebuilt, ref, 3)
        worst = max(worst, dev)
        assert analytically_equivalent(rebuilt, ref, depth=3, tol=1e-8)
        done += 1
    ok = done == 10 and worst <= 1e-8
    report(8, ok, "%d loops closed, max depth-3 moment dev %.2e" % (done, worst))
    assert done == 10
    assert worst <= 1e-8


def test_criterion_9_pole_order_stability():
    rng = np.random.default_rng(909)
    points_checked = 0
    pairs = 0
    while pairs < 10:
        r1 = kalman_minimize(random_descriptor(rng, 2, 3, 2, scale=0.5))
        if r1.N < 2:
            continue
        pairs += 1
        s = random_invertible(rng, r1.N, spread=0.4)
        r2 = conjugated_realization(r1, s)
        # boundary-adjacent points: walk a ray until the pencil turns singular
        h = unit_column_tuple(rng, 2, 1, 2)
        t = ampliated_apply(r1.A, h)
        eigs = [lam for lam in np.linalg.eigvals(t) if abs(lam) > 1e-8]
        for lam in eigs[:3]:
            exact = ampliate(r1.Y, 1) + h.scaled(1.0 / lam)
            near = ampliate(r1.Y, 1) + h.scaled(0.93 / lam)
            o1, o2 = pole_order(r1, exact), pole_order(r2, exact)
            assert o1 == o2 and o1 >= 1
            assert pole_order(r1, near) == pole_order(r2, near)
            points_checked += 2
        if points_checked >= 50 and pairs >= 10:
            break
    ok = points_checked >= 50
    report(9, ok, "10 similarity pairs, %d boundary-adjacent points agree"
           % points_checked)
    assert points_checked >= 50


def test_criterion_10_cli_determinism(tmp_path, capsys):
    from ncreal.cli import main

    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    CentrePoint([e12, e21]).dump(tmp_path / "centre.json")
    (tmp_path / "e.expr").write_text("inv(x1*x2 - x2*x1) + x1\n")

    blobs = {"real": [], "min": [], "csv": [], "report": []}
    for tag in ("a", "b"):
        real = tmp_path / ("r_%s.json" % tag)
        assert main(["realize", str(tmp_path / "e.expr"),
                     str(tmp_path / "centre.json"), "--out", str(real)]) == 0
        # the report echoes its own --out path, which differs between the
        # runs by construction; everything else must match
        report_json = json.loads(capsys.readouterr().out)
        assert report_json.pop("out") == str(real)
        blobs["report"].append(report_json)
        blobs["real"].append(real.read_bytes())
        mini = tmp_path / ("m_%s.json" % tag)
        assert main(["minimize", str(real), "--out", str(mini)]) == 0
        capsys.readouterr()
        blobs["min"].append(mini.read_bytes())
        csv = tmp_path / ("s_%s.csv" % tag)
        assert main(["domain-sample", str(real), "--samples", "20", "--seed", "7",
                     "--out", str(csv)]) == 0
        capsys.readouterr()
        blobs["csv"].append(csv.read_bytes())
    ok = all(blobs[k][0] == blobs[k][1] for k in blobs)
    report(10, ok, "realize/minimize/domain-sample byte-identical across reruns, "
           "reports identical apart from the out path")
    for k in blobs:
        assert blobs[k][0] == blobs[k][1], "outputs differ for %s" % k
