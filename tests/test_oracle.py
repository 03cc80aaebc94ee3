from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import knapagg.oracle
from knapagg import (
    BruteForceResult,
    CapExceeded,
    CheckOutcome,
    DimensionMismatch,
    IPInstance,
    IterationLimit,
    PointSet,
    ValidationError,
    VertexReport,
    aggregate,
    brute_force_optimum,
    check_box_injectivity,
    check_convex_combination,
    check_rhs_lower_bound,
    check_rhs_vertex,
    check_vertex_preservation,
    enumerate_feasible,
    reduce,
    vertex_set,
)
from knapagg.oracle import DEFAULT_PIVOT_CAP, _lex_extreme, _pair_form, _witness


def _brute_points(A, b):
    # every point of the box that each column's own rows bound
    m, n = len(A), len(A[0])
    box = []
    for j in range(n):
        rows = [i for i in range(m) if A[i][j] > 0]
        box.append(min(b[i] // A[i][j] for i in rows))
    out = []
    for x in product(*(range(v + 1) for v in box)):
        if all(sum(A[i][j] * x[j] for j in range(n)) == b[i] for i in range(m)):
            out.append(x)
    return sorted(out)


def _hull_member(p, pts):
    # independent exact membership test: try every support of size <= dim+1
    # and solve the convex-combination system by rational elimination
    others = [q for q in pts if q != p]
    d = len(p)
    for size in range(1, d + 2):
        for sub in combinations(others, size):
            rows = d + 1
            aug = [
                [Fraction(sub[j][i]) for j in range(size)] + [Fraction(p[i])]
                for i in range(d)
            ]
            aug.append([Fraction(1)] * size + [Fraction(1)])
            piv_cols = []
            r = 0
            for cidx in range(size):
                pr = next((rr for rr in range(r, rows) if aug[rr][cidx] != 0), None)
                if pr is None:
                    continue
                aug[r], aug[pr] = aug[pr], aug[r]
                pv = aug[r][cidx]
                aug[r] = [v / pv for v in aug[r]]
                for rr in range(rows):
                    if rr != r and aug[rr][cidx] != 0:
                        fac = aug[rr][cidx]
                        aug[rr] = [a - fac * v for a, v in zip(aug[rr], aug[r])]
                piv_cols.append(cidx)
                r += 1
                if r == rows:
                    break
            if any(aug[rr][size] != 0 for rr in range(r, rows)):
                continue
            lam = [Fraction(0)] * size
            for idx, cidx in enumerate(piv_cols):
                lam[cidx] = aug[idx][size]
            if all(v >= 0 for v in lam):
                return True
    return False


def test_enumerate_demo():
    pts = enumerate_feasible(((1, 1, 0), (0, 1, 1)), (1, 1))
    assert pts.points == ((0, 1, 0), (1, 0, 1))
    assert pts.dim == 3


def test_enumerate_single_row():
    pts = enumerate_feasible(((1, 3),), (11,))
    assert pts.points == ((2, 3), (5, 2), (8, 1), (11, 0))


def test_enumerate_empty_set():
    assert enumerate_feasible(((2,),), (3,)).points == ()
    assert enumerate_feasible(((1, 0), (0, 2)), (1, 1)).points == ()


def test_enumerate_zero_rhs():
    assert enumerate_feasible(((1, 2), (3, 1)), (0, 0)).points == ((0, 0),)


def test_enumerate_is_lexicographic():
    pts = enumerate_feasible(((1, 1, 1),), (3,))
    assert list(pts.points) == sorted(pts.points)
    assert pts.points[0] == (0, 0, 3)


def test_enumerate_zero_column_needs_var_bound():
    with pytest.raises(ValidationError):
        enumerate_feasible(((1, 0),), (2,))


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_feasible(((1, 1),), (50,), cap=10)
    # exactly at the cap is fine
    assert len(enumerate_feasible(((1, 1),), (9,), cap=10)) == 10


def test_enumerate_no_columns():
    assert enumerate_feasible(((), ()), (0, 0)).points == ((),)
    assert enumerate_feasible(((), ()), (0, 1)).points == ()


def test_enumerate_matches_brute_force():
    rng = random.Random(8080)
    refused = 0
    for _ in range(400):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        zero_column = False
        for j in range(n):
            if rng.random() < 0.1:
                for row in A:
                    row[j] = 0
                zero_column = True
            else:
                A[rng.randrange(m)][j] = max(1, A[rng.randrange(m)][j])
        b = [rng.randint(0, 6) for _ in range(m)]
        if zero_column:
            # a column of zeros has no bound to enumerate
            with pytest.raises(ValidationError):
                enumerate_feasible(tuple(map(tuple, A)), tuple(b))
            refused += 1
        else:
            pts = enumerate_feasible(tuple(map(tuple, A)), tuple(b))
            assert list(pts.points) == _brute_points(A, b)
    assert 20 < refused < 200


_FIXED_CASES = [
    # gcd 2 on the pivot row: x_1 runs over one class mod 2, and an odd
    # right-hand side is refused before any scan
    (((4, 6),), (24,), ((0, 4), (3, 2), (6, 0))),
    (((4, 6),), (26,), ((2, 3), (5, 1))),
    (((4, 6),), (25,), ()),
    (
        ((6, 4, 10),), (30,),
        ((0, 0, 3), (0, 5, 1), (1, 1, 2), (1, 6, 0), (2, 2, 1), (3, 3, 0), (5, 0, 0)),
    ),
    # the next-to-last column is zero on the pivot row
    (((0, 1, 2), (1, 1, 1)), (4, 3), ((0, 2, 1), (1, 0, 2))),
    # the pivot row is row 1; rows 0 and 2 are checked after it
    (((0, 2, 0), (2, 0, 1), (2, 1, 1)), (4, 4, 6), ((0, 2, 4), (1, 2, 2), (2, 2, 0))),
    # a row neither of the last two columns touches must be zero already
    (((1, 1, 1), (1, 0, 0)), (3, 1), ((1, 0, 2), (1, 1, 1), (1, 2, 0))),
    (((1, 1, 1), (1, 0, 0), (1, 2, 0)), (3, 1, 3), ((1, 1, 1),)),
    # one column, and two
    (((3,),), (9,), ((3,),)),
    (((3,),), (10,), ()),
    (((2, 3), (1, 1)), (12, 5), ((3, 2),)),
    # the last two columns, 2 and 0, share no row: rows 0 and 1 fix them
    (((1, 1, 0), (0, 1, 1)), (5, 2), ((3, 2, 0), (4, 1, 1), (5, 0, 2))),
]


# the ids name a third parameter, always None, that bounded zero columns
# before enumerate_feasible refused them; each case keeps its id
@pytest.mark.parametrize(
    "A, b, expect",
    _FIXED_CASES,
    ids=[f"A{k}-b{k}-None-expect{k}" for k in range(len(_FIXED_CASES))],
)
def test_enumerate_fixed_cases(A, b, expect):
    assert _brute_points(A, b) == list(expect)
    assert enumerate_feasible(A, b).points == expect


def test_enumerate_cap_is_the_point_count():
    # 16 points, most of them emitted by the last two variables together
    A, b = ((1, 2, 1),), (6,)
    count = len(_brute_points(A, b))
    assert len(enumerate_feasible(A, b, cap=count)) == count
    with pytest.raises(CapExceeded):
        enumerate_feasible(A, b, cap=count - 1)


@pytest.mark.parametrize(
    "A, b, point",
    [
        # column 0 is zero on the pivot row, so a residue-class scan would
        # step through every value of x_0
        (((1, 0), (0, 1)), (10**12, 10**12), (10**12, 10**12)),
        # both columns touch both rows, with gcd 1 on the pivot row
        (((1, 1), (1, 2)), (10**12, 10**12 + 5), (10**12 - 5, 5)),
    ],
)
def test_enumerate_tail_solves_two_rows_in_one_step(A, b, point):
    assert enumerate_feasible(A, b).points == (point,)


def _one_row_cases(rng, count):
    # rows of 1-7 weights in 1-40 with rhs up to about 600, and aggregated
    # rows of 2x5 instances drawn as the verify-oracle workload draws them;
    # rows whose search box would be large are drawn again
    out = []
    while len(out) < count:
        if rng.random() < 0.7:
            a = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 7)))
            r = rng.randint(0, 600)
        else:
            A = [[rng.randint(0, 3) for _ in range(5)] for _ in range(2)]
            if not all(A[0][j] or A[1][j] for j in range(5)):
                continue
            a, r = aggregate(A, [rng.randint(4, 20) for _ in range(2)])
            a = tuple(a)
        box = 1
        for bound in sorted(r // w for w in a)[:-2]:
            box *= bound + 1
        if box <= 400:
            out.append((a, r))
    return out


def test_one_row_walk_matches_the_multi_row_walk():
    # the same row twice takes the multi-row walk and its residue-class
    # tail; the row alone takes the one-row walk from three columns on
    rng = random.Random(2109)
    sizes = set()
    points = 0
    for a, r in _one_row_cases(rng, 400):
        one = enumerate_feasible((a,), (r,))
        assert enumerate_feasible((a, a), (r, r)) == one
        sizes.add(len(a))
        points += len(one)
    assert sizes == set(range(1, 8))
    assert points > 2000


def test_one_row_walk_stops_at_the_same_cap():
    rng = random.Random(2110)
    checked = 0
    for a, r in _one_row_cases(rng, 150):
        pts = enumerate_feasible((a,), (r,))
        count = len(pts)
        if count < 2:
            continue
        checked += 1
        for A, b in (((a,), (r,)), ((a, a), (r, r))):
            assert enumerate_feasible(A, b, cap=count) == pts
            with pytest.raises(CapExceeded) as raised:
                enumerate_feasible(A, b, cap=count - 1)
            assert str(raised.value) == f"more than {count - 1} feasible points"
    assert checked > 50


def test_point_set_validation():
    with pytest.raises(ValidationError):
        PointSet(2, ((1, 2), (1, 2)))
    with pytest.raises(DimensionMismatch):
        PointSet(2, ((1, 2), (1,)))


def test_convex_combination_outside():
    assert check_convex_combination((0, 0), [(1, 0), (0, 1)]) is None
    assert check_convex_combination((3,), [(1,), (2,)]) is None
    assert check_convex_combination((1, 1), []) is None


def test_convex_combination_inside():
    lam = check_convex_combination((1, 1), [(0, 0), (2, 2), (5, 0)])
    assert lam is not None
    assert sum(lam) == 1
    assert all(v >= 0 for v in lam)
    pts = [(0, 0), (2, 2), (5, 0)]
    for i in range(2):
        assert sum(l * Fraction(p[i]) for l, p in zip(lam, pts)) == 1


def test_convex_combination_on_collinear_points():
    lam = check_convex_combination((5, 2), [(11, 0), (8, 1), (2, 3)])
    assert lam is not None
    assert sum(lam) == 1
    for i in range(2):
        assert sum(l * p[i] for l, p in zip(lam, [(11, 0), (8, 1), (2, 3)])) == (5, 2)[i]


def test_convex_combination_exact_point_match():
    lam = check_convex_combination((4, 4), [(4, 4), (9, 9)])
    assert lam is not None
    assert lam[0] == 1 and lam[1] == 0


def test_convex_combination_is_deterministic():
    args = ((3, 3), [(0, 0), (6, 6), (6, 0), (0, 6), (3, 3)])
    assert check_convex_combination(*args) == check_convex_combination(*args)


def test_negative_pivot_cap_is_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(knapagg.oracle, "_lex_extreme", no_work)
    pts = PointSet(1, ((0,), (1,), (2,)))
    with pytest.raises(ValidationError):
        vertex_set(pts, pivot_cap=-1)
    with pytest.raises(ValidationError):
        check_convex_combination((1,), [(0,), (2,)], pivot_cap=-1)
    with pytest.raises(ValidationError):
        check_rhs_vertex((1, 1), pivot_cap=-1)
    inst = IPInstance.from_rows([[1, 1]], [2], [0, 0])
    with pytest.raises(ValidationError):
        check_vertex_preservation(inst, VertexReport(pts, ()), pivot_cap=-1)
    # zero pivots stays valid: the midpoint pass decides (1,) without an LP
    monkeypatch.undo()
    assert check_convex_combination((3,), [], pivot_cap=0) is None
    assert vertex_set(pts, pivot_cap=0).vertices == ((0,), (2,))


def test_convex_combination_dimension_check():
    with pytest.raises(DimensionMismatch):
        check_convex_combination((1, 2), [(1,)])


def test_convex_combination_matches_independent_oracle():
    rng = random.Random(6021)
    for _ in range(120):
        d = rng.randint(1, 3)
        count = rng.randint(1, 6)
        pts = list({tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(count)})
        x0 = tuple(rng.randint(0, 6) for _ in range(d))
        others = [p for p in pts if p != x0]
        lam = check_convex_combination(x0, others)
        assert (lam is not None) == _hull_member(x0, others + [x0])
        if lam is not None:
            assert sum(lam) == 1
            for i in range(d):
                assert sum(l * p[i] for l, p in zip(lam, others)) == x0[i]


def _fraction_phase1(x0, others, pivot_cap):
    # The phase-1 simplex as it ran over Fraction before the integer update,
    # kept as the reference: the integer pivots must take the same Bland
    # steps and return the same weights.
    r, rows = len(others), len(x0) + 1
    if r == 0:
        return None
    rhs = [int(v) for v in x0] + [1]
    cols = [list(p) + [1] for p in others]
    for i in range(rows):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            for col in cols:
                col[i] = -col[i]
    basis = [r + i for i in range(rows)]
    binv = [[Fraction(int(i == t)) for t in range(rows)] for i in range(rows)]
    xb = [Fraction(v) for v in rhs]
    for _ in range(pivot_cap):
        art = [i for i in range(rows) if basis[i] >= r]
        if sum(xb[i] for i in art) == 0:
            lam = [Fraction(0)] * r
            for i in range(rows):
                if basis[i] < r:
                    lam[basis[i]] = xb[i]
            return tuple(lam)
        y = [sum((binv[i][t] for i in art), Fraction(0)) for t in range(rows)]
        enter = next(
            (j for j in range(r) if sum(a * c for a, c in zip(y, cols[j])) > 0), -1
        )
        if enter < 0:
            return None
        direction = [sum(a * c for a, c in zip(row, cols[enter])) for row in binv]
        leave, best = -1, None
        for i in range(rows):
            if direction[i] > 0:
                ratio = xb[i] / direction[i]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        piv = direction[leave]
        binv[leave] = [v / piv for v in binv[leave]]
        xb[leave] /= piv
        for i in range(rows):
            if i != leave and direction[i] != 0:
                fac = direction[i]
                binv[i] = [a - fac * v for a, v in zip(binv[i], binv[leave])]
                xb[i] -= fac * xb[leave]
        basis[leave] = enter
    raise IterationLimit(f"no decision after {pivot_cap} pivots")


def _random_lp(rng):
    # mixes what stresses the pivoting: negative coordinates (the row sign
    # flip), duplicate points, x0 among the points, and small grids whose
    # many equal ratios exercise Bland's tie-break
    d = rng.randint(1, 6)
    lo, hi = rng.choice(((0, 2), (0, 6), (-3, 3), (-9, 9)))
    count = rng.randint(1, 20 if d <= 3 else 12)
    pts = [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(count)]
    for _ in range(rng.randint(0, 3)):
        pts.append(rng.choice(pts))
    shape = rng.randrange(4)
    if shape == 0:
        x0 = rng.choice(pts)
    elif shape == 1:
        # integer point on a segment between two of the points
        p, q = rng.choice(pts), rng.choice(pts)
        k = rng.randint(1, 3)
        x0 = tuple(a + (b - a) // k * rng.randint(0, k) for a, b in zip(p, q))
    elif shape == 2:
        # rounded centroid of a few points, usually inside the hull
        sub = rng.sample(pts, min(len(pts), rng.randint(2, d + 1)))
        x0 = tuple(sum(c) // len(sub) for c in zip(*sub))
    else:
        x0 = tuple(rng.randint(lo - 1, hi + 1) for _ in range(d))
    rng.shuffle(pts)
    return x0, pts


def test_convex_combination_matches_fraction_reference():
    rng = random.Random(20240)
    inside = dims = 0
    for _ in range(2000):
        x0, pts = _random_lp(rng)
        want = _fraction_phase1(x0, pts, 100_000)
        assert check_convex_combination(x0, pts) == want, (x0, pts)
        inside += want is not None
        dims |= 1 << len(x0)
    assert dims == 0b1111110
    assert 800 < inside < 1600


def test_convex_combination_pivot_cap_boundary_matches_reference():
    rng = random.Random(9107)
    deepest = 0
    for _ in range(100):
        x0, pts = _random_lp(rng)
        cap = 0
        while True:
            try:
                want = _fraction_phase1(x0, pts, cap)
            except IterationLimit:
                with pytest.raises(IterationLimit):
                    check_convex_combination(x0, pts, pivot_cap=cap)
                cap += 1
                continue
            assert check_convex_combination(x0, pts, pivot_cap=cap) == want
            deepest = max(deepest, cap)
            break
    assert deepest >= 8


def test_vertex_set_collinear():
    pts = enumerate_feasible(((1, 3),), (11,))
    report = vertex_set(pts)
    assert report.vertices == ((2, 3), (11, 0))
    for p, wit in report.witnesses.items():
        combo = [Fraction(0), Fraction(0)]
        total = Fraction(0)
        for idx, w in wit:
            assert pts.points[idx] != p
            assert w > 0
            total += w
            for i in range(2):
                combo[i] += w * pts.points[idx][i]
        assert total == 1
        assert tuple(combo) == p


def test_vertex_set_single_point():
    report = vertex_set(PointSet(2, ((7, 7),)))
    assert report.vertices == ((7, 7),)
    assert report.witnesses == {}


def test_vertex_set_square_with_center():
    pts = PointSet(2, ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)))
    report = vertex_set(pts)
    assert report.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert (1, 1) in report.witnesses
    # the corners are lex-extreme and the center a midpoint: no pivots
    assert vertex_set(pts, pivot_cap=0) == report


def test_vertex_set_matches_independent_oracle():
    rng = random.Random(9339)
    for _ in range(40):
        d = rng.randint(1, 3)
        pts = sorted({tuple(rng.randint(0, 5) for _ in range(d)) for _ in range(rng.randint(1, 8))})
        report = vertex_set(PointSet(d, tuple(pts)))
        expect = tuple(p for p in pts if not _hull_member(p, pts))
        assert report.vertices == expect
        for p, wit in report.witnesses.items():
            total = Fraction(0)
            combo = [Fraction(0)] * d
            for idx, w in wit:
                assert pts[idx] != p
                total += w
                for i in range(d):
                    combo[i] += w * pts[idx][i]
            assert total == 1 and tuple(combo) == p


def _full_scan_vertex_set(points, pivot_cap=DEFAULT_PIVOT_CAP):
    # vertex_set with a midpoint pass that tries every other point, in the
    # set's order, as one end of a pair: the reference for the half scan
    pts = points.points
    index = {p: i for i, p in enumerate(pts)}
    witnesses = {}
    survivors = []
    for p in pts:
        dbl = tuple(2 * v for v in p)
        for q in pts:
            if q == p:
                continue
            t = index.get(tuple(dv - qv for dv, qv in zip(dbl, q)))
            if t is not None:
                i, j = sorted((index[q], t))
                witnesses[p] = ((i, Fraction(1, 2)), (j, Fraction(1, 2)))
                break
        else:
            survivors.append(p)
    pool = list(survivors)
    vertices = []
    for p in survivors:
        cited = _witness(p, pool, pivot_cap)
        if cited is None:
            vertices.append(p)
        else:
            witnesses[p] = tuple((index[q], w) for q, w in cited)
            pool.remove(p)
    return VertexReport(points, tuple(vertices), witnesses)


def _midpoint_sets(rng, count):
    sets = []
    for _ in range(count):
        d = rng.randint(1, 4)
        hi = rng.choice((2, 4, 8))
        pts = {tuple(rng.randint(0, hi) for _ in range(d)) for _ in range(rng.randint(1, 20))}
        sets.append(sorted(pts))
    return sets


def test_midpoint_half_scan_matches_the_full_scan():
    sets = _midpoint_sets(random.Random(4417), 200)
    reports = [vertex_set(PointSet(len(pts[0]), tuple(pts))) for pts in sets]
    assert reports == [_full_scan_vertex_set(r.points) for r in reports]
    halves = sum(
        all(w == Fraction(1, 2) for _, w in wit)
        for r in reports
        for wit in r.witnesses.values()
    )
    assert halves > 200


def test_midpoint_half_scan_on_unsorted_sets(monkeypatch):
    # the LP would classify a point the midpoint pass missed all the same,
    # so record the points that reach it: exactly those of no midpoint pair
    tested = []

    def recording(p, pool, pivot_cap):
        tested.append(p)
        return _witness(p, pool, pivot_cap)

    monkeypatch.setattr(knapagg.oracle, "_witness", recording)
    rng = random.Random(4418)
    for pts in _midpoint_sets(rng, 200):
        rng.shuffle(pts)
        points = PointSet(len(pts[0]), tuple(pts))
        tested.clear()
        report = vertex_set(points)
        pair_free = [
            p for p in pts
            if not any(tuple(2 * a - b for a, b in zip(p, q)) in pts for q in pts if q != p)
        ]
        assert tested == pair_free
        want = _full_scan_vertex_set(points)
        assert set(report.vertices) == set(want.vertices)
        assert set(report.witnesses) == set(want.witnesses)
        for p, wit in report.witnesses.items():
            assert sum(w for _, w in wit) == 1 and all(w > 0 for _, w in wit)
            assert all(pts[i] != p for i, _ in wit)
            for c in range(len(p)):
                assert sum(w * pts[i][c] for i, w in wit) == p[c]


def _random_point_set(rng):
    # shared coordinates (small grids), collinear points, one-point sets and
    # spread-out points; p is one of the points, others the rest
    d = rng.randint(1, 6)
    shape = rng.randrange(4)
    if shape == 0:
        pts = {tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(1, 12))}
    elif shape == 1:
        base = tuple(rng.randint(-3, 3) for _ in range(d))
        step = tuple(rng.randint(-2, 2) for _ in range(d))
        ks = rng.sample(range(-4, 5), rng.randint(1, 6))
        pts = {tuple(a + k * s for a, s in zip(base, step)) for k in ks}
    elif shape == 2:
        pts = {tuple(rng.randint(-5, 5) for _ in range(d))}
    else:
        pts = {tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(rng.randint(2, 12))}
    pts = sorted(pts)
    p = rng.choice(pts)
    others = [q for q in pts if q != p]
    rng.shuffle(others)
    return p, others


def _first_under(order, p, q):
    # p comes strictly before q in the signed lexicographic order
    for t, s in order:
        if p[t] != q[t]:
            return s * (p[t] - q[t]) > 0
    return False


def test_lex_extreme_is_a_sound_vertex_certificate():
    rng = random.Random(5150)
    certified = dims = 0
    for _ in range(2000):
        p, others = _random_point_set(rng)
        d = len(p)
        dims |= 1 << d
        order = _lex_extreme(p, others)
        if d <= 3:
            # the greedy finds an order exactly when one exists
            exists = any(
                all(_first_under(tuple(zip(ts, ss)), p, q) for q in others)
                for k in range(d + 1)
                for ts in permutations(range(d), k)
                for ss in product((1, -1), repeat=k)
            )
            assert (order is not None) == exists, (p, others)
        if order is None:
            continue
        certified += 1
        used = [t for t, _ in order]
        assert len(set(used)) == len(used)
        assert all(s in (1, -1) for _, s in order)
        # the integer direction d[t_k] = s_k * M**(K - k) strictly separates
        gap = max((abs(a - b) for q in others for a, b in zip(p, q)), default=0)
        m, k = gap + 1, len(order)
        direction = [0] * d
        for i, (t, s) in enumerate(order):
            direction[t] = s * m ** (k - 1 - i)
        dp = sum(a * b for a, b in zip(direction, p))
        for q in others:
            assert dp > sum(a * b for a, b in zip(direction, q)), (p, q, order)
        assert _fraction_phase1(p, others, 100_000) is None
    assert dims == 0b1111110
    assert 800 < certified < 1900


def _pair_forms(d):
    # the coefficient rows of _pair_form's forms, built independently
    unit = [tuple(int(i == c) for i in range(d)) for c in range(d)]
    pairs = list(combinations(range(d), 2))
    sums = [tuple(x + y for x, y in zip(unit[a], unit[b])) for a, b in pairs]
    diffs = [tuple(x - y for x, y in zip(unit[a], unit[b])) for a, b in pairs]
    return unit + sums + diffs


def test_pair_form_order_is_a_sound_vertex_certificate():
    rng = random.Random(6021)
    by_pairs = 0
    for _ in range(2000):
        p, others = _random_point_set(rng)
        d = len(p)
        if not 2 <= d <= 5 or _lex_extreme(p, others) is not None:
            continue
        forms = _pair_forms(d)
        fp = _pair_form(p)
        assert fp == tuple(sum(f * v for f, v in zip(row, p)) for row in forms)
        order = _lex_extreme(fp, [_pair_form(q) for q in others])
        if order is None:
            continue
        by_pairs += 1
        # d = sum(s_k * M**(K - k) * f_k), mapped back to the coordinates
        gap = max(abs(a - b) for q in others for a, b in zip(fp, _pair_form(q)))
        m, k = gap + 1, len(order)
        direction = [0] * d
        for i, (t, s) in enumerate(order):
            for c in range(d):
                direction[c] += s * m ** (k - 1 - i) * forms[t][c]
        dp = sum(a * b for a, b in zip(direction, p))
        for q in others:
            assert dp > sum(a * b for a, b in zip(direction, q)), (p, q, order)
        assert _fraction_phase1(p, others, 100_000) is None
    # the pair stage proves vertices that no coordinate order proves
    assert by_pairs > 20


def test_lp_decides_a_vertex_that_is_not_lex_extreme(monkeypatch):
    # (2, 4) is a vertex that comes first under no signed order, over the
    # coordinates or over the pair forms; (5, 3) lies inside the hull
    pts = PointSet(2, ((0, 2), (0, 3), (2, 4), (5, 3), (5, 5), (6, 3)))
    others = [q for q in pts.points if q != (2, 4)]
    assert _lex_extreme((2, 4), others) is None
    assert _lex_extreme(_pair_form((2, 4)), [_pair_form(q) for q in others]) is None
    assert check_convex_combination((2, 4), others) is None
    calls = []
    real = knapagg.oracle.check_convex_combination

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(knapagg.oracle, "check_convex_combination", counted)
    report = vertex_set(pts)
    assert report.vertices == ((0, 2), (0, 3), (2, 4), (5, 5), (6, 3))
    assert set(report.witnesses) == {(5, 3)}
    # every other vertex comes first under an order; only the LP decides
    # (2, 4), and it gives (5, 3) its weights
    assert calls == [(2, 4), (5, 3)]
    with pytest.raises(IterationLimit):
        vertex_set(pts, pivot_cap=0)


def test_pair_form_order_proves_vertices_without_the_lp(monkeypatch):
    # (1, 2) and (2, 1) come first under no coordinate order, but x_2 - x_1
    # and x_1 - x_2 single them out, so no LP runs and no pivot is needed
    pts = PointSet(2, ((0, 0), (1, 2), (2, 1), (3, 3)))
    assert _lex_extreme((1, 2), [(0, 0), (2, 1), (3, 3)]) is None
    assert _lex_extreme((2, 1), [(0, 0), (1, 2), (3, 3)]) is None

    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran")

    monkeypatch.setattr(knapagg.oracle, "check_convex_combination", no_lp)
    assert vertex_set(pts).vertices == pts.points
    assert vertex_set(pts, pivot_cap=0).vertices == pts.points


def test_lp_gives_the_witness_of_a_non_vertex():
    # (1, 1) is the midpoint of (0, 0) and (2, 2), so vertex_set's first
    # pass would take it; the vertex test itself must fall back to the LP
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert _lex_extreme((1, 1), square) is None
    cited = _witness((1, 1), square, DEFAULT_PIVOT_CAP)
    assert cited is not None
    lam = check_convex_combination((1, 1), square)
    assert cited == tuple((q, w) for q, w in zip(square, lam) if w)
    assert sum(w for _, w in cited) == 1 and all(w > 0 for _, w in cited)
    for i in range(2):
        assert sum(w * q[i] for q, w in cited) == 1


def _points(inst):
    return enumerate_feasible(inst.A, inst.b)


def _hull(inst):
    return vertex_set(_points(inst))


def test_brute_force_optimum_demo():
    red = reduce(
        IPInstance.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1])
    )
    res = brute_force_optimum(red.inner, _points(red.inner))
    assert res.status == "optimal"
    assert res.value == 1
    assert res.argmin == ((0, 1, 0),)


def test_brute_force_optimum_reports_all_argmins():
    inst = IPInstance.from_rows([[1, 1]], [2], [0, 0])
    res = brute_force_optimum(inst, _points(inst))
    assert res.value == 0
    assert res.argmin == ((0, 2), (1, 1), (2, 0))


def test_brute_force_optimum_infeasible():
    inst = IPInstance.from_rows([[2]], [3], [1])
    res = brute_force_optimum(inst, _points(inst))
    assert res.status == "infeasible"
    assert res.value is None and res.argmin == ()


def test_rhs_vertex_examples():
    assert check_rhs_vertex((2, 3))
    assert check_rhs_vertex((1, 1))
    assert check_rhs_vertex((0,))
    assert check_rhs_vertex((0, 0, 0))
    assert check_rhs_vertex((4, 4))


def test_rhs_vertex_exhaustive_small():
    for b1 in range(4):
        for b2 in range(4):
            assert check_rhs_vertex((b1, b2))


def test_rhs_vertex_zero_entry_has_tied_minimizers():
    # A zero entry in b collapses two consecutive weights, so the
    # coordinate-sum minimum is shared.  b = (0, 1) gives weights (1, 1)
    # and the feasible set {(0, 1), (1, 0)}, both with sum 1.  The check
    # must still accept b: it remains a vertex of the hull.
    pts = enumerate_feasible(((1, 1),), (1,), 100)
    assert set(pts.points) == {(0, 1), (1, 0)}
    assert sum((0, 1)) == sum((1, 0)) == 1
    assert check_rhs_vertex((0, 1))
    assert check_rhs_vertex((1, 0))


def test_rhs_vertex_needs_no_lp(monkeypatch):
    # b is the lexicographically largest point from the last coordinate
    # down, so the signed-order test proves it a vertex on its own
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran")

    monkeypatch.setattr(knapagg.oracle, "check_convex_combination", no_lp)
    for b in product(range(4), repeat=3):
        assert check_rhs_vertex(b)


def test_vertex_preservation_demo():
    inst = IPInstance.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1])
    out = check_vertex_preservation(inst, _hull(inst))
    assert out.holds and not out.vacuous


def test_vertex_preservation_vacuous_on_empty_set():
    inst = IPInstance.from_rows([[1, 0], [0, 2]], [1, 1], [0, 0])
    out = check_vertex_preservation(inst, _hull(inst))
    assert out.holds and out.vacuous


@pytest.mark.parametrize("dim", [0, 2])
def test_vertex_set_of_an_empty_set_is_empty(dim):
    empty = PointSet(dim, ())
    assert vertex_set(empty) == VertexReport(empty, ())


def test_checks_on_an_empty_set():
    # every check takes the set it checks; an empty one is vacuous
    inst = IPInstance.from_rows([[1, 0], [0, 2]], [1, 1], [3, -1])
    empty = PointSet(2, ())
    assert _points(inst) == empty
    report = vertex_set(empty)
    assert check_vertex_preservation(inst, report) == CheckOutcome(True, vacuous=True)
    assert check_rhs_lower_bound(inst, report) == CheckOutcome(True, vacuous=True)
    assert brute_force_optimum(inst, empty) == BruteForceResult("infeasible", None, ())


def test_rhs_lower_bound_demo():
    inst = IPInstance.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1])
    out = check_rhs_lower_bound(inst, _hull(inst))
    assert out.holds and not out.vacuous


def test_rhs_lower_bound_tight_case():
    # the bound is attained at the vertex (1, 0, 1): product 4 - 1 = rhs 3
    inst = IPInstance.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], [0, 0, 0])
    out = check_rhs_lower_bound(inst, _hull(inst))
    assert out.holds


def test_vertex_preservation_cites_the_aggregated_combination():
    # a report that wrongly claims (1, 1) a vertex of x1 + x2 = 2: the
    # aggregated set (0, 2), (1, 1), (2, 0) holds it as a midpoint
    inst = IPInstance.from_rows([[1, 1]], [2], [0, 0])
    report = VertexReport(PointSet(2, ((1, 1),)), ((1, 1),))
    out = check_vertex_preservation(inst, report)
    assert not out.holds and not out.vacuous
    half = Fraction(1, 2)
    assert out.counterexample == {
        "vertex": (1, 1),
        "combination": (((0, 2), half), ((2, 0), half)),
        "aggregated_row": (1, 1),
        "aggregated_rhs": 2,
    }


def test_rhs_lower_bound_reports_the_violated_product():
    # a report claiming vertex (2, 2) of x1 + x2 = 2: prod(3, 3) - 1 = 8 > 2
    inst = IPInstance.from_rows([[1, 1]], [2], [0, 0])
    report = VertexReport(PointSet(2, ((2, 2),)), ((2, 2),))
    out = check_rhs_lower_bound(inst, report)
    assert not out.holds and not out.vacuous
    assert out.counterexample == {
        "vertex": (2, 2),
        "product_bound": 8,
        "aggregated_rhs": 2,
    }


def test_box_injectivity():
    assert check_box_injectivity((1, 3, 2), (1, 0, 1))
    assert not check_box_injectivity((1, 1), (1, 1))
    assert check_box_injectivity((1, 2, 4), (1, 1, 1))
    assert check_box_injectivity((), ())
    assert check_box_injectivity((5, 9), (0, 0))


def test_box_injectivity_cap_and_dims():
    with pytest.raises(CapExceeded):
        check_box_injectivity((1, 2), (1000, 1000), cap=100)
    with pytest.raises(DimensionMismatch):
        check_box_injectivity((1, 2), (1,))


def test_checks_hold_on_random_instances():
    rng = random.Random(12)
    nonvacuous = 0
    for _ in range(60):
        m = rng.randint(1, 2)
        n = rng.randint(1, 3)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            A[rng.randrange(m)][j] = max(1, A[rng.randrange(m)][j])
        b = [rng.randint(0, 4) for _ in range(m)]
        inst = IPInstance.from_rows(A, b, [0] * n)
        hull = _hull(inst)
        pre = check_vertex_preservation(inst, hull)
        low = check_rhs_lower_bound(inst, hull)
        assert pre.holds and low.holds
        if not pre.vacuous:
            nonvacuous += 1
    assert nonvacuous > 10
