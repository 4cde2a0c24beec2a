"""Shared generators and oracles for the test suite.

Everything is seeded through numpy Generators so runs are reproducible; the
expression corpus used by several suites is built once per session.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg

from ncreal.core import (
    CentrePoint,
    MatrixTuple,
    SingularMatrixError,
    ampliate,
    column_norm,
    deviation_from_centre,
)
from ncreal.linmap import MatrixLinearMap, ampliated_apply
from ncreal.realization import DescriptorRealization, FMRealization, in_domain
from ncreal.algebra import fm_to_desc
from ncreal.fock import TruncatedFockVector
from ncreal.parser import (
    Inverse,
    Negate,
    Product,
    Sum,
    UndefinedAtCentreError,
    eval_expression,
    parse,
    realize_expression,
)


def cmat(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols))
                    + 1j * rng.standard_normal((rows, cols)))


def random_centre(rng, n, d, scale=0.4):
    return CentrePoint([cmat(rng, n, n, scale) for _ in range(d)])


def random_tuple(rng, n, m, d, scale=1.0):
    return MatrixTuple([cmat(rng, m * n, m * n, scale) for _ in range(d)], n)


def unit_column_tuple(rng, n, m, d):
    """A random tuple rescaled to column norm one."""
    h = random_tuple(rng, n, m, d)
    return h.scaled(1.0 / column_norm(h))


def random_linmap(rng, d, n, N, scale=0.5):
    return MatrixLinearMap(cmat(rng, d * n * n * N, N, scale).reshape(d, n, n, N, N))


def unit_keys(a):
    """(j, p, q) for every unit A_j(E_pq) of the map a, in stack order (1-based j)."""
    return itertools.product(range(1, a.d + 1), range(a.n), range(a.n))


def random_descriptor(rng, n, N, d, y=None, scale=0.5):
    if y is None:
        y = random_centre(rng, n, d)
    a = MatrixLinearMap(cmat(rng, d * n * n * N, N, scale).reshape(d, n, n, N, N))
    return DescriptorRealization(a, cmat(rng, N, n), cmat(rng, N, n), y)


def direct_sum_desc(r1, r2):
    """The descriptor realization (A1 (+) A2, b1 (+) b2, c1 (+) c2)."""
    d, n = r1.d, r1.n
    n1, n2 = r1.N, r2.N
    a = np.zeros((d, n, n, n1 + n2, n1 + n2), dtype=complex)
    a[..., :n1, :n1] = r1.A.dense()
    a[..., n1:, n1:] = r2.A.dense()
    return DescriptorRealization(
        MatrixLinearMap(a), np.vstack([r1.b, r2.b]), np.vstack([r1.c, r2.c]), r1.Y)


def direct_sum(x, z):
    """Componentwise block-diagonal direct sum of two tuples; levels add."""
    if x.d != z.d or x.base_n != z.base_n:
        raise ValueError("direct sum needs matching centre data: %r vs %r" % (x, z))
    comps = [scipy.linalg.block_diag(a, b) for a, b in zip(x.components, z.components)]
    return MatrixTuple(comps, x.base_n)


def all_words(d, max_len):
    """All words of length 0..max_len on the letters 1..d, as tuples, in
    length-then-lexicographic order."""
    words = level = [()]
    for _ in range(max_len):
        level = [w + (j,) for w in level for j in range(1, d + 1)]
        words = words + level
    return words


def series_transfer(r, x, terms):
    """The value of a descriptor or FM realization with (I - T)^{-1} replaced by
    I + T + ... + T^terms, summed term by term from T = ampliated_apply(A, H); a
    sparse T stays sparse.  Shares no code with the evaluation kernel."""
    h = deviation_from_centre(x, r.Y)
    eye = np.eye(x.level_m)
    fm = isinstance(r, FMRealization)
    t = ampliated_apply(r.A, h)
    term = total = ampliated_apply(r.B, h) if fm else np.kron(eye, r.c)
    for _ in range(terms):
        term = t @ term
        total = total + term
    if fm:
        return np.kron(eye, r.C) @ total + np.kron(eye, r.D)
    return np.kron(eye, np.conj(r.b).T) @ total


def scaled_by_degree(h, r):
    """The dilation of a Fock vector: every degree-l coefficient times r^l."""
    return TruncatedFockVector(h.n, h.d, h.L,
                               {k: v * (r ** len(k.omega)) for k, v in h.coeffs.items()})


def random_invertible(rng, size, spread=0.3):
    return np.eye(size, dtype=np.complex128) + cmat(rng, size, size, spread)


def point_near_centre(rng, y, m, eps):
    return ampliate(y, m) + unit_column_tuple(rng, y.base_n, m, y.d).scaled(eps)


def block_graph_depth(h):
    """The number of vertices on a longest path of the graph of the nonzero n x n
    blocks of a level-m tuple H, or None when it has a cycle: the smallest k whose
    k-th Boolean power of the graph vanishes, block by block."""
    n, m = h.base_n, h.level_m
    graph = np.array([[int(any(c[k * n:(k + 1) * n, l * n:(l + 1) * n].any()
                               for c in h.components)) for l in range(m)] for k in range(m)])
    power = np.eye(m, dtype=int)
    for k in range(1, m + 1):
        power = np.minimum(power @ graph, 1)
        if not power.any():
            return k
    return None


def word_sum_transfer(r, x, max_len):
    """Reference word-by-word evaluation of the truncated transfer series."""
    dev = deviation_from_centre(x, r.Y)
    m = x.level_m
    factors = []
    for j in range(1, r.d + 1):
        comps = [dev.components[k] if k == j - 1 else np.zeros_like(dev.components[k])
                 for k in range(r.d)]
        factors.append(ampliated_apply(r.A, MatrixTuple(comps, r.n)))
    eye = np.eye(m)
    bstar = np.kron(eye, np.conj(r.b).T)
    camp = np.kron(eye, r.c)
    total = np.zeros((m * r.n, m * r.n), dtype=np.complex128)
    for word in all_words(r.d, max_len):
        prod = np.eye(m * r.N, dtype=np.complex128)
        for letter in word:
            prod = prod @ factors[letter - 1]
        total += bstar @ prod @ camp
    return total


# ---------------------------------------------------------------------------
# random NC rational expressions
# ---------------------------------------------------------------------------

def random_expression_text(rng, d, depth):
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.7:
            return "x%d" % rng.integers(1, d + 1)
        return "%.2f" % rng.uniform(0.5, 2.5)
    roll = rng.uniform()
    a = random_expression_text(rng, d, depth - 1)
    if roll < 0.30:
        return "(%s + %s)" % (a, random_expression_text(rng, d, depth - 1))
    if roll < 0.50:
        return "(%s - %s)" % (a, random_expression_text(rng, d, depth - 1))
    if roll < 0.80:
        return "(%s)*(%s)" % (a, random_expression_text(rng, d, depth - 1))
    return "inv(%s + %.2f)" % (a, rng.uniform(0.8, 2.0))


def _inverse_conditioning(expr, x):
    """Smallest sigma_min over the inv(...) nodes of the AST, evaluated at x."""
    worst = np.inf
    if isinstance(expr, Inverse):
        val = eval_expression(expr.child, x)
        s = np.linalg.svd(val, compute_uv=False)
        worst = min(worst, float(s[-1]))
        worst = min(worst, _inverse_conditioning(expr.child, x))
    elif isinstance(expr, (Sum, Product)):
        for child in getattr(expr, "terms", getattr(expr, "factors", ())):
            worst = min(worst, _inverse_conditioning(child, x))
    elif isinstance(expr, Negate):
        worst = min(worst, _inverse_conditioning(expr.child, x))
    return worst


class CorpusItem:
    def __init__(self, text, expr, centre, fm):
        self.text = text
        self.expr = expr
        self.centre = centre
        self.fm = fm
        self._desc = None

    @property
    def desc(self):
        if self._desc is None:
            self._desc = fm_to_desc(self.fm)
        return self._desc

    def sample_points(self, rng, count, level_choices=(1, 2), eps0=0.2):
        """In-domain points where the expression evaluates as well."""
        pts = []
        guard = 0
        while len(pts) < count and guard < 400 * count:
            guard += 1
            m = int(rng.choice(level_choices))
            eps = eps0 * 0.5 ** rng.integers(0, 4)
            x = point_near_centre(rng, self.centre, m, eps)
            try:
                cond = _inverse_conditioning(self.expr, x)
            except SingularMatrixError:
                continue
            if cond < 1e-3:
                continue
            if not in_domain(self.desc, x):
                continue
            pts.append(x)
        if len(pts) < count:
            raise RuntimeError("could not sample enough in-domain points for %r"
                               % self.text)
        return pts


def build_corpus(seed, count, d=2, sizes=(1, 2, 3), max_depth=4):
    rng = np.random.default_rng(seed)
    items = []
    while len(items) < count:
        n = sizes[len(items) % len(sizes)]
        y = random_centre(rng, n, d)
        text = random_expression_text(rng, d, int(rng.integers(1, max_depth + 1)))
        try:
            expr = parse(text, d)
            if _inverse_conditioning(expr, ampliate(y, 1)) < 0.08:
                continue
            fm = realize_expression(expr, y)
        except (UndefinedAtCentreError, SingularMatrixError):
            continue
        if fm.N > 60 or np.linalg.norm(fm.D) > 50:
            continue
        if fm.N and (np.max(np.abs(fm.A.dense())) > 40
                     or np.max(np.abs(fm.B.dense())) > 40):
            continue
        items.append(CorpusItem(text, expr, y, fm))
    return items


@pytest.fixture(scope="session")
def nc_corpus():
    """The 200-expression corpus shared by the acceptance criteria."""
    return build_corpus(seed=20240817, count=200)
