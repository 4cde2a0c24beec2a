"""Seeded inputs for the benchmark and the reference computations that check them.

Nothing here imports ``ncreal``.  Every input comes with a way to compute the
right answer in plain numpy:

- :func:`expression` yields an NC rational expression as text for the
  ``ncreal`` parser and as a tree that :func:`eval_tree` evaluates directly
  (``np.kron`` for constants, ``np.linalg.solve`` for ``inv``);
- :func:`read_descriptor_json` and :func:`level1_value` evaluate
  b* (I - sum_j sum_pq H_j[p, q] A_j(E_pq))^{-1} c straight from a
  descriptor realization's JSON file;
- :func:`polynomial` yields an NC polynomial with its word/coefficient list
  for :func:`eval_polynomial`;
- :func:`equivalence_pair` builds two expressions whose equivalence is known
  from the identity (or the broken identity) used to build them.

The random choices are split in two.  A *shape* generator fixes the
structure (tree shape, letters, where inverses sit, polynomial words) and is
seeded by the workload's slot alone, so every seed does the same amount of
work.  The workload seed draws the numbers: centres, constants, points.
"""

import json

import numpy as np

# Constants are printed with this many decimals; the tree keeps the value the
# parser reads back from the same text.
_DECIMALS = 6
# Spectral norm of every centre component.
CENTRE_NORM = 0.9
# Chance that a tree node is wrapped as inv(node + c).
P_INV = 0.25


def cmat(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def centre(rng, n, d):
    """d random complex n x n matrices, each of spectral norm CENTRE_NORM."""
    comps = []
    for _ in range(d):
        c = cmat(rng, n, n)
        comps.append(c * (CENTRE_NORM / np.linalg.norm(c, 2)))
    return comps


def _const(value):
    text = "%.*f" % (_DECIMALS, value)
    return ("const", float(text))


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------
# ("var", k) | ("const", c) | ("add", a, b) | ("sub", a, b) | ("mul", a, b)
# | ("inv", a): the inverse of a, where a always ends in "+ constant".

def text(node):
    kind = node[0]
    if kind == "var":
        return "x%d" % node[1]
    if kind == "const":
        return "%.*f" % (_DECIMALS, node[1])
    if kind == "inv":
        return "inv(%s)" % text(node[1])
    a, b = text(node[1]), text(node[2])
    if kind == "add":
        return "(%s + %s)" % (a, b)
    if kind == "sub":
        return "(%s - %s)" % (a, b)
    return "(%s)*(%s)" % (a, b)


def eval_tree(node, comps, n):
    """The expression at the point X given by its component matrices."""
    side = comps[0].shape[0]
    kind = node[0]
    if kind == "var":
        return comps[node[1] - 1]
    if kind == "const":
        return np.kron(np.eye(side // n), node[1] * np.eye(n))
    if kind == "inv":
        return np.linalg.solve(eval_tree(node[1], comps, n), np.eye(side))
    a, b = eval_tree(node[1], comps, n), eval_tree(node[2], comps, n)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    return a @ b


def shift_inverse(node, y, n):
    """inv(node + c), with c chosen so that sigma_min(node(Y) + c) >= 1."""
    c = 1.0 + float(np.linalg.norm(eval_tree(node, y, n), 2))
    return ("inv", ("add", node, _const(np.ceil(c * 100.0) / 100.0)))


def tree(shape, leaves, d, y, n, letters=None):
    """A random tree with exactly ``leaves`` variable leaves.

    ``shape`` draws the structure; the constants follow from the centre Y.

    Leaves are drawn from ``letters`` (default: all of 1..d).  Its FM
    realization has state dimension n * leaves: constants carry no state and
    inverses keep it.  A difference of two identical subtrees, which would
    be the zero function, is built as a sum instead.
    """
    letters = tuple(range(1, d + 1)) if letters is None else letters
    if leaves == 1:
        node = ("var", int(shape.choice(letters)))
    else:
        left = int(shape.integers(1, leaves))
        a = tree(shape, left, d, y, n, letters)
        b = tree(shape, leaves - left, d, y, n, letters)
        roll = shape.uniform()
        if roll < 0.5:
            node = ("mul", a, b)
        elif roll < 0.8 or a == b:
            node = ("add", a, b)
        else:
            node = ("sub", a, b)
    if shape.uniform() < P_INV:
        node = shift_inverse(node, y, n)
    return node


def expression(shape, leaves, d, y, n):
    """(text, tree) of a random expression with ``leaves`` variable leaves."""
    node = tree(shape, leaves, d, y, n)
    return text(node), node


# ---------------------------------------------------------------------------
# equivalence pairs
# ---------------------------------------------------------------------------

PAIR_KINDS = (
    # (name, equivalent)
    ("distributivity", True),
    ("push-through", True),
    ("double-inverse", True),
    ("swapped-factors", False),
    ("push-through-wrong-order", False),
    ("perturbed-constant", False),
)


def equivalence_pair(shape, kind, leaves, d, y, n):
    """Two trees whose equivalence is fixed by ``kind`` (see PAIR_KINDS).

    ``leaves`` is the leaf count of each sub-expression the identity
    combines.  Where the answer rests on a and b not commuting, a is built
    over x1 alone and b over x2 alone: non-constant functions of two
    different free variables never commute.
    """
    def sub(letters=None):
        return tree(shape, leaves, d, y, n, letters)

    if kind == "distributivity":
        a, b, c = sub(), sub(), sub()
        return ("mul", a, ("add", b, c)), ("add", ("mul", a, b), ("mul", a, c))
    if kind in ("push-through", "push-through-wrong-order"):
        a, b = sub((1,)), sub((2,))
        left = ("mul", shift_inverse(("mul", a, b), y, n), a)
        if kind == "push-through":
            # (c + ab)^{-1} a = a (c + ba)^{-1}, with the same scalar c
            const = left[1][1][2]
            return left, ("mul", a, ("inv", ("add", ("mul", b, a), const)))
        return left, ("mul", a, left[1])
    if kind == "double-inverse":
        f = sub()
        return ("inv", ("inv", f)), f
    if kind == "swapped-factors":
        a, b = sub((1,)), sub((2,))
        return ("mul", a, b), ("mul", b, a)
    if kind == "perturbed-constant":
        f = shift_inverse(("mul", sub(), sub()), y, n)
        inner, const = f[1][1], f[1][2]
        return f, ("inv", ("add", inner, _const(const[1] * (1.0 + 1e-3))))
    raise ValueError("unknown pair kind %r" % kind)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def polynomial(shape, rng, d, degree, terms):
    """(text, [(coefficient, word)]) of an NC polynomial of degree ``degree``.

    ``shape`` draws the words: the first has full degree, the others random
    degree 0..degree.  ``rng`` draws the coefficients.
    """
    out = []
    for t in range(terms):
        ell = degree if t == 0 else int(shape.integers(0, degree + 1))
        word = tuple(int(k) for k in shape.integers(1, d + 1, size=ell))
        coef = _const(rng.uniform(0.25, 2.0))[1]
        out.append((coef, word))
    parts = []
    for coef, word in out:
        factors = ["%.*f" % (_DECIMALS, coef)] + ["x%d" % k for k in word]
        parts.append("*".join(factors))
    return " + ".join(parts), out


def eval_polynomial(poly, comps):
    side = comps[0].shape[0]
    acc = np.zeros((side, side), dtype=np.complex128)
    for coef, word in poly:
        term = coef * np.eye(side, dtype=np.complex128)
        for k in word:
            term = term @ comps[k - 1]
        acc += term
    return acc


# ---------------------------------------------------------------------------
# points and reference evaluation of realization files
# ---------------------------------------------------------------------------

def unit_sum_norm(units):
    """sum of the spectral norms of the coefficient matrices A_j(E_pq).

    For a deviation H of column norm h the ampliated image
    sum_j (id_m (x) A_j)(H_j) has norm at most h times this sum.
    """
    return float(sum(np.linalg.norm(u, 2) for u in units))


def point_near(rng, y, m, radius):
    """Components of I_m (x) Y + H with H random of column norm ``radius``."""
    side = m * y[0].shape[0]
    h = [cmat(rng, side, side) for _ in y]
    scale = radius / np.linalg.norm(np.vstack(h), 2)
    return [np.kron(np.eye(m), yj) + scale * hj for yj, hj in zip(y, h)]


def _complex_list(flat):
    return np.array([complex(re, im) for re, im in flat])


def read_descriptor_json(path):
    """(units, b, c, Y) of a descriptor realization file, read without ncreal.

    ``units`` has shape (d, n, n, N, N) with units[j, p, q] = A_{j+1}(E_pq).
    """
    with open(path) as fh:
        obj = json.load(fh)
    if obj["kind"] != "descriptor":
        raise ValueError("expected a descriptor realization, got %r" % obj["kind"])
    amap = obj["A"]
    d, n, big_n = amap["d"], amap["n"], amap["N"]
    units = np.empty((d, n, n, big_n, big_n), dtype=np.complex128)
    for j in range(d):
        for p in range(n):
            for q in range(n):
                units[j, p, q] = _complex_list(amap["coeffs"][j][p][q]).reshape(big_n, big_n)
    b = _complex_list(obj["b"]).reshape(big_n, n)
    c = _complex_list(obj["c"]).reshape(big_n, n)
    ycomps = [_complex_list(flat).reshape(n, n) for flat in obj["Y"]["components"]]
    return units, b, c, ycomps


def level1_value(units, b, c, ycomps, x):
    """b* (I - sum_j sum_pq H_j[p, q] A_j(E_pq))^{-1} c at a level-1 point X."""
    d, n = units.shape[0], units.shape[1]
    big_n = b.shape[0]
    t = np.zeros((big_n, big_n), dtype=np.complex128)
    for j in range(d):
        h = x[j] - ycomps[j]
        t += np.einsum("pq,pqrs->rs", h, units[j])
    return np.conj(b).T @ np.linalg.solve(np.eye(big_n) - t, c)


def rel_err(value, ref):
    value = np.asarray(value)
    return float(np.linalg.norm(value - ref) / max(np.linalg.norm(ref), 1e-300))
